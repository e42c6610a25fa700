"""Config validation, CSV emission, manifests, and exit codes of the batch CLI."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityssh import (
    BelowThresholdError,
    CavityParams,
    ConfigInvalidError,
    FrequencyGrid,
    GaplessPointError,
    InteractionKernel,
    SshParams,
    ThermalState,
    __version__,
    band_edge_params,
    band_energies,
    band_gap,
    bloch_phase,
    dipole,
    dressed_propagator,
    entropy_scan,
    gamma4_direct_grid,
    gamma4_stationary,
    hopfield_branches,
    kerr_scan,
    output_state,
    zak_phase,
)
from cavityssh import config, handlers, numerics
from cavityssh.cli import main
from cavityssh.config import _SECTIONS, COMMANDS, RunConfig, parse_config
from cavityssh.output import write_csv
from reference import dressed_bands, keldysh_green, occupation, photon_self_energy, sigma_matrix

BANDS_DOC = {
    "model": {"t1": 1.0, "t2": 1.5},
    "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
}

SPECTRUM_DOC = {
    "command": "spectrum",
    "model": {"t1": 1.0, "t2": 1.5},
    "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
    "grids": {
        "n_k": 512,
        "omega": {"start": 0.7, "stop": 1.3, "count": 24},
        "q": {"start": -1.0, "stop": 1.0, "count": 9},
    },
}


KELDYSH_DOC = {
    "command": "keldysh",
    "model": {"t1": 1.0, "t2": 1.5},
    "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
    "thermal": {"temperature": 0.1},
    "grids": {
        "n_k": 512,
        "omega": {"start": 0.6, "stop": 1.5, "count": 7},
        "q": {"start": -1.0, "stop": 2.0, "count": 5},
    },
}


def write_doc(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, doc, command, out="out", extra=()):
    config = write_doc(tmp_path, doc)
    out_dir = tmp_path / out
    code = main([command, "--config", config, "--out", str(out_dir), *extra])
    return code, out_dir


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- configuration


def test_parse_config_fills_documented_defaults():
    cfg = parse_config({"model": {"t1": 1.0, "t2": 1.5}}, "dressed-bands")
    assert cfg.command == "dressed-bands"
    assert cfg.cavity.omega_c == 1.0  # 2|t1 - t2|
    assert cfg.cavity.mass_beta == 0.5
    assert cfg.cavity.eta == 0.01
    assert cfg.cavity.g == 1.0
    assert cfg.n_k == 4096
    assert cfg.params["n_points"] == 256
    # the zone commands run at the same n_k when grids.n_k is left out
    for command, params in (("kerr-scan", {"r_values": [0.5]}), ("zak", {})):
        doc = {"model": {"t1": 1.0, "t2": 1.5}, "params": params}
        assert parse_config(doc, command).n_k == 4096


def test_parse_config_derives_hopfield_defaults():
    doc = {
        "model": {"t1": 1.0, "t2": 0.7},
        "cavity": {"omega_c": 1.0, "g": 0.3},
        "grids": {"q": {"start": -1.0, "stop": 1.0, "count": 5}},
    }
    cfg = parse_config(doc, "hopfield")
    assert cfg.params["g"] == 0.3  # cavity.g
    assert cfg.params["delta_pi"] == 2.0 * abs(1.0 - 0.7)  # gap at k = pi
    doc["params"] = {"g": 0.05, "delta_pi": 0.9}
    assert parse_config(doc, "hopfield").params == {"g": 0.05, "delta_pi": 0.9}


def exactly(message):
    """A `pytest.raises(match=...)` pattern for exactly `message`."""
    return f"^{re.escape(message)}$"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigInvalidError, match=exactly("unknown key(s) in config: extra")):
        parse_config({"model": {"t1": 1.0, "t2": 1.5}, "extra": {}}, "bands")
    with pytest.raises(ConfigInvalidError, match=exactly("unknown key(s) in model: t3")):
        parse_config({"model": {"t1": 1.0, "t2": 1.5, "t3": 0.1}}, "bands")
    with pytest.raises(ConfigInvalidError, match=exactly("unknown key(s) in params: bogus")):
        parse_config(
            {"model": {"t1": 1.0, "t2": 1.5}, "params": {"n_points": 10, "bogus": 1}},
            "bands",
        )


def test_parse_config_rejects_command_mismatch():
    with pytest.raises(ConfigInvalidError, match=exactly(
            "config declares command 'spectrum' but 'bands' was invoked")):
        parse_config(dict(SPECTRUM_DOC), "bands")


def test_parse_config_type_discipline():
    with pytest.raises(ConfigInvalidError, match=exactly("model.t1 must be a number, got '1.0'")):
        parse_config({"model": {"t1": "1.0", "t2": 1.5}}, "bands")
    with pytest.raises(ConfigInvalidError, match=exactly("model.t1 must be a number, got True")):
        parse_config({"model": {"t1": True, "t2": 1.5}}, "bands")
    doc = json.loads(json.dumps(SPECTRUM_DOC))
    doc["grids"]["n_k"] = 512.5
    with pytest.raises(ConfigInvalidError,
                       match=exactly("grids.n_k must be an integer, got 512.5")):
        parse_config(doc, "spectrum")
    doc = json.loads(json.dumps(SPECTRUM_DOC))
    doc["grids"]["omega"]["count"] = 1
    with pytest.raises(ConfigInvalidError, match=exactly(
            "grids.omega: grid needs at least 2 samples, got 1")):
        parse_config(doc, "spectrum")


def test_parse_config_requires_command_grids():
    # spectrum needs both frequency and momentum grids
    with pytest.raises(ConfigInvalidError,
                       match=exactly("command 'spectrum' requires grids.omega")):
        parse_config({"model": {"t1": 1.0, "t2": 1.5}}, "spectrum")
    # kerr-scan needs the ratio list, biphoton its pump
    with pytest.raises(ConfigInvalidError, match=exactly("params.r_values is required")):
        parse_config({"model": {"t1": 1.0, "t2": 1.5}}, "kerr-scan")
    with pytest.raises(ConfigInvalidError, match=exactly("params.omega0 is required")):
        parse_config(
            {
                "model": {"t1": 1.0, "t2": 0.8},
                "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 32}},
            },
            "biphoton",
        )


def test_parse_config_keldysh_needs_positive_frequencies():
    doc = {
        "model": {"t1": 1.0, "t2": 1.5},
        "cavity": {"omega_c": 2.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
        "thermal": {"temperature": 0.5},
        "grids": {
            "omega": {"start": -0.5, "stop": 3.0, "count": 16},
            "q": {"start": 0.0, "stop": 1.0, "count": 3},
        },
    }
    with pytest.raises(ConfigInvalidError, match=exactly(
            "keldysh requires a strictly positive frequency grid (occupation is thermal), "
            "got start = -0.5")):
        parse_config(doc, "keldysh")


def test_preset_configs_parse():
    presets = {
        "fig2a.json": "spectrum",
        "fig2b.json": "spectrum",
        "fig4.json": "kerr-scan",
        "fig5c.json": "schmidt-scan",
    }
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name, command in presets.items():
        with open(os.path.join(root, name)) as fh:
            parse_config(json.load(fh), command)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4,
)
# plausible leaves too, so that some documents build a config
JSON = (JSON | st.floats(0.01, 4.0) | st.integers(64, 256)
        | st.lists(st.floats(0.01, 4.0), min_size=1, max_size=3))


def json_object(keys, **values):
    """Any JSON value, or (three times as likely) an object over some of `keys`,
    each holding any JSON value unless `values` gives its strategy."""
    fields = st.fixed_dictionaries({}, optional={key: values.get(key, JSON) for key in keys})
    return st.one_of(fields, fields, fields, JSON)


GRID = json_object(("start", "stop", "count"))
SECTIONS = {
    "command": JSON | st.sampled_from(list(COMMANDS)),
    "model": json_object(("t1", "t2")),
    **{name: json_object(defaults) for name, (_, defaults) in _SECTIONS.items()},
    "grids": json_object(("n_k", "n_k2d", "omega", "q"), omega=GRID, q=GRID),
    "params": json_object(sorted({key for spec in COMMANDS.values() for key in spec.params})),
}
# half the documents carry a model and no declared command, so that some build
DOCUMENT = st.fixed_dictionaries({}, optional=SECTIONS) | st.fixed_dictionaries(
    {"model": st.fixed_dictionaries({"t1": JSON, "t2": JSON})},
    optional={key: value for key, value in SECTIONS.items() if key not in ("command", "model")},
)


@settings(max_examples=300, deadline=None)
@given(document=DOCUMENT, command=st.sampled_from(list(COMMANDS)))
def test_parse_config_builds_or_rejects_any_document(document, command):
    try:
        cfg = parse_config(document, command)
    except ConfigInvalidError:
        return
    assert isinstance(cfg, RunConfig) and cfg.command == command


# ---------------------------------------------------------------------- output


def test_write_csv_newline_discipline(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, "a,b", ([1.0, 0.5], [2, 3]))
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2"


# ------------------------------------------------------------------- end to end


def test_bands_run_produces_csv_and_manifest(tmp_path):
    code, out_dir = run_cli(tmp_path, BANDS_DOC, "bands")
    assert code == 0
    table = np.genfromtxt(out_dir / "bands.csv", delimiter=",", names=True)
    assert table.dtype.names == ("k", "gap", "eps_v", "eps_c", "mu", "theta")
    assert table.shape == (256,)
    assert np.all(table["gap"] > 0)

    manifest = read_manifest(out_dir)
    assert manifest["command"] == "bands"
    assert manifest["version"] == __version__
    assert manifest["config"]["model"]["t2"] == 1.5
    (entry,) = [e for e in manifest["outputs"] if e["file"] == "bands.csv"]
    digest = hashlib.sha256(open(out_dir / "bands.csv", "rb").read()).hexdigest()
    assert entry["sha256"] == digest
    assert entry["bytes"] == os.path.getsize(out_dir / "bands.csv")


@pytest.mark.parametrize("numpy_first", [False, True])
def test_manifest_records_the_blas_idle_policy(tmp_path, numpy_first):
    """A CLI child sets OPENBLAS_THREAD_TIMEOUT before numpy loads; a process
    that imported numpy first (the in-process bench and test runs) reads
    false, because OpenBLAS has already read its environment."""
    config = write_doc(tmp_path, {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 64}})
    argv = ["zak", "--config", config, "--out", str(tmp_path / "out")]
    code = f"import sys\nfrom cavityssh.cli import main\nsys.exit(main({argv!r}))"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_THREAD_TIMEOUT"}
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", ("import numpy\n" if numpy_first else "") + code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert read_manifest(tmp_path / "out")["blas"] == {
        "openblas_thread_timeout": "4", "set_before_numpy": not numpy_first,
    }


@pytest.mark.parametrize("command, doc", [
    ("saddle", {"kernel": {"zeta": 10.0}, "grids": {"omega": {
        "start": 1.8, "stop": 2.3, "count": 6}}}),
    ("biphoton", {"kernel": {"zeta": 1.7}, "grids": {"omega": {
        "start": 1.5, "stop": 2.5, "count": 24}}, "params": {"omega0": 2.0, "sigma": 0.1}}),
    ("schmidt-scan", {"grids": {"omega": {"start": 1.5, "stop": 2.5, "count": 24}},
                      "params": {"omega0": 2.0, "sigma": 0.1, "zeta_values": [0.0, 2.0]}}),
])
def test_flat_band_edge_exits_3_without_a_traceback(tmp_path, command, doc):
    """At t2 = 0 the gap is flat and q*(omega) does not exist: each band-edge
    command fails cleanly, with no traceback or numpy warning on stderr."""
    config = write_doc(tmp_path, {"model": {"t1": 1.0, "t2": 0.0}, **doc})
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "cavityssh.cli", command, "--config", config,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 3, result.stderr
    assert read_manifest(tmp_path / "out")["error"]["type"] == "CriticalPointError"
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


def run_entry(tmp_path, *argv, before=""):
    """`python -m cavityssh.cli *argv` in a child, or, with `before`, that code
    and then the module run as __main__ the way -m runs it."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if before:
        code = f"{before}\nimport runpy\nrunpy.run_module('cavityssh.cli', run_name='__main__')"
        head = ["-c", code]
    else:
        head = ["-m", "cavityssh.cli"]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True,
                          timeout=120, env=env, cwd=tmp_path)


def test_module_entry_keeps_every_file_and_stderr_line(tmp_path):
    """The entry ends with os._exit: the --verbose lines still reach stderr,
    and the manifest's checksums and sizes are those of the files on disk."""
    config = write_doc(tmp_path, SPECTRUM_DOC)
    out_dir = tmp_path / "out"
    result = run_entry(tmp_path, "spectrum", "--config", config, "--out", str(out_dir),
                       "--verbose")
    assert result.returncode == 0, result.stderr
    manifest = read_manifest(out_dir)
    assert [entry["file"] for entry in manifest["outputs"]] == ["spectrum.csv"]
    assert result.stderr == f"spectral map 24 x 9 at n_k=512\nwrote {out_dir / 'spectrum.csv'}\n"
    for entry in manifest["outputs"]:
        data = (out_dir / entry["file"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)
    assert sorted(os.listdir(out_dir)) == ["manifest.json", "spectrum.csv"]


def test_module_entry_exit_codes(tmp_path):
    """0 ok, 2 invalid config, 3 computation failed with its traceback on
    stderr, 4 I/O; argparse errors still exit 2 through SystemExit."""
    config = write_doc(tmp_path, {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 64}})
    ok = run_entry(tmp_path, "zak", "--config", config, "--out", "ok")
    assert (ok.returncode, ok.stderr) == (0, "")
    assert read_manifest(tmp_path / "ok")["outputs"][0]["file"] == "zak.csv"

    bad = write_doc(tmp_path, {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 10}}, "bad.json")
    invalid = run_entry(tmp_path, "zak", "--config", bad, "--out", "bad")
    assert invalid.returncode == 2
    assert invalid.stderr == "config error: grids.n_k must be >= 64, got 10\n"

    usage = run_entry(tmp_path, "interpolate", "--config", config)
    assert usage.returncode == 2
    assert "invalid choice: 'interpolate'" in usage.stderr

    # a file where the output directory should be
    (tmp_path / "taken").write_text("")
    unwritable = run_entry(tmp_path, "zak", "--config", config, "--out", "taken")
    assert unwritable.returncode == 4
    assert unwritable.stderr.startswith("output error: ")

    # with the parse-time budget lifted, numpy refuses the vertex kernel
    vertex = write_doc(tmp_path, OVERSIZED_VERTEX, "vertex.json")
    failed = run_entry(tmp_path, "vertex", "--config", vertex, "--out", "failed",
                       before="import cavityssh.config\ncavityssh.config.MAX_ARRAY_BYTES = 1 << 62")
    assert failed.returncode == 3
    assert failed.stderr.startswith("computation failed: MemoryError: Unable to allocate")
    assert "Traceback (most recent call last):" in failed.stderr
    assert "Unable to allocate" in failed.stderr.rstrip().splitlines()[-1]  # the traceback's end
    assert read_manifest(tmp_path / "failed")["error"]["type"] == "MemoryError"


def test_in_process_main_leaves_the_collector_on(tmp_path):
    """Only the module entry turns the collector off; main() called by a test
    or by the benchmark's traced pass does not."""
    assert gc.isenabled()
    code, _ = run_cli(tmp_path, {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 64}}, "zak")
    assert code == 0
    assert gc.isenabled()


def test_bands_at_the_gap_closure_writes_its_csv(tmp_path):
    """t1 = t2 needs no cavity: the defaulted omega_c = 2|t1 - t2| = 0 is never
    built, and the dipole and Bloch phase read nan where the gap closes."""
    code, out_dir = run_cli(tmp_path, {"model": {"t1": 1.0, "t2": 1.0}}, "bands")
    assert code == 0
    table = np.genfromtxt(out_dir / "bands.csv", delimiter=",", names=True)
    assert table.shape == (256,)
    closed = np.isnan(table["mu"])
    assert np.array_equal(closed, np.isnan(table["theta"]))
    assert np.flatnonzero(closed).tolist() == [0, 255]  # k = -pi and pi
    assert np.all(table["gap"][closed] == 0.0)
    assert np.all(np.isfinite(table["mu"][~closed]))
    assert read_manifest(out_dir)["metadata"]["gapless_points"] == 2


def test_parse_config_builds_only_the_sections_a_command_reads():
    doc = {
        "model": {"t1": 1.0, "t2": 1.0},
        "cavity": {"eta": 0.0},
        "kernel": {"zeta": -1.0},
        "thermal": {"temperature": -1.0},
    }
    cfg = parse_config(doc, "bands")
    assert cfg.cavity is None and cfg.kernel is None and cfg.thermal is None
    with pytest.raises(ConfigInvalidError, match="cavity"):
        parse_config(doc, "dressed-bands")
    # a section the command ignores is still checked for unknown keys
    with pytest.raises(ConfigInvalidError, match="unknown key"):
        parse_config({"model": {"t1": 1.0, "t2": 1.5}, "cavity": {"omgea_c": 1.0}}, "bands")


def test_zak_run_reports_both_phases(tmp_path):
    for t2, expected in ((1.5, np.pi), (0.75, 0.0)):
        code, out_dir = run_cli(tmp_path, {"model": {"t1": 1.0, "t2": t2}}, "zak", out=f"out{t2}")
        assert code == 0
        table = np.genfromtxt(out_dir / "zak.csv", delimiter=",", names=True)
        assert abs(float(table["zak"]) - expected) < 1e-6


def test_spectrum_run_is_deterministic_across_threads(tmp_path):
    digests = set()
    for i, threads in enumerate((1, 3, 8)):
        code, out_dir = run_cli(
            tmp_path, SPECTRUM_DOC, "spectrum", out=f"out{i}",
            extra=("--threads", str(threads)),
        )
        assert code == 0
        digests.add(hashlib.sha256(open(out_dir / "spectrum.csv", "rb").read()).hexdigest())
    assert len(digests) == 1


def test_spectrum_rows_are_row_major_in_omega(tmp_path):
    code, out_dir = run_cli(tmp_path, SPECTRUM_DOC, "spectrum")
    assert code == 0
    table = np.genfromtxt(out_dir / "spectrum.csv", delimiter=",", names=True)
    assert table.shape == (24 * 9,)
    # omega outer, q inner
    assert np.all(np.diff(table["omega"][:9]) == 0)
    assert np.all(np.diff(table["q"][:9]) > 0)


def format_cell_csv(first_line, rows):
    """The bytes of a CSV: the first line, then one line per row whose numbers
    print as format(x, ".17g") (True and False as 1 and 0) and text verbatim."""
    lines = [first_line] + [
        ",".join(cell if isinstance(cell, str) else format(cell, ".17g") for cell in row)
        for row in rows
    ]
    return ("\n".join(lines) + "\n").encode()


def test_keldysh_csv_equals_the_pointwise_rows(tmp_path):
    code, out_dir = run_cli(tmp_path, KELDYSH_DOC, "keldysh")
    assert code == 0
    p, th = SshParams(1.0, 1.5), ThermalState(0.1)
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=0.01)
    rows = []
    for w in np.linspace(0.6, 1.5, 7):
        w = float(w)
        sigma = photon_self_energy(w, p, c, n_k=512)
        for q in np.linspace(-1.0, 2.0, 5):
            q = float(q)
            g_k = keldysh_green(w, q, c, th, sigma)
            a = -dressed_propagator(w, q, c, sigma).imag / np.pi
            rows.append((w, q, g_k.real, g_k.imag, a, occupation(w, q, c, th, sigma)))
    expected = format_cell_csv("omega,q,ReGK,ImGK,A,n", rows)
    assert (out_dir / "keldysh.csv").read_bytes() == expected


@pytest.mark.parametrize("onshell", [True, False])
def test_dressed_bands_csv_equals_the_pointwise_rows(tmp_path, onshell):
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
        "params": {"n_points": 33, "onshell": onshell, "omega": 0.4},
    }
    code, out_dir = run_cli(tmp_path, doc, "dressed-bands")
    assert code == 0
    p = SshParams(1.0, 0.5)
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=0.01)
    rows = []
    for k in np.linspace(-np.pi, np.pi, 33):
        k = float(k)
        omega = 0.5 * float(band_gap(k, p)) if onshell else 0.4
        sigma_cv = sigma_matrix(k, omega, p, c).sigma_cv
        bands = dressed_bands(k, omega, p, c)
        rows.append((k, omega, sigma_cv.real, sigma_cv.imag, bands.e_plus, bands.e_minus))
    expected = format_cell_csv("k,omega,ReScv,ImScv,Eplus,Eminus", rows)
    assert (out_dir / "dressed_bands.csv").read_bytes() == expected


@pytest.mark.parametrize("t2", [1.5, 1.0])
def test_bands_csv_equals_the_pointwise_rows(tmp_path, t2):
    """Gapped, and at t1 = t2, where the gap closes at k = -pi and pi and the
    dipole and Bloch phase read nan."""
    doc = {"model": {"t1": 1.0, "t2": t2}, "params": {"n_points": 1001}}
    code, out_dir = run_cli(tmp_path, doc, "bands")
    assert code == 0
    p = SshParams(1.0, t2)
    rows, gapless = [], 0
    for k in np.linspace(-np.pi, np.pi, 1001):
        k = float(k)
        e_v, e_c = band_energies(k, p)
        try:
            mu, theta = float(dipole(k, p)), float(bloch_phase(k, p))
        except GaplessPointError:
            gapless += 1
            mu = theta = float("nan")
        rows.append((k, float(band_gap(k, p)), float(e_v), float(e_c), mu, theta))
    expected = format_cell_csv("k,gap,eps_v,eps_c,mu,theta", rows)
    assert (out_dir / "bands.csv").read_bytes() == expected
    assert gapless == (2 if t2 == 1.0 else 0)
    assert read_manifest(out_dir)["metadata"]["gapless_points"] == gapless


def test_hopfield_csv_equals_the_pointwise_rows(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "cavity": {"omega_c": 1.0, "mass_beta": 0.7, "g": 1.0, "eta": 0.01},
        "grids": {"q": {"start": -2.0, "stop": 2.0, "count": 101}},
        "params": {"g": 0.3},
    }
    code, out_dir = run_cli(tmp_path, doc, "hopfield")
    assert code == 0
    rows = []
    for q in np.linspace(-2.0, 2.0, 101):
        lower, upper = hopfield_branches(float(q), 0.3, 0.7, 1.0)
        rows.append((float(q), float(lower), float(upper)))
    expected = format_cell_csv("q,lower,upper", rows)
    assert (out_dir / "hopfield.csv").read_bytes() == expected


def test_vertex_csv_equals_the_grid_rows(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
        "kernel": {"v0": 1.3, "zeta": 0.7},
        "grids": {"n_k2d": 100, "omega": {"start": 0.6, "stop": 1.4, "count": 7}},
    }
    code, out_dir = run_cli(tmp_path, doc, "vertex")
    assert code == 0
    omegas = np.linspace(0.6, 1.4, 7)
    grid = gamma4_direct_grid(
        omegas, SshParams(1.0, 0.5), CavityParams(1.0, 0.5, 1.0, 0.01),
        InteractionKernel(1.3, 0.7), 100,
    )
    rows = [
        (float(w1), float(w2), grid[i, j].real, grid[i, j].imag, "direct")
        for i, w1 in enumerate(omegas) for j, w2 in enumerate(omegas)
    ]
    expected = format_cell_csv("omega1,omega2,ReG4,ImG4,method", rows)
    assert (out_dir / "gamma4.csv").read_bytes() == expected


def test_biphoton_csvs_equal_the_library_output(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "kernel": {"v0": 1.3, "zeta": 1.7},
        "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 24}},
        "params": {"omega0": 1.0, "sigma": 0.1},
    }
    code, out_dir = run_cli(tmp_path, doc, "biphoton")
    assert code == 0
    grid, edge = FrequencyGrid(0.6, 1.4, 24), band_edge_params(SshParams(1.0, 0.5))
    out = output_state(grid, 1.0, 0.1, edge, InteractionKernel(1.3, 1.7))
    comment = "# |psi_out|^2 at zeta=1.7 on omega grid start=0.6 stop=1.4 count=24"
    expected = format_cell_csv(comment, (np.abs(out) ** 2).tolist())
    assert (out_dir / "biphoton_out.csv").read_bytes() == expected
    (row,) = entropy_scan([1.7], grid, 1.0, 0.1, edge, v0=1.3)
    expected = format_cell_csv(
        "zeta,S_nats,S_bits,lambda0,lambda1,lambda2,lambda3,ratio_fit,fit_r2",
        [(row.zeta, row.entropy_nats, row.entropy_bits, *row.leading,
          row.ratio_fit, row.fit_r2)],
    )
    assert (out_dir / "schmidt.csv").read_bytes() == expected


def test_saddle_below_threshold_rows_marked(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "kernel": {"v0": 1.0, "zeta": 10.0},
        "grids": {"omega": {"start": 0.8, "stop": 1.3, "count": 6}},
    }
    code, out_dir = run_cli(tmp_path, doc, "saddle")
    assert code == 0
    # the trailing method column is text; genfromtxt maps it to nan, which is fine
    table = np.genfromtxt(out_dir / "gamma4.csv", delimiter=",", names=True)
    below = np.isnan(table["ReG4"])
    assert below.any() and (~below).any()
    manifest = read_manifest(out_dir)
    assert manifest["metadata"]["below_threshold_points"] > 0


def test_schmidt_scan_run_matches_library(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 0.8},
        "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 64}},
        "params": {"omega0": 1.0, "sigma": 0.1, "zeta_values": [0.0, 2.0]},
    }
    code, out_dir = run_cli(tmp_path, doc, "schmidt-scan")
    assert code == 0
    table = np.genfromtxt(out_dir / "schmidt_scan.csv", delimiter=",", names=True)
    assert table.shape == (2,)
    assert table["S_nats"][1] > table["S_nats"][0]


def test_zak_csv_equals_the_library_phase(tmp_path):
    doc = {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 256}}
    code, out_dir = run_cli(tmp_path, doc, "zak")
    assert code == 0
    expected = format_cell_csv("t1,t2,zak", [(1.0, 1.5, zak_phase(SshParams(1.0, 1.5), n_k=256))])
    assert (out_dir / "zak.csv").read_bytes() == expected


def test_saddle_csv_equals_the_stationary_values(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.02},
        "kernel": {"v0": 1.3, "zeta": 10.0},
        "grids": {"omega": {"start": 0.8, "stop": 1.3, "count": 6}},
    }
    code, out_dir = run_cli(tmp_path, doc, "saddle")
    assert code == 0
    kern, edge = InteractionKernel(1.3, 10.0), band_edge_params(SshParams(1.0, 0.5))
    nan, rows = float("nan"), []
    for w1 in np.linspace(0.8, 1.3, 6):
        for w2 in np.linspace(0.8, 1.3, 6):
            w1, w2 = float(w1), float(w2)
            try:
                value = gamma4_stationary(w1, w2, kern, edge, 0.02)
                rows.append((w1, w2, value.real, value.imag, "stationary"))
            except BelowThresholdError:
                rows.append((w1, w2, nan, nan, "stationary"))
    below = sum(np.isnan(row[2]) for row in rows)
    assert 0 < below < len(rows)
    expected = format_cell_csv("omega1,omega2,ReG4,ImG4,method", rows)
    assert (out_dir / "gamma4.csv").read_bytes() == expected
    assert read_manifest(out_dir)["metadata"]["below_threshold_points"] == below


def test_schmidt_scan_csv_equals_the_library_rows(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 0.8},
        "kernel": {"v0": 1.3},
        "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 40}},
        "params": {"omega0": 1.0, "sigma": 0.1, "zeta_values": [0.0, 2.0, 7.5]},
    }
    code, out_dir = run_cli(tmp_path, doc, "schmidt-scan")
    assert code == 0
    edge = band_edge_params(SshParams(1.0, 0.8))
    scan = entropy_scan([0.0, 2.0, 7.5], FrequencyGrid(0.6, 1.4, 40), 1.0, 0.1, edge, v0=1.3)
    rows = [(row.zeta, row.entropy_nats, row.entropy_bits, *row.leading,
             row.ratio_fit, row.fit_r2) for row in scan]
    expected = format_cell_csv(
        "zeta,S_nats,S_bits,lambda0,lambda1,lambda2,lambda3,ratio_fit,fit_r2", rows
    )
    assert (out_dir / "schmidt_scan.csv").read_bytes() == expected


def test_kerr_csv_equals_the_scan_rows_with_unconverged_ones(tmp_path, monkeypatch):
    """Two Newton steps converge the lower ratios at g = 0.05 but not the upper
    ones; an unconverged row prints nan fits and converged = 0, and the
    manifest's metadata records its Newton steps and last residual."""
    monkeypatch.setattr(numerics, "NEWTON_MAX_STEPS", 2)
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "cavity": {"mass_beta": 0.5, "g": 0.05, "eta": 0.001},
        "grids": {"n_k": 4096},
        "params": {"r_values": [0.5, 0.7, 1.3, 1.5], "n_max": 3},
    }
    code, out_dir = run_cli(tmp_path, doc, "kerr-scan")
    assert code == 0
    scan = kerr_scan([0.5, 0.7, 1.3, 1.5], SshParams(1.0, 0.5),
                   CavityParams(1.0, 0.5, 0.05, 0.001), n_k=4096, n_max=3)
    assert [row.converged for row in scan] == [True, True, False, False]
    nan, rows = float("nan"), []
    for row in scan:
        fit = row.result
        if fit is None:
            rows.append((row.r, nan, nan, nan, nan, nan, nan, False))
        else:
            rows.append((row.r, fit.omega0, fit.u.real, fit.u.imag, fit.uprime.real,
                         fit.uprime.imag, fit.fit_residual, True))
    expected = format_cell_csv("r,omega0,ReU,ImU,ReUprime,ImUprime,residual,converged", rows)
    assert (out_dir / "kerr.csv").read_bytes() == expected
    manifest = read_manifest(out_dir)
    assert manifest["convergence"]["all_rows_converged"] is False
    # the metadata keeps each unconverged row's Newton steps and last residual
    assert manifest["metadata"]["unconverged_rows"] == [
        {"r": row.r, "iterations": 2, "residual": row.divergence[1]}
        for row in scan if not row.converged
    ]


def test_compute_failure_exits_3_with_error_manifest(tmp_path):
    doc = {
        "model": {"t1": 1.0, "t2": 1.0},
        "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
    }
    code, out_dir = run_cli(tmp_path, doc, "zak")
    assert code == 3
    manifest = read_manifest(out_dir)
    assert manifest["error"]["type"] == "CriticalPointError"
    assert manifest["outputs"] == []


def test_infinite_hopping_exits_2(tmp_path, capsys):
    config = tmp_path / "inf.json"
    config.write_text('{"command": "dressed-bands", "model": {"t1": 1.0, "t2": Infinity}}')
    out_dir = tmp_path / "out"
    assert main(["dressed-bands", "--config", str(config), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error: model.t2 must be a finite number" in err
    assert not out_dir.exists()


def test_infinite_temperature_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(KELDYSH_DOC))
    doc["thermal"]["temperature"] = float("inf")  # json.dumps writes Infinity
    code, out_dir = run_cli(tmp_path, doc, "keldysh")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: thermal.temperature must be a finite number" in err
    assert not out_dir.exists()


def test_nonfinite_list_entry_exits_2(tmp_path, capsys):
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "cavity": {"mass_beta": 0.5, "g": 0.01, "eta": 0.001},
        "params": {"r_values": [0.5, float("nan")]},
    }
    code, _ = run_cli(tmp_path, doc, "kerr-scan")
    assert code == 2
    assert "params.r_values[1] must be a finite number" in capsys.readouterr().err


OVERSIZED_VERTEX = {
    "model": {"t1": 1.0, "t2": 0.5},
    "kernel": {"v0": 1.0, "zeta": 1.0},
    "grids": {"n_k2d": 2000000, "omega": {"start": 0.6, "stop": 1.4, "count": 4}},
}


def test_memory_error_in_compute_exits_3_with_error_manifest(tmp_path, monkeypatch):
    # with the parse-time budget lifted, numpy refuses the 2000001^2 kernel
    # (29 TiB) before allocating it
    monkeypatch.setattr(config, "MAX_ARRAY_BYTES", 1 << 62)
    code, out_dir = run_cli(tmp_path, OVERSIZED_VERTEX, "vertex")
    assert code == 3
    manifest = read_manifest(out_dir)
    assert manifest["error"]["type"] == "MemoryError"
    assert "Unable to allocate" in manifest["error"]["message"]
    assert manifest["outputs"] == []
    assert manifest["convergence"] == {"completed": False}
    assert os.listdir(out_dir) == ["manifest.json"]


def test_unexpected_handler_exception_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg, log):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(handlers._HANDLERS, "bands", broken)
    code, out_dir = run_cli(tmp_path, BANDS_DOC, "bands")
    assert code == 3
    assert read_manifest(out_dir)["error"] == {"type": "RuntimeError", "message": "handler bug"}
    assert "RuntimeError: handler bug" in capsys.readouterr().err


MANIFEST_KEYS = {"blas", "command", "config", "convergence", "metadata", "outputs", "version",
                 "wall_clock_seconds"}
BIPHOTON_DOC = {
    "model": {"t1": 1.0, "t2": 0.5},
    "kernel": {"v0": 1.0, "zeta": 1.0},
    "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 8}},
    "params": {"omega0": 1.0, "sigma": 0.1},
}


def checked_manifest(out_dir, completed):
    """The manifest, once its schema is checked: the exact key set, `error`
    only on failure, and each output's digest and size those on disk."""
    manifest = read_manifest(out_dir)
    assert set(manifest) == MANIFEST_KEYS | (set() if completed else {"error"})
    assert manifest["convergence"]["completed"] is completed
    if not completed:
        assert set(manifest["error"]) == {"type", "message"}
    for entry in manifest["outputs"]:
        data = (out_dir / entry["file"]).read_bytes()
        assert entry == {"file": entry["file"], "sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}
    return manifest


def test_manifest_schema_of_a_completed_and_a_failed_run(tmp_path):
    code, out_dir = run_cli(tmp_path, BANDS_DOC, "bands")
    assert code == 0
    manifest = checked_manifest(out_dir, completed=True)
    assert [entry["file"] for entry in manifest["outputs"]] == ["bands.csv"]
    assert manifest["wall_clock_seconds"] >= 0

    # r = 1 closes the gap, so the ladder has no band edge to pin to
    doc = {"model": {"t1": 1.0, "t2": 0.5}, "params": {"r_values": [1.0]}}
    code, out_dir = run_cli(tmp_path, doc, "kerr-scan", out="failed")
    assert code == 3
    manifest = checked_manifest(out_dir, completed=False)
    assert (manifest["convergence"], manifest["metadata"], manifest["outputs"]) == (
        {"completed": False}, {}, [])


@pytest.mark.parametrize("section, changes", [
    # the pump sits between two nodes of the 256-point grid and underflows at every node
    ("params", {"omega0": 1.0015, "sigma": 1e-6}),
    # a vanishing vertex scatters no pair
    ("kernel", {"v0": 0.0}),
], ids=["pump-between-nodes", "zero-vertex"])
def test_a_vanishing_two_photon_amplitude_exits_3_with_no_outputs(tmp_path, section, changes):
    doc = json.loads(json.dumps(BIPHOTON_DOC))
    doc["grids"]["omega"]["count"] = 256
    doc[section].update(changes)
    code, out_dir = run_cli(tmp_path, doc, "biphoton")
    assert code == 3
    manifest = checked_manifest(out_dir, completed=False)
    assert manifest["error"] == {"type": "ZeroNormError",
                                 "message": "two-photon amplitude vanishes identically"}
    assert manifest["outputs"] == []
    assert os.listdir(out_dir) == ["manifest.json"]

def test_two_runs_of_one_config_write_one_manifest_but_for_the_wall_clock(tmp_path):
    manifests = []
    for out in ("one", "two"):
        code, out_dir = run_cli(tmp_path, BANDS_DOC, "bands", out=out)
        assert code == 0
        manifest = read_manifest(out_dir)
        del manifest["wall_clock_seconds"]
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("command, doc, blocked, written", [
    ("zak", {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 64}}, "zak.csv", []),
    ("biphoton", BIPHOTON_DOC, "biphoton_out.csv", ["biphoton_in.csv"]),
])
def test_an_output_error_exits_4_with_a_manifest_of_the_files_written(
        tmp_path, capsys, command, doc, blocked, written):
    """A directory where an output file should be stops the writes with exit
    4; the manifest still records the failure and the files written in full."""
    (tmp_path / "out" / blocked).mkdir(parents=True)
    code, out_dir = run_cli(tmp_path, doc, command)
    assert code == 4
    assert capsys.readouterr().err.startswith("output error: [Errno 21] Is a directory")
    manifest = checked_manifest(out_dir, completed=False)
    assert manifest["error"]["type"] == "IsADirectoryError"
    assert [entry["file"] for entry in manifest["outputs"]] == written


def test_an_unwritable_manifest_still_exits_4(tmp_path, capsys):
    (tmp_path / "out" / "manifest.json").mkdir(parents=True)
    code, out_dir = run_cli(tmp_path, {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 64}},
                            "zak")
    assert code == 4
    assert capsys.readouterr().err.startswith("output error: [Errno 21] Is a directory")
    assert sorted(os.listdir(out_dir)) == ["manifest.json", "zak.csv"]


CHAIN = {"t1": 1.0, "t2": 0.5}
OMEGA4 = {"start": 0.6, "stop": 1.4, "count": 4}


@pytest.mark.parametrize("command, doc, message", [
    ("self-energy", {"model": CHAIN, "grids": {"n_k": 10, "omega": OMEGA4}},
     "grids.n_k must be >= 64, got 10"),
    ("zak", {"model": CHAIN, "grids": {"n_k": 10}}, "grids.n_k must be >= 64, got 10"),
    ("vertex", {"model": CHAIN, "grids": {"n_k2d": 8, "omega": OMEGA4}},
     "grids.n_k2d must be >= 64, got 8"),
    ("bands", {**BANDS_DOC, "params": {"n_points": 0}}, "params.n_points must be >= 1, got 0"),
    ("bands", {**BANDS_DOC, "params": {"n_points": -3}}, "params.n_points must be >= 1, got -3"),
    ("kerr-scan", {"model": CHAIN, "params": {"r_values": [0.5, 0.7], "n_max": 1}},
     "params.n_max must be >= 2, got 1"),
    ("kerr-scan", {"model": CHAIN, "params": {"r_values": [0.5, -0.5]}},
     "params.r_values[1] must be >= 0, got -0.5"),
    ("biphoton", {"model": CHAIN, "grids": {"omega": OMEGA4},
                  "params": {"omega0": 1.0, "sigma": 0}},
     "params.sigma must be > 0, got 0.0"),
    ("schmidt-scan", {"model": CHAIN, "grids": {"omega": OMEGA4},
                      "params": {"omega0": 1.0, "sigma": -0.1, "zeta_values": [0.0]}},
     "params.sigma must be > 0, got -0.1"),
    ("schmidt-scan", {"model": CHAIN, "grids": {"omega": OMEGA4},
                      "params": {"omega0": 1.0, "sigma": 0.1, "zeta_values": [0.0, 1.0, -2.0]}},
     "params.zeta_values[2] must be >= 0, got -2.0"),
    ("bands", [BANDS_DOC], "config must be an object, got list"),
    ("bands", {}, "model section is required"),
    ("dressed-bands", {**BANDS_DOC, "params": {"onshell": 1}},
     "params.onshell must be true or false, got 1"),
    ("kerr-scan", {"model": CHAIN, "params": {"r_values": []}},
     "params.r_values must be a nonempty array"),
    ("self-energy", {"model": CHAIN, "grids": {"omega": {"start": 1.0, "stop": 0.5, "count": 4}}},
     "grids.omega: grid needs stop > start, got [1.0, 0.5]"),
    ("self-energy", {"model": CHAIN, "cavity": {"eta": 0}, "grids": {"omega": OMEGA4}},
     "cavity: eta must be positive, got 0.0"),
])
def test_out_of_range_sizes_exit_2_before_compute(tmp_path, capsys, command, doc, message):
    code, out_dir = run_cli(tmp_path, doc, command)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, doc, message", [
    ("vertex", OVERSIZED_VERTEX,
     "grids.n_k2d needs a 2000001 x 2000001 complex array (5.96e+04 GiB), over the 1 GiB limit"),
    ("vertex", {"model": CHAIN, "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 8193}}},
     "grids.omega.count needs a 8193 x 8193 complex array"),
    ("saddle", {"model": CHAIN, "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 10**5}}},
     "grids.omega.count needs a 100000 x 100000 complex array"),
    ("biphoton", {"model": CHAIN, "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 10**4}},
                  "params": {"omega0": 1.0, "sigma": 0.1}},
     "grids.omega.count needs a 10000 x 10000 complex array"),
    ("schmidt-scan", {"model": CHAIN,
                      "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 10**4}},
                      "params": {"omega0": 1.0, "sigma": 0.1, "zeta_values": [0.0]}},
     "grids.omega.count needs a 10000 x 10000 complex array"),
    ("self-energy", {"model": CHAIN, "grids": {"n_k": 10**8, "omega": OMEGA4}},
     "grids.n_k needs a 100000001-cell complex array (1.49 GiB), over the 1 GiB limit"),
    ("zak", {"model": CHAIN, "grids": {"n_k": 10**8}},
     "grids.n_k needs a 100000001-cell complex array"),
    ("kerr-scan", {"model": CHAIN, "grids": {"n_k": 10**8}, "params": {"r_values": [0.5]}},
     "grids.n_k needs a 100000001-cell complex array"),
    ("spectrum", {**SPECTRUM_DOC, "grids": {**SPECTRUM_DOC["grids"], "q": {
        "start": -1.0, "stop": 1.0, "count": 10**5}, "omega": {
        "start": 0.7, "stop": 1.3, "count": 10**4}}},
     "grids.omega.count x grids.q.count needs a 10000 x 100000 complex array"),
    ("keldysh", {**KELDYSH_DOC, "grids": {**KELDYSH_DOC["grids"], "q": {
        "start": -1.0, "stop": 2.0, "count": 10**5}, "omega": {
        "start": 0.6, "stop": 1.5, "count": 10**4}}},
     "grids.omega.count x grids.q.count needs a 10000 x 100000 complex array"),
    ("bands", {**BANDS_DOC, "params": {"n_points": 10**8}},
     "params.n_points needs a 100000000-cell complex array"),
    ("dressed-bands", {**BANDS_DOC, "params": {"n_points": 10**8}},
     "params.n_points needs a 100000000-cell complex array"),
    ("self-energy", {"model": CHAIN, "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 10**8}}},
     "grids.omega.count needs a 100000000-cell complex array (1.49 GiB), over the 1 GiB limit"),
    ("kerr-scan", {"model": CHAIN, "params": {"r_values": [0.5], "n_max": 10**8}},
     "params.n_max needs a 100000001-cell complex array (1.49 GiB), over the 1 GiB limit"),
    ("hopfield", {"model": CHAIN, "grids": {"q": {"start": -1.0, "stop": 1.0, "count": 10**9}}},
     "grids.q.count needs a 1000000000-cell complex array (14.9 GiB), over the 1 GiB limit"),
    # the rungs fit in 1 GiB, but the ladder's work is over its budget
    ("kerr-scan", {"model": CHAIN, "params": {"r_values": [0.5], "n_max": 2**26 - 1}},
     "params.n_max asks for 1 ratio(s) x 67108864 rungs x 4097 zone nodes = 2.75e+11 "
     "ladder node-rungs, over the budget of 1.07e+09"),
    # sizes past the float range: the message names the key, with an inf size
    pytest.param("zak", {"model": CHAIN, "grids": {"n_k": 10**400}},
                 f"grids.n_k needs a {10**400 + 1}-cell complex array (inf GiB), over the 1 GiB "
                 "limit", id="zak-huge-grids.n_k"),
    pytest.param("bands", {**BANDS_DOC, "params": {"n_points": 10**400}},
                 f"params.n_points needs a {10**400}-cell complex array (inf GiB)",
                 id="bands-huge-params.n_points"),
    pytest.param("kerr-scan", {"model": CHAIN, "params": {"r_values": [0.5], "n_max": 10**400}},
                 f"params.n_max needs a {10**400 + 1}-cell complex array (inf GiB)",
                 id="kerr-scan-huge-params.n_max"),
    pytest.param("self-energy", {"model": CHAIN, "grids": {"omega": {
        "start": 0.6, "stop": 1.4, "count": 10**400}}},
                 f"grids.omega.count needs a {10**400}-cell complex array (inf GiB)",
                 id="self-energy-huge-grids.omega.count"),
    pytest.param("vertex", {"model": CHAIN, "grids": {"n_k2d": 10**400, "omega": OMEGA4}},
                 f"grids.n_k2d needs a {10**400 + 1} x {10**400 + 1} complex array (inf GiB)",
                 id="vertex-huge-grids.n_k2d"),
])
def test_oversized_grid_exits_2_at_parse_time(tmp_path, capsys, command, doc, message):
    code, out_dir = run_cli(tmp_path, doc, command)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


LADDER_PROBE = """
import json, sys, tracemalloc
from cavityssh.config import parse_config
from cavityssh.errors import ConfigInvalidError
tracemalloc.start()
try:
    parse_config(json.loads(sys.argv[1]), "kerr-scan")
    message = None
except ConfigInvalidError as exc:
    message = str(exc)
print(json.dumps([message, tracemalloc.get_traced_memory()[1], "numpy" in sys.modules]))
"""


def test_an_unbounded_kerr_ladder_is_rejected_without_allocating_or_loading_numpy():
    """n_max = 2^26 - 1 passes the 1 GiB array check but would run for hours."""
    doc = {"model": CHAIN, "params": {"r_values": [0.5], "n_max": 2**26 - 1}}
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", LADDER_PROBE, json.dumps(doc)],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    message, peak, numpy_loaded = json.loads(result.stdout)
    assert message.startswith("params.n_max asks for 1 ratio(s) x 67108864 rungs")
    assert peak < 1 << 20
    assert numpy_loaded is False


def test_the_ladder_budget_admits_exactly_2_to_the_30_node_rungs():
    doc = {"model": CHAIN, "grids": {"n_k": 2**16 - 1},
           "params": {"r_values": [0.5], "n_max": 2**14 - 1}}
    assert parse_config(doc, "kerr-scan").params["n_max"] == 2**14 - 1
    doc["params"]["r_values"] = [0.5, 0.6]
    with pytest.raises(ConfigInvalidError, match=r"^params\.n_max asks for 2 ratio\(s\) x "
                                                 r"16384 rungs x 65536 zone nodes"):
        parse_config(doc, "kerr-scan")


def test_a_ladder_past_the_float_range_is_rejected_by_key(monkeypatch):
    monkeypatch.setattr(config, "MAX_ARRAY_BYTES", 1 << 2000)  # let the zone through
    doc = {"model": CHAIN, "grids": {"n_k": 10**400}, "params": {"r_values": [0.5]}}
    with pytest.raises(ConfigInvalidError, match=exactly(
            f"params.n_max asks for 1 ratio(s) x 6 rungs x {10**400 + 1} zone nodes = inf "
            "ladder node-rungs, over the budget of 1.07e+09 (grids.n_k and params.r_values "
            "count too)")):
        parse_config(doc, "kerr-scan")


def test_the_memory_budget_admits_a_side_of_8192():
    # 8192^2 complex cells are exactly 1 GiB; nothing is allocated at parse time
    omega = {"start": 0.6, "stop": 1.4, "count": 8192}
    cfg = parse_config({"model": CHAIN, "grids": {"n_k2d": 8191, "omega": omega}}, "vertex")
    assert (cfg.n_k2d, cfg.omega_grid.count) == (8191, 8192)


def test_the_memory_budget_admits_a_zone_a_map_and_a_sweep_of_1_gib():
    # 2^26 complex cells are exactly 1 GiB; nothing is allocated at parse time
    cfg = parse_config({"model": CHAIN, "grids": {"n_k": 2**26 - 1, "omega": OMEGA4}},
                       "self-energy")
    assert cfg.n_k == 2**26 - 1
    grids = {"n_k": 2**26 - 1, "omega": {"start": 0.7, "stop": 1.3, "count": 2**13},
             "q": {"start": -1.0, "stop": 1.0, "count": 2**13}}
    cfg = parse_config({**SPECTRUM_DOC, "grids": grids}, "spectrum")
    assert (cfg.omega_grid.count, cfg.q_grid.count) == (2**13, 2**13)
    cfg = parse_config({**BANDS_DOC, "params": {"n_points": 2**26}}, "dressed-bands")
    assert cfg.params["n_points"] == 2**26


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["bands", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "broken.json" in capsys.readouterr().err

    mismatched = write_doc(tmp_path, SPECTRUM_DOC, "mismatch.json")
    assert main(["bands", "--config", mismatched, "--out", str(tmp_path / "o2")]) == 2

    # json.loads alone keeps the last value of a repeated key, so this ran at n_k = 128
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 10, "n_k": 128}}')
    assert main(["zak", "--config", str(repeated), "--out", str(tmp_path / "o3")]) == 2
    assert "key 'n_k' appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()


def test_a_repeated_key_is_found_in_linear_time(tmp_path, capsys):
    """The error names the first key, in document order, that appears more
    than once, among 200,000 keys in under 5 s of CPU. Counting each key by
    a scan of the key list is quadratic: on a Xeon vCPU it took 6.4 s of
    CPU at 20,000 keys, so about 10 minutes at 200,000."""
    crossed = tmp_path / "crossed.json"
    crossed.write_text('{"model": {"t1": 1.0, "t2": 1.5, "t2": 0.5, "t1": 2.0}}')
    assert main(["zak", "--config", str(crossed), "--out", str(tmp_path / "o")]) == 2
    assert "key 't1' appears more than once" in capsys.readouterr().err

    keys = [f"k{i}" for i in range(200_000)]
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"model": CHAIN})[:-1] + ', "params": {'
                    + ", ".join(f'"{key}": 0' for key in [*keys, keys[-1]]) + "}}")
    started = time.process_time()
    code = main(["bands", "--config", str(many), "--out", str(tmp_path / "o")])
    assert time.process_time() - started < 5.0
    assert code == 2
    assert f"key {keys[-1]!r} appears more than once" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b'{"model": {"t1": 1.0, "t2": 0.5}, "note": "\xff"}', "cannot read config"),  # not UTF-8
    (b"[" * 100000 + b"]" * 100000, "is not valid JSON: maximum recursion depth exceeded"),
    (b'{"model": {"t1": 1' + b"0" * 5000 + b', "t2": 0.5}}',
     "is not valid JSON: Exceeds the limit"),
], ids=["not-utf-8", "too-deep", "too-many-digits"])
def test_unreadable_config_exits_2(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["zak", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["bands", "--config", str(tmp_path / "absent.json")]) == 2


def test_unknown_command_is_an_argparse_error(tmp_path):
    config = write_doc(tmp_path, BANDS_DOC)
    with pytest.raises(SystemExit) as info:
        main(["interpolate", "--config", config])
    assert info.value.code == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_an_argparse_error(tmp_path, capsys, threads):
    config = write_doc(tmp_path, BANDS_DOC)
    with pytest.raises(SystemExit) as info:
        main(["self-energy", "--config", config, "--out", str(tmp_path / "o"),
              "--threads", threads])
    assert info.value.code == 2
    assert f"must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_every_command_is_wired(capsys):
    assert len(COMMANDS) == 12
    assert set(COMMANDS) == {
        "bands", "zak", "self-energy", "spectrum", "hopfield", "kerr-scan",
        "vertex", "saddle", "biphoton", "schmidt-scan", "dressed-bands", "keldysh",
    }
    assert set(handlers._HANDLERS) == set(COMMANDS)
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    listing = "".join(capsys.readouterr().out.split())  # argparse wraps the help lines
    for name, spec in COMMANDS.items():
        assert "".join(spec.help.split()) in listing
        with pytest.raises(SystemExit) as info:
            main([name, "--help"])
        assert info.value.code == 0
        assert f"usage: cavityssh {name}" in capsys.readouterr().out


def test_readme_command_table_matches_the_command_table():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (.*) \| (.*) \|$", fh.read(), re.M)
    table = {name: cells for name, *cells in rows}
    assert list(table) == list(COMMANDS)
    for name, (sections, grids, params) in table.items():
        spec = COMMANDS[name]
        assert re.findall(r"[a-z]+", sections) == [s for s in _SECTIONS if s in spec.reads]
        assert re.findall(r"\b(omega|q)\b", grids) == [g for g in ("omega", "q") if g in spec.reads]
        assert re.findall(r"`(\w+)`", params) == list(spec.params)
