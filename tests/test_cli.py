"""Config validation, CSV emission, manifests, and exit codes of the batch CLI."""

import hashlib
import json
import os

import numpy as np
import pytest

from cavityssh import (
    CavityParams,
    ConfigInvalidError,
    SshParams,
    ThermalState,
    __version__,
    band_gap,
    dressed_bands,
    keldysh_green,
    occupation,
    retarded_green,
    sigma_matrix,
)
from cavityssh import cli
from cavityssh.cli import main
from cavityssh.config import COMMANDS, parse_config
from cavityssh.output import format_cell, write_csv

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
    cfg = parse_config({"model": {"t1": 1.0, "t2": 1.5}}, "bands")
    assert cfg.command == "bands"
    assert cfg.cavity.omega_c == 1.0  # 2|t1 - t2|
    assert cfg.cavity.mass_beta == 0.5
    assert cfg.cavity.eta == 0.01
    assert cfg.cavity.g == 1.0
    assert cfg.n_k == 4096
    assert cfg.params["n_points"] == 256


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigInvalidError):
        parse_config({"model": {"t1": 1.0, "t2": 1.5}, "extra": {}}, "bands")
    with pytest.raises(ConfigInvalidError):
        parse_config({"model": {"t1": 1.0, "t2": 1.5, "t3": 0.1}}, "bands")
    with pytest.raises(ConfigInvalidError):
        parse_config(
            {"model": {"t1": 1.0, "t2": 1.5}, "params": {"n_points": 10, "bogus": 1}},
            "bands",
        )


def test_parse_config_rejects_command_mismatch():
    with pytest.raises(ConfigInvalidError):
        parse_config(dict(SPECTRUM_DOC), "bands")


def test_parse_config_type_discipline():
    with pytest.raises(ConfigInvalidError):
        parse_config({"model": {"t1": "1.0", "t2": 1.5}}, "bands")
    with pytest.raises(ConfigInvalidError):
        parse_config({"model": {"t1": True, "t2": 1.5}}, "bands")
    doc = json.loads(json.dumps(SPECTRUM_DOC))
    doc["grids"]["n_k"] = 512.5
    with pytest.raises(ConfigInvalidError):
        parse_config(doc, "spectrum")
    doc = json.loads(json.dumps(SPECTRUM_DOC))
    doc["grids"]["omega"]["count"] = 1
    with pytest.raises(ConfigInvalidError):
        parse_config(doc, "spectrum")


def test_parse_config_requires_command_grids():
    # spectrum needs both frequency and momentum grids
    with pytest.raises(ConfigInvalidError):
        parse_config({"model": {"t1": 1.0, "t2": 1.5}}, "spectrum")
    # kerr-scan needs the ratio list, biphoton its pump
    with pytest.raises(ConfigInvalidError):
        parse_config({"model": {"t1": 1.0, "t2": 1.5}}, "kerr-scan")
    with pytest.raises(ConfigInvalidError):
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
    with pytest.raises(ConfigInvalidError):
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


# ---------------------------------------------------------------------- output


def test_format_cell_conventions():
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(7) == "7"
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(float("nan")) == "nan"
    assert format_cell("direct") == "direct"


def test_write_csv_newline_discipline(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, "a,b", [[1.0, 2], [0.5, 3]])
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


def format_cell_csv(header, rows):
    lines = [header] + [",".join(format_cell(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_keldysh_csv_equals_the_pointwise_rows(tmp_path):
    code, out_dir = run_cli(tmp_path, KELDYSH_DOC, "keldysh")
    assert code == 0
    p, th = SshParams(1.0, 1.5), ThermalState(0.1)
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=0.01)
    rows = []
    for w in np.linspace(0.6, 1.5, 7):
        for q in np.linspace(-1.0, 2.0, 5):
            w, q = float(w), float(q)
            g_k = keldysh_green(w, q, p, c, th, n_k=512)
            a = -retarded_green(w, q, p, c, n_k=512).imag / np.pi
            rows.append((w, q, g_k.real, g_k.imag, a, occupation(w, q, p, c, th, n_k=512)))
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


def test_oversized_grid_exits_3_with_error_manifest(tmp_path):
    # numpy refuses the 2000001^2 kernel (29 TiB) before allocating it
    doc = {
        "model": {"t1": 1.0, "t2": 0.5},
        "kernel": {"v0": 1.0, "zeta": 1.0},
        "grids": {"n_k2d": 2000000, "omega": {"start": 0.6, "stop": 1.4, "count": 4}},
    }
    code, out_dir = run_cli(tmp_path, doc, "vertex")
    assert code == 3
    manifest = read_manifest(out_dir)
    assert manifest["error"]["type"] == "MemoryError"
    assert "Unable to allocate" in manifest["error"]["message"]
    assert manifest["outputs"] == []
    assert manifest["convergence"] == {"completed": False}
    assert os.listdir(out_dir) == ["manifest.json"]


def test_unexpected_handler_exception_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg, threads, log):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(cli._HANDLERS, "bands", broken)
    code, out_dir = run_cli(tmp_path, BANDS_DOC, "bands")
    assert code == 3
    assert read_manifest(out_dir)["error"] == {"type": "RuntimeError", "message": "handler bug"}
    assert "RuntimeError: handler bug" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["bands", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "broken.json" in capsys.readouterr().err

    mismatched = write_doc(tmp_path, SPECTRUM_DOC, "mismatch.json")
    assert main(["bands", "--config", mismatched, "--out", str(tmp_path / "o2")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["bands", "--config", str(tmp_path / "absent.json")]) == 2


def test_unknown_command_is_an_argparse_error(tmp_path):
    config = write_doc(tmp_path, BANDS_DOC)
    with pytest.raises(SystemExit) as info:
        main(["interpolate", "--config", config])
    assert info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_every_command_is_wired():
    assert len(COMMANDS) == 12
    assert set(COMMANDS) == {
        "bands", "zak", "self-energy", "spectrum", "hopfield", "kerr-scan",
        "vertex", "saddle", "biphoton", "schmidt-scan", "dressed-bands", "keldysh",
    }
