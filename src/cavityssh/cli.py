"""Batch command-line front end.

One invocation = one command + one JSON config + one output directory.
Handlers compute everything first and only then write, so a failed
computation leaves no data file; the manifest is emitted exactly once either
way, carrying checksums of the files written in full, and a machine-readable
error record on failure. Exit codes: 0 ok, 2 invalid config, 3 computation
failed, 4 I/O (with a manifest wherever one can still be written).

This module and `config` import no numpy and no numerical module, so
`--help`, `--version` and every invalid config exit before numpy loads.
`main` imports `handlers` and `output`, and with them numpy and every
numerical module, once the config is valid.

Run as `python -m cavityssh.cli`, the process turns off the cyclic garbage
collector and ends with `os._exit` once `main` returns; `main` called in
process leaves both alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

# before numpy: OpenBLAS reads it at load; idle workers then sleep instead of spinning 2^28 cycles
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
_BLAS = {"openblas_thread_timeout": os.environ["OPENBLAS_THREAD_TIMEOUT"],
         "set_before_numpy": "numpy" not in sys.modules}

from . import __version__
from .config import COMMANDS, load_config
from .errors import CavitySshError, ConfigInvalidError


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityssh",
        description="Batch datasets for a cavity-coupled dimerized chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument(
        "--threads", type=_thread_count, default=1,
        help="accepted for compatibility (at least 1); every run is serial, so it changes nothing",
    )
    common.add_argument("--verbose", action="store_true", help="progress on stderr")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        subparsers.add_parser(name, parents=[common], help=spec.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def log(message: str) -> None:
        if args.verbose:
            print(message, file=sys.stderr)

    try:
        cfg = load_config(args.config, args.command)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # numpy and every numerical module load here, once the config is valid
    from .handlers import _HANDLERS
    from .output import write_csv, write_manifest

    started = time.monotonic()
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4

    code, error, written = 0, None, []
    try:
        emissions, flags, metadata = _HANDLERS[args.command](cfg, log)
    except Exception as exc:
        # library errors are expected; anything else (MemoryError from an
        # oversized grid, say) still ends as exit 3 with a manifest
        if isinstance(exc, CavitySshError):
            print(f"computation failed: {exc}", file=sys.stderr)
        else:
            print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            import traceback

            traceback.print_exc(file=sys.stderr)
        code, error = 3, exc
    else:
        try:
            for name, first_line, columns in emissions:
                path = os.path.join(args.out, name)
                write_csv(path, first_line, columns)
                written.append(name)
                log(f"wrote {path}")
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            code, error = 4, exc

    record = {"command": args.command, "version": __version__, "config": cfg.raw, "blas": _BLAS,
              "wall_clock_seconds": round(time.monotonic() - started, 6)}
    if error is None:
        record.update(convergence={"completed": True, **flags}, metadata=metadata)
    else:
        record.update(convergence={"completed": False}, metadata={},
                      error={"type": type(error).__name__, "message": str(error)})
    try:
        # `outputs` lists only the files written in full
        write_manifest(args.out, written, record)
    except OSError as exc:
        if code == 0:
            print(f"output error: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    # A run is one short process: the cyclic collector would only sweep
    # numpy's import-time heap, and teardown would only free what the exit
    # frees anyway. Every file is closed by now; only the std streams buffer.
    # argparse's SystemExit and an uncaught error still end the normal way.
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
