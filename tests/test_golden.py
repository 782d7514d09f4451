"""Golden certificates: fixed CLI runs must reproduce their committed bytes.

Each case runs in-process through `pvcgap.cli.main` and its stdout must
equal `tests/golden/<name>.json` byte for byte.  Every `verify` case is run
again with `--threads 2` and `--threads 3` against the same file, because a
certificate may not depend on the worker count.

A change that alters certificate bytes on purpose regenerates the files
with `PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import sys
from pathlib import Path

import pytest

from pvcgap.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code); graph paths are relative to GOLDEN
CASES = {
    "verify-sa-n8-r1-t1": (["verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1"], 0),
    "verify-sa-n6-r1-t1-p0": (
        ["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--p", "0"], 2),
    "verify-sa-n8-r1-t1-p1_100": (
        ["verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1", "--p", "1/100"], 2),
    "verify-sap-n7-r1-t1": (["verify", "--level", "sap", "--n", "7", "--r", "1", "--t", "1"], 0),
    "verify-xyn-n7-r2-t1": (["verify", "--level", "xyn", "--n", "7", "--r", "2", "--t", "1"], 0),
    "verify-xyn-n8-r2-t1-sample": (
        ["verify", "--level", "xyn", "--n", "8", "--r", "2", "--t", "1",
         "--sample", "10", "--seed", "3"], 0),
    "star-n4-t2": (["star", "--n", "4", "--t", "2"], 0),
    "lasserre-n12-r2-t1": (["lasserre", "--n", "12", "--r", "2", "--t", "1"], 2),
    "lasserre-n13-r2-t1": (["lasserre", "--n", "13", "--r", "2", "--t", "1"], 0),
    "gap-table-small": (
        ["gap-table", "--grid", "6,1,1;8,1,1;4,9,1", "--format", "json"], 0),
    "graph-opt-tiny": (["graph-opt", "--graph", "tiny.graph", "--t", "3"], 0),
}


def _argv(argv: list) -> list:
    return [str(GOLDEN / a) if a.endswith(".graph") else a for a in argv]


def _run(argv: list, capsys) -> tuple:
    code = main(_argv(argv))
    return code, capsys.readouterr().out


def _threaded_cases():
    for name, (argv, code) in CASES.items():
        if argv[0] == "verify":
            for threads in (2, 3):
                yield pytest.param(name, argv + ["--threads", str(threads)], code,
                                   id=f"{name}-threads{threads}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, capsys):
    argv, expected_code = CASES[name]
    code, out = _run(argv, capsys)
    assert code == expected_code
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name,argv,expected_code", list(_threaded_cases()))
def test_golden_bytes_do_not_depend_on_threads(name, argv, expected_code, capsys):
    code, out = _run(argv, capsys)
    assert code == expected_code
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    for name, (argv, _code) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(argv))
        (GOLDEN / f"{name}.json").write_bytes(buf.getvalue().encode())
        print(name, file=sys.stderr)
