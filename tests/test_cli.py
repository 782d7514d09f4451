import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from pvcgap import hierarchy
from pvcgap.cli import main

PY = [sys.executable, "-m", "pvcgap.cli"]


def run(*args):
    return subprocess.run(PY + list(args), capture_output=True, text=True)


def test_verify_feasible_exits_zero():
    r = run("verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "feasible"
    assert doc["values"]["integrality_gap_lower_bound"]["exact"] == "15/8"
    assert doc["params"]["p"]["exact"] == "1/15"


def test_verify_infeasible_exits_two_with_witness():
    r = run("verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--p", "0")
    assert r.returncode == 2
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "infeasible"
    assert doc["witness"]["constraint"] == "demand"
    assert doc["witness"]["Y"] == [] and doc["witness"]["N"] == []


def test_verify_sap_and_xyn_levels():
    r = run("verify", "--level", "sap", "--n", "8", "--r", "1", "--t", "1")
    assert r.returncode == 0
    r = run("verify", "--level", "xyn", "--n", "8", "--r", "2", "--t", "1",
            "--sample", "10", "--seed", "3")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["values"]["constraints_checked"] == 10
    assert doc["params"]["seed"] == 3


def test_star_bundle_values():
    r = run("star", "--n", "10", "--t", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["values"]["lp_value"]["exact"] == "1/5"
    assert doc["values"]["sdp_value"]["exact"] == "1/5"
    assert doc["values"]["sa1_value"]["exact"] == "1/1"
    assert doc["values"]["integral_opt"]["exact"] == "1/1"
    assert doc["values"]["lp_gap"]["exact"] == "5/1"


def test_star_skips_sdp_leg_when_demand_is_high():
    r = run("star", "--n", "3", "--t", "3")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["values"]["sdp_value"] == "skipped(t>n/2)"
    assert doc["values"]["lp_value"]["exact"] == "1/1"


def test_lasserre_exit_codes_follow_the_verdict():
    r = run("lasserre", "--n", "13", "--r", "2", "--t", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "refuted"
    r = run("lasserre", "--n", "12", "--r", "2", "--t", "1")
    assert r.returncode == 2
    assert json.loads(r.stdout)["verdict"] == "not-refuted"


def test_identical_invocations_byte_reproduce(tmp_path):
    a = run("verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1",
            "--out", str(tmp_path / "a.json"))
    b = run("verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1",
            "--out", str(tmp_path / "b.json"))
    assert a.stdout == b.stdout
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert a.stdout.encode() == (tmp_path / "a.json").read_bytes()


def test_gap_table_rows_and_flags():
    r = run("gap-table", "--grid", "8,1,1;10,1,1 6,2,1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("n,r,t,p,")
    row8 = lines[1].split(",")
    assert row8[:4] == ["8", "1", "1", "1/15"]
    assert "15/8" in lines[1]
    assert "14/5" in lines[2]
    # hypothesis flag trips for the squeezed instance but the row still reports
    assert lines[3].split(",")[11] == "False"
    r2 = run("gap-table", "--grid", "8,1,1", "--format", "json")
    doc = json.loads(r2.stdout)
    assert doc[0]["gap_bound"] == "15/8"


def test_gap_table_bad_row_reports_error_without_abort():
    r = run("gap-table", "--grid", "8,1,1;4,9,1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[0] == "4"
    assert "no default p" in lines[2] or "error" in lines[2].lower() or lines[2].split(",")[-1] != ""


def test_graph_opt_and_io_errors(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("4 3\n1 2\n2 3\n3 4\n2 5/2\n")
    r = run("graph-opt", "--graph", str(path), "--t", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["values"]["integral_opt"]["exact"] == "1/1"
    r = run("graph-opt", "--graph", str(tmp_path / "nope.graph"), "--t", "1")
    assert r.returncode == 1
    r = run("graph-opt", "--graph", str(path))
    assert r.returncode == 1


def test_usage_errors_exit_one():
    r = run("nonsense")
    assert r.returncode == 1
    r = run("verify", "--level", "sa", "--n", "8", "--t", "1")  # missing --r
    assert r.returncode == 1
    r = run("verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1", "--p", "zzz")
    assert r.returncode == 1
    for bad in (
        ["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--threads", "0"],
        ["gap-table", "--grid", "6,1,1", "--threads", "0"],
        ["verify", "--level", "xyn", "--n", "6", "--r", "2", "--t", "1", "--sample", "-1"],
    ):
        r = run(*bad)
        assert r.returncode == 1, bad
        assert r.stderr.startswith("usage error:") and "Traceback" not in r.stderr, bad


def _die(*_args):
    os._exit(3)


def test_dead_worker_exits_one_with_message(monkeypatch, capsys):
    # forked workers inherit the patched scan, so each one dies on its first pair
    monkeypatch.setattr(hierarchy, "_scan_pair", _die)
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(hierarchy, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=fork))
    code = main(["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--threads", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died")
