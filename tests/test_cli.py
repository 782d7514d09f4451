import json
import os
import resource
import subprocess
import sys
import time
from functools import partial

import pytest

from pvcgap import cli, graphs, hierarchy, sdp
from pvcgap.certificates import ENUM_ORDER_FINGERPRINT
from pvcgap.cli import main
from pvcgap.moments import DistParams

from conftest import with_entries

PY = [sys.executable, "-m", "pvcgap.cli"]
# child interpreters import the pvcgap this process imported, installed or not
_SRC = os.path.dirname(os.path.dirname(cli.__file__))
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


def run(*args):
    return subprocess.run(PY + list(args), capture_output=True, text=True, env=ENV)


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


def test_verify_past_the_brute_force_cap_has_the_clique_gap_bound():
    r = run("verify", "--level", "sa", "--n", "26", "--r", "0", "--t", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "feasible"
    # one vertex covers t = 1 edge, and the objective is 26 * 1/C(26, 2) = 2/25
    assert doc["values"]["integrality_gap_lower_bound"]["exact"] == "25/2"


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


def test_gap_table_runs_the_integral_oracle_once_per_row(monkeypatch, capsys):
    calls = []
    brute_force_opt = graphs.brute_force_opt

    def counted(g, t):
        calls.append(g.n)
        return brute_force_opt(g, t)

    monkeypatch.setattr(graphs, "brute_force_opt", counted)
    assert main(["gap-table", "--grid", "8,1,1;10,1,1"]) == 0
    assert calls == [8, 10]
    # an infeasible row has no gap bound, so its opt column asks the oracle itself
    verify_sa = hierarchy.verify_sa
    monkeypatch.setattr(hierarchy, "verify_sa", lambda params, t, r, threads=1: verify_sa(
        DistParams(params.graph, 0), t, r, threads))
    calls.clear()
    capsys.readouterr()
    assert main(["gap-table", "--grid", "6,1,1"]) == 0
    assert calls == [6]
    row = capsys.readouterr().out.splitlines()[1]
    assert row == "6,1,1,1/6,0.16666666666666666667,0/1,0,1/1,,,False,True,"


def test_gap_table_bad_row_reports_error_without_abort():
    r = run("gap-table", "--grid", "8,1,1;4,9,1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[0] == "4"
    assert "no default p" in lines[2] or "error" in lines[2].lower() or lines[2].split(",")[-1] != ""


def test_default_p_past_one_is_a_usage_error(capsys):
    # t = 7 > C(6 - 2, 2) = 6 would make the default p = 7/6, which the user never set
    message = "no default p: t = 7 exceeds C(n - 2r, 2) = 6"
    assert main(["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "7"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"usage error: {message}\n"
    # an explicit --p is the user's own and is checked as before
    assert main(["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "7", "--p", "1"]) == 0
    capsys.readouterr()
    assert main(["gap-table", "--grid", "6,1,7;6,1,6", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["error"] for row in rows] == [message, ""]
    assert rows[1]["p"] == "1/1"


def test_graph_opt_and_io_errors(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("4 3\n1 2\n2 3\n3 4\nw 2 5/2\n")
    r = run("graph-opt", "--graph", str(path), "--t", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["values"]["integral_opt"]["exact"] == "1/1"
    r = run("graph-opt", "--graph", str(tmp_path / "nope.graph"), "--t", "1")
    assert r.returncode == 1
    r = run("graph-opt", "--graph", str(path))
    assert r.returncode == 1
    # a negative edge count, or an undercounted one, does not turn edges into weights
    for text in ("3 -1\n", "3 -2\n1 2\n", "3 1\n1 2\n2 3\n"):
        path.write_text(text)
        r = run("graph-opt", "--graph", str(path), "--t", "0")
        assert r.returncode == 1 and r.stdout == "", text
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr, text
    path.write_text("2 1\n1 2\nw 1 -5\n")  # refused, not certified with integral_opt -5
    r = run("graph-opt", "--graph", str(path), "--t", "1")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("error: vertex weights must be nonnegative"), r.stderr


def test_failed_out_write_prints_nothing(tmp_path):
    r = run("star", "--n", "3", "--t", "1", "--out", str(tmp_path / "missing_dir" / "x.json"))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_usage_errors_exit_one():
    r = run("nonsense")
    assert r.returncode == 1
    for missing_r in ("verify", "--level", "sa"), ("lasserre",):
        r = run(*missing_r, "--n", "8", "--t", "1")
        assert r.returncode == 1 and r.stderr.startswith("usage error:"), missing_r
    r = run("verify", "--level", "sa", "--n", "8", "--r", "1", "--t", "1", "--p", "zzz")
    assert r.returncode == 1
    for bad in (
        ["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--threads", "0"],
        ["gap-table", "--grid", "6,1,1", "--threads", "0"],
        ["verify", "--level", "xyn", "--n", "6", "--r", "2", "--t", "1", "--sample", "-1"],
        # an empty sample checks no matrix, so it could certify nothing
        ["verify", "--level", "xyn", "--n", "8", "--r", "2", "--t", "1", "--sample", "0"],
        # past the worker cap: refused by the parser, before any pool exists
        ["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--threads", "65"],
        ["gap-table", "--grid", "6,1,1", "--threads", "5000"],
        # a sample is drawn from the xyn family only
        ["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1",
         "--sample", "3", "--seed", "9"],
        ["verify", "--level", "sap", "--n", "6", "--r", "1", "--t", "1", "--sample", "3"],
        ["verify", "--level", "sap", "--n", "6", "--r", "1", "--t", "1", "--seed", "9"],
        # a seed only seeds a sample
        ["verify", "--level", "xyn", "--n", "6", "--r", "2", "--t", "1", "--seed", "5"],
    ):
        r = run(*bad)
        assert r.returncode == 1, bad
        assert r.stderr.startswith("usage error:") and "Traceback" not in r.stderr, bad
    # sizes out of range are refused by the parser, which names the flag
    for bad, flag in (
        (["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "-1"], "--t"),
        (["verify", "--level", "sa", "--n", "6", "--r", "-1", "--t", "1"], "--r"),
        (["verify", "--level", "sa", "--n", "0", "--r", "1", "--t", "1"], "--n"),
        (["lasserre", "--n", "12", "--r", "2", "--t", "0"], "--t"),
    ):
        r = run(*bad)
        assert r.returncode == 1, bad
        assert r.stderr.startswith(f"usage error: argument {flag}:"), (bad, r.stderr)
        assert "Traceback" not in r.stderr, bad


def _die_in_worker(test_pid, scan_pair, *args):
    if os.getpid() != test_pid:
        os._exit(3)
    return scan_pair(*args)


def test_dead_worker_exits_one_with_message(monkeypatch, capsys, fork_workers):
    # this process scans the first chunk itself; forked workers inherit the
    # patched scan, so each one dies on its first pair
    monkeypatch.setattr(hierarchy, "_scan_pair",
                        partial(_die_in_worker, os.getpid(), hierarchy._scan_pair))
    code = main(["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--threads", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died")


def _limit_address_space():
    # a size check that fails would otherwise try to allocate billions of objects
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_huge_sizes_are_refused_before_allocating(tmp_path):
    big = tmp_path / "path30.graph"
    big.write_text("30 29\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 30)))
    huge = tmp_path / "huge.graph"
    huge.write_text("1000000000 0\n")
    for argv in (
        ["verify", "--level", "sa", "--n", "100000", "--r", "1", "--t", "1"],
        # K300's one conditioned moment matrix, before its cover LP or any row exists
        ["verify", "--level", "xyn", "--n", "300", "--r", "1", "--t", "1"],
        ["lasserre", "--n", "100000", "--r", "1", "--t", "1"],
        # past the integral oracle's cap, before any LP is built
        ["star", "--n", "5000", "--t", "1"],
        ["star", "--n", "30", "--t", "1"],
        ["graph-opt", "--graph", str(big), "--t", "1"],
        # past the graph-size cap, before any vertex or edge list is built
        ["star", "--n", "100000000", "--t", "1"],
        ["graph-opt", "--graph", str(huge), "--t", "1"],
    ):
        r = subprocess.run(PY + argv, capture_output=True, text=True, timeout=60,
                           env=ENV, preexec_fn=_limit_address_space)
        assert r.returncode == 1 and r.stdout == "", argv
        assert r.stderr.startswith("error:") and "cap" in r.stderr, (argv, r.stderr)


def test_a_large_level_zero_scan_runs_within_the_address_limit():
    # K300 has 45,150 variables: one pair over 135,151 sparse rows, where a
    # dense copy of the cover LP would hold about 6 * 10**9 entries
    start = time.monotonic()
    r = subprocess.run(PY + ["verify", "--level", "sa", "--n", "300", "--r", "0", "--t", "1"],
                       capture_output=True, text=True, timeout=60,
                       env=ENV, preexec_fn=_limit_address_space)
    assert r.returncode == 0, r.stderr
    cert = json.loads(r.stdout)
    assert cert["verdict"] == "feasible"
    assert cert["values"]["constraints_checked"] == 300 * 299 // 2 + 1 + 2 * (300 + 300 * 299 // 2)
    assert time.monotonic() - start < 30


# K6 at r = 1: 43 pairs in 8 chunks of 6 (the last has 1) at --threads 2
K6_CHUNKS = hierarchy._chunk_ranges(hierarchy.yn_pair_count(21, 1), 8)
# the first pair of chunk 1, the first a pool worker scans
CHUNK1_PAIR = list(hierarchy.yn_pairs(21, 1))[K6_CHUNKS[1][0]]


def _interrupt_at_chunk1(_params, _rows, y, n):
    if (y, n) == CHUNK1_PAIR:
        raise KeyboardInterrupt
    return None, 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_interrupt_exits_one_with_message(monkeypatch, capsys, fork_workers, threads):
    # serially the scan itself raises; at --threads 2 the pair is a worker's,
    # which sends the interrupt back
    monkeypatch.setattr(hierarchy, "_scan_pair", _interrupt_at_chunk1)
    code = main(["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1",
                 "--threads", threads])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: interrupted\n"


def _interrupt_chunk1(log, params, rows, y, n):
    verdict = _interrupt_at_chunk1(params, rows, y, n)
    with open(log, "a") as fh:
        fh.write(".")
    time.sleep(0.1)
    return verdict


def test_interrupt_cancels_unstarted_chunks(monkeypatch, capsys, fork_workers, tmp_path):
    # this process scans chunk 0 (6 pairs); the pool's first chunk, chunk 1,
    # is interrupted at once and the others take 0.6 s each, so only the
    # chunks already handed to the pool's call queue may still run, never
    # all of the other 6
    assert (len(K6_CHUNKS), K6_CHUNKS[0], K6_CHUNKS[-1]) == (8, (0, 6), (42, 43))
    log = tmp_path / "pairs.log"
    log.write_text("")
    monkeypatch.setattr(hierarchy, "_scan_pair", partial(_interrupt_chunk1, str(log)))
    code = main(["verify", "--level", "sa", "--n", "6", "--r", "1", "--t", "1", "--threads", "2"])
    assert code == 1 and capsys.readouterr().err == "error: interrupted\n"
    assert len(log.read_text()) < 43 - 6  # pairs scanned when every other chunk runs


def test_star_negative_sdp_verdict_exits_two(monkeypatch, capsys):
    build = sdp.build_star_sdp_solution

    def bad_point(n, t):
        sol = build(n, t)
        gram = with_entries(sol.gram, {(1, 1): 2})  # |v_1|^2 = 2: not a unit vector
        return sdp.GramSolution(sol.graph, sol.t, gram)

    monkeypatch.setattr(sdp, "build_star_sdp_solution", bad_point)
    code = main(["star", "--n", "4", "--t", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["verdict"] == "violated:unit-norm"
    assert doc["witness"]["lhs"]["exact"] == "2/1"
    assert doc["enumeration_order"] == ENUM_ORDER_FINGERPRINT
