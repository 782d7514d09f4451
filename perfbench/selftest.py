"""Self-test of the benchmark at toy sizes (K6 r1, star-3, lasserre n=13).

    python3 perfbench/selftest.py

Checks, in a few seconds: a certificate with one flipped byte counts as
failed; the traced counts equal their closed forms; every metric of
BENCHMARK.json prints with its name and unit; and without a source tree
the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    script = cwd / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), "--workload", "toy", "--seed", "0",
                           "--seconds", "1", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def last_json(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_flipped_byte() -> None:
    job = workloads.toy(0)[0]
    inv = run.spawn(job.argv, run.cli_env())
    tally = run.Tally(run.load_reference())
    tally.record(job, inv["rc"], inv["text"])
    assert tally.failed == 0, tally.notes
    # a byte the oracle does not read, so only the byte comparison sees it
    at = inv["text"].index('"tool":"pvcgap"') + len('"tool":"pvcga')
    flipped = inv["text"][:at] + chr(ord(inv["text"][at]) ^ 1) + inv["text"][at + 1:]
    tally.record(job, inv["rc"], flipped)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0), tally.notes


def check_metrics(result: dict, declared: list) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"metrics {got} != declared {want}"
    assert result["correct"] and result["failed"] == 0, result


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = bench("--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without a source tree"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without a source tree"


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_flipped_byte()
    check_metrics(last_json(bench("--trace", "0")), declared["end_to_end"])
    traced = last_json(bench("--trace", "1"))
    check_metrics(traced, declared["per_layer"])
    pairs = workloads.yn_pair_count(6 + 15, 1)
    m = traced["metrics"]
    assert m["hierarchy.pairs"]["value"] == pairs == 43, m["hierarchy.pairs"]
    assert m["hierarchy.rows_checked"]["value"] == pairs * (15 + 1 + 2 * 21), m
    assert m["linalg.psd_calls"]["value"] == 2, m["linalg.psd_calls"]  # lasserre + star SDP
    check_bare_directory()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
