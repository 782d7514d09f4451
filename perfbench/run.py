"""pvcgap benchmark: time to verdict of whole CLI runs, and where it goes.

    python3 perfbench/run.py --workload sa-scan --seed 0 --seconds 30 --trace 0

With `--trace 0` the benchmark runs `python -m pvcgap.cli` subprocesses
one after another (a closed loop with one client), in whole passes over
the workload's job list: at least two, and another only while it should
end within `--seconds`.  It reports the end-to-end metrics of
BENCHMARK.json, with every time restated at a fixed host speed that
speedprobe.py measures alongside the run (see `Speed`).  With `--trace 1`
it runs the same jobs in this process instead, alternating untraced
passes with passes traced by tracer.py, and reports the per-layer metrics.

Every certificate is judged twice: against the known answers oracle.py
computes, and byte for byte against the serial certificate that the
reference commit printed for the same instance (reference.json).  Output
lines describe the run; the last line is the JSON result.  The exit code
is 0 whenever a result is printed; a run that cannot start (no source
tree, wrong rational backend) exits 2 without one.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import oracle
import speedprobe
import workloads
from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
BACKEND = "fraction"
INVOCATION_LIMIT_S = 60
RUN_LIMIT_S = 120  # passes beyond the first stop here, whatever --seconds says
SETUP_PROBES = 8  # before each pass and after the last
MIN_PASSES = 2
# speedprobe.py's kernel CPU time at which scaled seconds are stated, near
# its time on an unloaded core of a 2-CPU x86-64 VM; scaled times compare
# runs on one machine, so any fixed value would do
REFERENCE_PROBE_S = 0.001
SPEED_MIN_SAMPLES = 5
TAIL_LEVELS = (99, 95, 90, 75, 50)


class SetupError(Exception):
    pass


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PVCGAP_RATIONAL=BACKEND)


def spawn(argv, env, cpus=None) -> dict:
    """One CLI invocation on `cpus`: exit code, stdout, start, end, cpu, max RSS."""
    with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
        allowed = os.sched_getaffinity(0)
        if cpus is not None:
            os.sched_setaffinity(0, cpus)  # the child and its pool inherit it
        try:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, "-m", "pvcgap.cli", *argv],
                                    cwd=WORK, env=env, stdout=out, stderr=err,
                                    start_new_session=True)
        finally:
            os.sched_setaffinity(0, allowed)
        # a hung run is killed with its pool workers, which share its session
        watchdog = threading.Timer(INVOCATION_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            # wait4 reports the child's usage including its pool workers
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return {"rc": proc.returncode, "text": text, "stderr": stderr, "t0": t0, "t1": t1,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
            "cpus": cpus}


class Speed:
    """Host speed over time on each probed CPU, from speedprobe.py's samples.

    `scale(t0, t1, seconds, cpus)` restates a time measured in [t0, t1] on
    `cpus` at the reference speed: seconds * REFERENCE_PROBE_S / (mean
    probe CPU time in the window), averaged over the CPUs.  Windows with
    fewer than SPEED_MIN_SAMPLES samples widen to the nearest ones.
    """

    def __init__(self, outputs: dict):
        self.probes = {}
        for cpu, text in outputs.items():
            rows = [line.split() for line in text.splitlines() if line.strip()]
            if len(rows) < SPEED_MIN_SAMPLES:
                raise SetupError(f"speed probe on CPU {cpu} returned {len(rows)} samples")
            self.probes[cpu] = ([float(t) for t, _ in rows], [float(c) for _, c in rows])

    def factor(self, t0: float, t1: float, cpus=None) -> float:
        factors = []
        for cpu in cpus or self.probes:
            stamps, cpu_times = self.probes[cpu]
            lo, hi = bisect_left(stamps, t0), bisect_right(stamps, t1)
            while hi - lo < SPEED_MIN_SAMPLES:
                lo, hi = max(0, lo - 1), min(len(stamps), hi + 1)
            factors.append(REFERENCE_PROBE_S / statistics.fmean(cpu_times[lo:hi]))
        return statistics.fmean(factors)

    def scale(self, t0: float, t1: float, seconds: float, cpus=None) -> float:
        return seconds * self.factor(t0, t1, cpus)


def probed_cpus() -> list:
    """The CPUs the runs use and probe: as many as the jobs' threads, at most."""
    return sorted(os.sched_getaffinity(0))[:workloads.THREADS]


@contextmanager
def speed_probe():
    """Run speedprobe.py pinned to each CPU of probed_cpus(); yields a list
    that receives the Speed once the probes have stopped."""
    procs, outputs, got = {}, {}, []
    try:
        for cpu in probed_cpus():
            procs[cpu] = subprocess.Popen([sys.executable, str(HERE / "speedprobe.py")],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          text=True)
            os.sched_setaffinity(procs[cpu].pid, {cpu})
        time.sleep(SPEED_MIN_SAMPLES * speedprobe.PERIOD_S)  # samples before the first window
        yield got
    finally:
        for cpu, proc in procs.items():
            try:
                outputs[cpu] = proc.communicate(timeout=INVOCATION_LIMIT_S)[0]  # stdin closes
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if len(outputs) < len(procs):
        raise SetupError("speed probe did not stop")
    got.append(Speed(outputs))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["certificates"]


def judge(job, rc: int, text: str, reference: dict) -> tuple:
    """(oracle problems, byte problem or None) for one invocation."""
    problems = oracle.check(job, rc, text)
    want = reference.get(job.key)
    got = hashlib.sha256(text.encode()).hexdigest()
    if want is None:
        return problems, f"no reference certificate for {job.key}"
    if got != want:
        return problems, f"certificate sha256 {got[:12]} != reference {want[:12]}"
    return problems, None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_backend(env) -> None:
    probe = "from pvcgap.rational import BACKEND; print(BACKEND)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=WORK, env=env,
                          capture_output=True, text=True, timeout=INVOCATION_LIMIT_S)
    if proc.stdout.strip() != BACKEND:
        raise SetupError(f"rational backend is {proc.stdout.strip() or proc.stderr!r}, "
                         f"want {BACKEND}")


def write_inputs(jobs) -> None:
    for job in jobs:
        if job.graph is not None:
            (WORK / job.graph[0]).write_text(job.graph[1], encoding="utf-8")


class Tally:
    """Invocations attempted and failed, and whether every answer was right."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = {}

    def record(self, job, rc: int, text: str) -> None:
        problems, byte_problem = judge(job, rc, text, self.reference)
        self.attempted += 1
        if problems:
            self.wrong += 1
        if problems or byte_problem:
            self.failed += 1
            notes = problems + ([byte_problem] if byte_problem else [])
            self.notes.setdefault(job.label(), "; ".join(notes))


def another_pass(passes: list, start: float, seconds: float, minimum: int) -> bool:
    """Whole passes only: `minimum` of them while RUN_LIMIT_S allows, and
    more while the next one should end within `seconds`."""
    if not passes:
        return True
    t0, t1 = passes[-1][:2]
    ends = 2 * t1 - t0 - start
    return ends <= (RUN_LIMIT_S if len(passes) < minimum else seconds)


def tail(values: list):
    """(level, value) of the highest percentile with >= 10 samples above it."""
    for level in TAIL_LEVELS:
        if len(values) * (100 - level) >= 1000:
            return level, statistics.quantiles(values, n=100)[level - 1]
    return None


def run_e2e(jobs, seconds: float, rng: random.Random, tally: Tally) -> dict:
    env = cli_env()
    check_backend(env)
    cpus = probed_cpus()
    # serial runs stay on the first probed CPU, so its probe tracks their
    # speed; --threads runs get every probed CPU
    serial_cpus, pool_cpus = {cpus[0]}, set(cpus)
    spawn(["--help"], env, serial_cpus)  # writes bytecode caches on a fresh checkout
    setup, invocations, passes = [], [], []

    def measure_setup():
        for _ in range(SETUP_PROBES):
            inv = spawn(["--help"], env, serial_cpus)
            if inv["rc"] != 0:
                raise SetupError(f"pvcgap --help exited {inv['rc']}: {inv['stderr'].strip()}")
            setup.append(inv)

    with speed_probe() as probe:
        start = time.monotonic()
        while another_pass(passes, start, seconds, MIN_PASSES):
            measure_setup()  # between passes, so setup samples span the run
            t0 = time.monotonic()
            first = len(invocations)
            for job in rng.sample(jobs, len(jobs)):
                inv = spawn(job.argv, env, serial_cpus if job.serial else pool_cpus)
                tally.record(job, inv["rc"], inv["text"])
                invocations.append((job.label(), inv))
            passes.append((t0, time.monotonic(), invocations[first:]))
        measure_setup()
    speed = probe[0]

    def scaled(inv, seconds):
        return speed.scale(inv["t0"], inv["t1"], seconds, inv["cpus"])

    def wall(inv):
        return inv["t1"] - inv["t0"]

    per_job = {}
    for label, inv in invocations:
        per_job.setdefault(label, []).append(scaled(inv, wall(inv)))
    for label, times in per_job.items():
        print(f"job {label}: median {statistics.median(times):.4f} s over {len(times)}")
    walls = [t for times in per_job.values() for t in times]
    hi = tail(walls)
    print("verdict_s tail: " + (f"p{hi[0]} {hi[1]:.4f} s" if hi else "not reported")
          + f" ({len(walls)} invocations; p50 needs 20)")
    print(f"setup: {len(setup)} probes; unscaled setup_s "
          f"{statistics.median(wall(inv) for inv in setup):.4f} s")
    raw = statistics.median(sum(wall(inv) for _, inv in pass_) for _, _, pass_ in passes)
    factors = [speed.factor(p0, p1) for p0, p1, _ in passes]
    print(f"passes: {len(passes)}; unscaled workload_s {raw:.4f} s; "
          f"speed factors {', '.join(f'{f:.3f}' for f in factors)}")
    # the median of a mixed job list falls between job types and ignores
    # all but one job, so average each job's own median instead
    job_medians = [statistics.median(times) for times in per_job.values()]
    return {
        "verdict_s": (statistics.fmean(job_medians), "s"),
        "workload_s": (statistics.median(sum(scaled(inv, wall(inv)) for _, inv in pass_)
                                         for _, _, pass_ in passes), "s"),
        "cpu_s": (statistics.median(sum(scaled(inv, inv["cpu"]) for _, inv in pass_)
                                    for _, _, pass_ in passes), "s"),
        "setup_s": (statistics.median(scaled(inv, wall(inv)) for inv in setup), "s"),
        "peak_rss_mb": (max(inv["rss_kb"] for _, inv in invocations) / 1024, "MB"),
    }


def run_traced(jobs, seconds: float, rng: random.Random, tally: Tally) -> dict:
    os.environ["PVCGAP_RATIONAL"] = BACKEND
    sys.path.insert(0, str(SRC))
    import pvcgap.cli
    import pvcgap.rational

    if pvcgap.rational.BACKEND != BACKEND:
        raise SetupError(f"rational backend is {pvcgap.rational.BACKEND}, want {BACKEND}")
    tracer = Tracer()
    traced_main = tracer.span("cli", pvcgap.cli.main)
    os.chdir(WORK)  # graph files are named relative to the work directory
    drift = []

    cpus = probed_cpus()
    allowed = os.sched_getaffinity(0)

    def one_pass(main, traced: bool) -> tuple:
        t0 = time.monotonic()
        for job in rng.sample(jobs, len(jobs)):
            pairs, matrices = tracer.calls["hierarchy.pair"], tracer.calls["moments.matrix"]
            buf = io.StringIO()
            # pinned as in the untraced runs; pool workers inherit the mask
            os.sched_setaffinity(0, {cpus[0]} if job.serial else set(cpus))
            try:
                with redirect_stdout(buf):
                    rc = main(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a benchmark error
                print(f"{job.label()} raised {exc!r}")
                rc = 1
            finally:
                os.sched_setaffinity(0, allowed)
            text = buf.getvalue()
            tally.record(job, rc, text)
            if not traced or rc not in (0, 2):
                continue
            got = {"pairs": tracer.calls["hierarchy.pair"] - pairs,
                   "matrices": tracer.calls["moments.matrix"] - matrices}
            if job.kind == "verify" and job.serial and job.params["level"] == "sa":
                got["rows"] = json.loads(text)["values"]["constraints_checked"]
                tracer.counts["hierarchy.rows_checked"] += got["rows"]
            for what, want in oracle.expected_counts(job).items():
                if got[what] != want:
                    drift.append(f"{job.label()}: {what} {got[what]} != closed form {want}")
        return t0, time.monotonic()

    plain, traced, layers, rounds = [], [], [], []
    with speed_probe() as probe:
        start = time.monotonic()
        while another_pass(rounds, start, seconds, 1):
            plain.append(one_pass(pvcgap.cli.main, False))
            tracer.reset()
            with tracer.installed():
                traced.append(one_pass(traced_main, True))
            layers.append(tracer.metrics())
            rounds.append((plain[-1][0], traced[-1][1]))
    speed = probe[0]
    counts = {k for k, (unit, _) in LAYER_METRICS.items() if unit != "s"}
    for k in sorted(counts):
        if any(pass_[k] != layers[0][k] for pass_ in layers):
            drift.append(f"{k} differs between passes: {[pass_[k] for pass_ in layers]}")
    for line in drift:
        print(f"count drift: {line}")
    tally.wrong += len(drift)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name in counts:
            out[name] = (layers[0][name], unit)
        else:
            out[name] = (statistics.median(speed.scale(t0, t1, pass_[name], cpus[:1])
                                           for (t0, t1), pass_ in zip(traced, layers)), unit)
    overhead = (statistics.median(speed.scale(t0, t1, t1 - t0, cpus[:1]) for t0, t1 in traced)
                - statistics.median(speed.scale(t0, t1, t1 - t0, cpus[:1]) for t0, t1 in plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "pvcgap" / "cli.py").is_file():
            raise SetupError(f"no pvcgap source tree at {SRC}")
        WORK.mkdir(exist_ok=True)
        jobs = workloads.WORKLOADS[args.workload](args.seed)
        write_inputs(jobs)
        tally = Tally(load_reference())
        print(f"run: workload={args.workload} seed={args.seed} "
              f"variant={args.seed % workloads.VARIANTS} trace={args.trace} "
              f"backend={BACKEND} python={platform.python_version()} "
              f"nproc={os.cpu_count()} git={git_sha()} seconds={args.seconds:g}")
        rng = random.Random(args.seed)
        run = run_traced if args.trace else run_e2e
        metrics = run(jobs, args.seconds, rng, tally)
    except (SetupError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for label, note in tally.notes.items():
        print(f"FAILED {label}: {note}")
    print(f"failed_ops: {tally.failed}/{tally.attempted} invocations")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
