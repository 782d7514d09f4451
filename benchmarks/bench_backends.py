"""Compare the two rational backends on the hot kernels.

The arithmetic backend is chosen at import time (gmpy2's compiled mpq when
available, stdlib Fraction otherwise), so the comparison runs each workload
in a fresh subprocess with PVCGAP_RATIONAL forced.  Usage:

    python benchmarks/bench_backends.py

Workloads: exact PSD factorization of a 56x56 conditioned moment matrix,
a full lifting-membership scan on a 10-clique, and the lifted-LP solve on
the 6-leaf star.  Exits 1 when any workload fails on any backend.
"""

import os
import subprocess
import sys
import textwrap

WORKLOADS = {
    "psd-56x56": """
        from pvcgap.rational import Rat
        from pvcgap.graphs import make_clique
        from pvcgap.moments import DistParams, build_cond_matrix
        from pvcgap.linalg import psd_check
        params = DistParams(make_clique(10), Rat(1, 28))
        matrix = build_cond_matrix(params, (), ())
        t0 = time.perf_counter()
        for _ in range(5):
            assert psd_check(matrix).is_psd
        print(f"{(time.perf_counter() - t0) / 5:.3f}")
    """,
    "sa-scan-K10": """
        from pvcgap.rational import Rat
        from pvcgap.graphs import make_clique
        from pvcgap.moments import DistParams
        from pvcgap.hierarchy import verify_sa
        g = make_clique(10)
        t0 = time.perf_counter()
        assert verify_sa(g, 1, 1, DistParams(g, Rat(1, 28))).feasible
        print(f"{time.perf_counter() - t0:.3f}")
    """,
    "lifted-lp-star6": """
        from pvcgap.rational import Rat
        from pvcgap.graphs import make_star
        from pvcgap.hierarchy import generate_sa1_lp
        from pvcgap.simplex import lp_solve
        lp = generate_sa1_lp(make_star(6), 3)
        t0 = time.perf_counter()
        assert lp_solve(lp).value == Rat(1)
        print(f"{time.perf_counter() - t0:.3f}")
    """,
}


def run(backend: str, body: str) -> tuple:
    """(ok, table cell) for one workload on one backend."""
    env = dict(os.environ, PVCGAP_RATIONAL=backend)
    code = "import time\n" + textwrap.dedent(body)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return False, f"error: {lines[-1]}"
    return True, proc.stdout.strip() + "s"


def main() -> int:
    backends = ["fraction"]
    try:
        import gmpy2  # noqa: F401

        backends.insert(0, "gmpy2")
    except ImportError:
        print("gmpy2 not installed; timing the pure-Python backend only")
    width = max(len(k) for k in WORKLOADS)
    print(f"{'workload':<{width}}  " + "  ".join(f"{b:>10}" for b in backends))
    failed = 0
    for name, body in WORKLOADS.items():
        results = [run(b, body) for b in backends]
        failed += sum(not ok for ok, _ in results)
        print(f"{name:<{width}}  " + "  ".join(f"{cell:>10}" for _, cell in results))
    if failed:
        print(f"{failed} workload run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
