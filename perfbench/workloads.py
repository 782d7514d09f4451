"""The benchmark's workloads: job lists of pvcgap CLI invocations.

A job is one CLI invocation plus what the oracle needs to judge it.  The
seeded inputs (the `xyn --seed` value and the random `graph-opt` graphs)
come from `seed % VARIANTS`, so the set of instances is finite and every
one of them has a reference certificate in `reference.json`.  The full
seed also fixes the order of the jobs within each pass.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

VARIANTS = 32
THREADS = 2

# (n, m, t) of the seeded random graphs in `lp-star`; only the edges vary.
# Two graphs per size keep the median invocation steady across seeds.
GRAPH_SLOTS = ((14, 24, 8), (16, 30, 10), (18, 36, 12)) * 2


@dataclass(frozen=True)
class Job:
    kind: str  # verify | lasserre | star | graph-opt
    argv: tuple  # pvcgap CLI arguments
    params: dict  # the instance, as the oracle reads it
    serial: bool = True
    graph: tuple | None = None  # (relative file name, file text) for graph-opt

    @property
    def key(self) -> str:
        """Reference key: the serial instance, with graph files by content."""
        parts = []
        args = list(self.argv)
        while args:
            a = args.pop(0)
            if a == "--threads":
                args.pop(0)
            elif a == "--graph":
                args.pop(0)
                digest = hashlib.sha256(self.graph[1].encode()).hexdigest()[:16]
                parts += ["--graph", f"sha256:{digest}"]
            else:
                parts.append(a)
        return " ".join(parts)

    def label(self) -> str:
        return " ".join(self.argv) if self.graph is None else self.key


def yn_pair_count(m: int, max_size: int) -> int:
    """Disjoint (Y, N) pairs over m variables with |Y u N| <= max_size."""
    return sum(comb(m, k) * 2**k for k in range(max_size + 1))


def verify_job(level, n, r, t, p=None, sample=None, xyn_seed=None, threads=1) -> Job:
    argv = ["verify", "--level", level, "--n", str(n), "--r", str(r), "--t", str(t)]
    if p is not None:
        argv += ["--p", f"{p.numerator}/{p.denominator}"]
    if sample is not None:
        argv += ["--sample", str(sample), "--seed", str(xyn_seed)]
    if threads > 1:
        argv += ["--threads", str(threads)]
    params = {"level": level, "n": n, "r": r, "t": t,
              "p": p if p is not None else Fraction(t, comb(n - 2 * r, 2)),
              "sample": sample, "seed": xyn_seed}
    return Job("verify", tuple(argv), params, serial=threads <= 1)


def lasserre_job(n, r, t) -> Job:
    argv = ("lasserre", "--n", str(n), "--r", str(r), "--t", str(t))
    return Job("lasserre", argv, {"n": n, "r": r, "t": t})


def star_job(n, t) -> Job:
    return Job("star", ("star", "--n", str(n), "--t", str(t)), {"n": n, "t": t})


def random_graph(rng: random.Random, n: int, m: int) -> tuple:
    edges = sorted(rng.sample(list(combinations(range(1, n + 1), 2)), m))
    return tuple(edges)


def graph_job(name: str, n: int, edges: tuple, t: int) -> Job:
    text = f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)
    argv = ("graph-opt", "--graph", name, "--t", str(t))
    return Job("graph-opt", argv, {"n": n, "edges": edges, "t": t}, graph=(name, text))


def _variant_rng(seed: int) -> random.Random:
    return random.Random(f"pvcgap-bench/{seed % VARIANTS}")


def sa_scan(seed: int) -> list:
    # the Theorem-1 row scan; the p = 1/100 jobs exit early at the first row
    low = Fraction(1, 100)
    return [
        verify_job("sa", 8, 2, 1),
        verify_job("sa", 8, 2, 1, threads=THREADS),
        verify_job("sa", 8, 1, 1, p=low),
        verify_job("sa", 8, 1, 1, p=low, threads=THREADS),
    ]


def psd_family(seed: int) -> list:
    # conditioned-matrix assembly plus LDL^T; (12,2,1) is exactly PSD.
    # Matrices differ in cost by (Y, N), so a sample of 30 rather than 10
    # keeps the sampled job's time steady across seeds.
    xyn_seed = _variant_rng(seed).randrange(10**6)
    return [
        verify_job("xyn", 8, 2, 1),
        verify_job("xyn", 10, 2, 1, sample=30, xyn_seed=xyn_seed),
        lasserre_job(120, 1, 1),
        lasserre_job(12, 2, 1),
        lasserre_job(13, 2, 1),
    ]


def lp_star(seed: int) -> list:
    # the star-6 level-1 lifted LP plus brute force and LP on random graphs
    rng = _variant_rng(seed)
    jobs = [star_job(6, 3)]
    for k, (n, m, t) in enumerate(GRAPH_SLOTS):
        jobs.append(graph_job(f"g{k}.graph", n, random_graph(rng, n, m), t))
    return jobs


def toy(seed: int) -> list:
    # seconds in total; used by selftest.py, not listed in BENCHMARK.json
    return [verify_job("sa", 6, 1, 1), star_job(3, 1), lasserre_job(13, 2, 1)]


WORKLOADS = {"sa-scan": sa_scan, "psd-family": psd_family, "lp-star": lp_star, "toy": toy}


def all_instances() -> list:
    """Every serial instance any seed can produce, for reference.json."""
    seen = {}
    for name, build in WORKLOADS.items():
        for variant in range(VARIANTS):
            for job in build(variant):
                if job.serial:
                    seen.setdefault(job.key, job)
    return list(seen.values())
