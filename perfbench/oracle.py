"""Known answers for every job, computed here and never by pvcgap.

`check(job, exit_code, text)` returns the list of ways the certificate
disagrees with the answer the closed forms below give; an empty list
means the verdict and every value checked are right.  Certificate bytes
are compared against the reference separately (see run.py).
`expected_counts(job)` gives the counts a traced serial job must show.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb

from workloads import yn_pair_count


def _exact(entry) -> Fraction:
    return Fraction(entry["exact"])


def clique_opt(n: int, t: int) -> int:
    """Fewest vertices of K_n that cover at least t edges."""
    return next(k for k in range(n + 1) if comb(k, 2) + k * (n - k) >= t)


def graph_opt(n: int, edges, t: int) -> int:
    """Fewest vertices covering at least t of `edges`, by brute force."""
    incident = [0] * (n + 1)
    for k, (i, j) in enumerate(edges):
        incident[i] |= 1 << k
        incident[j] |= 1 << k
    for size in range(n + 1):
        for subset in combinations(range(1, n + 1), size):
            covered = 0
            for v in subset:
                covered |= incident[v]
            if covered.bit_count() >= t:
                return size
    raise ValueError(f"no vertex set covers {t} edges")


def slack_minor(n: int, r: int, t: int) -> dict:
    """Entries of the demand-slack minor on K_n at p = t / C(n-2r, 2).

    The minor is indexed by {empty} u vertices; its entries depend only on
    how many vertices the row and column name together (0, 1 or 2):
    p^u (E[slack on the other n-u vertices] + edges the u vertices cover).
    """
    p = Fraction(t, comb(n - 2 * r, 2))

    def entry(u: int) -> Fraction:
        rest = n - u
        slack = comb(rest, 2) * (2 * p - p * p) - t
        return p**u * (slack + comb(u, 2) + u * rest)

    e0, e1, e2 = entry(0), entry(1), entry(2)
    # Schur complement at the empty-set entry: diagonal e1 - e1^2/e0,
    # off-diagonal e2 - e1^2/e0; all-ones is an eigenvector, and every
    # vector orthogonal to it has eigenvalue diagonal - off-diagonal
    allones = (e1 - e1 * e1 / e0) + (n - 1) * (e2 - e1 * e1 / e0)
    return {"p": p, "e0": e0, "e1": e1, "e2": e2, "allones": allones,
            "psd": e0 > 0 and e1 - e2 >= 0 and allones >= 0}


def slack_quadratic_form(minor: dict, v) -> Fraction:
    v0, rest = v[0], v[1:]
    s, sq = sum(rest, Fraction(0)), sum((x * x for x in rest), Fraction(0))
    return (minor["e0"] * v0 * v0 + 2 * minor["e1"] * v0 * s
            + minor["e1"] * sq + minor["e2"] * (s * s - sq))


def expected_counts(job) -> dict:
    """Closed forms the traced counts of one serial job must equal."""
    p = job.params
    if job.kind != "verify" or not job.serial:
        return {}
    edges = comb(p["n"], 2)
    nvars = p["n"] + edges
    if p["level"] == "xyn":
        total = yn_pair_count(nvars, p["r"] - 1)
        return {"matrices": total if p["sample"] is None else min(p["sample"], total)}
    if edges * (2 * p["p"] - p["p"] ** 2) < p["t"]:
        return {"pairs": 1, "rows": edges + 1}  # stops at the first demand row
    pairs = yn_pair_count(nvars, p["r"])
    return {"pairs": pairs, "rows": pairs * (edges + 1 + 2 * nvars)}


def _want(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


def _check_verify(prm: dict, cert: dict, problems: list) -> int:
    level, n, r, t, p = prm["level"], prm["n"], prm["r"], prm["t"], prm["p"]
    m = comb(n, 2)
    _want(problems, "params", (cert["params"]["level"], cert["params"]["n"],
                               cert["params"]["r"], cert["params"]["t"],
                               _exact(cert["params"]["p"])), (level, n, r, t, p))
    _want(problems, "objective", _exact(cert["values"]["objective"]), n * p)
    demand = m * (2 * p - p * p)  # demand row at Y = N = empty
    if level == "sa" and demand < t:
        # the edge rows at the empty pair read p^2 >= 0, so the demand row
        # is the first violation in enumeration order
        _want(problems, "verdict", cert["verdict"], "infeasible")
        w = cert["witness"] or {}
        _want(problems, "witness", (w.get("constraint"), w.get("Y"), w.get("N")),
              ("demand", [], []))
        if "lhs" in w:
            _want(problems, "witness lhs", _exact(w["lhs"]), demand)
            _want(problems, "witness rhs", _exact(w["rhs"]), Fraction(t))
        return 2
    if level == "sa" and not (n >= 2 * r + 2 * t + 2 and p == Fraction(t, comb(n - 2 * r, 2))):
        raise ValueError(f"no known answer for {prm}")
    # Theorem 1 for sa; xyn matrices are moment matrices of a distribution
    _want(problems, "verdict", cert["verdict"], "feasible")
    if level == "sa":
        gap = cert["values"].get("integrality_gap_lower_bound")
        _want(problems, "gap", gap and _exact(gap), clique_opt(n, t) / (n * p))
    if prm["sample"] is not None:
        _want(problems, "sample", (cert["params"].get("sample"), cert["params"].get("seed")),
              (prm["sample"], prm["seed"]))
        _want(problems, "matrices checked", cert["values"]["constraints_checked"], prm["sample"])
    return 0


def _check_lasserre(prm: dict, cert: dict, problems: list) -> int:
    minor = slack_minor(prm["n"], prm["r"], prm["t"])
    _want(problems, "p", _exact(cert["params"]["p"]), minor["p"])
    _want(problems, "schur_pivot", _exact(cert["values"]["schur_pivot"]), minor["e0"])
    eig = _exact(cert["values"]["allones_eigenvalue"])
    _want(problems, "allones_eigenvalue", eig, minor["allones"])
    if minor["psd"]:
        _want(problems, "verdict", cert["verdict"], "not-refuted")
        return 2
    _want(problems, "verdict", cert["verdict"], "refuted")
    w = cert["witness"] or {}
    vector = [Fraction(x) for x in w.get("vector", [])]
    if len(vector) != prm["n"] + 1:
        problems.append(f"witness vector has {len(vector)} entries, want {prm['n'] + 1}")
    else:
        q = slack_quadratic_form(minor, vector)
        _want(problems, "witness quadratic form", _exact(w["quadratic_form"]), q)
        if q >= 0:
            problems.append(f"witness quadratic form {q} is not negative")
    return 0


def _check_star(prm: dict, cert: dict, problems: list) -> int:
    n, t = prm["n"], prm["t"]
    v = cert["values"]
    _want(problems, "verdict", cert["verdict"], "verified")
    _want(problems, "lp_value", _exact(v["lp_value"]), Fraction(t, n))
    _want(problems, "sa1_value", _exact(v["sa1_value"]), Fraction(1))
    _want(problems, "integral_opt", _exact(v["integral_opt"]), Fraction(1))
    _want(problems, "lp_gap", _exact(v["lp_gap"]), Fraction(n, t))
    if 2 * t <= n:
        _want(problems, "sdp_value", _exact(v["sdp_value"]), Fraction(t, n))
    else:
        _want(problems, "sdp_value", v["sdp_value"], "skipped(t>n/2)")
    return 0


def _check_graph_opt(prm: dict, cert: dict, problems: list) -> int:
    n, edges, t = prm["n"], prm["edges"], prm["t"]
    v = cert["values"]
    opt = graph_opt(n, edges, t)
    degree = max(sum(1 for e in edges if i in e) for i in range(1, n + 1))
    lp = _exact(v["lp_value"])
    _want(problems, "verdict", cert["verdict"], "ok")
    _want(problems, "params", (cert["params"]["n"], cert["params"]["m"], cert["params"]["t"]),
          (n, len(edges), t))
    _want(problems, "integral_opt", _exact(v["integral_opt"]), Fraction(opt))
    # each vertex covers at most `degree` edges, so the LP is >= t / degree
    if not Fraction(t, degree) <= lp <= opt:
        problems.append(f"lp_value {lp} outside [{Fraction(t, degree)}, {opt}]")
    elif "integrality_gap" in v:
        _want(problems, "integrality_gap", _exact(v["integrality_gap"]), opt / lp)
    else:
        problems.append("integrality_gap missing")
    return 0


_CHECKS = {"verify": _check_verify, "lasserre": _check_lasserre,
           "star": _check_star, "graph-opt": _check_graph_opt}


def check(job, exit_code: int, text: str) -> list:
    """Problems with one job's exit code and certificate; [] when right."""
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return [f"certificate is not JSON: {exc}"]
    problems = []
    try:
        want_exit = _CHECKS[job.kind](job.params, cert, problems)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return problems + [f"certificate field missing or unreadable: {exc!r}"]
    _want(problems, "exit code", exit_code, want_exit)
    return problems
