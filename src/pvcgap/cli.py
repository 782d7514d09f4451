"""Command-line surface: reproducible, certificate-emitting experiments.

Exit codes: 0 when the verdict is the expected/positive one, 2 when a
check comes back negative (infeasible point, unexpectedly PSD matrix,
violated SDP constraint), 1 on usage or I/O errors.  Certificates are
canonical JSON: no timestamps, sorted keys, rationals as 'num/den'
strings with decimal renderings alongside.

Each subcommand's handler imports the modules it calls when it runs, so
a command loads only what it uses: `graph-opt` never loads the moment
and matrix layers, and only a `--threads` > 1 scan past its first chunk
loads the process pool (see `hierarchy`).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .certificates import Certificate, negative_verdict, rational_entry
from .rational import Rat, parse_rational, rational_str

# the most pool workers a scan may ask for: the pool forks them all at its first submit
MAX_THREADS = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 1
        raise _UsageError(message)


_CLAIMS = {"sa": "theorem-1", "sap": "theorem-5-sap", "xyn": "theorem-5-xyn"}


def _bounded(low: int, high: int | None = None):
    """argparse type: an integer no smaller than `low` (and no larger than `high`)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def _default_p(n: int, r: int, t: int):
    k = n - 2 * r
    if k < 2:
        raise _UsageError(f"no default p: n - 2r = {k} leaves no free edge pair")
    pairs = comb(k, 2)
    if t > pairs:
        raise _UsageError(f"no default p: t = {t} exceeds C(n - 2r, 2) = {pairs}")
    return Rat(t, pairs)


def _write(text: str, out_path) -> None:
    """Write --out first, so a failed write leaves stdout empty."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit(cert: Certificate, out_path) -> int:
    """Print (and with --out write) the certificate; return its exit code."""
    _write(cert.canonical_json(), out_path)
    return 2 if negative_verdict(cert) else 0


def _violation_dict(vio, graph) -> dict:
    return {
        "constraint": vio.constraint,
        "Y": [graph.var_name(c) for c in vio.y],
        "N": [graph.var_name(c) for c in vio.n],
        "lhs": rational_entry(vio.lhs),
        "rhs": rational_entry(vio.rhs),
    }


def _cmd_verify(args) -> int:
    from .graphs import make_clique
    from .hierarchy import verify_sa, verify_sap, verify_xyn_family
    from .moments import DistParams

    sample = args.sample is not None
    if sample and args.level != "xyn" or not sample and args.seed is not None:
        raise _UsageError("--sample needs --level xyn, and --seed needs --sample")
    seed = args.seed or 0
    graph = make_clique(args.n)
    p = parse_rational(args.p) if args.p is not None else _default_p(args.n, args.r, args.t)
    params = DistParams(graph, p)
    if args.level == "sa":
        verdict = verify_sa(params, args.t, args.r, threads=args.threads)
    elif args.level == "sap":
        verdict = verify_sap(params, args.t, args.r, threads=args.threads)
    else:
        verdict = verify_xyn_family(
            params, args.t, args.r, sample=args.sample, seed=seed, threads=args.threads
        )
    values = {
        "objective": rational_entry(verdict.objective_value),
        "constraints_checked": verdict.constraints_checked,
    }
    if verdict.integrality_gap_lower_bound is not None:
        values["integrality_gap_lower_bound"] = rational_entry(
            verdict.integrality_gap_lower_bound
        )
    params_doc = {
        "level": args.level, "n": args.n, "r": args.r, "t": args.t,
        "p": rational_entry(p),
    }
    if args.level == "xyn" and args.sample is not None:
        params_doc["sample"] = args.sample
        params_doc["seed"] = seed
    cert = Certificate(
        claim=_CLAIMS[args.level],
        params=params_doc,
        verdict="feasible" if verdict.feasible else "infeasible",
        values=values,
        witness=None if verdict.feasible else _violation_dict(verdict.violated, graph),
    )
    return _emit(cert, args.out)


def _cmd_star(args) -> int:
    from .graphs import brute_force_opt, build_pvc_lp, make_star
    from .hierarchy import generate_sa1_lp
    from .sdp import build_star_sdp_solution, verify_hs_sdp
    from .simplex import lp_solve

    n, t = args.n, args.t
    if t < 1 or t > n:
        raise _UsageError("star needs 1 <= t <= n")
    star = make_star(n)
    opt = brute_force_opt(star, t)  # refuses stars past its cap before any LP is built
    lp = lp_solve(build_pvc_lp(star, t))
    sa1 = lp_solve(generate_sa1_lp(star, t))
    values = {
        "lp_value": rational_entry(lp.value),
        "sa1_value": rational_entry(sa1.value),
        "integral_opt": rational_entry(opt),
        "lp_gap": rational_entry(opt / lp.value),
    }
    if 2 * t <= n:
        sdp_cert = verify_hs_sdp(build_star_sdp_solution(n, t))
        if negative_verdict(sdp_cert):
            return _emit(sdp_cert, args.out)
        values["sdp_value"] = sdp_cert.values["objective"]
    else:
        values["sdp_value"] = "skipped(t>n/2)"
    cert = Certificate(
        claim="obs-1",
        params={"n": n, "t": t},
        verdict="verified",
        values=values,
    )
    return _emit(cert, args.out)


def _cmd_lasserre(args) -> int:
    from .lasserre import lasserre1_refutes

    return _emit(lasserre1_refutes(args.n, args.r, args.t), args.out)


def _parse_grid(spec: str) -> list:
    triples = []
    for chunk in spec.replace(";", " ").split():
        parts = chunk.split(",")
        if len(parts) != 3:
            raise _UsageError(f"grid entry {chunk!r} is not 'n,r,t'")
        triples.append(tuple(int(x) for x in parts))
    if not triples:
        raise _UsageError("empty grid")
    return triples


def _cmd_gap_table(args) -> int:
    from .graphs import integral_opt, make_clique
    from .hierarchy import verify_sa
    from .moments import DistParams

    rows = []
    for n, r, t in _parse_grid(args.grid):
        row = {"n": n, "r": r, "t": t, "p": "", "p_dec": "",
               "sa_objective": "", "sa_objective_dec": "", "opt": "",
               "gap_bound": "", "gap_bound_dec": "",
               "feasible": "", "hypothesis_ok": n >= 2 * r + 2 * t + 2, "error": ""}
        try:
            p = _default_p(n, r, t)
            graph = make_clique(n)
            verdict = verify_sa(DistParams(graph, p), t, r, threads=args.threads)
            row["p"] = rational_str(p)
            row["p_dec"] = rational_entry(p)["decimal"]
            row["sa_objective"] = rational_str(verdict.objective_value)
            row["sa_objective_dec"] = rational_entry(verdict.objective_value)["decimal"]
            row["feasible"] = verdict.feasible
            g = verdict.integrality_gap_lower_bound
            # g is opt / objective; the oracle has run only where g is known
            opt = integral_opt(graph, t) if g is None else g * verdict.objective_value
            if opt is not None:
                row["opt"] = rational_str(opt)
            if g is not None:
                row["gap_bound"] = rational_str(g)
                row["gap_bound_dec"] = rational_entry(g)["decimal"]
        except (_UsageError, ValueError, OverflowError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    if args.format == "json":
        text = json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _write(text, args.out)
    return 0


def _cmd_graph_opt(args) -> int:
    from .graphs import brute_force_opt, build_pvc_lp, load_graph
    from .simplex import lp_solve

    graph = load_graph(args.graph)
    t = args.t
    opt = brute_force_opt(graph, t)  # refuses graphs past its cap before the LP is built
    lp = lp_solve(build_pvc_lp(graph, t))
    values = {
        "lp_value": rational_entry(lp.value),
        "integral_opt": rational_entry(opt),
    }
    if lp.value > 0:
        values["integrality_gap"] = rational_entry(opt / lp.value)
    cert = Certificate(
        claim="graph-opt",
        params={"n": graph.n, "m": graph.m, "t": t},
        verdict="ok",
        values=values,
    )
    return _emit(cert, args.out)


def _build_parser() -> _Parser:
    # --help shows the docstring without its last paragraph, which is about the source
    parser = _Parser(prog="pvcgap", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_r=True):
        p.add_argument("--n", type=_bounded(1), required=True)
        if need_r:
            p.add_argument("--r", type=_bounded(0), required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="hierarchy membership of the random-cover point on a clique")
    p.add_argument("--level", choices=("sa", "sap", "xyn"), required=True)
    common(p)
    p.add_argument("--t", type=_bounded(0), required=True)
    p.add_argument("--p", default=None, help="override p (default t / C(n-2r, 2))")
    p.add_argument("--threads", type=_bounded(1, MAX_THREADS), default=1)
    p.add_argument("--sample", type=_bounded(1), default=None)
    p.add_argument("--seed", type=int, default=None, help="xyn sample seed (default 0)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("star", help="LP / lifted-LP / SDP / integral values on the star")
    common(p, need_r=False)
    p.add_argument("--t", type=_bounded(0), required=True)
    p.set_defaults(fn=_cmd_star)

    p = sub.add_parser("lasserre", help="level-1 moment-SDP check of the demand slack")
    common(p)
    p.add_argument("--t", type=_bounded(1), required=True)
    p.set_defaults(fn=_cmd_lasserre)

    p = sub.add_parser("gap-table", help="CSV sweep of lifting levels and demands")
    p.add_argument("--grid", required=True, help="semicolon/space separated n,r,t triples")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=_bounded(1, MAX_THREADS), default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gap_table)

    p = sub.add_parser("graph-opt", help="brute force and LP on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=_bounded(0), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_graph_opt)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # hierarchy.WorkerFailed is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
