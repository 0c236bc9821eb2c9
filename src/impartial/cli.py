"""Batch command-line front end.

Subcommands: gen (graph families), eval (exact distributions or seeded
sampling), verify (the verification suite; exit code doubles as CI
signal), figure3 (the per-delta guarantee table), worst-case (exhaustive
minimum-ratio search).

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error
(including numbers rejected at parse time and unreadable graph files),
3 an exact computation exceeded its cap: the n <= 16 prefix-set DP
behind perm, mix and the correlation check, the n <= 12
isomorphism-class generator, or the work budget of an exhaustive sweep
or check (which stops perm and mix impartiality at n = 11) or of
sampled impartiality (which stops perm and mix at n = 14 with the
default 200 graphs); or the run ran out of memory, as a graph too
large to build does,
4 an internal error: an unexpected exception, reported on stderr as
"internal error: ..." with its traceback, 141 stdout was closed before
all output was written (a reader such as `head` went away).  Outputs
embed the full run configuration and carry no timestamps, so identical
invocations produce identical bytes.

`main(argv)` may be called repeatedly in one process: the first call
builds the argument parser and later calls reuse it, while each call
looks up its subcommand's handler afresh.  `--jobs` above 1 splits the
walks of `verify bounds`, `verify lemma3`, `verify impartial` and
`worst-case`; the other `verify` checks run in one process and refuse it
(exit 2).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__, analysis
from .generators import family_graph
from .graphs import (
    CapacityError,
    InputError,
    NominationGraph,
    graph_to_text,
    graphs_from_text,
)
from .mechanisms import MECHANISMS, MIX_SMALL_N, get_mechanism
from .rng import SeedStream

PASS, FAIL, USAGE, CAPACITY, INTERNAL = 0, 1, 2, 3, 4
CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader gone away

_ENV_SEED = "IMPARTIAL_SEED"


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def frac_decimal(f: Fraction | float) -> str:
    """Decimal rendering to 12 places; lossy but within 1e-12."""
    return f"{float(f):.12f}"


def _config_header(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    return {"tool": "impartial", "version": __version__, "config": cfg}


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _resolve_seed(args: argparse.Namespace, required: bool) -> Optional[int]:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"{_ENV_SEED}={env!r} is not an integer") from exc
    if required:
        raise InputError(f"a seed is required: pass --seed or set {_ENV_SEED}")
    return None


def _read_one_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read graph file {path!r}: {exc}") from exc
    graphs = graphs_from_text(text)
    if len(graphs) != 1:
        raise InputError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


# ---------------------------------------------------------------------------
# gen

def _cmd_gen(args: argparse.Namespace) -> int:
    line = graph_to_text(family_graph(" ".join(args.params)))
    if args.format == "json":
        payload = _config_header(args)
        payload["graph"] = line
        _emit_json(payload)
    else:
        print(line)
    return PASS


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args: argparse.Namespace) -> int:
    mech = get_mechanism(args.mech)
    graph = _read_one_graph(args.graph)
    payload = _config_header(args)

    if args.samples is None:
        dist = mech.exact(graph)
        header = ["vertex", "prob", "decimal"]
        table = [[v, frac_str(p), frac_decimal(p)] for v, p in zip(graph.vertices, dist.probs)]
        payload["mode"] = "exact"
        payload["distribution"] = [dict(zip(header, row)) for row in table]
        payload["total"] = frac_str(dist.total)
        if isinstance(graph, NominationGraph):
            rep = analysis.ratio_of(mech.name, graph, dist)
            payload["ratio"] = {
                "expected_indegree": frac_str(rep.expected_indegree),
                "max_indegree": rep.delta,
                "ratio": frac_str(rep.ratio),
                "decimal": frac_decimal(rep.ratio),
            }
    else:
        draws, rng = mech.sampler(graph), SeedStream(_resolve_seed(args, required=True))
        # counts[v] for vertex v, counts[0] for no one, a chunk at a time (flat in --samples)
        counts = sum(np.bincount(p, minlength=graph.n + 1) for p in draws.chunks(rng, args.samples)).tolist()
        k = args.samples
        header = ["vertex", "count", "freq", "ci3"]
        table = []
        for v in graph.vertices:
            f = counts[v] / k
            ci = 3.0 * math.sqrt(max(f * (1 - f), 0.0) / k)
            table.append([v, counts[v], f"{f:.12f}", f"{ci:.12f}"])
        payload["mode"] = "sampled"
        payload["samples"] = k
        payload["frequencies"] = [dict(zip(header, row)) for row in table]
        payload["none_count"] = counts[0]
    if args.format == "csv":
        _emit_csv(header, table)
    else:
        _emit_json(payload)
    return PASS


# ---------------------------------------------------------------------------
# verify

def _verify_impartial(args: argparse.Namespace, payload: dict) -> bool:
    seed = _resolve_seed(args, required=args.mode == "sampled") or 0
    rep = analysis.check_impartial(
        args.mech, args.n, mode=args.mode, seed=seed, samples=args.samples or 200, jobs=args.jobs
    )
    payload["graphs_checked"] = rep.graphs_checked
    payload["deviations_checked"] = rep.deviations_checked
    if rep.counterexample is not None:
        w = rep.counterexample
        payload["counterexample"] = {
            "graph": graph_to_text(w.graph),
            "vertex": w.vertex,
            "new_target": w.new_target,
            "prob_before": frac_str(w.prob_before),
            "prob_after": frac_str(w.prob_after),
        }
    return rep.passed


def _below_floor(sweep: analysis.GraphSweep, mech: str, floor) -> list[int]:
    """Indices of the sweep's classes whose mech ratio falls below
    floor(delta, high2)."""
    rows = zip(sweep.ratios[mech], sweep.deltas, sweep.high2_counts)
    return [i for i, (r, d, h) in enumerate(rows) if r < floor(d, h)]


def _verify_bounds(args: argparse.Namespace, payload: dict) -> bool:
    n = args.n
    mech = args.mech
    if mech == "rd":
        if n > 5:
            raise InputError("the rd floor 1/2 + 1/n only holds for n <= 5")
        sweep = analysis.sweep_graphs(n, ("rd",), jobs=args.jobs)
        best, idx = sweep.min_ratio("rd")
        target = Fraction(1, 2) + Fraction(1, n)
        payload["min_ratio"] = frac_str(best)
        payload["target"] = frac_str(target)
        payload["witness"] = graph_to_text(sweep.witness(idx))
        return best == target
    if mech == "perm":
        _, runs, violations = analysis.scan_orderings(n, jobs=args.jobs)
        sweep = analysis.sweep_graphs(n, ("perm",), jobs=args.jobs)
        bad = _below_floor(sweep, "perm", analysis.perm_floor)
        best, _ = sweep.min_ratio("perm")
        payload["min_ratio"] = frac_str(best)
        payload["orderings_run"] = runs
        payload["left_max_violations"] = violations
        if bad:
            payload["counterexample"] = graph_to_text(sweep.witness(bad[0]))
        return not bad and violations == 0
    if mech == "prugd":
        if n < 6:
            raise InputError("the prugd floors hold for n >= 6")
        sweep = analysis.sweep_graphs(n, ("prugd",), jobs=args.jobs)
        bad = _below_floor(sweep, "prugd", analysis.prugd_floor)
        payload["graphs_checked"] = sweep.graphs_checked
        if bad:
            payload["counterexample"] = graph_to_text(sweep.witness(bad[0]))
        return not bad
    if mech == "mix":
        sweep = analysis.sweep_graphs(n, ("mix",), jobs=args.jobs)
        floor = analysis.MIX_GUARANTEE if n > MIX_SMALL_N else Fraction(7, 10)
        best, idx = sweep.min_ratio("mix")
        payload["min_ratio"] = frac_str(best)
        payload["floor"] = frac_str(floor)
        if best < floor:
            payload["counterexample"] = graph_to_text(sweep.witness(idx))
        return best >= floor
    raise InputError(f"no closed-form floor registered for mechanism {mech!r}")


def _verify_correlation(args: argparse.Namespace, payload: dict) -> bool:
    from .generators import random_graph

    seed = _resolve_seed(args, required=False) or 0
    rng = SeedStream(seed).split("correlation")
    graphs = [analysis.correlation_example_graph()]
    graphs += [random_graph(args.n, rng) for _ in range(args.graphs)]
    failures = []
    vacuous = 0
    for rep in analysis.verify_negative_correlations(graphs):
        vacuous += len(rep.vacuous)
        if not rep.passed:
            failures.append(graph_to_text(rep.graph))
    payload["graphs_checked"] = len(graphs)
    payload["vacuous_comparisons"] = vacuous
    if failures:
        payload["counterexample"] = failures[0]
    return not failures


def _verify_ub_chain(args: argparse.Namespace, payload: dict) -> bool:
    seed = _resolve_seed(args, required=False) or 0
    try:
        rep = analysis.verify_upper_bound_chain(args.mech, args.n, seed=seed)
    except analysis.SymmetryError as exc:
        payload["symmetry_counterexample"] = {
            "graph": graph_to_text(exc.graph),
            "relabelling": list(exc.relabelling.seq),
            "vertex": exc.vertex,
        }
        return False
    payload["p"] = [frac_str(v) for v in rep.p]
    payload["x"] = [frac_str(v) for v in rep.x]
    payload["prime_ratios"] = [frac_str(v) for v in rep.prime_ratios]
    payload["min_family_ratio"] = frac_str(rep.min_family_ratio)
    payload["bound"] = frac_str(rep.bound)
    payload["symmetry_checks"] = rep.symmetry_checks
    payload["identities"] = {
        "p1": rep.p1_ok,
        "p3": rep.p3_ok,
        "pairs": rep.pair_identities_ok,
        "paths": rep.path_identities_ok,
        "prime_bounds": rep.prime_bounds_ok,
        "min_vs_bound": rep.min_vs_bound_ok,
    }
    return rep.passed


def _verify_tightness(args: argparse.Namespace, payload: dict) -> bool:
    seed = _resolve_seed(args, required=False) or 0
    nprimes = [int(tok) for tok in args.nprimes.split(",")]
    rep = analysis.tightness_scan(
        args.delta, nprimes, samples=args.samples or 1_000_000, seed=seed
    )
    payload["alpha"] = frac_str(rep.alpha)
    payload["rows"] = [
        {
            "nprime": r.nprime,
            "n": r.n,
            "kind": r.kind,
            "ratio": frac_str(r.ratio),
            "decimal": frac_decimal(r.ratio),
            "ci3": f"{r.ci_halfwidth:.12f}",
            "samples": r.samples,
        }
        for r in rep.rows
    ]
    payload["exact_monotone_ok"] = rep.exact_monotone_ok
    payload["exact_above_alpha_ok"] = rep.exact_above_alpha_ok
    return rep.exact_monotone_ok and rep.exact_above_alpha_ok


def _verify_lemma3(args: argparse.Namespace, payload: dict) -> bool:
    graphs, runs, violations = analysis.scan_orderings(args.n, jobs=args.jobs)
    payload["graphs_checked"] = graphs
    payload["orderings_run"] = runs
    payload["left_max_violations"] = violations
    return violations == 0


_VERIFY_CHECKS = {
    "impartial": _verify_impartial,
    "bounds": _verify_bounds,
    "correlation": _verify_correlation,
    "ub-chain": _verify_ub_chain,
    "tightness": _verify_tightness,
    "lemma3": _verify_lemma3,
}
_SPLIT_CHECKS = ("bounds", "lemma3", "impartial")  # the checks that read --jobs


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs > 1 and args.check not in _SPLIT_CHECKS:
        raise InputError(f"--jobs {args.jobs}: only verify {'|'.join(_SPLIT_CHECKS)} split their "
                         f"graphs; verify {args.check} runs in one process")
    args.n = args.n or (6 if args.check == "ub-chain" else 5)  # the ceiling chain starts at 6
    payload = _config_header(args)
    ok = _VERIFY_CHECKS[args.check](args, payload)
    payload["passed"] = ok
    _emit_json(payload)
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# figure3

def _cmd_figure3(args: argparse.Namespace) -> int:
    rows = analysis.guarantee_rows(args.delta_max)
    table = [
        [
            str(r.delta),
            r.case,
            frac_str(r.perm),
            frac_str(r.prugd),
            frac_str(r.mix),
            frac_decimal(r.perm),
            frac_decimal(r.prugd),
            frac_decimal(r.mix),
        ]
        for r in rows
    ]
    header = ["delta", "case", "perm", "prugd", "mix", "perm_dec", "prugd_dec", "mix_dec"]
    if args.format == "json":
        payload = _config_header(args)
        payload["rows"] = [dict(zip(header, row)) for row in table]
        _emit_json(payload)
    else:
        _emit_csv(header, table)
    return PASS


# ---------------------------------------------------------------------------
# worst-case

def _cmd_worst_case(args: argparse.Namespace) -> int:
    rep = analysis.worst_case(args.mech, args.n, jobs=args.jobs)
    payload = _config_header(args)
    payload["min_ratio"] = frac_str(rep.min_ratio)
    payload["decimal"] = frac_decimal(rep.min_ratio)
    payload["witness"] = graph_to_text(rep.witness)
    payload["graphs_checked"] = rep.graphs_checked
    _emit_json(payload)
    return PASS


# ---------------------------------------------------------------------------

def _int_at_least(lo: int):
    """argparse type: an int no smaller than lo, rejected at parse time."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_int_list(text: str) -> str:
    """argparse type: a non-empty comma list of ints >= 1, rejected at
    parse time.  The text is kept as given, so the run configuration
    echoes it unchanged."""
    for tok in text.split(","):
        _int_at_least(1)(tok)
    return text


_positive_int_list.__name__ = "int list"  # as in "invalid int list value"


_JOBS_HELP = ("worker processes: worst-case and verify bounds, lemma3 and impartial (exhaustive "
              "or sampled) split their graphs; the other verify checks take only 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impartial",
        description="Impartial selection mechanisms on single-nomination graphs.",
    )
    parser.add_argument("--version", action="version", version=f"impartial {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family graph in text form")
    p.add_argument("params", nargs="+", help="family=NAME plus key=value parameters")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eval", help="exact distribution or seeded sampling on a graph")
    p.add_argument("--mech", required=True, choices=sorted(MECHANISMS))
    p.add_argument("--graph", default="-", help="graph file, or - for stdin")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact mode (the default)")
    mode.add_argument("--samples", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="run one verification check; exit 0 iff it passes")
    p.add_argument("check", choices=sorted(_VERIFY_CHECKS))
    p.add_argument("--mech", default="perm", choices=sorted(MECHANISMS))
    p.add_argument("--n", type=_int_at_least(2), default=None)  # 6 for ub-chain, else 5
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=_int_at_least(1), default=None)
    p.add_argument("--graphs", type=_int_at_least(0), default=200, help="random graphs for correlation")
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--nprimes", type=_positive_int_list, default="1,2,3", help="comma list for tightness")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=_JOBS_HELP)

    p = sub.add_parser("figure3", help="per-delta guarantee table")
    p.add_argument("--delta-max", type=int, default=15)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("worst-case", help="exhaustive minimum ratio with witness")
    p.add_argument("--mech", required=True, choices=sorted(MECHANISMS))
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=_JOBS_HELP)

    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main() call


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up per call, so a handler replaced after the first call is the one that runs
    handlers = {"gen": _cmd_gen, "eval": _cmd_eval, "verify": _cmd_verify,
                "figure3": _cmd_figure3, "worst-case": _cmd_worst_case}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, inside the handlers
        return code
    except BrokenPipeError:
        # the reader of stdout went away (say `| head`): nothing failed.
        # Point stdout at devnull so the flush at interpreter exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (CapacityError, MemoryError) as exc:
        print(f"capacity: {str(exc) or 'out of memory'}", file=sys.stderr)
        return CAPACITY
    except Exception as exc:  # a bug, not a failed check: keep it off exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
