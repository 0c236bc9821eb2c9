"""Guarantee formulas, performance ratios, and verification sweeps.

Everything numeric here is an exact rational unless explicitly labelled
as a Monte Carlo estimate.  The sweeps enumerate the full graph class
for a given n (all (n-1)^n target assignments) and keep integer tallies,
so zero-tolerance comparisons against the closed-form guarantees are
meaningful.
"""
from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import engine
from .generators import (
    lower_bound_family,
    random_graph,
    two_cycle_path,
    ub_family,
    ub_family_prime,
)
from .generators import cycle as cycle_graph
from .graphs import (
    AnyGraph,
    CapacityError,
    InputError,
    NominationGraph,
    Permutation,
    SelectionDistribution,
)
from .mechanisms import (
    MECHANISMS,
    MIX_PERM_WEIGHT,
    MIX_PRUGD_WEIGHT,
    MIX_SMALL_N,
    Mechanism,
    get_mechanism,
)
from .rng import SeedStream

MIX_GUARANTEE = Fraction(2105, 3147)
PRUGD_DELTA2_GUARANTEE = Fraction(65, 96)
PRUGD_DELTA3_SINGLE_HIGH_GUARANTEE = Fraction(13, 18)


# ---------------------------------------------------------------------------
# Closed-form guarantee values

def perm_alpha(delta: int) -> Fraction:
    """Guarantee of the permutation mechanism at maximum indegree delta:
    1 at delta=1, (3d+2)/(4d+4) at even d, and the even value below at
    odd d."""
    if delta < 1:
        raise InputError(f"perm_alpha needs delta >= 1, got {delta}")
    if delta == 1:
        return Fraction(1)
    if delta % 2 == 1:
        return perm_alpha(delta - 1)
    return Fraction(3 * delta + 2, 4 * delta + 4)


def prugd_alpha(delta: int) -> Fraction:
    """General default-vertex-wrapped guarantee: 1/2 + (7d-9)/(6d(3d-2))."""
    if delta < 2:
        raise InputError(f"prugd_alpha needs delta >= 2, got {delta}")
    return Fraction(1, 2) + Fraction(7 * delta - 9, 6 * delta * (3 * delta - 2))


def mix_high_delta_branch(delta: int) -> Fraction:
    """Closed branch bound for the mixture at maximum indegree >= 4:
    2923/4196 - (907d + 366)/(4196 d (3d - 2)).  Minimized at d = 5,
    where it equals 7119/10490."""
    if delta < 4:
        raise InputError(f"mix_high_delta_branch needs delta >= 4, got {delta}")
    return Fraction(2923, 4196) - Fraction(907 * delta + 366, 4196 * delta * (3 * delta - 2))


def upper_bound(n: int) -> Fraction:
    """Ceiling on the guarantee of any impartial mechanism at size n:
    (3n^3 - 19n^2 + 30n - 4) / (4n(n-2)(n-4))."""
    if n < 6:
        raise InputError(f"upper_bound needs n >= 6, got {n}")
    return Fraction(3 * n**3 - 19 * n**2 + 30 * n - 4, 4 * n * (n - 2) * (n - 4))


@dataclass(frozen=True)
class GuaranteeRow:
    """One row of the per-delta guarantee table.  case distinguishes the
    delta=3 split on the number of vertices with indegree >= 2."""

    delta: int
    case: str  # "all" | "multi_high" | "single_high"
    perm: Fraction
    prugd: Fraction
    mix: Fraction


def guarantee_rows(delta_max: int = 15) -> list[GuaranteeRow]:
    """Per-delta guarantees of perm, prugd and their fixed mixture, with
    the delta=3 case split; the mixture column is the weighted blend of
    the other two."""
    if delta_max < 2:
        raise InputError(f"guarantee_rows needs delta_max >= 2, got {delta_max}")

    def blend(p: Fraction, d: Fraction) -> Fraction:
        return MIX_PERM_WEIGHT * p + MIX_PRUGD_WEIGHT * d

    rows = []
    for delta in range(2, delta_max + 1):
        if delta == 2:
            p, d = perm_alpha(2), PRUGD_DELTA2_GUARANTEE
            rows.append(GuaranteeRow(2, "all", p, d, blend(p, d)))
        elif delta == 3:
            p, d = Fraction(31, 45), prugd_alpha(3)
            rows.append(GuaranteeRow(3, "multi_high", p, d, blend(p, d)))
            p, d = perm_alpha(3), PRUGD_DELTA3_SINGLE_HIGH_GUARANTEE
            rows.append(GuaranteeRow(3, "single_high", p, d, blend(p, d)))
        else:
            p, d = perm_alpha(delta), prugd_alpha(delta)
            rows.append(GuaranteeRow(delta, "all", p, d, blend(p, d)))
    return rows


# ---------------------------------------------------------------------------
# Performance ratio

@dataclass(frozen=True)
class RatioReport:
    graph: NominationGraph
    mechanism: str
    expected_indegree: Fraction
    delta: int
    ratio: Fraction


def ratio(mechanism: str | Mechanism, g: NominationGraph) -> RatioReport:
    """Expected indegree of the selection divided by the maximum indegree."""
    mech = get_mechanism(mechanism) if isinstance(mechanism, str) else mechanism
    dist = mech.exact(g)
    delta, _, _ = g.max_indegree_and_top()
    expected = dist.expected_indegree(g)
    return RatioReport(g, mech.name, expected, delta, expected / delta)


def _exact_lookup(mech: Mechanism) -> Callable[[tuple[int, ...]], tuple[Fraction, ...]]:
    """Exact selection probabilities of mech on the total graph with the
    given out tuple, memoised for the life of the returned function: the
    one way the verifiers evaluate a mechanism."""
    return functools.cache(lambda out: mech.exact(NominationGraph(out)).probs)


# ---------------------------------------------------------------------------
# Exhaustive graph-space sweeps

def iter_out_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All (n-1)^n target assignments, lexicographically."""
    choices = [[t for t in range(1, n + 1) if t != v] for v in range(1, n + 1)]
    return itertools.product(*choices)


def graph_count(n: int) -> int:
    return (n - 1) ** n


def graph_at(n: int, index: int) -> NominationGraph:
    """The index-th graph in iter_out_tuples order."""
    if not 0 <= index < graph_count(n):
        raise InputError(f"graph index {index} out of range for n={n}")
    digits = []
    for _ in range(n):
        digits.append(index % (n - 1))
        index //= n - 1
    digits.reverse()
    out = []
    for v, d in enumerate(digits, start=1):
        t = d + 1
        out.append(t if t < v else t + 1)
    return NominationGraph(tuple(out))


@dataclass
class GraphSweep:
    """Exact ratios of selected mechanisms over every graph of size n.

    Lists are parallel, indexed by the iter_out_tuples enumeration
    order.  runs and left_max_violations are filled only by a sweep with
    scan_orderings: the orderings scanned one by one, n! per graph, and
    how many of them missed the maximum indegree from the left (Lemma 3
    says none).
    """

    n: int
    mechanisms: tuple[str, ...]
    deltas: list[int] = field(default_factory=list)
    high2_counts: list[int] = field(default_factory=list)
    top_counts: list[int] = field(default_factory=list)
    ratios: dict[str, list[Fraction]] = field(default_factory=dict)
    runs: int = 0
    left_max_violations: int = 0

    def min_ratio(self, mechanism: str) -> tuple[Fraction, int]:
        """(minimum ratio, index of its first witness)."""
        values = self.ratios[mechanism]
        best = min(values)
        return best, values.index(best)

    def witness(self, index: int) -> NominationGraph:
        return graph_at(self.n, index)


def _counts_ratio(deg: Sequence[int], nums: Sequence[int], den: int, delta: int) -> Fraction:
    """Performance ratio of selection counts nums over den."""
    return Fraction(sum(d * c for d, c in zip(deg, nums)), den * delta)


def _sweep_range(
    n: int, mechanisms: tuple[str, ...], scan_orderings: bool, start: int, stop: int
) -> GraphSweep:
    result = GraphSweep(n, mechanisms, ratios={m: [] for m in mechanisms})
    paths = {m: get_mechanism(m).counts for m in mechanisms}
    if scan_orderings:
        perms, pos = engine.permutation_table(n)
    for out in itertools.islice(iter_out_tuples(n), start, stop):
        g = NominationGraph(out)
        deg = g.indegrees()
        delta = max(deg)
        result.deltas.append(delta)
        result.high2_counts.append(sum(d >= 2 for d in deg))
        result.top_counts.append(deg.count(delta))
        if scan_orderings:
            _, final_d, max_left = engine.run_selection(engine.out_array(g), perms, pos)
            result.runs += perms.shape[0]
            result.left_max_violations += int((final_d != max_left).sum())
        for m, path in paths.items():
            result.ratios[m].append(_counts_ratio(deg, *path(g), delta))
    return result


def _sweep_worker(args: tuple) -> GraphSweep:
    return _sweep_range(*args)


def sweep_graphs(
    n: int,
    mechanisms: Sequence[str] = ("perm",),
    jobs: int = 1,
    budget_rows: int = 300_000_000,
    scan_orderings: bool = False,
) -> GraphSweep:
    """Exact ratios of the given mechanisms over all of the size-n class.

    With scan_orderings the sweep also runs the candidate scan on each
    of the n! orderings of every graph, one by one over the engine's
    ordering table (which caps n), and counts the runs that miss the
    maximum indegree from the left: the Lemma 3 check.

    budget_rows caps the sweep's work, counted per graph as n * 2^n for
    each run of the prefix-set DP (perm, and mix above MIX_SMALL_N), n!
    for the orderings scanned one by one, and n^2 for each closed form;
    beyond it the sweep refuses rather than run for hours.
    """
    mechanisms = tuple(mechanisms)
    for m in mechanisms:
        get_mechanism(m)  # raises InputError on an unknown name
    count = graph_count(n)
    dp = ("perm" in mechanisms) + ("mix" in mechanisms and n > MIX_SMALL_N)
    closed = len(mechanisms) - dp
    per_graph = (
        dp * n * 2**n + scan_orderings * math.factorial(n) + closed * n * n
    )
    if count * per_graph > budget_rows:
        raise CapacityError(
            f"sweep at n={n} needs {count * per_graph} units of work, over the "
            f"budget of {budget_rows}; raise budget_rows or reduce n"
        )
    if jobs <= 1:
        return _sweep_range(n, mechanisms, scan_orderings, 0, count)

    chunk = max(1, math.ceil(count / (jobs * 4)))
    tasks = [
        (n, mechanisms, scan_orderings, start, min(start + chunk, count))
        for start in range(0, count, chunk)
    ]
    merged = GraphSweep(n, mechanisms, ratios={m: [] for m in mechanisms})
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_sweep_worker, tasks):
            merged.deltas.extend(part.deltas)
            merged.high2_counts.extend(part.high2_counts)
            merged.top_counts.extend(part.top_counts)
            for m in mechanisms:
                merged.ratios[m].extend(part.ratios[m])
            merged.runs += part.runs
            merged.left_max_violations += part.left_max_violations
    return merged


@dataclass(frozen=True)
class WorstCaseReport:
    mechanism: str
    n: int
    min_ratio: Fraction
    witness: NominationGraph
    graphs_checked: int


def worst_case(
    mechanism: str, n: int, jobs: int = 1, budget_rows: int = 300_000_000
) -> WorstCaseReport:
    """Exact minimum ratio over every graph of size n, with a witness
    (the first attaining graph in enumeration order)."""
    sweep = sweep_graphs(n, (mechanism,), jobs=jobs, budget_rows=budget_rows)
    best, idx = sweep.min_ratio(mechanism)
    return WorstCaseReport(mechanism, n, best, sweep.witness(idx), graph_count(n))


# ---------------------------------------------------------------------------
# Impartiality checking

@dataclass(frozen=True)
class DeviationWitness:
    graph: NominationGraph
    vertex: int
    new_target: int
    prob_before: Fraction
    prob_after: Fraction


@dataclass(frozen=True)
class ImpartialityReport:
    mechanism: str
    n: int
    mode: str
    graphs_checked: int
    deviations_checked: int
    counterexample: Optional[DeviationWitness]

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def check_impartial(
    mechanism: str | Mechanism,
    n: int,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 200,
    budget_graphs: int = 20_000,
) -> ImpartialityReport:
    """Check that redirecting one vertex's nomination never changes that
    vertex's own exact selection probability.

    Exhaustive mode covers every graph of size n and every single-vertex
    deviation; sampled mode draws seeded random graphs and checks every
    deviation of each.  Stops at the first counterexample.  Any Mechanism
    can be checked, including one built outside the registry as a
    negative control.
    """
    mech = get_mechanism(mechanism) if isinstance(mechanism, str) else mechanism
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"mode must be exhaustive or sampled, got {mode!r}")
    if mode == "exhaustive" and graph_count(n) > budget_graphs:
        raise CapacityError(
            f"exhaustive impartiality at n={n} means {graph_count(n)} graphs, "
            f"over the budget of {budget_graphs}; use mode='sampled'"
        )

    dist = _exact_lookup(mech)
    if mode == "exhaustive":
        graphs: Iterable[tuple[int, ...]] = iter_out_tuples(n)
    else:
        rng = SeedStream(seed).split("impartiality-graphs")
        graphs = [random_graph(n, rng).out for _ in range(samples)]

    graphs_checked = 0
    deviations = 0
    for out in graphs:
        graphs_checked += 1
        base = dist(out)
        for v in range(1, n + 1):
            for u in range(1, n + 1):
                if u == v or u == out[v - 1]:
                    continue
                deviations += 1
                devved = out[: v - 1] + (u,) + out[v:]
                after = dist(devved)
                if after[v - 1] != base[v - 1]:
                    return ImpartialityReport(
                        mech.name,
                        n,
                        mode,
                        graphs_checked,
                        deviations,
                        DeviationWitness(
                            NominationGraph(out), v, u, base[v - 1], after[v - 1]
                        ),
                    )
    return ImpartialityReport(mech.name, n, mode, graphs_checked, deviations, None)


# ---------------------------------------------------------------------------
# Symmetrization

def symmetrize(
    mechanism: str | Mechanism, g: NominationGraph, cap: int = 6
) -> SelectionDistribution:
    """Relabel-average of a mechanism: rename vertices by every
    permutation, evaluate, and map each result back.  The output is
    invariant under relabelling whatever the input mechanism does."""
    mech = get_mechanism(mechanism) if isinstance(mechanism, str) else mechanism
    n = g.n
    if n > cap:
        raise CapacityError(
            f"symmetrize runs {n}! relabelled evaluations and is capped at "
            f"n <= {cap}"
        )
    dist = _exact_lookup(mech)
    acc = [Fraction(0)] * n
    for seq in itertools.permutations(range(1, n + 1)):
        pi = Permutation(seq)
        probs = dist(g.relabel(pi).out)
        for v in range(1, n + 1):
            acc[v - 1] += probs[pi.image_of(v) - 1]
    nfact = math.factorial(n)
    return SelectionDistribution(tuple(a / nfact for a in acc))


class SymmetryError(Exception):
    """A mechanism failed the relabelling-invariance precondition."""

    def __init__(self, mechanism: str, graph: NominationGraph, relabelling: Permutation, vertex: int):
        self.mechanism = mechanism
        self.graph = graph
        self.relabelling = relabelling
        self.vertex = vertex
        super().__init__(
            f"{mechanism} is not symmetric: on graph {graph.out} relabelled by "
            f"{relabelling.seq}, vertex {vertex} changes probability"
        )


# ---------------------------------------------------------------------------
# Left-indegree correlation check

def correlation_example_graph() -> NominationGraph:
    """Seven vertices, one of indegree 3; the canonical example for the
    correlation check."""
    return NominationGraph((7, 3, 1, 7, 4, 7, 3))


@dataclass(frozen=True)
class CorrelationComparison:
    i: int
    j: int
    given_aj: Fraction
    given_ai: Fraction

    @property
    def ok(self) -> bool:
        return self.given_aj >= self.given_ai


@dataclass(frozen=True)
class CorrelationReport:
    graph: AnyGraph
    vstar: int
    delta: int
    level_probs: tuple[Fraction, ...]
    level_probs_ok: bool
    comparisons: tuple[CorrelationComparison, ...]
    vacuous: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return self.level_probs_ok and all(c.ok for c in self.comparisons)


def verify_negative_correlation(
    g: AnyGraph, i_values: Optional[Sequence[int]] = None
) -> CorrelationReport:
    """Exhaustively check that lowering the fixed top vertex's indegree
    from the left can only raise the chance that some other vertex has
    indegree at least i from the left.

    Also checks that the top vertex's left indegree is uniform over
    0..delta.  Conditioning events are never empty here for that reason,
    but an empty one would be reported as vacuous rather than compared.
    """
    delta, _, vstar = g.max_indegree_and_top()
    a, m = engine.left_indegree_profile(engine.out_array(g), vstar - 1)
    nfact = a.shape[0]
    level_counts = np.bincount(a, minlength=delta + 1)
    level_probs = tuple(Fraction(int(c), nfact) for c in level_counts[: delta + 1])
    level_ok = all(p == Fraction(1, delta + 1) for p in level_probs)

    if i_values is None:
        i_values = range(1, delta + 1)
    comparisons = []
    vacuous = []
    for i in i_values:
        if not 1 <= i <= delta:
            raise InputError(f"i={i} outside 1..{delta}")
        for j in range(0, i):
            num_j = int(((a == j) & (m >= i)).sum())
            num_i = int(((a == i) & (m >= i)).sum())
            den_j = int(level_counts[j])
            den_i = int(level_counts[i])
            if den_j == 0 or den_i == 0:
                vacuous.append((i, j))
                continue
            comparisons.append(
                CorrelationComparison(
                    i, j, Fraction(num_j, den_j), Fraction(num_i, den_i)
                )
            )
    return CorrelationReport(
        g,
        vstar,
        delta,
        level_probs,
        level_ok,
        tuple(comparisons),
        tuple(vacuous),
    )


# ---------------------------------------------------------------------------
# Upper-bound constraint chain

@dataclass(frozen=True)
class UbChainReport:
    mechanism: str
    n: int
    nprime: int
    p: tuple[Fraction, ...]           # distribution on the i=0 family member
    x: tuple[Fraction, ...]           # x[i-1] = prob of vertex 2 on member i
    p1_ok: bool
    p3_ok: bool
    pair_identities_ok: bool
    path_identities_ok: bool
    prime_ratios: tuple[Fraction, ...]
    prime_bounds_ok: bool
    min_family_ratio: Fraction
    bound: Fraction
    min_vs_bound_ok: bool
    symmetry_checks: int

    @property
    def passed(self) -> bool:
        return (
            self.p1_ok
            and self.p3_ok
            and self.pair_identities_ok
            and self.path_identities_ok
            and self.prime_bounds_ok
            and self.min_vs_bound_ok
        )


def verify_upper_bound_chain(
    mechanism: str | Mechanism,
    n: int,
    seed: int = 0,
    relabel_samples: int = 200,
) -> UbChainReport:
    """Verify the constraint chain that caps any impartial symmetric
    mechanism's guarantee at size n.

    First empirically checks relabelling invariance of the mechanism on
    the family graphs (all n! relabellings for n <= 6, a seeded sample
    above), raising SymmetryError with a witness if it fails.  Then
    checks the forced probability identities across the family, derives
    the x values, and confirms that the worst family member pins the
    mechanism's ratio under the closed-form ceiling.
    """
    mech = get_mechanism(mechanism) if isinstance(mechanism, str) else mechanism
    if n < 6:
        raise InputError(f"the chain needs n >= 6, got {n}")
    nprime = n // 2 - 1
    members = [ub_family(n, i) for i in range(nprime + 1)]
    cyc = cycle_graph(n)
    c2 = two_cycle_path(n)
    primes = [ub_family_prime(n, i) for i in range(1, nprime + 1)]
    family = members + [cyc, c2] + primes

    dist = _exact_lookup(mech)

    # empirical symmetry precheck
    if n <= 6:
        relabellings: Iterable[Permutation] = (
            Permutation(seq) for seq in itertools.permutations(range(1, n + 1))
        )
        sym_checks = math.factorial(n) * len(family)
    else:
        rng = SeedStream(seed).split("chain-relabellings")
        relabellings = [rng.permutation(n) for _ in range(relabel_samples)]
        sym_checks = relabel_samples * len(family)
    relabellings = list(relabellings)
    for graph in family:
        base = dist(graph.out)
        for pi in relabellings:
            image = dist(graph.relabel(pi).out)
            for v in range(1, n + 1):
                if image[pi.image_of(v) - 1] != base[v - 1]:
                    raise SymmetryError(mech.name, graph, pi, v)

    p = dist(members[0].out)
    x = tuple(dist(members[i].out)[2 - 1] for i in range(1, nprime + 1))

    p1_ok = p[0] == Fraction(1, n)
    p3_ok = p[2] <= Fraction(1, n - 2)
    pair_ok = all(
        dist(members[i].out)[2 - 1] == dist(members[i + 1].out)[1 - 1]
        for i in range(nprime)
    )
    path_ok = all(
        dist(members[i].out)[3 - 1] == p[n - i + 1 - 1]
        and dist(members[i].out)[i + 3 - 1] == p[i + 3 - 1]
        for i in range(1, nprime + 1)
    )

    # the primes were evaluated by the symmetry precheck
    prime_ratios = [
        SelectionDistribution(dist(g.out)).expected_indegree(g) / max(g.indegrees())
        for g in primes
    ]
    prime_ok = all(r <= (xi + 1) / 2 for r, xi in zip(prime_ratios, x))
    bound = upper_bound(n)
    min_family = min(prime_ratios)
    min_vs_bound_ok = min((xi + 1) / 2 for xi in x) <= bound and min_family <= bound

    return UbChainReport(
        mech.name,
        n,
        nprime,
        p,
        x,
        p1_ok,
        p3_ok,
        pair_ok,
        path_ok,
        tuple(prime_ratios),
        prime_ok,
        min_family,
        bound,
        min_vs_bound_ok,
        sym_checks,
    )


# ---------------------------------------------------------------------------
# Tightness scan for the permutation mechanism

@dataclass(frozen=True)
class TightnessRow:
    nprime: int
    n: int
    kind: str  # "exact" | "sampled"
    ratio: Fraction          # exact value, or the sample mean
    ci_halfwidth: float      # 0.0 for exact rows, 3 sigma for sampled rows
    samples: int


@dataclass(frozen=True)
class TightnessReport:
    delta: int
    alpha: Fraction
    rows: tuple[TightnessRow, ...]
    exact_monotone_ok: bool
    exact_above_alpha_ok: bool


def tightness_scan(
    delta: int,
    nprimes: Sequence[int],
    samples: int = 1_000_000,
    seed: int = 0,
) -> TightnessReport:
    """Ratios of the permutation mechanism on the adversarial block
    family, exact where the exact perm path runs and Monte Carlo where it
    raises CapacityError (above its DP cap, n <= 16).

    Exact rows must decrease strictly in the block count while staying
    above the closed-form guarantee, showing the approach from above.
    Sampled rows take samples draws each, at least 2, and carry a
    3-sigma normal-approximation half-width.
    """
    alpha = perm_alpha(delta)
    perm = MECHANISMS["perm"]
    rows = []
    for nprime in nprimes:
        g = lower_bound_family(delta, nprime)
        try:
            counts, runs = perm.counts(g)
        except CapacityError:
            rows.append(_sampled_tightness_row(g, nprime, samples, seed, delta))
            continue
        deg = g.indegrees()
        value = _counts_ratio(deg, counts, runs, max(deg))
        rows.append(TightnessRow(nprime, g.n, "exact", value, 0.0, runs))
    exact_vals = [r.ratio for r in rows if r.kind == "exact"]
    monotone = all(a > b for a, b in zip(exact_vals, exact_vals[1:]))
    above = all(v > alpha for v in exact_vals)
    return TightnessReport(delta, alpha, tuple(rows), monotone, above)


def _sampled_tightness_row(
    g: NominationGraph, nprime: int, samples: int, seed: int, delta: int
) -> TightnessRow:
    """The scan's mean ratio over seeded uniform orderings of g."""
    if samples < 2:
        raise InputError(
            f"a sampled tightness row needs at least 2 draws for its spread, got {samples}"
        )
    deg = np.array(g.indegrees(), dtype=np.int64)
    dmax = int(deg.max())
    row_seed = SeedStream(seed).split(f"tightness-{delta}-{nprime}").bits64()
    counts, violations = engine.sampled_selection_counts(engine.out_array(g), samples, row_seed)
    if violations:
        raise RuntimeError(f"{violations} runs missed the maximum left indegree")
    value = Fraction(int(np.dot(deg, counts)), samples * dmax)
    mean = float(value)
    var = float(np.dot(counts, ((deg / dmax) - mean) ** 2) / (samples - 1))
    return TightnessRow(
        nprime, g.n, "sampled", value, 3.0 * math.sqrt(var / samples), samples
    )


# ---------------------------------------------------------------------------
# Rendering helpers

def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def frac_decimal(f: Fraction | float) -> str:
    """Decimal rendering to 12 places; lossy but within 1e-12."""
    return f"{float(f):.12f}"
