"""Guarantee formulas, performance ratios, and verification sweeps.

Everything numeric here is an exact rational unless explicitly labelled
as a Monte Carlo estimate.  Every exact value comes from a mechanism's
one exact path: Mechanism.counts on a batch of graphs as one integer
array, or Mechanism.exact on one graph.  The sweeps read each class's
ratio off the count arrays, and the verifiers compare whole count
arrays at once: a batch has one denominator, so two probabilities in it
are equal exactly when their counts are, and a rational is built only
for a value they report.  The exhaustive checks cover the full graph
class for a given n (all (n-1)^n target assignments), so zero-tolerance
comparisons against the closed-form guarantees are meaningful.  Every
mechanism and the Lemma 3 scan commute with relabelling, so the sweeps,
exhaustive impartiality and the scan walk one representative per
isomorphism class, weighted by the labelled graphs in its class.
"""
from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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
    derived,
    iso_classes,
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

# Work budget of every walk of the isomorphism classes (sweep_graphs,
# scan_orderings and exhaustive check_impartial) and of sampled
# check_impartial, in the units they charge.
SWEEP_BUDGET = 300_000_000
# Seeded relabellings per family graph in the ceiling chain's symmetry
# precheck above n = 6.
CHAIN_RELABELLINGS = 200
# Rows per window of a walk (_walk), each graph counted with the graphs
# its worker derives from it; impartiality evaluates the graphs alike
# within a window (deviations of sibling classes) once.
WINDOW = 1 << 14


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


def perm_floor(delta: int, high2: int) -> Fraction:
    """perm's floor on a graph of maximum indegree delta with high2
    vertices of indegree >= 2: perm_alpha, raised to 31/45 at delta = 3
    with two or more such vertices."""
    if delta == 3 and high2 >= 2:
        return Fraction(31, 45)
    return perm_alpha(delta)


def prugd_floor(delta: int, high2: int) -> Fraction:
    """prugd's floor on a graph of maximum indegree delta with high2
    vertices of indegree >= 2: prugd_alpha, raised to 65/96 at delta = 2
    and to 13/18 at delta = 3 with a single such vertex.  At delta = 1
    every vertex has indegree 1 and prugd always selects, so it is 1."""
    if delta == 1:
        return Fraction(1)
    if delta == 2:
        return PRUGD_DELTA2_GUARANTEE
    if delta == 3 and high2 == 1:
        return PRUGD_DELTA3_SINGLE_HIGH_GUARANTEE
    return prugd_alpha(delta)


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


class GuaranteeRow(NamedTuple):
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
        # delta = 3 splits on the vertices of indegree >= 2: several or one
        cases = (("multi_high", 2), ("single_high", 1)) if delta == 3 else (("all", 1),)
        for case, high2 in cases:
            p, d = perm_floor(delta, high2), prugd_floor(delta, high2)
            rows.append(GuaranteeRow(delta, case, p, d, blend(p, d)))
    return rows


# ---------------------------------------------------------------------------
# Performance ratio

class RatioReport(NamedTuple):
    graph: NominationGraph
    mechanism: str
    expected_indegree: Fraction
    delta: int
    ratio: Fraction


def ratio(mechanism: str | Mechanism, g: NominationGraph) -> RatioReport:
    """Expected indegree of the selection divided by the maximum indegree."""
    mech = get_mechanism(mechanism)
    return ratio_of(mech.name, g, mech.exact(g))


def ratio_of(mechanism: str, g: NominationGraph, dist: SelectionDistribution) -> RatioReport:
    """The ratio of the exact distribution dist, already computed on g."""
    deg = g.indegrees()
    delta = max(deg)
    weighted = sum(d * c for d, c in zip(deg, dist.numerators))
    den = dist.denominator
    expected = Fraction(weighted, den)
    return RatioReport(g, mechanism, expected, delta, Fraction(weighted, den * delta))


def _unique_counts(mech: Mechanism, rows: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """mech's counts on the distinct rows of a (graphs, n) target array,
    each evaluated once: (counts, den, index), row i's counts being
    counts[index[i]] over den.  The rows are sorted with one lexsort (in
    some order; which does not matter), several times faster than
    np.unique(axis=0)."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    counts, den = mech.counts(ranked[first])
    return counts, den, index


# ---------------------------------------------------------------------------
# Exhaustive graph-space sweeps

class GraphSweep(NamedTuple):
    """Exact ratios of selected mechanisms over every graph of size n,
    one row per isomorphism class.

    Rows are parallel, in iso_classes order: the class representative's
    out tuple, its weight (the labelled graphs in the class), and the
    class's maximum indegree, number of vertices of indegree >= 2 and
    per-mechanism ratios.
    """

    reps: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    deltas: tuple[int, ...]
    high2_counts: tuple[int, ...]
    ratios: dict[str, tuple[Fraction, ...]]

    @property
    def graphs_checked(self) -> int:
        return sum(self.weights)

    def min_ratio(self, mechanism: str) -> tuple[Fraction, int]:
        """(minimum ratio, index of its first witness class)."""
        values = self.ratios[mechanism]
        best = min(values)
        return best, values.index(best)

    def witness(self, index: int) -> NominationGraph:
        return NominationGraph(self.reps[index])


def _graph_units(n: int, mechanisms: tuple[str, ...]) -> int:
    """Work units charged for evaluating the named mechanisms on one
    graph: n, plus 2^n for each run of the prefix-set DP (perm, and mix
    above MIX_SMALL_N).  A unit took 0.7 us on one core of a 2-core
    Xeon in the perm sweep at n = 11 and 12 (9 s and 53 s), and 0.46 us
    in perm impartiality at n = 9, so SWEEP_BUDGET is about 3.5 min.
    The DP refuses n > DP_CAP, so its charge stops growing there rather
    than build 2^n for a huge n."""
    dp_runs = mechanisms.count("perm") + (n > MIX_SMALL_N) * mechanisms.count("mix")
    return n + dp_runs * 2 ** min(n, engine.DP_CAP + 1)


def _charge(what: str, n: int, work: int, remedy: str = "reduce n") -> None:
    """Raise CapacityError, naming the remedy, for a run charged more
    than SWEEP_BUDGET units rather than run for hours."""
    if work > SWEEP_BUDGET:
        raise CapacityError(
            f"{what} at n={n} needs {work} units of work, over the "
            f"budget of {SWEEP_BUDGET}; {remedy}"
        )


def _walk(what: str, n: int, units: int, reps: Sequence, worker: Callable, *args,
          rows: int = 1, jobs: int = 1) -> Iterator:
    """worker(*args, window), lazily and in order, over windows of reps,
    the graphs of size n a walk covers, charged units each against
    SWEEP_BUDGET first.  A window holds whole graphs, at most WINDOW rows
    at rows per graph (itself and the graphs its worker derives from it),
    and with jobs > 1 at most a 4 * jobs-th of reps; then the windows go
    to a pool of at most jobs, window-count and CPU-count processes.
    The pool is handed every window at once, so a caller that stops
    early cancels only the windows no worker has taken yet: up to
    jobs + 1 of them still run, and the pool's shutdown waits for them."""
    _charge(what, n, len(reps) * units)
    step = max(1, WINDOW // rows)
    if jobs > 1:
        step = min(step, math.ceil(len(reps) / (jobs * 4)))
    windows = [reps[i : i + step] for i in range(0, len(reps), step)]
    workers = min(jobs, len(windows), os.cpu_count() or 1)
    if workers <= 1:
        yield from (worker(*args, window) for window in windows)
        return
    # imported here: loading them costs every process that never starts a pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield from pool.map(worker, *([a] * len(windows) for a in args), windows)


def _class_rows(mechanisms: tuple[str, ...], reps: Sequence[tuple[int, ...]]) -> list[tuple]:
    """(delta, vertices of indegree >= 2, *per-mechanism ratios) per graph."""
    out0s = np.array(reps) - 1
    deg = engine.indegrees(out0s)
    deltas = deg.max(axis=1)
    columns = []
    for name in mechanisms:
        counts, den = get_mechanism(name).counts(out0s)
        weighted = (counts * deg).sum(axis=1)  # ratio_of's numerator, per class
        columns.append([Fraction(int(w), den * int(delta)) for w, delta in zip(weighted, deltas)])
    return list(zip(deltas.tolist(), (deg >= 2).sum(axis=1).tolist(), *columns))


def sweep_graphs(n: int, mechanisms: Sequence[str] = ("perm",), jobs: int = 1) -> GraphSweep:
    """Exact ratios of the given mechanisms over all of the size-n class.

    Every mechanism is relabelling-invariant, so the sweep evaluates one
    representative per isomorphism class (graphs.iso_classes, which caps
    n at CLASS_CAP) and weights it by the labelled graphs in its class;
    jobs > 1 splits the classes over a process pool.

    Each class is charged _graph_units against SWEEP_BUDGET, which
    admits every mechanism up to CLASS_CAP (perm at n = 12 in 53 s).
    """
    mechanisms = tuple(mechanisms)
    for m in mechanisms:
        get_mechanism(m)  # raises InputError on an unknown name
    reps, weights = zip(*iso_classes(n))
    parts = _walk("sweep", n, _graph_units(n, mechanisms), reps, _class_rows, mechanisms, jobs=jobs)
    deltas, high2s, *columns = zip(*(row for part in parts for row in part))
    return GraphSweep(reps, weights, deltas, high2s, dict(zip(mechanisms, columns)))


def scan_orderings(n: int, jobs: int = 1) -> tuple[int, int, int]:
    """The Lemma 3 check: (graphs, runs, violations) of the candidate
    scan over each of the n! orderings of every graph of size n,
    counting the runs that miss the maximum indegree from the left
    (Lemma 3 says none), as engine.left_max_misses's prefix-set walk
    covers them, not run by run.

    A relabelling maps a graph's orderings one to one onto its image's
    and commutes with the scan, so the walk covers each class
    representative and weights its counts by the class's labelled
    graphs.  Charged per class as the perm sweep is, up to CLASS_CAP;
    jobs > 1 splits the classes over a process pool.
    """
    reps, weights = zip(*iso_classes(n))
    parts = _walk("ordering scan", n, _graph_units(n, ("perm",)), np.array(reps) - 1,
                  engine.left_max_misses, jobs=jobs)
    violations = np.concatenate(list(parts)).tolist()
    graphs = sum(weights)
    return graphs, graphs * math.factorial(n), sum(w * v for w, v in zip(weights, violations))


class WorstCaseReport(NamedTuple):
    mechanism: str
    n: int
    min_ratio: Fraction
    witness: NominationGraph
    graphs_checked: int


def worst_case(mechanism: str, n: int, jobs: int = 1) -> WorstCaseReport:
    """Exact minimum ratio over every graph of size n, with a witness
    (the representative of the first attaining class in iso_classes
    order)."""
    sweep = sweep_graphs(n, (mechanism,), jobs=jobs)
    best, idx = sweep.min_ratio(mechanism)
    return WorstCaseReport(mechanism, n, best, sweep.witness(idx), sweep.graphs_checked)


# ---------------------------------------------------------------------------
# Impartiality checking

class DeviationWitness(NamedTuple):
    graph: NominationGraph
    vertex: int
    new_target: int
    prob_before: Fraction
    prob_after: Fraction


class ImpartialityReport(NamedTuple):
    graphs_checked: int
    deviations_checked: int
    counterexample: Optional[DeviationWitness]

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _impartial_window(mech: Mechanism, reps: Sequence) -> tuple[int, Optional[tuple]]:
    """check_impartial on a window of graphs: (graphs, first failing
    move), the move as (graph index, move index in walk order, witness),
    or None if every move passes.  The graphs and their deviations go to
    one Mechanism.counts call, each distinct graph once, and every
    deviator's count is compared with its count on the graph (a window
    has one denominator)."""
    base = np.array(reps) - 1
    k, n = base.shape
    # the moves (graph, v, u) in walk order: by graph, then v, then u
    vertex = np.arange(n)
    legal = (vertex[None, None, :] != vertex[None, :, None]) & (vertex != base[:, :, None])
    g, v, u = np.nonzero(legal)
    deviated = base[g]
    deviated[np.arange(len(g)), v] = u
    counts, den, index = _unique_counts(mech, np.concatenate([base, deviated]))
    before, after = index[g], index[k:]
    same = counts[after, v] == counts[before, v]
    if same.all():
        return k, None
    first = int(np.argmin(same))
    c, move = divmod(first, n * (n - 2))
    return k, (c, move, DeviationWitness(
        NominationGraph(reps[c]), int(v[first]) + 1, int(u[first]) + 1,
        Fraction(int(counts[before[first], v[first]]), den),
        Fraction(int(counts[after[first], v[first]]), den),
    ))


def check_impartial(
    mechanism: str | Mechanism,
    n: int,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 200,
    jobs: int = 1,
) -> ImpartialityReport:
    """Check that redirecting one vertex's nomination never changes that
    vertex's own exact selection probability; stops at the first
    counterexample.

    Exhaustive mode covers every graph of size n and every deviation.  It
    assumes relabelling invariance, which every registry mechanism has:
    then each labelled (graph, vertex, new target) is a relabelling of one
    on a class representative, so it checks the representatives and
    counts each class's weight per graph and per deviation.  A class is
    charged its (n-1)^2 evaluations against SWEEP_BUDGET, so perm and mix
    run up to n = 10.  For any other mechanism use mode="sampled", which
    checks every deviation of seeded random graphs; each is charged as a
    class is, before any is drawn, so at the default 200 graphs perm and
    mix run up to n = 13 and rd, prug and prugd up to n = 115.

    The graphs go to _impartial_window in windows of _walk, over jobs
    processes; the witness is the first failing move in walk order
    (graph, then vertex, then new target).
    """
    mech = get_mechanism(mechanism)
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"mode must be exhaustive or sampled, got {mode!r}")
    units = (n - 1) ** 2 * _graph_units(n, (mech.name,))  # per graph
    if mode == "exhaustive":
        reps, weights = zip(*iso_classes(n))
    else:
        _charge("sampled impartiality", n, samples * units, "reduce n or --samples")
        rng = SeedStream(seed).split("impartiality-graphs")
        reps, weights = [random_graph(n, rng).out for _ in range(samples)], [1] * samples
    moves = n * (n - 2)  # per graph: every vertex to each target but itself and its own
    walked = 0
    for k, first in _walk(f"{mode} impartiality", n, units, reps, _impartial_window, mech,
                          rows=moves + 1, jobs=jobs):
        if first is not None:
            c, move, witness = first
            done, w = sum(weights[: walked + c]), weights[walked + c]
            return ImpartialityReport(done + w, done * moves + w * (move + 1), witness)
        walked += k
    graphs = sum(weights)
    return ImpartialityReport(graphs, graphs * moves, None)


# ---------------------------------------------------------------------------
# Left-indegree correlation check

def correlation_example_graph() -> NominationGraph:
    """Seven vertices, one of indegree 3; the canonical example for the
    correlation check."""
    return NominationGraph((7, 3, 1, 7, 4, 7, 3))


class CorrelationComparison(NamedTuple):
    i: int
    j: int
    given_aj: Fraction
    given_ai: Fraction

    @property
    def ok(self) -> bool:
        return self.given_aj >= self.given_ai


class CorrelationReport(NamedTuple):
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


def verify_negative_correlations(graphs: Sequence[AnyGraph]) -> list[CorrelationReport]:
    """Exhaustively check on each graph, in order, that lowering the top
    vertex's left indegree can only raise the chance that another vertex
    has left indegree at least i, and that the top vertex's left
    indegree is uniform over 0..delta (so no conditioning event is
    empty; one would be reported as vacuous).  The graphs of each size
    go to engine.correlation_histograms as one batch, which sums the
    joint histogram of (a, m) over all n! orderings by a prefix-set DP:
    a is the top vertex's left indegree, m the others' maximum.  Raises
    CapacityError above engine.DP_CAP."""
    reports: list[Optional[CorrelationReport]] = [None] * len(graphs)
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_size.setdefault(g.n, []).append(i)
    for n, idx in by_size.items():
        out0s = np.stack([engine.out_array(graphs[i]) for i in idx])
        deg = engine.indegrees(out0s)
        vstars = deg.argmax(axis=1)  # the smallest vertex of maximum indegree
        hists = engine.correlation_histograms(out0s, vstars)
        nfact = math.factorial(n)
        for i, delta, vstar, joint in zip(idx, deg.max(axis=1).tolist(), vstars.tolist(), hists):
            levels = delta + 1
            reports[i] = _correlation_report(graphs[i], vstar + 1, delta, joint[:levels, :levels], nfact)
    return reports


def _correlation_report(
    g: AnyGraph, vstar: int, delta: int, joint: np.ndarray, nfact: int
) -> CorrelationReport:
    """The report of one graph from its (delta + 1, delta + 1) joint
    histogram of (a, m) over all nfact orderings."""
    # summed from the right: at_least[a, i] = #(a, m >= i)
    at_least = joint[:, ::-1].cumsum(axis=1)[:, ::-1].tolist()
    level_counts = joint.sum(axis=1).tolist()
    level_probs = tuple(Fraction(k, nfact) for k in level_counts)
    level_ok = all(p == Fraction(1, delta + 1) for p in level_probs)

    comparisons = []
    vacuous = []
    for i in range(1, delta + 1):
        for j in range(0, i):
            num_j = at_least[j][i]
            num_i = at_least[i][i]
            den_j = level_counts[j]
            den_i = level_counts[i]
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


class UbChainReport(NamedTuple):
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
    mechanism: str | Mechanism, n: int, seed: int = 0
) -> UbChainReport:
    """Verify the constraint chain that caps any impartial symmetric
    mechanism's guarantee at size n.

    First empirically checks relabelling invariance of the mechanism on
    the family graphs (all n! relabellings for n <= 6, CHAIN_RELABELLINGS
    seeded ones above), raising SymmetryError with a witness if it
    fails.  Then checks the forced probability identities across the family, derives
    the x values, and confirms that the worst family member pins the
    mechanism's ratio under the closed-form ceiling.
    """
    mech = get_mechanism(mechanism)
    if n < 6:
        raise InputError(f"the chain needs n >= 6, got {n}")
    nprime = n // 2 - 1
    members = [ub_family(n, i) for i in range(nprime + 1)]
    cyc = cycle_graph(n)
    c2 = two_cycle_path(n)
    primes = [ub_family_prime(n, i) for i in range(1, nprime + 1)]
    family = members + [cyc, c2] + primes

    # empirical symmetry precheck: every family graph and every image,
    # each distinct graph evaluated once in one batch
    if n <= 6:
        pis = np.array(list(itertools.permutations(range(n))))
    else:
        rng = SeedStream(seed).split("chain-relabellings")
        pis = np.array([rng.permutation(n) for _ in range(CHAIN_RELABELLINGS)]) - 1
    outs = np.array([graph.out for graph in family]) - 1
    graphs, relabellings = len(family), len(pis)
    # relabelling by pi sends each edge (v, t) to (pi(v), pi(t))
    renamed = np.broadcast_to(pis, (graphs, relabellings, n))
    images = np.empty((graphs, relabellings, n), dtype=outs.dtype)
    np.put_along_axis(images, renamed, pis[np.arange(relabellings)[:, None], outs[:, None, :]], axis=2)
    counts, den, index = _unique_counts(mech, np.concatenate([outs, images.reshape(-1, n)]))
    base, image = index[:graphs], index[graphs:].reshape(graphs, relabellings)
    # image[pi(v)] against base[v], for every (family graph, relabelling, vertex)
    same = np.take_along_axis(counts[image], renamed, axis=2) == counts[base][:, None, :]
    if not same.all():
        g, pi, v = np.unravel_index(int(np.argmin(same)), same.shape)
        raise SymmetryError(mech.name, family[g], Permutation(tuple((pis[pi] + 1).tolist())), int(v) + 1)

    # only the values the chain reads become rationals, from rows
    # mech.counts has checked
    dist = {graph.out: derived(SelectionDistribution, numerators=tuple(counts[i].tolist()), denominator=den)
            for graph, i in zip(family, base)}

    def prob(g: NominationGraph, v: int) -> Fraction:
        return dist[g.out].prob_of(v)

    p = tuple(prob(members[0], v) for v in range(1, n + 1))
    x = tuple(prob(members[i], 2) for i in range(1, nprime + 1))

    p1_ok = p[0] == Fraction(1, n)
    p3_ok = p[2] <= Fraction(1, n - 2)
    pair_ok = all(prob(members[i], 2) == prob(members[i + 1], 1) for i in range(nprime))
    path_ok = all(
        prob(members[i], 3) == p[n - i + 1 - 1] and prob(members[i], i + 3) == p[i + 3 - 1]
        for i in range(1, nprime + 1)
    )

    prime_ratios = [ratio_of(mech.name, g, dist[g.out]).ratio for g in primes]
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
        relabellings * graphs,
    )


# ---------------------------------------------------------------------------
# Tightness scan for the permutation mechanism

class TightnessRow(NamedTuple):
    nprime: int
    n: int
    kind: str  # "exact" | "sampled"
    ratio: Fraction          # exact value, or the sample mean
    ci_halfwidth: float      # 0.0 for exact rows, 3 sigma for sampled rows
    samples: int


class TightnessReport(NamedTuple):
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

    nprimes must increase strictly.  Exact rows must then decrease
    strictly in the block count while staying above the closed-form
    guarantee, showing the approach from above.
    Sampled rows take samples draws each, at least 2, and carry a
    3-sigma normal-approximation half-width.
    """
    if any(a >= b for a, b in zip(nprimes, nprimes[1:])):
        raise InputError(f"tightness needs increasing block counts, got {list(nprimes)}")
    alpha = perm_alpha(delta)
    perm = MECHANISMS["perm"]
    rows = []
    for nprime in nprimes:
        g = lower_bound_family(delta, nprime)
        try:
            dist = perm.exact(g)
        except CapacityError:
            rows.append(_sampled_tightness_row(g, nprime, samples, seed, delta))
            continue
        value = ratio_of(perm.name, g, dist).ratio
        rows.append(TightnessRow(nprime, g.n, "exact", value, 0.0, dist.denominator))
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
    stream = SeedStream(seed).split(f"tightness-{delta}-{nprime}")
    counts, violations = engine.sampled_selection_counts(engine.out_array(g), samples, stream)
    if violations:
        raise RuntimeError(f"{violations} runs missed the maximum left indegree")
    value = Fraction(int(np.dot(deg, counts)), samples * dmax)
    mean = float(value)
    var = float(np.dot(counts, ((deg / dmax) - mean) ** 2) / (samples - 1))
    return TightnessRow(
        nprime, g.n, "sampled", value, 3.0 * math.sqrt(var / samples), samples
    )
