"""The five selection mechanisms.

A mechanism is reached through its Mechanism entry in MECHANISMS,
which checks the graph once and then runs one of two paths.  The exact
path is one function per mechanism (the ``*_counts`` functions) that
maps a (graphs, n) array of 0-based targets to a (graphs, n) array of
integer selection counts over one denominator for the batch, which
depends on n alone; Mechanism.counts runs it and checks the whole
batch at once with graphs.check_counts, and
Mechanism.exact is that path on a batch of one, returned as a
SelectionDistribution built from the checked row without a second
check.  perm is one call of the engine's batched DP over prefix sets,
which packs its own passes and returns the scan's outcome counts over
all n! orderings as one int64 array; its 2^n states cap perm, and mix
through it, at engine.DP_CAP vertices.  rd,
prug and prugd are numpy closed forms over the whole batch with no cap.
Counts are int64 while the largest of them fits, and Python ints
(dtype object) above, so they never wrap.  A rule written for one
graph at a time joins the same path through per_graph, which scales
its rows to the lcm of their denominators.  The sampling path is a
factory (the ``*_sampler`` functions) that reads the graph
once and returns a draw; each call of the draw simulates the rule on
one ordering or vertex drawn from a SeedStream.

perm  - left-to-right candidate scan along a uniform random ordering.
rd    - random dictatorship: a uniform vertex's nominee.
prug  - two-slot rule with a gap bonus along a uniform random ordering,
        which makes prug and prugd relabelling-invariant; may select no
        one (inexact).
prugd - prug wrapped with a uniformly chosen default vertex that absorbs
        the unassigned probability.
mix   - rd for n <= 5, otherwise a fixed coin between perm and prugd.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import engine
from .graphs import (
    AnyGraph,
    InputError,
    NominationGraph,
    PartialNominationGraph,
    SelectionDistribution,
    check_counts,
    derived,
    exact_dtype,
)
from .rng import SeedStream, as_stream

# The exact path's result on a batch: a (graphs, n) integer count array
# and the one denominator of the batch.
Counts = tuple[np.ndarray, int]
Draw = Callable[[SeedStream], Optional[int]]  # one seeded draw on a fixed graph

MIX_PERM_WEIGHT = Fraction(825, 1049)
MIX_PRUGD_WEIGHT = Fraction(224, 1049)
MIX_SMALL_N = 5
# Entries of the edge-removed copies (graphs times n^2) that prugd
# passes to the two-slot closed form at once, which bounds its memory:
# each graph becomes n copies, held as Python ints from n = 19.
PRUGD_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Permutation mechanism

def perm_run(g: AnyGraph, seq: Sequence[int]) -> int:
    """Scan the vertices in the order of seq, an ordering of 1..n given
    as any sequence, keeping the candidate with the highest indegree
    from the left, and return the selected vertex.

    A newly considered vertex takes over on ties (>=), and the edge from
    the current candidate is ignored in the comparison, while the stored
    indegree counts the full prefix.  That asymmetry is what keeps the
    rule impartial.  Raises RuntimeError if the selected vertex misses
    the maximum indegree from the left, which Lemma 3 rules out.

    The scan keeps one running count per vertex, left[t] = the number of
    already placed vertices that nominate t, so a vertex's indegree from
    the left is read off as it is reached and a run costs O(n).
    """
    n = g.n
    if len(seq) != n:
        raise InputError(f"permutation size {len(seq)} != graph size {n}")
    out = g.out
    left = [0] * (n + 1)  # slot 0 absorbs absent edges and is never read
    cand = seq[0]
    d = max_left = 0
    left[out[cand - 1] or 0] += 1
    for v in seq[1:]:
        full = left[v]
        if full - (out[cand - 1] == v) >= d:
            cand = v
            d = full
        if full > max_left:  # not max(): a call per vertex doubles the scan's cost
            max_left = full
        left[out[v - 1] or 0] += 1
    if d != max_left:
        raise RuntimeError(
            f"selected vertex {cand} has left indegree {d}, not the maximum {max_left}"
        )
    return cand


def perm_counts(out0s: np.ndarray) -> Counts:
    """How many of the n! orderings make the scan select each vertex,
    counted by the engine's DP over prefix sets, over n!."""
    return engine.batch_selection_counts(out0s), math.factorial(out0s.shape[1])


def perm_sampler(g: AnyGraph) -> Draw:
    """Run the scan on one uniform ordering per draw, the tuple that
    SeedStream.permutation returns."""
    n = g.n
    return lambda rng: perm_run(g, rng.permutation(n))


# ---------------------------------------------------------------------------
# Random dictatorship

def rd_counts(out0s: np.ndarray) -> Counts:
    """Each vertex is selected with probability indegree/n."""
    return engine.indegrees(out0s), out0s.shape[1]


def rd_sampler(g: NominationGraph) -> Draw:
    """One uniform vertex per draw; it selects its nominee."""
    n, out = g.n, g.out
    return lambda rng: out[rng.vertex(n) - 1]


# ---------------------------------------------------------------------------
# Plurality with runner-up and gap

def prug_counts(out0s: np.ndarray) -> Counts:
    """Sum of the single-ordering weight vectors over all orderings, in
    quarters, over 4 n!.

    Averaging them directly equals averaging the reverse-paired vectors
    the sampler draws from, since reversal is a bijection on orderings.
    The total may fall short of 1: the rule is allowed to select no one.
    The engine sums in closed form, so no ordering is enumerated.
    """
    counts, runs = engine.two_slot_quarter_counts(out0s)
    return counts, 4 * runs


def prug_sampler(g: AnyGraph) -> Draw:
    """Per draw: a uniform ordering, the weight vector of that ordering
    plus that of its reverse in eighths (the reverse-paired average,
    summing to at most 8), then a vertex drawn from it; None when no
    vertex is selected.  The categorical draw is given only the nonzero
    eighths, at most four, in vertex order: a zero weight never holds
    the uniform integer, so the pick is the one the full vector gives.

    In one ordering the front vertex, the (indegree, position)-maximum,
    is the last member of the top indegree class T.  It gets 3 quarters
    if, once its own edge is removed, it still leads every other vertex
    by at least 2, otherwise 2.  A tied rival always blocks that gap, so
    only a lone top t can pass it, and the test runs here, once.  The
    runner-up gets 2 quarters if it nominates the front and either ties
    the maximum indegree or sits one below it while placed to the right
    of the front.  With |T| >= 2 it is the next-to-last member of T.
    With T = {t} it is the last vertex of indegree dmax - 1, which
    scores only if it follows t.  So a draw reads its ordering only at
    the first two and last two marked vertices (the members of T, plus
    the indegree dmax - 1 class when |T| = 1), and the reverse ordering
    swaps the two ends.
    """
    n, out = g.n, g.out
    degs = g.indegrees()
    dmax = max(degs)
    top = [v for v in g.vertices if degs[v - 1] == dmax]
    t, gap = top[0], False
    if len(top) == 1:
        reduced = list(degs)
        if out[t - 1] is not None:
            reduced[out[t - 1] - 1] -= 1
        gap = all(dmax >= reduced[v - 1] + 2 for v in g.vertices if v != t)
    marked = [False] * (n + 1)
    for v in g.vertices:
        marked[v] = degs[v - 1] == dmax or (len(top) == 1 and degs[v - 1] == dmax - 1)

    def first_two(vertices: Iterable[int]) -> list[int]:
        found = []
        for v in vertices:
            if marked[v]:
                found.append(v)
                if len(found) == 2:
                    break
        return found

    def draw(rng: SeedStream) -> Optional[int]:
        seq = rng.permutation(n)
        head, tail = first_two(seq), first_two(reversed(seq))
        if len(top) > 1:
            # the front and runner-up of seq, then of its reverse; the
            # two fronts differ, and a runner-up may be the other front
            w = {tail[0]: 2, head[0]: 2}
            for front, runner in (tail, head):
                if out[runner - 1] == front:
                    w[runner] = w.get(runner, 0) + 2
        else:
            w = {t: 2 * (3 if gap else 2)}
            # the last marked vertex of seq, and of its reverse, scores
            # if it nominates t (so it is not t, and follows t)
            for runner in (tail[0], head[0]):
                if out[runner - 1] == t:
                    w[runner] = w.get(runner, 0) + 2
        picks = sorted(w)
        i = rng.categorical([w[v] for v in picks], 8)
        return None if i is None else picks[i]

    return draw


# ---------------------------------------------------------------------------
# prug with a default vertex

def prugd_counts(out0s: np.ndarray) -> Counts:
    """prug run with a uniformly chosen default vertex, over 4 n n!.

    The default vertex's outgoing edge is removed before prug runs, and
    the default vertex picks up prug's unassigned mass on top of its own
    share, so the wrapped rule always selects.  The n edge-removed
    copies of each graph go through prug's closed form as one
    (graphs * n, n) batch, PRUGD_CHUNK entries at a time.
    """
    graphs, n = out0s.shape
    den = 4 * math.factorial(n)
    dtype = exact_dtype(n * den)
    counts = np.empty((graphs, n), dtype=dtype)
    step = max(1, PRUGD_CHUNK // (n * n))
    for i in range(0, graphs, step):
        part = out0s[i : i + step]
        copies = np.repeat(part, n, axis=0)  # row g * n + j: graph g without j's edge
        copies[np.arange(len(copies)), np.tile(np.arange(n), len(part))] = -1
        quarters = engine.two_slot_quarter_counts(copies)[0].astype(dtype).reshape(len(part), n, n)
        # default j's unassigned quarters go to j
        counts[i : i + step] = quarters.sum(axis=1) + (den - quarters.sum(axis=2))
    return counts, n * den


def prugd_sampler(g: NominationGraph) -> Draw:
    """Per draw: a uniform default vertex, then a prug draw on the graph
    without its edge.  Each default's prug sampler is built on first use."""
    n = g.n
    inner: list[Optional[Draw]] = [None] * (n + 1)

    def draw(rng: SeedStream) -> int:
        vbar = rng.vertex(n)
        if inner[vbar] is None:
            inner[vbar] = prug_sampler(g.remove_out_edge(vbar))
        picked = inner[vbar](rng)
        return vbar if picked is None else picked

    return draw


# ---------------------------------------------------------------------------
# Mixture mechanism

def mix_counts(out0s: np.ndarray) -> Counts:
    """rd for n <= 5; otherwise the fixed 825/1049 : 224/1049 blend of
    perm (over n!) and prugd (over 4 n n!), over 1049 * 4 n n!."""
    if out0s.shape[1] <= MIX_SMALL_N:
        return rd_counts(out0s)
    (pe, nfact), (pd, den) = perm_counts(out0s), prugd_counts(out0s)
    dtype = exact_dtype(MIX_PERM_WEIGHT.denominator * den)
    # both weights are over 1049
    blend = (MIX_PERM_WEIGHT.numerator * (den // nfact) * pe.astype(dtype)
             + MIX_PRUGD_WEIGHT.numerator * pd.astype(dtype))
    return blend, MIX_PERM_WEIGHT.denominator * den


def mix_sampler(g: NominationGraph) -> Draw:
    """rd for n <= 5; otherwise one uniform integer below 1049 per draw
    picks perm when it falls below 825, prugd otherwise."""
    if g.n <= MIX_SMALL_N:
        return rd_sampler(g)
    perm, prugd = perm_sampler(g), prugd_sampler(g)
    den, cut = MIX_PERM_WEIGHT.denominator, MIX_PERM_WEIGHT.numerator
    return lambda rng: perm(rng) if rng.randrange(den) < cut else prugd(rng)


# ---------------------------------------------------------------------------
# Registry

def per_graph(counts: Callable[[AnyGraph], tuple[Sequence[int], int]]) -> Callable[[np.ndarray], Counts]:
    """An exact path made of a rule written for one graph at a time, which
    returns one count per vertex and a denominator: it runs the rule on
    each row's graph, checks each row with check_counts before scaling
    it (lcm(0, 4) is 0, and lcm rejects a Fraction), and scales the rows
    to the lcm of their denominators, 1 on an empty batch."""

    def batch(out0s: np.ndarray) -> Counts:
        graphs, n = out0s.shape
        rows = []
        for out0 in out0s.tolist():
            out = tuple(None if t < 0 else t + 1 for t in out0)
            numerators, den = counts((PartialNominationGraph if None in out else NominationGraph)(out))
            if len(numerators) != n:
                raise InputError(f"a per-graph rule gave {len(numerators)} counts for {n} vertices")
            rows.append(check_counts(np.array([numerators], dtype=object), den))
        den = math.lcm(*(d for _, d in rows))
        return np.array([row[0] * (den // d) for row, d in rows], dtype=object).reshape(graphs, n), den

    return batch


@dataclass(frozen=True)
class Mechanism:
    """A named exact path and sampler: the one way into a mechanism.

    accepts_partial: defined on graphs with missing out-edges; for a
    mechanism without it, counts() and sampler() reject a graph with an
    absent edge, whatever its type, and exact() through counts(), so
    the paths behind them never check.
    counts(out0s) is the one exact entry: it runs the exact path on a
    (graphs, n) array of 0-based targets and returns the (graphs, n)
    counts and the one denominator of the batch, after checking that
    the counts have that shape and then the whole batch once with
    check_counts.
    exact(g) is counts on a batch of one, as a SelectionDistribution
    built from the row counts has checked, without checking it again.
    sampler(g) reads the graph once and returns a draw that takes a
    SeedStream; sample() is one draw from a seed or a SeedStream.
    """

    name: str
    accepts_partial: bool
    _counts: Callable[[np.ndarray], Counts]
    _sampler: Callable[[AnyGraph], Draw]

    def counts(self, out0s: np.ndarray) -> Counts:
        self._check_total((out0s < 0).any())
        counts, den = self._counts(out0s)
        counts = np.asarray(counts)
        if counts.shape != out0s.shape:
            raise InputError(f"{self.name} gave counts of shape {counts.shape}, "
                             f"expected (graphs, n) = {out0s.shape}")
        return check_counts(counts, den)

    def exact(self, g: AnyGraph) -> SelectionDistribution:
        counts, den = self.counts(engine.out_array(g)[None])
        # counts has checked the row and made den a Python int; tolist gives Python ints
        return derived(SelectionDistribution, numerators=tuple(counts[0].tolist()), denominator=den)

    def sampler(self, g: AnyGraph) -> Draw:
        self._check_total(None in g.out)
        return self._sampler(g)

    def sample(self, g: AnyGraph, seed: int | SeedStream) -> Optional[int]:
        return self.sampler(g)(as_stream(seed))

    def _check_total(self, edge_missing: bool) -> None:
        if edge_missing and not self.accepts_partial:
            raise InputError(f"{self.name} is only defined on total nomination graphs")


MECHANISMS: dict[str, Mechanism] = {
    "perm": Mechanism("perm", True, perm_counts, perm_sampler),
    "rd": Mechanism("rd", False, rd_counts, rd_sampler),
    "prug": Mechanism("prug", True, prug_counts, prug_sampler),
    "prugd": Mechanism("prugd", False, prugd_counts, prugd_sampler),
    "mix": Mechanism("mix", False, mix_counts, mix_sampler),
}


def get_mechanism(mechanism: str | Mechanism) -> Mechanism:
    """The registered mechanism of that name; a Mechanism is returned as given."""
    if isinstance(mechanism, Mechanism):
        return mechanism
    try:
        return MECHANISMS[mechanism]
    except KeyError:
        raise InputError(
            f"unknown mechanism {mechanism!r}; expected one of {sorted(MECHANISMS)}"
        ) from None
