"""The five selection mechanisms.

A mechanism is reached through its Mechanism entry in MECHANISMS,
which checks the graph once and then runs one of two paths.  The exact
path returns integer selection counts over a common denominator (the
``*_counts`` functions); Mechanism.exact returns them as a
SelectionDistribution, which validates them.  The sampling path is a
factory (the ``*_sampler`` functions) that reads the graph once and
returns a draw; each call of the draw simulates the rule on one
ordering or vertex drawn from a SeedStream.  Exact perm counts the
scan's outcomes over all n! vertex orderings by a DP over prefix sets,
whose 2^n states cap perm, and mix through it, at engine.DP_CAP
vertices; rd, prug and prugd are closed forms with no cap.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import engine
from .graphs import (
    AnyGraph,
    InputError,
    NominationGraph,
    PartialNominationGraph,
    Permutation,
    SelectionDistribution,
)
from .rng import SeedStream, as_stream

Counts = tuple[Sequence[int], int]  # per-vertex numerators, common denominator
Draw = Callable[[SeedStream], Optional[int]]  # one seeded draw on a fixed graph

MIX_PERM_WEIGHT = Fraction(825, 1049)
MIX_PRUGD_WEIGHT = Fraction(224, 1049)
MIX_SMALL_N = 5


# ---------------------------------------------------------------------------
# Permutation mechanism

def perm_run(g: AnyGraph, pi: Permutation) -> int:
    """Scan the vertices in pi's order, keeping the candidate with the
    highest indegree from the left, and return the selected vertex.

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
    if pi.n != n:
        raise InputError(f"permutation size {pi.n} != graph size {n}")
    out = g.out
    left = [0] * (n + 1)  # slot 0 absorbs absent edges and is never read
    cand = pi.seq[0]
    d = max_left = 0
    left[out[cand - 1] or 0] += 1
    for v in pi.seq[1:]:
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


def perm_counts(g: AnyGraph) -> Counts:
    """How many of the n! orderings make the scan select each vertex,
    counted by the engine's DP over prefix sets, over n!."""
    return engine.selection_counts(engine.out_array(g))


def perm_sampler(g: AnyGraph) -> Draw:
    """Run the scan on one uniform ordering per draw."""
    n = g.n
    return lambda rng: perm_run(g, rng.permutation(n))


# ---------------------------------------------------------------------------
# Random dictatorship

def rd_counts(g: NominationGraph) -> Counts:
    """Each vertex is selected with probability indegree/n."""
    return g.indegrees(), g.n


def rd_sampler(g: NominationGraph) -> Draw:
    """One uniform vertex per draw; it selects its nominee."""
    n, out = g.n, g.out
    return lambda rng: out[rng.vertex(n) - 1]


# ---------------------------------------------------------------------------
# Plurality with runner-up and gap

def prug_counts(g: AnyGraph) -> Counts:
    """Sum of the single-ordering weight vectors over all orderings, in
    quarters, over 4 n!.

    Averaging them directly equals averaging the reverse-paired vectors
    the sampler draws from, since reversal is a bijection on orderings.
    The total may fall short of 1: the rule is allowed to select no one.
    The engine sums in closed form, so no ordering is enumerated.
    """
    counts, runs = engine.runner_up_gap_quarter_counts(engine.out_array(g))
    return counts, 4 * runs


def prug_sampler(g: AnyGraph) -> Draw:
    """Per draw: a uniform ordering, the weight vector of that ordering
    plus that of its reverse in eighths (the reverse-paired average,
    summing to at most 8), then a vertex drawn from it; None when no
    vertex is selected.

    In one ordering the front vertex, the (indegree, position)-maximum,
    is the last member of the top indegree class T.  It gets 3 quarters
    if, once its own edge is removed, it still leads every other vertex
    by at least 2, otherwise 2; that test depends only on which member
    of T is the front, so it is tabulated here, once per graph.  The
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
    front_quarters = [0] * (n + 1)
    for f in top:
        reduced = list(degs)
        if out[f - 1] is not None:
            reduced[out[f - 1] - 1] -= 1
        gap = all(dmax >= reduced[v - 1] + 2 for v in g.vertices if v != f)
        front_quarters[f] = 3 if gap else 2
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
        seq = rng.permutation(n).seq
        head, tail = first_two(seq), first_two(reversed(seq))
        w = [0] * n
        if len(top) > 1:
            # the front and runner-up of seq, then of its reverse
            for front, runner in (tail, head):
                w[front - 1] += front_quarters[front]
                if out[runner - 1] == front:
                    w[runner - 1] += 2
        else:
            t = top[0]
            w[t - 1] = 2 * front_quarters[t]
            # the last marked vertex of seq, and of its reverse, scores
            # if it nominates t (so it is not t, and follows t)
            for runner in (tail[0], head[0]):
                if out[runner - 1] == t:
                    w[runner - 1] += 2
        i = rng.categorical(w, 8)
        return None if i is None else i + 1

    return draw


# ---------------------------------------------------------------------------
# Default-vertex wrapper

def dv_wrap_counts(
    inner_counts: Callable[[PartialNominationGraph], Counts], g: NominationGraph
) -> Counts:
    """Run an inexact rule with a uniformly chosen default vertex.

    The default vertex's outgoing edge is removed before the inner rule
    runs, and the default vertex picks up the inner rule's unassigned
    mass on top of its own share, so the wrapped rule always selects.
    The inner rule's denominator must depend on n only; the wrapped
    counts are over n times it.
    """
    n = g.n
    acc = [0] * n
    for vbar in g.vertices:
        counts, den = inner_counts(g.remove_out_edge(vbar))
        if len(counts) != n:
            raise InputError("inner mechanism changed the vertex count")
        for v, c in enumerate(counts):
            acc[v] += c
        acc[vbar - 1] += den - sum(counts)
    return acc, n * den


def prugd_counts(g: NominationGraph) -> Counts:
    """prug with a uniform default vertex, over 4 n n!."""
    return dv_wrap_counts(prug_counts, g)


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

def mix_counts(g: NominationGraph) -> Counts:
    """rd for n <= 5; otherwise the fixed 825/1049 : 224/1049 blend of
    perm (over n!) and prugd (over 4 n n!), over 1049 * 4 n n!."""
    if g.n <= MIX_SMALL_N:
        return rd_counts(g)
    pe, nfact = perm_counts(g)
    pd, den = prugd_counts(g)
    scale = den // nfact
    # both weights are over 1049
    blend = [
        MIX_PERM_WEIGHT.numerator * scale * a + MIX_PRUGD_WEIGHT.numerator * b
        for a, b in zip(pe, pd)
    ]
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

@dataclass(frozen=True)
class Mechanism:
    """A named exact path and sampler: the one way into a mechanism.

    accepts_partial: defined on graphs with missing out-edges; exact()
    and sampler() reject any other graph for a mechanism without it, so
    the paths behind them never check.
    exact(g) is the one exact entry: it wraps the exact path's integer
    counts over one denominator in a SelectionDistribution, which
    validates them, and rejects a count vector that is not one per vertex.
    sampler(g) reads the graph once and returns a draw that takes a
    SeedStream; sample() is one draw from a seed or a SeedStream.
    """

    name: str
    accepts_partial: bool
    _counts: Callable[[AnyGraph], Counts]
    _sampler: Callable[[AnyGraph], Draw]

    def exact(self, g: AnyGraph) -> SelectionDistribution:
        dist = SelectionDistribution(*self._counts(self._coerce(g)))
        if dist.n != g.n:
            raise InputError(f"{self.name} gave {dist.n} counts for {g.n} vertices")
        return dist

    def sampler(self, g: AnyGraph) -> Draw:
        return self._sampler(self._coerce(g))

    def sample(self, g: AnyGraph, seed: int | SeedStream) -> Optional[int]:
        return self.sampler(g)(as_stream(seed))

    def _coerce(self, g: AnyGraph) -> AnyGraph:
        if not (self.accepts_partial or isinstance(g, NominationGraph)):
            raise InputError(f"{self.name} is only defined on total nomination graphs")
        return g


MECHANISMS: dict[str, Mechanism] = {
    "perm": Mechanism("perm", True, perm_counts, perm_sampler),
    "rd": Mechanism("rd", False, rd_counts, rd_sampler),
    "prug": Mechanism("prug", True, prug_counts, prug_sampler),
    "prugd": Mechanism("prugd", False, prugd_counts, prugd_sampler),
    "mix": Mechanism("mix", False, mix_counts, mix_sampler),
}


def get_mechanism(name: str) -> Mechanism:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise InputError(
            f"unknown mechanism {name!r}; expected one of {sorted(MECHANISMS)}"
        ) from None
