"""The five selection mechanisms.

A mechanism is reached through its Mechanism entry in MECHANISMS,
which checks the graph once and then runs one of two paths: the exact
path returns integer selection counts over a common denominator (the
``*_counts`` functions; Mechanism.exact turns them into rationals), and
the sampler draws a single outcome from a SeedStream (the ``*_sample``
functions).  Exact perm counts the scan's outcomes over all n! vertex
orderings by a DP over prefix sets, whose 2^n states cap perm, and mix
through it, at engine.DP_CAP vertices; rd, prug and prugd are closed
forms with no cap.

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
from typing import Callable, Optional, Sequence

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
        max_left = max(max_left, full)
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


def perm_sample(g: AnyGraph, rng: SeedStream) -> int:
    return perm_run(g, rng.permutation(g.n))


# ---------------------------------------------------------------------------
# Random dictatorship

def rd_counts(g: NominationGraph) -> Counts:
    """Each vertex is selected with probability indegree/n."""
    return g.indegrees(), g.n


def rd_sample(g: NominationGraph, rng: SeedStream) -> int:
    return g.target_of(rng.vertex(g.n))


# ---------------------------------------------------------------------------
# Plurality with runner-up and gap

def prug_p_vector(g: AnyGraph, pi: Permutation) -> tuple[int, ...]:
    """The single-ordering weight vector of the two-slot rule, in quarters.

    The front vertex (lexicographic maximum of (indegree, position))
    gets 3 if, once its own edge is removed, it still leads every other
    vertex by at least 2; otherwise 2.  The runner-up gets 2 if it
    nominates the front vertex and either ties the maximum indegree or
    sits one below it while placed to the right of the front vertex.

    The entries can sum to 5 quarters, so this is a raw weight vector,
    not a distribution; averaging an ordering with its reverse brings
    the total back to at most 1.
    """
    n = g.n
    if pi.n != n:
        raise InputError(f"permutation size {pi.n} != graph size {n}")
    degs = g.indegrees()
    dmax = max(degs)
    pos = [0] * (n + 1)
    for i, v in enumerate(pi.seq):
        pos[v] = i

    def key(v: int) -> tuple[int, int]:
        return degs[v - 1], pos[v]

    front = max(g.vertices, key=key)
    reduced = list(degs)
    front_target = g.out[front - 1]
    if front_target is not None:
        reduced[front_target - 1] -= 1
    gap = all(
        degs[front - 1] >= reduced[v - 1] + 2 for v in g.vertices if v != front
    )
    p = [0] * n
    p[front - 1] = 3 if gap else 2
    runner = max((v for v in g.vertices if v != front), key=key)
    if g.out[runner - 1] == front and (
        degs[runner - 1] == dmax
        or (
            degs[runner - 1] == dmax - 1
            and pos[runner] > pos[front]
        )
    ):
        p[runner - 1] = 2
    return tuple(p)


def prug_q_vector(g: AnyGraph, pi: Permutation) -> tuple[int, ...]:
    """Average of the weight vectors of pi and its reverse, in eighths:
    p(pi) + p(reverse pi) in quarters.  The entries sum to at most 8,
    so this is a valid (possibly deficient) distribution over 8."""
    p1 = prug_p_vector(g, pi)
    p2 = prug_p_vector(g, pi.reverse())
    return tuple(a + b for a, b in zip(p1, p2))


def prug_counts(g: AnyGraph) -> Counts:
    """Sum of the single-ordering weight vectors over all orderings, in
    quarters, over 4 n!.

    Averaging p directly equals averaging the reverse-paired q vectors,
    since reversal is a bijection on orderings.  The total may fall
    short of 1: the rule is allowed to select no one.  The engine sums
    in closed form, so no ordering is enumerated.
    """
    counts, runs = engine.runner_up_gap_quarter_counts(engine.out_array(g))
    return counts, 4 * runs


def prug_sample(g: AnyGraph, rng: SeedStream) -> Optional[int]:
    """Draw an ordering, form the reverse-averaged vector in eighths,
    then draw a vertex from it; None when no vertex is selected."""
    i = rng.categorical(prug_q_vector(g, rng.permutation(g.n)), 8)
    return None if i is None else i + 1


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


def prugd_sample(g: NominationGraph, rng: SeedStream) -> int:
    vbar = rng.vertex(g.n)
    picked = prug_sample(g.remove_out_edge(vbar), rng)
    return vbar if picked is None else picked


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


def mix_sample(g: NominationGraph, rng: SeedStream) -> int:
    """rd for n <= 5; otherwise one uniform integer below 1049 picks perm
    when it falls below 825, prugd otherwise."""
    if g.n <= MIX_SMALL_N:
        return rd_sample(g, rng)
    if rng.randrange(MIX_PERM_WEIGHT.denominator) < MIX_PERM_WEIGHT.numerator:
        return perm_sample(g, rng)
    return prugd_sample(g, rng)


# ---------------------------------------------------------------------------
# Registry

@dataclass(frozen=True)
class Mechanism:
    """A named exact path and sampler: the one way into a mechanism.

    accepts_partial: defined on graphs with missing out-edges; counts()
    and sample() reject any other graph for a mechanism without it, so
    the paths behind them never check.
    The exact path returns integer counts over one denominator; exact()
    turns them into rationals.  sample() takes a seed or a SeedStream and
    hands the paths a SeedStream.
    """

    name: str
    accepts_partial: bool
    _counts: Callable[[AnyGraph], Counts]
    _sample: Callable[[AnyGraph, SeedStream], Optional[int]]

    def counts(self, g: AnyGraph) -> Counts:
        return self._counts(self._coerce(g))

    def exact(self, g: AnyGraph) -> SelectionDistribution:
        return SelectionDistribution.from_counts(*self.counts(g))

    def sample(self, g: AnyGraph, seed: int | SeedStream) -> Optional[int]:
        return self._sample(self._coerce(g), as_stream(seed))

    def _coerce(self, g: AnyGraph) -> AnyGraph:
        if not (self.accepts_partial or isinstance(g, NominationGraph)):
            raise InputError(f"{self.name} is only defined on total nomination graphs")
        return g


MECHANISMS: dict[str, Mechanism] = {
    "perm": Mechanism("perm", True, perm_counts, perm_sample),
    "rd": Mechanism("rd", False, rd_counts, rd_sample),
    "prug": Mechanism("prug", True, prug_counts, prug_sample),
    "prugd": Mechanism("prugd", False, prugd_counts, prugd_sample),
    "mix": Mechanism("mix", False, mix_counts, mix_sample),
}


def get_mechanism(name: str) -> Mechanism:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise InputError(
            f"unknown mechanism {name!r}; expected one of {sorted(MECHANISMS)}"
        ) from None
