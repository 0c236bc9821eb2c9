"""Naive reference implementations used as independent oracles.

Everything here enumerates graphs and permutations with itertools and
plain set arithmetic, deliberately sharing no code with the package's
evaluators.  Slow, small-n only, except the per-graph closed forms:
two_slot_quarter_counts and dv_wrap_counts are the scalar forms of the
package's array paths for prug and prugd, one graph at a time in Python
ints at any n, the reference for those paths at every size.
prug_p_vector and prug_q_vector are the two-slot rule read directly off
one ordering, the reference for the prug sampler's per-graph tables.
late_takeover_run is the one deliberately wrong rule here, a negative
control for the Lemma 3 scan.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from impartial.graphs import AnyGraph, InputError, NominationGraph, Permutation


def scan_select(g: AnyGraph, order: tuple[int, ...], exclude_candidate: bool = True) -> int:
    cand = order[0]
    d = 0
    for j in range(1, g.n):
        v = order[j]
        left = set(order[:j])
        cmp_set = left - {cand} if exclude_candidate else left
        if g.indegree_from(v, cmp_set) >= d:
            cand = v
            d = g.indegree_from(v, left)
    return cand


def perm_dist(g: AnyGraph, exclude_candidate: bool = True) -> list[Fraction]:
    counts = [0] * g.n
    for order in itertools.permutations(g.vertices):
        counts[scan_select(g, order, exclude_candidate) - 1] += 1
    total = math.factorial(g.n)
    return [Fraction(c, total) for c in counts]


def prug_p(g: AnyGraph, order: tuple[int, ...]) -> list[Fraction]:
    n = g.n
    pos = {v: i for i, v in enumerate(order, start=1)}
    degs = dict(zip(g.vertices, g.indegrees()))
    dmax = max(degs.values())
    front = max(g.vertices, key=lambda v: (degs[v], pos[v]))
    reduced = g.remove_out_edge(front).indegrees()
    gap = all(degs[front] >= reduced[v - 1] + 2 for v in g.vertices if v != front)
    p = [Fraction(0)] * n
    p[front - 1] = Fraction(3, 4) if gap else Fraction(1, 2)
    runner = max((v for v in g.vertices if v != front), key=lambda v: (degs[v], pos[v]))
    if g.out[runner - 1] == front and (
        degs[runner] == dmax or (degs[runner] == dmax - 1 and pos[runner] > pos[front])
    ):
        p[runner - 1] = Fraction(1, 2)
    return p


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
    p2 = prug_p_vector(g, Permutation(pi.seq[::-1]))
    return tuple(a + b for a, b in zip(p1, p2))


def prug_dist(g: AnyGraph) -> list[Fraction]:
    total = [Fraction(0)] * g.n
    for order in itertools.permutations(g.vertices):
        for v, p in enumerate(prug_p(g, order)):
            total[v] += p
    return [t / math.factorial(g.n) for t in total]


def prugd_dist(g: NominationGraph) -> list[Fraction]:
    """Default-vertex wrap of the two-slot rule, averaged over every
    (default vertex, ordering) pair through the reverse-paired q vector."""
    n = g.n
    acc = [Fraction(0)] * n
    for vbar in g.vertices:
        reduced = g.remove_out_edge(vbar)
        for order in itertools.permutations(g.vertices):
            p1 = prug_p(reduced, order)
            p2 = prug_p(reduced, order[::-1])
            q = [(a + b) / 2 for a, b in zip(p1, p2)]
            for v in range(n):
                acc[v] += q[v]
            acc[vbar - 1] += 1 - sum(q)
    total = n * math.factorial(n)
    return [a / total for a in acc]


def two_slot_quarter_counts(g: AnyGraph) -> tuple[list[int], int]:
    """The two-slot rule's per-vertex counts in quarters summed over all
    n! orderings, in closed form, and n!.

    Only the relative order of the top indegree class T and of T2
    (indegree dmax - 1) matters.  With k = |T| >= 2 the front vertex is
    uniform over T and a tied rival blocks the gap, so each member gets
    2 n!/k, plus 2 n!/(k(k-1)) if it nominates another member.  With
    T = {t}, t gets 3 n! or 2 n! by its gap test, and a member of T2
    nominating t gets 2 n!/(|T2| + 1).
    """
    out, n = g.out, g.n
    nfact = math.factorial(n)
    deg = [0] * (n + 1)  # deg[v] for vertex v; deg[0] takes absent edges
    for t in out:
        deg[t or 0] += 1
    deg[0] = -1
    dmax = max(deg)
    k = deg.count(dmax)
    counts = [0] * n
    if k >= 2:
        share, pair = 2 * nfact // k, 2 * nfact // (k * (k - 1))
        for v in range(1, n + 1):
            if deg[v] == dmax:
                counts[v - 1] = share + pair if deg[out[v - 1] or 0] == dmax else share
        return counts, nfact
    t = deg.index(dmax)
    deg[t] = -1
    deg[out[t - 1] or 0] -= 1
    rival = max(deg)  # the others' indegrees once t's edge is removed
    deg[out[t - 1] or 0] += 1
    counts[t - 1] = (3 if dmax >= rival + 2 else 2) * nfact
    runner = 2 * nfact // (deg.count(dmax - 1) + 1)
    for r in range(1, n + 1):
        if out[r - 1] == t and deg[r] == dmax - 1:
            counts[r - 1] = runner
    return counts, nfact


def prug_counts(g: AnyGraph) -> tuple[list[int], int]:
    """prug's counts in quarters over 4 n!."""
    counts, nfact = two_slot_quarter_counts(g)
    return counts, 4 * nfact


def dv_wrap_counts(inner_counts, g: NominationGraph) -> tuple[list[int], int]:
    """An inexact rule run with a uniformly chosen default vertex, whose
    edge is removed first and who takes the rule's unassigned mass.  The
    inner rule's denominator must depend on n only; the wrapped counts
    are over n times it."""
    n = g.n
    acc = [0] * n
    for vbar in g.vertices:
        counts, den = inner_counts(g.remove_out_edge(vbar))
        assert len(counts) == n
        for v, c in enumerate(counts):
            acc[v] += c
        acc[vbar - 1] += den - sum(counts)
    return acc, n * den


def prugd_counts(g: NominationGraph) -> tuple[list[int], int]:
    """prugd's counts over 4 n n!."""
    return dv_wrap_counts(prug_counts, g)


def mix_counts(g: NominationGraph, perm_counts: list[int]) -> tuple[list[int], int]:
    """mix's counts above n = 5, blended from perm's counts over n! and
    prugd_counts, over 1049 * 4 n n!."""
    pd, den = prugd_counts(g)
    scale = den // math.factorial(g.n)
    return [825 * scale * a + 224 * b for a, b in zip(perm_counts, pd)], 1049 * den


def rd_dist(g: NominationGraph) -> list[Fraction]:
    return [Fraction(d, g.n) for d in g.indegrees()]


def mix_dist(g: NominationGraph) -> list[Fraction]:
    if g.n <= 5:
        return rd_dist(g)
    pe = perm_dist(g)
    pd = prugd_dist(g)
    return [Fraction(825, 1049) * a + Fraction(224, 1049) * b for a, b in zip(pe, pd)]


def iter_out_tuples(n: int):
    """The reference walk of the graph space: all (n-1)^n labelled out
    tuples, lexicographically."""
    choices = [[t for t in range(1, n + 1) if t != v] for v in range(1, n + 1)]
    return itertools.product(*choices)


def all_graphs(n: int):
    for out in iter_out_tuples(n):
        yield NominationGraph(out)


def late_takeover_run(out0, perms, pos):
    """engine.run_selection's contract with the takeover threshold one
    too high: v must beat the candidate's left indegree instead of tying
    it, so some runs end below the maximum left indegree."""
    rows, n = perms.shape
    c = np.zeros((rows, n), dtype=np.int16)  # left indegree per ordering and vertex
    for u in range(n):
        c[:, out0[u]] += pos[:, u] < pos[:, out0[u]]
    idx = np.arange(rows)
    cand = perms[:, 0].copy()
    d = np.zeros(rows, dtype=np.int16)
    for j in range(1, n):
        v = perms[:, j]
        upd = c[idx, v] - (out0[cand] == v) > d
        cand = np.where(upd, v, cand)
        d = np.where(upd, c[idx, v], d)
    return cand, d, c.max(axis=1)
