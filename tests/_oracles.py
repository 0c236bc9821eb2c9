"""Naive reference implementations used as independent oracles.

Everything here enumerates graphs and permutations with itertools and
plain set arithmetic, deliberately sharing no code with the package's
evaluators.  Slow, small-n only, except the per-graph closed forms:
two_slot_quarter_counts and dv_wrap_counts are the scalar forms of the
package's array paths for prug and prugd, one graph at a time in Python
ints at any n, the reference for those paths at every size.
prug_p_vector and prug_q_vector are the two-slot rule read directly off
one ordering, the reference for engine.two_slot_rule.
correlation_histogram reads the correlation check's left indegrees off
each ordering's positions, with no ordering table.  ordering_table is
the ordering table built by concatenating blocks, the reference for
the row order of engine.permutation_table.
late_takeover_run is the one deliberately wrong rule here, a negative
control for the Lemma 3 scan.
perm_run and the *_sampler functions are the per-draw samplers: each
draw simulates its rule on one ordering or vertex from the SeedStream's
one-at-a-time draws (permutation, randrange, categorical), the
reference for the package's batch samplers, draw for draw.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from impartial.graphs import AnyGraph, InputError, NominationGraph, Permutation
from impartial.rng import SeedStream


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


def scan_run(g: AnyGraph, order: tuple[int, ...]) -> tuple[int, int, int]:
    """(selected vertex, its indegree from the left, the maximum indegree
    from the left over all vertices) of the scan on one ordering."""
    left = [sum(1 for u in order[:j] if g.out[u - 1] == v) for j, v in enumerate(order)]
    selected = scan_select(g, order)
    return selected, left[order.index(selected)], max(left)


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


def correlation_histogram(g: AnyGraph, vstar: int) -> dict[tuple[int, int], int]:
    """Orderings per (a, m) over all n! orderings: a the left indegree of
    vstar, m the maximum left indegree of the other vertices."""
    hist: dict[tuple[int, int], int] = {}
    for order in itertools.permutations(g.vertices):
        pos = {v: i for i, v in enumerate(order)}
        left = {v: 0 for v in g.vertices}
        for u, t in enumerate(g.out, start=1):
            if t is not None and pos[u] < pos[t]:
                left[t] += 1
        a = left.pop(vstar)
        key = (a, max(left.values()))
        hist[key] = hist.get(key, 0) + 1
    return hist


def ordering_table(n: int) -> np.ndarray:
    """All n! orderings of 0..n-1 as rows, in the row order of
    engine.permutation_table: block cut of the table is the (n-1)-table
    with vertex n - 1 inserted at position cut."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.int16)
    base = ordering_table(n - 1)
    col = np.full((base.shape[0], 1), n - 1, dtype=np.int16)
    return np.concatenate([np.concatenate([base[:, :cut], col, base[:, cut:]], axis=1) for cut in range(n)])


def iter_out_tuples(n: int):
    """The reference walk of the graph space: all (n-1)^n labelled out
    tuples, lexicographically."""
    choices = [[t for t in range(1, n + 1) if t != v] for v in range(1, n + 1)]
    return itertools.product(*choices)


def all_graphs(n: int):
    for out in iter_out_tuples(n):
        yield NominationGraph(out)


def late_takeover_run(out0, perms):
    """engine.run_selection's contract with the takeover threshold one
    too high: v must beat the candidate's left indegree instead of tying
    it, so some runs end below the maximum left indegree."""
    rows, n = perms.shape
    pos = np.argsort(perms, axis=1)
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


# ---------------------------------------------------------------------------
# per-draw samplers

def perm_run(g: AnyGraph, seq: Sequence[int]) -> int:
    """The scan along the ordering seq of 1..n with one running count per
    vertex, left[t] = the number of already placed vertices that
    nominate t; RuntimeError if the selected vertex misses the maximum
    indegree from the left."""
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
        if full > max_left:
            max_left = full
        left[out[v - 1] or 0] += 1
    if d != max_left:
        raise RuntimeError(
            f"selected vertex {cand} has left indegree {d}, not the maximum {max_left}"
        )
    return cand


def perm_sampler(g: AnyGraph):
    """The scan on one SeedStream.permutation per draw."""
    n = g.n
    return lambda rng: perm_run(g, rng.permutation(n))


def rd_sampler(g: NominationGraph):
    """One uniform vertex per draw; it selects its nominee."""
    n, out = g.n, g.out
    return lambda rng: out[rng.randrange(n)]


def prug_sampler(g: AnyGraph):
    """Per draw: a uniform ordering, the weight vector of that ordering
    plus that of its reverse in eighths, read off the first two and last
    two marked vertices (T, plus T2 when T = {t}), then a categorical
    draw over the nonzero eighths in vertex order; None for no one."""
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
            w = {tail[0]: 2, head[0]: 2}
            for front, runner in (tail, head):
                if out[runner - 1] == front:
                    w[runner] = w.get(runner, 0) + 2
        else:
            w = {t: 2 * (3 if gap else 2)}
            for runner in (tail[0], head[0]):
                if out[runner - 1] == t:
                    w[runner] = w.get(runner, 0) + 2
        picks = sorted(w)
        i = rng.categorical([w[v] for v in picks], 8)
        return None if i is None else picks[i]

    return draw


def prugd_sampler(g: NominationGraph):
    """Per draw: a uniform default vertex, then a prug draw on the graph
    without its edge, whose no one is the default."""
    n = g.n
    inner = [None] * (n + 1)

    def draw(rng: SeedStream) -> int:
        vbar = rng.randrange(n) + 1
        if inner[vbar] is None:
            inner[vbar] = prug_sampler(g.remove_out_edge(vbar))
        picked = inner[vbar](rng)
        return vbar if picked is None else picked

    return draw


def mix_sampler(g: NominationGraph):
    """rd for n <= 5; otherwise a coin below 1049 per draw picks perm
    under 825, prugd otherwise."""
    if g.n <= 5:
        return rd_sampler(g)
    perm, prugd = perm_sampler(g), prugd_sampler(g)
    return lambda rng: perm(rng) if rng.randrange(1049) < 825 else prugd(rng)


SAMPLERS = {"perm": perm_sampler, "rd": rd_sampler, "prug": prug_sampler,
            "prugd": prugd_sampler, "mix": mix_sampler}
