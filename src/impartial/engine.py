"""Exact and sampled evaluation of the candidate scan, and the two-slot
closed form.

Exact perm counts come from a dynamic program over prefix sets: the
scan's future after a prefix depends only on which vertices were placed,
not on their order, so batch_selection_counts carries integer ordering
counts per (prefix set, candidate, candidate's left indegree) and covers
all n! orderings in one pass over the 2^n prefix sets, up to DP_CAP.  It
holds each layer's live states, for a whole batch of graphs of one size,
as flat numpy arrays and extends them all in one vectorised step per
layer; selection_counts is its one-graph entry.  The counts are exact
integers, so dividing by n! at the end loses nothing.  The two-slot
rule's counts over all n! orderings depend only on the indegree classes,
so two_slot_quarter_counts computes them in closed form without
enumerating anything, for a whole batch of graphs at once, in int64
while they fit and in Python ints above (exact_dtype).

Checks about individual orderings (the left-indegree profile, and the
Lemma 3 check that every scan ends on the maximum left indegree) and
the sampled scan still run on explicit orderings with numpy, many at once.
The key shortcut there: when the left-to-right scan considers vertex v,
the prefix is exactly the set of vertices placed before v.  So the
indegree from the left that the scan sees for v equals the number of
in-neighbors of v placed before v, which can be computed for all
permutations and all vertices in O(n) vector operations, without
materializing prefixes.

Everything here is 0-based and array-typed; the public modules convert
at the boundary.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .graphs import AnyGraph, CapacityError

# Largest n whose n! orderings are ever enumerated one by one: the
# ordering table behind the correlation check and the Lemma 3 scan.  Only
# the correlation check reaches it; the sweep budget stops the scan at
# n = 10.  (Tightness rows switch from exact to sampled at DP_CAP, not here.)
ENUM_CAP = 10
# Largest n at which exact perm, and exact mix above MIX_SMALL_N, run the
# prefix-set DP: about 0.3 s and 50 MB for a random graph at n = 16, and
# each further vertex roughly doubles both.
DP_CAP = 16
# Index entries (graph, prefix set, d, candidate) per numpy pass of
# batch_selection_counts, which bounds its memory: a batch is split into
# passes of whole graphs, and a graph too big for one pass gets its own.
STATE_BUDGET = 1 << 14
# Orderings drawn per batch by sampled_selection_counts, which bounds
# its memory (about 5 MB at n = 23); the draws do not depend on it.
SAMPLE_CHUNK = 10000
_table_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _build_perms(n: int) -> np.ndarray:
    if n == 1:
        return np.zeros((1, 1), dtype=np.int16)
    base = _build_perms(n - 1)
    rows = base.shape[0]
    blocks = []
    for cut in range(n):
        col = np.full((rows, 1), n - 1, dtype=np.int16)
        blocks.append(np.concatenate([base[:, :cut], col, base[:, cut:]], axis=1))
    return np.concatenate(blocks, axis=0)


def permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(perms, pos): all n! orderings, perms[r, j] = vertex at position j,
    pos[r, v] = position of vertex v.  Cached per n."""
    if n > ENUM_CAP:
        raise CapacityError(
            f"full permutation table for n={n} exceeds the n<={ENUM_CAP} cap"
        )
    if n not in _table_cache:
        perms = _build_perms(n)
        pos = np.argsort(perms, axis=1).astype(np.int16)
        while len(_table_cache) >= 2:
            _table_cache.pop(next(iter(_table_cache)))
        _table_cache[n] = (perms, pos)
    return _table_cache[n]


def out_array(g: AnyGraph) -> np.ndarray:
    """0-based target array; -1 marks an absent edge."""
    return np.array([-1 if t is None else t - 1 for t in g.out], dtype=np.int16)


def left_indegree_matrix(out0: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """C[r, v] = number of in-neighbors of v placed before v in ordering r."""
    rows, n = pos.shape
    c = np.zeros((rows, n), dtype=np.int16)
    for u in range(n):
        t = int(out0[u])
        if t >= 0:
            c[:, t] += pos[:, u] < pos[:, t]
    return c


def run_selection(
    out0: np.ndarray, perms: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-to-right candidate scan over a batch of orderings.

    v takes over when its indegree from the left, less the current
    candidate's edge if the candidate nominates v, ties or beats the
    candidate's.  Returns (selected, final_d, max_left) per ordering,
    where final_d is the selected vertex's indegree from the left and
    max_left the maximum indegree from the left over all vertices.  The
    two must agree; the caller is expected to assert that.
    """
    rows, n = perms.shape
    c = left_indegree_matrix(out0, pos)
    idx = np.arange(rows)
    cand = perms[:, 0].copy()
    d = np.zeros(rows, dtype=np.int16)
    for j in range(1, n):
        v = perms[:, j]
        contrib = c[idx, v]
        upd = contrib - (out0[cand] == v) >= d
        cand = np.where(upd, v, cand)
        d = np.where(upd, contrib, d)
    return cand, d, c.max(axis=1)


@functools.lru_cache(maxsize=2)
def _set_layers(n: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
    """The popcount of every n-bit mask, and per set size k = 1..n-1 a
    triple: the k-sets' masks in rank order (the order of their masks),
    each set's unplaced vertices, and the rank of the set plus each of
    them among the (k+1)-sets."""
    popcount = [m.bit_count() for m in range(1 << n)]
    by_size = sorted(range(1 << n), key=popcount.__getitem__)  # stable: by mask within a size
    rank = np.empty(1 << n, dtype=np.int32)
    layers, start = [], 0
    for k in range(n + 1):
        sets = np.array(by_size[start : start + math.comb(n, k)], dtype=np.int32)
        rank[sets] = np.arange(len(sets))
        layers.append(sets)
        start += len(sets)
    bits = np.array([1 << v for v in range(n)], dtype=np.int32)
    triples = []
    for k in range(1, n):
        sets = layers[k]
        free = np.nonzero((sets[:, None] & bits) == 0)[1].astype(np.int32)
        free = free.reshape(len(sets), n - k)
        triples.append((sets, free, rank[sets[:, None] | bits[free]]))
    return np.array(popcount, dtype=np.int32), tuple(triples)


def selection_counts(out0: np.ndarray) -> tuple[list[int], int]:
    """Exact per-vertex selection counts of the candidate scan over all n!
    orderings of one graph: batch_selection_counts on a batch of one.

    Returns (counts, n!), the counts a list of Python ints.  Raises
    CapacityError above DP_CAP.
    """
    return batch_selection_counts(out0[None])[0], math.factorial(out0.shape[0])


def batch_selection_counts(out0s: np.ndarray) -> list[list[int]]:
    """Exact per-vertex selection counts of the candidate scan over all n!
    orderings, for each row of a (graphs, n) array of 0-based targets
    (-1 for an absent edge), by dynamic programming over prefix sets.

    The DP only reaches states whose candidate holds the maximum
    indegree from the left (see below), so it cannot miss that maximum;
    the ordering-by-ordering check of Lemma 3 is run_selection.  Raises
    CapacityError above DP_CAP.

    After a prefix the scan's future depends only on the set S of placed
    vertices, the candidate c and c's indegree from the left d.  A layer
    holds the live states (graph, S, d, c) with the number of orderings
    of S reaching each, as flat arrays.  Appending v, whose left indegree
    is full = |in(v) & S|, v takes over when full - [c nominates v] >= d
    and then d = full.  So v always takes over when full > d, and d stays
    the running maximum of the left indegrees, at most the maximum
    indegree.  Each layer extends every state by every unplaced vertex
    at once and merges equal states by summing their counts over a dense
    index of (graph, rank of S, d, c).  The sums are float64, exact
    because no count exceeds n! <= 16! < 2^53.  Graphs are taken in
    passes of at most STATE_BUDGET index entries, which bounds memory.
    """
    graphs, n = out0s.shape
    if n > DP_CAP:
        raise CapacityError(
            f"exact perm runs a DP over all 2^{n} prefix sets and is capped "
            f"at n <= {DP_CAP}; sample it instead with eval --samples or "
            f"MECHANISMS['perm'].sample"
        )
    popcount, layers = _set_layers(n)
    targets = out0s.astype(np.int32)
    rows = np.arange(graphs)
    inmask = np.zeros((graphs, n + 1), dtype=np.int32)  # column n gathers absent edges
    for u in range(n):
        inmask[rows, targets[:, u]] |= 1 << u
    inmask = np.ascontiguousarray(inmask[:, :n])
    top = int(popcount[inmask].max()) + 1  # d ranges over 0..max indegree
    step = dp_pass_graphs(n, top)
    parts = [
        _counts_pass(targets[i : i + step], inmask[i : i + step], top, popcount, layers)
        for i in range(0, graphs, step)
    ]
    return np.concatenate(parts).astype(np.int64).tolist()


def dp_pass_graphs(n: int, top: int) -> int:
    """Graphs per numpy pass of batch_selection_counts on a batch whose
    largest indegree is top - 1: at least one, and otherwise as many as
    keep the pass's index of (graph, prefix set, d, candidate) within
    STATE_BUDGET entries."""
    return max(1, STATE_BUDGET // (math.comb(n, n // 2) * top * n))


def _counts_pass(
    targets: np.ndarray, inmask: np.ndarray, top: int, popcount: np.ndarray, layers: tuple
) -> np.ndarray:
    """batch_selection_counts' DP on one pass of graphs: a (graphs, n)
    float64 array of counts."""
    graphs, n = targets.shape
    # the layer of 1-sets: S = {v} (rank v), c = v, d = 0, one ordering
    g = np.repeat(np.arange(graphs, dtype=np.int32), n)
    r = np.tile(np.arange(n, dtype=np.int32), graphs)
    c, d, w = r.copy(), np.zeros(graphs * n, dtype=np.int32), np.ones(graphs * n)
    targets, inmask = targets.ravel(), inmask.ravel()
    for k, (sets, free, grown) in enumerate(layers, start=1):
        size, span = math.comb(n, k + 1), min(top, k + 1)  # d <= k after k + 1 placed
        v = free[r]  # (states, n - k): each state's unplaced vertices
        full = popcount[inmask[(g * n)[:, None] + v] & sets[r][:, None]]
        held = d[:, None]
        take = (full > held) | (full == held) & (targets[g * n + c][:, None] != v)
        key = (g * size)[:, None] + grown[r]
        key *= span
        key += np.where(take, full, held)
        key *= n
        key += np.where(take, v, c[:, None])
        acc = np.bincount(key.ravel(), np.repeat(w, n - k))
        live = np.flatnonzero(acc)
        w = acc[live]
        live, c = np.divmod(live.astype(np.int32), n)
        live, d = np.divmod(live, span)
        g, r = np.divmod(live, size)
    return np.bincount(g * n + c, w, minlength=graphs * n).reshape(graphs, n)


def sampled_selection_counts(
    out0: np.ndarray, samples: int, seed: int
) -> tuple[np.ndarray, int]:
    """Per-vertex selection counts over uniformly sampled orderings, drawn
    in chunks of SAMPLE_CHUNK into one reused buffer.

    Deterministic per seed.  Returns (counts, violations).
    """
    n = out0.shape[0]
    rng = np.random.default_rng(seed)
    counts = np.zeros(n, dtype=np.int64)
    violations = 0
    draws = np.empty((min(SAMPLE_CHUNK, samples), n))
    places = np.empty(draws.shape, dtype=np.int16)
    ranks = np.arange(n, dtype=np.int16)[None, :]
    remaining = samples
    while remaining > 0:
        b = min(SAMPLE_CHUNK, remaining)
        perms = np.argsort(rng.random(out=draws[:b]), axis=1).astype(np.int16)
        pos = places[:b]
        np.put_along_axis(pos, perms, ranks, axis=1)  # the inverse permutations
        sel, d, m = run_selection(out0, perms, pos)
        counts += np.bincount(sel, minlength=n)
        violations += int((d != m).sum())
        remaining -= b
    return counts, violations


def exact_dtype(bound: int) -> type:
    """The dtype of a computation whose integers are all at most bound:
    int64 when bound fits in it, otherwise Python ints (dtype object),
    so exact counts never wrap."""
    return np.int64 if bound < 2**63 else object


def indegrees(out0s: np.ndarray) -> np.ndarray:
    """(graphs, n) int64 indegrees of each row of a (graphs, n) array of
    0-based targets (-1 for an absent edge)."""
    graphs, n = out0s.shape
    slots = np.where(out0s >= 0, out0s, n) + (n + 1) * np.arange(graphs)[:, None]
    return np.bincount(slots.ravel(), minlength=graphs * (n + 1)).reshape(graphs, n + 1)[:, :n]


def runner_up_gap_quarter_counts(out0: np.ndarray) -> tuple[list[int], int]:
    """two_slot_quarter_counts of one graph's 0-based targets out0 (-1
    for an absent edge), as a list.  The exact paths run the batch form;
    this one stays because perfbench's tracer wraps it by name."""
    counts, nfact = two_slot_quarter_counts(out0[None])
    return counts[0].tolist(), nfact


def two_slot_quarter_counts(out0s: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact per-vertex counts, in quarter units, of the two-slot rule
    summed over all n! orderings, in closed form, for each row of a
    (graphs, n) array of 0-based targets (-1 for an absent edge).

    Per ordering the rule gives the lexicographic (indegree, position)
    maximum 3/4 (if removing its own edge leaves it ahead of everyone
    else by at least 2) or 1/2, and gives the runner-up 1/2 when the
    runner-up nominates the front vertex and either ties the maximum
    indegree or sits one below it while placed to the right of the front
    vertex.  Only the relative order of the top set T (indegree dmax)
    and of T2 (indegree dmax-1) matters, so with k = |T|:

    - k >= 2: the front vertex is uniform over T and a tied rival always
      blocks the gap, so each member of T gets 2 n!/k; the runner-up is
      uniform over the ordered pairs of T, so a member nominating another
      member gets 2 n!/(k(k-1)) more.
    - k = 1, T = {t}: t gets 3 n! or 2 n! by its gap test; a member of
      T2 nominating t is the runner-up to the right of t exactly when it
      comes last among T2 and t, so it gets 2 n!/(|T2|+1).

    Both cases are computed for every row and each row keeps its own.
    Returns (quarter_counts, n!): a (graphs, n) array, int64 while its
    total 4 n! fits (n <= 19), Python ints above.
    """
    graphs, n = out0s.shape
    nfact = math.factorial(n)
    dtype = exact_dtype(4 * nfact)
    rows = np.arange(graphs)
    deg = indegrees(out0s)
    absent = out0s < 0
    target_deg = np.where(absent, -1, np.take_along_axis(deg, np.where(absent, 0, out0s), axis=1))
    dmax = deg.max(axis=1)
    top = deg == dmax[:, None]
    k = top.sum(axis=1)
    two = np.full(graphs, 2 * nfact, dtype=dtype)
    # k >= 2 (kk keeps the k = 1 rows clear of a zero divisor)
    kk = np.maximum(k, 2).astype(dtype)
    share, pair = two // kk, two // (kk * (kk - 1))
    pairs = np.where(target_deg == dmax[:, None], pair[:, None], 0)
    several = np.where(top, share[:, None] + pairs, 0)
    # k = 1, T = {t}
    t = deg.argmax(axis=1)
    t_target = out0s[rows, t]
    rivals = deg.copy()  # the others' indegrees once t's edge is removed
    rivals[rows, t] = -1
    edged = t_target >= 0
    rivals[rows[edged], t_target[edged]] -= 1
    gap = dmax >= rivals.max(axis=1) + 2
    second = deg == (dmax - 1)[:, None]
    runner = two // (second.sum(axis=1) + 1).astype(dtype)
    single = np.where((out0s == t[:, None]) & second, runner[:, None], 0)
    single[rows, t] = np.where(gap, 3, 2).astype(dtype) * nfact
    return np.where((k >= 2)[:, None], several, single), nfact


def left_indegree_profile(out0: np.ndarray, vstar0: int) -> tuple[np.ndarray, np.ndarray]:
    """Per ordering: (left indegree of vstar, max left indegree among the
    other vertices), over all n! orderings."""
    n = out0.shape[0]
    _, pos = permutation_table(n)
    c = left_indegree_matrix(out0, pos)
    a = c[:, vstar0].copy()
    c[:, vstar0] = -1
    return a, c.max(axis=1)
