"""Exact and sampled evaluation of the candidate scan, the correlation
check's joint histograms, and the two-slot rule's sampler.

Exact perm counts come from a dynamic program over prefix sets: the
scan's future after a prefix depends only on which vertices were placed,
not on their order, so batch_selection_counts carries integer ordering
counts per (prefix set, candidate, candidate's left indegree) and covers
all n! orderings in one sweep over the 2^n prefix sets, up to DP_CAP.
correlation_histograms runs the same walk with the state (prefix set,
v*'s left indegree or "not yet placed", the others' maximum), for the
correlation check, and left_max_misses adds the running maximum of the
left indegrees to the scan's state, for the Lemma 3 check.  The walk,
_prefix_walk, holds each layer's live states, for a whole batch of
graphs of one size, as flat numpy arrays and extends them all in one
vectorised step per layer, in passes one driver, _rule_passes, packs
for all three rules.  A layer's expansions are slot-major (unplaced
slot, state) arrays, so each per-state operand broadcasts along the
long axis; the rules pick the grown code by arithmetic on a 0/1 mask,
not by branching, and the last layer's states go to the caller's
bincount unmerged.  The counts are exact integers, so dividing by n!
at the end loses nothing.  No exact path calls selection_counts (one
graph's batch_selection_counts) or runner_up_gap_quarter_counts (one
graph's mechanisms.prug_counts): both are kept for perfbench's tracer
and the tests.

Only sampling runs the scan on explicit orderings, with numpy, many at
once.  The key shortcut there: when the left-to-right scan considers
vertex v, the prefix is exactly the set of vertices placed before v.  So
the indegree from the left that the scan sees for v equals the number
of in-neighbors of v placed before v, without materializing prefixes.
run_selection walks a batch position by position and keeps, per
ordering and vertex, a running count of the nominations placed so far,
so each step reads the placed vertex's count and adds one to its
target's, for all orderings at once.  orderings builds such a batch
from rows of Fisher-Yates swap partners, and sampled_selection_counts
counts the scan over the orderings perm's sampler draws from a
SeedStream, for the sampled tightness rows.  left_indegree_matrix
counts the same numbers per vertex from positions, in O(n) vector
operations; the tests read the correlation check's reference
histograms off it.

Everything here is 0-based and array-typed; the public modules convert
at the boundary.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .graphs import AnyGraph, CapacityError
from .rng import SeedStream

# Largest n of permutation_table, the (n!, n) int16 array of every
# ordering (72 MB at n = 10).  No program path reads it: it is kept for
# perfbench's tracer and worker, and as the tests' reference.
ENUM_CAP = 10
# Largest n at which exact perm, exact mix above MIX_SMALL_N and the
# correlation check run the prefix-set DP: for a random graph at n = 16,
# on a 2-core Xeon, about 0.25 s on a first call (0.11-0.13 s once
# _set_layers is cached) and a 35 MB traced peak; each further vertex
# roughly doubles both.
DP_CAP = 16
# Index entries (graph, prefix set, state code) per pass of the
# prefix-set walk, which bounds its memory: a batch is split into passes
# of whole graphs, and a graph too big for one pass gets its own.
STATE_BUDGET = 1 << 14
# Rows per sampler chunk: the samplers, and sampled_selection_counts on
# perm's rows, draw this many rows of up to 64 entries and as many wider
# rows as fill 64 * SAMPLE_CHUNK entries (sample_rows) per run_selection
# call.  It bounds their memory (by tracemalloc, 0.3-4.8 MB for the
# samplers at n = 50, 4-7 MB at n = 2000) and keeps a block's arrays in
# cache; the draws do not depend on it.
SAMPLE_CHUNK = 10000
_table_cache: dict[int, np.ndarray] = {}


def _build_perms(n: int) -> np.ndarray:
    """Block cut of the table is the (n-1)-table with vertex n - 1
    inserted at position cut, written in place: a list of blocks and
    their concatenation would peak at twice the table."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.int16)
    base = _build_perms(n - 1)
    rows = base.shape[0]
    perms = np.empty((n * rows, n), dtype=np.int16)
    for cut in range(n):
        block = perms[cut * rows : (cut + 1) * rows]
        block[:, :cut] = base[:, :cut]
        block[:, cut] = n - 1
        block[:, cut + 1 :] = base[:, cut:]
    return perms


def permutation_table(n: int) -> np.ndarray:
    """All n! orderings as one (n!, n) int16 array, perms[r, j] = the
    vertex at position j of ordering r, cached per n (see ENUM_CAP)."""
    if n > ENUM_CAP:
        raise CapacityError(
            f"full permutation table for n={n} exceeds the n<={ENUM_CAP} cap"
        )
    if n not in _table_cache:
        perms = _build_perms(n)
        while len(_table_cache) >= 2:
            _table_cache.pop(next(iter(_table_cache)))
        _table_cache[n] = perms
    return _table_cache[n]


def sample_rows(width: int) -> int:
    """Draws per sampler chunk for rows of width entries (see SAMPLE_CHUNK)."""
    return max(1, SAMPLE_CHUNK * 64 // max(width, 64))


def vertex_dtype(n: int) -> type:
    """int16 while vertex numbers and counts up to n fit, int32 above."""
    return np.int16 if n < 1 << 15 else np.int32


def out_array(g: AnyGraph) -> np.ndarray:
    """0-based target array; -1 marks an absent edge."""
    return np.array([-1 if t is None else t - 1 for t in g.out], dtype=vertex_dtype(g.n))


def left_indegree_matrix(out0: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """C[r, v] = number of in-neighbors of v placed before v in ordering
    r, pos[r, u] the position of vertex u.  Read on permutation_table(n)
    as pos, it covers all n! orderings with no argsort: row r read as
    positions is the inverse of ordering r, and inverting is a bijection
    of S_n."""
    rows, n = pos.shape
    c = np.zeros((rows, n), dtype=np.int16)
    for u in range(n):
        t = int(out0[u])
        if t >= 0:
            c[:, t] += pos[:, u] < pos[:, t]
    return c


def run_selection(out0: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-to-right candidate scan over a batch of orderings, perms[r, j]
    the vertex at position j of ordering r.

    v takes over when its indegree from the left, less the current
    candidate's edge if the candidate nominates v, ties or beats the
    candidate's.  Returns (selected, final_d, max_left) per ordering,
    where final_d is the selected vertex's indegree from the left and
    max_left the maximum indegree from the left over all vertices.  The
    two must agree; the caller is expected to assert that.

    The scan walks a position-major copy of the orderings and keeps, per
    ordering and vertex, a running count of the nominations placed so
    far: when v is placed its count is its indegree from the left, and
    placing v adds one to its target's count.  A vertex with no edge
    counts into its own slot, which is never read again once it is placed.
    """
    rows, n = perms.shape
    dtype = vertex_dtype(n)
    order = np.ascontiguousarray(perms.T, dtype=dtype)
    target = np.where(out0 < 0, np.arange(n), out0).astype(dtype)
    base = np.arange(0, rows * n, n)  # ordering r's counts are left[r*n : r*n + n]
    left = np.zeros(rows * n, dtype=dtype)
    at = np.empty(rows, dtype=np.intp)  # take and fancy indexing run fastest on intp indices
    step = np.empty(rows, dtype=dtype)
    cand = order[0].copy()
    held = target.take(cand)  # the candidate's target
    t = held
    d = np.zeros(rows, dtype=dtype)
    top = np.zeros(rows, dtype=dtype)
    for j in range(1, n):
        left[np.add(base, t, out=at)] += 1
        v = order[j]
        t = target.take(v)
        contrib = left.take(np.add(base, v, out=at))
        upd = contrib - (held == v) >= d
        # x += upd * (new - x) for the three candidate arrays: np.where
        # allocates and costs several times more per step
        for x, new in ((cand, v), (d, contrib), (held, t)):
            np.subtract(new, x, out=step)
            step *= upd
            x += step
        np.maximum(top, contrib, out=top)
    return cand, d, top


def orderings(partners: np.ndarray) -> np.ndarray:
    """The (n, k) position-major orderings run_selection scans, from
    (k, n - 1) Fisher-Yates swap partners drawn below n, n - 1, ..., 2:
    column c of the partners swaps position n - 1 - c, in order, as
    SeedStream.permutation does one ordering at a time."""
    k, n = partners.shape[0], partners.shape[1] + 1
    order = np.repeat(np.arange(n, dtype=vertex_dtype(n))[:, None], k, axis=1)
    flat = order.ravel()
    cols = np.arange(k)
    for c in range(n - 1):
        at = partners[:, c].astype(np.intp) * k + cols
        # a partner at the position itself swaps its value with itself
        order[n - 1 - c], flat[at] = flat[at], order[n - 1 - c].copy()
    return order


@functools.lru_cache(maxsize=2)
def _set_layers(n: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
    """The popcount of every n-bit mask, and per set size k = 1..n-1 a
    triple: the k-sets' masks in rank order (the order of their masks),
    and two C-contiguous (n - k, C(n, k)) arrays, slot-major: column i
    holds set i's unplaced vertices and the rank of set i plus each of
    them among the (k+1)-sets."""
    popcount = np.zeros(1, dtype=np.int16)
    for _ in range(n):  # each pass doubles the masks: those with the new top bit have one bit more
        popcount = np.concatenate((popcount, popcount + 1))
    layers = [np.flatnonzero(popcount == k).astype(np.int32) for k in range(n + 1)]  # in rank order
    rank = np.empty(1 << n, dtype=np.int32)
    for sets in layers:
        rank[sets] = np.arange(len(sets), dtype=np.int32)
    bits = 1 << np.arange(n, dtype=np.int32)
    triples = []
    for k in range(1, n):
        sets = layers[k]
        free = np.flatnonzero((sets[:, None] & bits) == 0).astype(np.int32) % n  # columns of the unset bits
        free = np.ascontiguousarray(free.reshape(len(sets), n - k).T)
        triples.append((sets, free, rank[sets | bits[free]]))
    return popcount, tuple(triples)


def selection_counts(out0: np.ndarray) -> tuple[list[int], int]:
    """Exact per-vertex selection counts of the candidate scan over all n!
    orderings of one graph: batch_selection_counts on a batch of one.

    Returns (counts, n!), the counts a list of Python ints.  Raises
    CapacityError above DP_CAP.
    """
    return batch_selection_counts(out0[None])[0].tolist(), math.factorial(out0.shape[0])


def batch_selection_counts(out0s: np.ndarray) -> np.ndarray:
    """Exact per-vertex selection counts of the candidate scan over all n!
    orderings, for each row of a (graphs, n) array of 0-based targets
    (-1 for an absent edge), by dynamic programming over prefix sets.
    Returns a (graphs, n) int64 array.

    The DP only reaches states whose candidate holds the maximum
    indegree from the left (see below), so it cannot miss that maximum;
    the check of Lemma 3 is left_max_misses.  Raises
    CapacityError above DP_CAP.

    After a prefix the scan's future depends only on the set S of placed
    vertices, the candidate c and c's indegree from the left d, so the
    walk (_prefix_walk) carries the states (graph, S, d, c), coded
    d * n + c.  Appending v, whose left indegree is full = |in(v) & S|,
    v takes over when full - [c nominates v] >= d and then d = full.  So
    v always takes over when full > d, and d stays the running maximum
    of the left indegrees, at most the maximum indegree.
    """
    graphs, n = out0s.shape
    counts = np.empty((graphs, n), dtype=np.int64)

    def rule(rows, targets, top):  # S = {v}: c = v, d = 0; d <= k after k + 1 placed
        return np.arange(n), lambda k: min(top, k + 1) * n, functools.partial(_scan_step, targets.ravel(), n)

    passes = _rule_passes(out0s, "exact perm and exact mix run", lambda tops: tops * n, rule,
                          "; sample them instead with eval --samples")
    for rows, _, g, z, w in passes:
        counts[rows] = np.bincount(g * n + z % n, w, minlength=len(rows) * n).reshape(len(rows), n)
    return counts


def correlation_histograms(out0s: np.ndarray, vstars: np.ndarray) -> np.ndarray:
    """Joint histograms, over all n! orderings, of (a, m) for each row of
    a (graphs, n) array of 0-based targets (-1 for an absent edge): a is
    the left indegree of the row's vertex vstars[row] (0-based), m the
    largest left indegree among the other vertices.  Returns a (graphs,
    delta + 1, delta + 1) int64 array indexed [row, a, m], delta the
    largest indegree in the batch.  Raises CapacityError above DP_CAP.

    The walk (_prefix_walk) carries the states (graph, S, a, m), coded
    a * top + m with a = top until v* is placed: appending v with left
    indegree full = |in(v) & S| sets a = full if v is v*, and raises m
    to full otherwise.
    """
    graphs, n = out0s.shape
    top = int(indegrees(out0s).max(initial=0)) + 1
    hist = np.zeros((graphs, top, top), dtype=np.int64)

    def rule(rows, targets, ptop):  # S = {v}: a = 0 or not placed, m = 0
        mine = vstars[rows].astype(np.int32)
        start = np.where(np.arange(n) == mine[:, None], 0, ptop * ptop)
        return start, lambda k: (ptop + 1) * ptop, functools.partial(_correlation_step, mine, ptop)

    passes = _rule_passes(out0s, "the correlation check runs", lambda tops: (tops + 1) * tops, rule)
    for rows, ptop, g, z, w in passes:
        joint = np.bincount(g * (ptop * ptop) + z, w, minlength=len(rows) * ptop * ptop)
        hist[rows, :ptop, :ptop] = joint.reshape(len(rows), ptop, ptop)
    return hist


def left_max_misses(out0s: np.ndarray) -> np.ndarray:
    """The orderings, of all n!, on which the candidate scan ends below
    the maximum left indegree (Lemma 3 says none), for each row of a
    (graphs, n) array of 0-based targets (-1 for an absent edge): a
    (graphs,) int64 array.  Raises CapacityError above DP_CAP.

    The walk (_prefix_walk) carries the states (graph, S, d, m, c),
    coded (d * top + m) * n + c: batch_selection_counts' c and d, and m
    the running maximum of the left indegrees apart from the rule, so a
    run that misses it ends with d != m.
    """
    graphs, n = out0s.shape
    misses = np.empty(graphs, dtype=np.int64)

    def rule(rows, targets, top):  # S = {v}: c = v, d = m = 0; d, m <= k after k + 1 placed
        step = functools.partial(_left_max_step, targets.ravel(), n, top)
        return np.arange(n), lambda k: min(top, k + 1) * top * n, step

    passes = _rule_passes(out0s, "the Lemma 3 check runs", lambda tops: tops * tops * n, rule)
    for rows, top, g, z, w in passes:
        d, m = np.divmod(z // n, top)
        misses[rows] = np.bincount(g, w * (d != m), minlength=len(rows))
    return misses


def _rule_passes(out0s: np.ndarray, what: str, width, rule, advice: str = ""):
    """Run one rule's prefix-set walk over a batch of graphs of one size,
    in passes.  Above DP_CAP, raises CapacityError naming what runs it.

    The graphs go in order of maximum indegree, and each pass takes as
    many of the next ones as keep graphs * C(n, n/2) * width(top) within
    STATE_BUDGET, top one more than the pass's largest indegree and
    width(top) the states the rule keeps per prefix set; this bounds the
    merge index and so memory.  A graph too big for one pass gets its
    own.  rule(rows, targets, top) gets a pass's batch rows and their
    int32 targets and returns the start codes of S = {v}, per vertex or
    per (row, vertex), and the walk's span and step (see _prefix_walk).
    Yields (rows, top, g, z, w) per pass, g indexing rows.
    """
    graphs, n = out0s.shape
    if n > DP_CAP:
        raise CapacityError(
            f"{what} a DP over all 2^{n} prefix sets, capped at "
            f"n <= {DP_CAP}{advice}"
        )
    if not graphs:
        return
    popcount, _ = _set_layers(n)
    targets = out0s.astype(np.int32)
    rows = np.arange(graphs)
    inmask = np.zeros((graphs, n + 1), dtype=np.int32)  # column n gathers absent edges
    for u in range(n):
        inmask[rows, targets[:, u]] |= 1 << u
    inmask = np.ascontiguousarray(inmask[:, :n])
    tops = popcount[inmask].max(axis=1) + 1  # left indegrees range over 0..max indegree
    # grouped, not argsorted: an argsort here moved later buffers and raised the sampler's peak RSS
    order = np.concatenate([np.flatnonzero(tops == t) for t in np.flatnonzero(np.bincount(tops))])
    tops = tops[order]
    room = STATE_BUDGET // math.comb(n, n // 2)  # graphs * width per pass
    start = 0
    while start < graphs:
        run = tops[start : start + room // int(width(tops[start]))]  # tops only grow along it
        stop = start + max(1, int(np.count_nonzero(width(run) * np.arange(1, len(run) + 1) <= room)))
        part, top = order[start:stop], int(tops[stop - 1])
        first, span, step = rule(part, targets[part], top)
        first = np.broadcast_to(first, (len(part), n)).astype(np.int32).ravel()
        yield (part, top, *_prefix_walk(inmask[part], first, span, step))
        start = stop


def _scan_step(targets, n, g, z, v, full):
    # v takes over when full - [c nominates v] >= d; code = z + take *
    # (full * n + v - z) in place, as np.where costs several times more
    d, c = np.divmod(z, n)
    take = full - (targets.take(g * n + c) == v) >= d
    code = full * n + v
    code -= z
    code *= take
    code += z
    return code


def _left_max_step(targets, n, top, g, z, v, full):
    # _scan_step's takeover, and m rises to full either way (not in
    # place: m is (states,)); code = kept + take * (taken - kept)
    rest, c = np.divmod(z, n)
    d, m = np.divmod(rest, top)
    take = full - (targets.take(g * n + c) == v) >= d
    code = (d * top + np.maximum(m, full)) * n + c
    code += take * ((full - d) * (top * n) + (v - c))
    return code


def _correlation_step(vstars, top, g, z, v, full):
    # v* sets a and keeps m; any other v keeps a and raises m to full:
    # code = other + mine * (full * top + m - other) in place
    m = z % top
    mine = v == vstars.take(g)
    other = z - m + full
    np.maximum(other, z, out=other)
    code = full * top + m
    code -= other
    code *= mine
    code += other
    return code


def _prefix_walk(inmask, z, span, step):
    """The prefix-set walk behind the three rules, on one pass of
    graphs with (graphs, n) in-neighbour masks inmask; its one caller is
    _rule_passes.

    A state is (graph, S, z): S the set of placed vertices and z a
    rule's code for what it keeps, with the number of orderings of S
    reaching it.  The walk starts from the 1-sets, S = {v} for each
    graph and vertex in that order with codes z, and grows S by one
    vertex per layer.  There step(g, z, v, full) maps every state and
    each of its unplaced vertices v, whose left indegree is full =
    |in(v) & S|, to the grown state's code in 0..span(k) - 1 after k + 1
    placed.  A layer's expansions are slot-major (n - k, states) arrays,
    row j holding every state's j-th unplaced vertex, so the per-state
    arrays g and z broadcast as plain (states,) arrays along the long
    last axis, and the steps select between codes by arithmetic on the
    0/1 mask rather than np.where.  Equal states merge by summing their
    counts over a dense index of (graph, rank of S, z), entry j * states
    + s of the raveled index belonging to state s.  The sums are
    float64, exact because no count exceeds n! <= 16! < 2^53.  Every
    left indegree comes from one (graphs, 2^n, n) table of |in(v) & S|.

    Returns (g, z, w) of the states at the full set, unmerged: the last
    layer's equal states are left for the caller's bincount to sum.
    """
    graphs, n = inmask.shape
    popcount, layers = _set_layers(n)
    # int16, not int8: the steps' codes multiply these by n or top
    left = popcount.take(np.arange(1 << n, dtype=np.int32)[:, None] & inmask[:, None, :]).ravel()
    g = np.repeat(np.arange(graphs, dtype=np.int32), n)
    r = np.tile(np.arange(n, dtype=np.int32), graphs)  # the rank of {v} is v
    w = np.ones(graphs * n)
    for k, (sets, free, grown) in enumerate(layers, start=1):
        v = free.take(r, axis=1)  # (n - k, states): each state's unplaced vertices
        full = left.take(((g << n) + sets.take(r)) * n + v)
        z = step(g, z, v, full)
        if k == n - 1:  # one slot left: S is the full set
            break
        size, zspan = math.comb(n, k + 1), span(k)
        # z becomes the merge key in place, which keeps down the layer's peak
        z += (grown.take(r, axis=1) + g * size) * zspan
        acc = np.bincount(z.ravel(), np.tile(w, n - k))
        live = np.flatnonzero(acc > 0)
        w = acc[live]
        live, z = np.divmod(live.astype(np.int32), zspan)
        g, r = np.divmod(live, size)
    return g, z.ravel(), w


def sampled_selection_counts(
    out0: np.ndarray, samples: int, rng: SeedStream
) -> tuple[np.ndarray, int]:
    """Per-vertex selection counts of the scan over samples uniform
    orderings, the orderings perm's sampler draws from rng: rows of swap
    partners below n, n - 1, ..., 2, sample_rows(n - 1) at a time.

    Deterministic per stream, and independent of SAMPLE_CHUNK.  Returns
    (counts, violations), violations the runs whose selection missed the
    maximum left indegree.
    """
    n = out0.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    violations = 0
    step = sample_rows(n - 1)
    for start in range(0, samples, step):
        partners = rng.uniform_rows(range(n, 1, -1), min(step, samples - start))
        sel, d, m = run_selection(out0, orderings(partners).T)
        counts += np.bincount(sel, minlength=n)
        violations += int((d != m).sum())
    return counts, violations


def indegrees(out0s: np.ndarray) -> np.ndarray:
    """(graphs, n) int64 indegrees of each row of a (graphs, n) array of
    0-based targets (-1 for an absent edge)."""
    graphs, n = out0s.shape
    slots = np.where(out0s >= 0, out0s, n) + (n + 1) * np.arange(graphs)[:, None]
    return np.bincount(slots.ravel(), minlength=graphs * (n + 1)).reshape(graphs, n + 1)[:, :n]


def runner_up_gap_quarter_counts(out0: np.ndarray) -> tuple[list[int], int]:
    """One graph's mechanisms.prug_counts (out0 0-based, -1 for an absent
    edge) in quarters as a list, and n!; perfbench's tracer wraps it."""
    from .mechanisms import prug_counts  # mechanisms imports this module
    counts, den = prug_counts(out0[None])
    return counts[0].tolist(), den // 4


def _two_slot_tables(out0: np.ndarray, removed: np.ndarray) -> tuple[np.ndarray, ...]:
    """The indegrees of out0 and, per variant i (out0 without removed[i]'s
    edge, -1 for none): the vertex v whose indegree drops (-1 for none),
    the least indegree of a marked vertex (T, plus T2 when T = {t}), t
    when T = {t} (-1 otherwise) and the front's quarters, all read off
    the graph's classes in O(n + variants)."""
    n = len(out0)
    deg = np.bincount(out0[out0 >= 0], minlength=n)
    cnt = np.bincount(deg + 1, minlength=n + 2)  # cnt[x + 1]: vertices of indegree x
    big = deg.max()  # a variant's top indegree is big or big - 1
    lead = np.array([np.append(np.flatnonzero(deg == x)[:2], [n, n])[:2] for x in (big, big - 1)])
    v = np.where(removed >= 0, out0[removed], -1)
    dv = np.where(v >= 0, deg[v], -2)  # -2 is no indegree

    def count(x):  # vertices of indegree x in each variant
        return cnt[x + 1] - (dv == x) + (dv - 1 == x)

    dmax = big - ((dv == big) & (cnt[big + 1] == 1))
    lone = count(dmax) == 1
    first, second = lead[big - dmax].T  # the first two of indegree dmax before v drops
    t = np.minimum(np.where(first != v, first, second), np.where(dv - 1 == dmax, v, n))
    w = np.where(t != removed, out0[t], -1)  # t's target in the variant
    # the gap test: no rival stays one below t once t's edge is removed
    gap = count(dmax - 1) == ((w >= 0) & (deg[w] - (w == v) == dmax - 1))
    return deg, v, dmax - lone, np.where(lone, t, -1), np.where(lone & gap, 3, 2)


def two_slot_rule(out0: np.ndarray, removed: np.ndarray):
    """draws(which, orders, r): the two-slot rule on column i of the
    (n, k) position-major orderings orders, run on variant which[i] of
    _two_slot_tables and picking by r[i] in 0..7.  Returns the (k,)
    selected vertices, 1-based, 0 for no one; ValueError if a column's
    weights sum past 8.

    A column weighs its ordering's quarters (mechanisms.prug_counts)
    plus its reverse's, in eighths.  The front is the last member of T,
    the runner-up the one before it when |T| >= 2, or when T = {t} the
    last of T2, scoring only after t; so the last marked vertex stands
    in for it, and a column reads only its first two and last two marked
    vertices.  The pick is the lowest vertex whose cumulative weight in
    vertex order exceeds r, as SeedStream.categorical picks."""
    n, dtype = len(out0), vertex_dtype(len(out0) + 1)
    deg, v, lo, lone_t, front = (a.astype(dtype) for a in _two_slot_tables(out0, removed))

    def draws(which: np.ndarray, orders: np.ndarray, r: np.ndarray) -> np.ndarray:
        vc, loc = v.take(which), lo.take(which)
        ranks = np.cumsum(deg.take(orders) - (orders == vc) >= loc, axis=0, dtype=dtype)

        def marked_vertex(rank):  # the rank-th marked vertex of each column
            return orders[(ranks >= rank).argmax(axis=0), np.arange(len(which))]

        head, head2, tail, tail2 = (marked_vertex(rank) for rank in (1, 2, ranks[-1], ranks[-1] - 1))
        t, gone = lone_t.take(which), removed.take(which)
        lone = t >= 0
        # the fronts and runners-up of the ordering (tail end) and its reverse
        fronts = np.where(lone, t, tail), np.where(lone, t, head)
        runners = np.where(lone, tail, tail2), np.where(lone, head, head2)
        x = np.stack([*fronts, *runners])
        w = np.stack([front.take(which)] * 2
                     + [((out0.take(u) == f) & (u != gone)) * dtype(2) for u, f in zip(runners, fronts)])
        # eighths at or below each slot's vertex (at most, a column's total)
        below = sum(w[s] * (x[s] <= x) for s in range(4))
        if below.max(initial=0) > 8:
            raise ValueError(f"two-slot weights sum to {int(below.max())} > 8 eighths")
        pick = np.where((w > 0) & (below > r), x, n).min(axis=0)  # the lowest vertex past r
        return np.where(pick < n, pick + 1, 0)

    return draws
