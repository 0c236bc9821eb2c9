"""Exact and sampled evaluation of the candidate scan, and the two-slot
closed form.

Exact perm counts come from a dynamic program over prefix sets: the
scan's future after a prefix depends only on which vertices were placed,
not on their order, so selection_counts carries integer ordering counts
per (prefix set, candidate, candidate's left indegree) and covers all n!
orderings in one pass over the 2^n prefix sets, up to DP_CAP.  The counts
are exact integers, so dividing by n! at the end loses nothing.  The two-slot
rule's counts over all n! orderings depend only on the indegree classes,
so runner_up_gap_quarter_counts computes them in closed form without
enumerating anything.

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
# prefix-set DP: about 1 s and 100 MB at n = 16, and each further vertex
# roughly doubles both.
DP_CAP = 16
# Orderings drawn per batch by sampled_selection_counts, which bounds
# its memory.
SAMPLE_CHUNK = 20000
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
def _prefix_layers(n: int) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
    """The vertex sets of each size 2..n as bitmasks, each with its splits
    (v, set without v), grouped by size."""
    layers: list[list] = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        splits = tuple((v, mask ^ 1 << v) for v in range(n) if mask >> v & 1)
        layers[len(splits)].append((mask, splits))
    return tuple(tuple(layer) for layer in layers[2:])


def selection_counts(out0: np.ndarray) -> tuple[list[int], int]:
    """Exact per-vertex selection counts of the candidate scan over all n!
    orderings, by dynamic programming over prefix sets.

    Returns (counts, n!), the counts a list of Python ints.  The DP only
    reaches states whose candidate holds the maximum indegree from the
    left (see below), so it cannot miss that maximum; the
    ordering-by-ordering check of Lemma 3 is run_selection.  Raises
    CapacityError above DP_CAP.

    After a prefix the scan's future depends only on the set S of placed
    vertices, the candidate c and c's indegree from the left d.  Per S
    the DP counts the orderings of S reaching each state, keyed
    d << 5 | c.  Appending v, whose left indegree is full = |in(v) & S|,
    v takes over when full - [c nominates v] >= d and then d = full.
    So v always takes over when full > d, d stays the running maximum
    of the left indegrees, and every takeover into S + v lands on one
    key.
    """
    n = out0.shape[0]
    if n > DP_CAP:
        raise CapacityError(
            f"exact perm runs a DP over all 2^{n} prefix sets and is capped "
            f"at n <= {DP_CAP}; sample it instead with eval --samples or "
            f"MECHANISMS['perm'].sample"
        )
    targets = out0.tolist()
    inmask = [0] * n  # bitmask of each vertex's in-neighbors
    for u, t in enumerate(targets):
        if t >= 0:
            inmask[t] |= 1 << u
    prev = {1 << v: {v: 1} for v in range(n)}
    for layer in _prefix_layers(n):
        cur = {}
        for mask, splits in layer:
            states: dict[int, int] = {}
            for v, s in splits:
                full = (inmask[v] & s).bit_count()
                # Keys below lo have d < full, so v takes over; keys in
                # [lo, hi) have d == full, and v takes over unless c
                # nominates it; the key of a state that keeps c stands.
                lo = full << 5
                hi = lo + 32
                taken = 0
                for key, w in prev[s].items():
                    if key < lo or key < hi and targets[key & 31] != v:
                        taken += w
                    else:
                        states[key] = states.get(key, 0) + w
                if taken:
                    states[lo | v] = states.get(lo | v, 0) + taken
            cur[mask] = states
        prev = cur
    counts = [0] * n
    for key, w in prev[(1 << n) - 1].items():
        counts[key & 31] += w
    return counts, sum(counts)


def sampled_selection_counts(
    out0: np.ndarray, samples: int, seed: int
) -> tuple[np.ndarray, int]:
    """Per-vertex selection counts over uniformly sampled orderings, drawn
    in chunks of SAMPLE_CHUNK.

    Deterministic per seed.  Returns (counts, violations).
    """
    n = out0.shape[0]
    rng = np.random.default_rng(seed)
    counts = np.zeros(n, dtype=np.int64)
    violations = 0
    remaining = samples
    while remaining > 0:
        b = min(SAMPLE_CHUNK, remaining)
        u = rng.random((b, n))
        perms = np.argsort(u, axis=1).astype(np.int16)
        pos = np.argsort(perms, axis=1).astype(np.int16)
        sel, d, m = run_selection(out0, perms, pos)
        counts += np.bincount(sel, minlength=n)
        violations += int((d != m).sum())
        remaining -= b
    return counts, violations


def runner_up_gap_quarter_counts(out0: np.ndarray) -> tuple[list[int], int]:
    """Exact per-vertex counts, in quarter units, of the two-slot rule
    summed over all n! orderings, in closed form.

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

    Counts are Python ints (n! overflows int64 from n = 21).  Returns
    (quarter_counts, n!).
    """
    n = out0.shape[0]
    nfact = math.factorial(n)
    out = out0.tolist()
    deg = [0] * n
    for t in out:
        if t >= 0:
            deg[t] += 1
    dmax = max(deg)
    top = [v for v in range(n) if deg[v] == dmax]
    k = len(top)
    counts = [0] * n
    if k >= 2:
        for v in top:
            counts[v] = 2 * nfact // k
            if out[v] >= 0 and deg[out[v]] == dmax:
                counts[v] += 2 * nfact // (k * (k - 1))
        return counts, nfact
    t = top[0]
    rival = max(deg[u] - (u == out[t]) for u in range(n) if u != t)
    counts[t] = (3 if dmax >= rival + 2 else 2) * nfact
    second = [r for r in range(n) if deg[r] == dmax - 1]
    for r in second:
        if out[r] == t:
            counts[r] = 2 * nfact // (len(second) + 1)
    return counts, nfact


def left_indegree_profile(out0: np.ndarray, vstar0: int) -> tuple[np.ndarray, np.ndarray]:
    """Per ordering: (left indegree of vstar, max left indegree among the
    other vertices), over all n! orderings."""
    n = out0.shape[0]
    _, pos = permutation_table(n)
    c = left_indegree_matrix(out0, pos)
    a = c[:, vstar0].copy()
    c[:, vstar0] = -1
    return a, c.max(axis=1)
