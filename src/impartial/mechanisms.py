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
Both two-slot forms read one table of the indegree classes
(_indegree_classes), coding each vertex by its class and its target's:
prug's counts are three coefficients per graph over those codes, and
prugd reads each default vertex's prug off the same codes, in O(n) per
graph (see prugd_counts).
Counts are int64 while the largest of them fits, and Python ints
(dtype object) above, so they never wrap.  A rule written for one
graph at a time joins the same path through per_graph, which scales
its rows to the lcm of their denominators.  The sampling path is a
factory (the ``*_sampler`` functions) that reads the graph once and
returns Draws: it runs the rule in numpy a chunk of rows at a time from
SeedStream.uniform_rows, which reads the words one-at-a-time draws read
(an ordering is its row of swap partners); mix reads each draw's coin
and then the row it picks, a chunk at a time, from SeedStream.coin_rows.

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
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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
# a sampler's row bounds and its rule on (k, len(bounds)) rows
Rows = tuple[tuple[int, ...], Callable[[np.ndarray], np.ndarray]]

MIX_PERM_WEIGHT = Fraction(825, 1049)
MIX_PRUGD_WEIGHT = Fraction(224, 1049)
MIX_SMALL_N = 5


# ---------------------------------------------------------------------------
# Permutation mechanism

def perm_select(out0: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The scan's selected vertex, 1-based, on each column of the (n, k)
    position-major 0-based orderings orders, by engine.run_selection: a
    vertex takes over on ties, and the edge from the candidate is
    ignored in the comparison but counted in the stored indegree, which
    keeps the rule impartial.  RuntimeError if a selection misses the
    maximum left indegree, which Lemma 3 rules out."""
    selected, d, top = engine.run_selection(out0, orders.T)
    missed = np.flatnonzero(d != top)
    if len(missed):
        i = missed[0]
        raise RuntimeError(f"selected vertex {selected[i] + 1} has left indegree {d[i]}, "
                           f"not the maximum {top[i]}")
    return selected + 1


def perm_counts(out0s: np.ndarray) -> Counts:
    """How many of the n! orderings make the scan select each vertex,
    counted by the engine's DP over prefix sets, over n!."""
    return engine.batch_selection_counts(out0s), math.factorial(out0s.shape[1])


def perm_sampler(g: AnyGraph) -> Draws:
    """The scan on one uniform ordering per draw."""
    return _from_rows(*_perm_rows(g))


def _perm_rows(g: AnyGraph) -> Rows:
    out0 = engine.out_array(g)
    return tuple(range(g.n, 1, -1)), lambda rows: perm_select(out0, engine.orderings(rows))


# ---------------------------------------------------------------------------
# Random dictatorship

def rd_counts(out0s: np.ndarray) -> Counts:
    """Each vertex is selected with probability indegree/n."""
    return engine.indegrees(out0s), out0s.shape[1]


def rd_sampler(g: NominationGraph) -> Draws:
    """One uniform vertex per draw; it selects its nominee."""
    out = np.array(g.out)
    return _from_rows((g.n,), lambda rows: out[rows[:, 0]])


# ---------------------------------------------------------------------------
# Plurality with runner-up and gap

def prug_counts(out0s: np.ndarray) -> Counts:
    """Sum of the single-ordering weight vectors over all orderings, in
    quarters, over 4 n!, in closed form: no ordering is enumerated.

    Averaging them directly equals averaging the reverse-paired vectors
    the sampler draws from, since reversal is a bijection on orderings.
    The total may fall short of 1: the rule is allowed to select no one.
    Per ordering the front, the (indegree, position) maximum, gets 3/4
    if it leads every other vertex by 2 once its own edge is removed
    (its gap), 1/2 otherwise; the runner-up gets 1/2 if it nominates the
    front and ties it, or sits one below it to its right.  Only the
    order within T and T2 (_indegree_classes) matters, so with k = |T|:

    - k >= 2: the front is uniform over T and a tied rival blocks the
      gap, so each member of T gets 2 n!/k; the runner-up is uniform over
      the ordered pairs of T, so a member nominating another member gets
      2 n!/(k(k-1)) more.
    - k = 1, T = {t}: t gets 3 n! if m = |T2 - {out[t]}| is 0 (the gap),
      else 2 n!; a member of T2 nominating t is the runner-up right of t
      exactly when it comes last among T2 and t: 2 n!/(|T2|+1).

    Each graph so fills three rows of _BASIS, int64 while 4 n! fits
    (n <= 19) and Python ints above.
    """
    nfact = math.factorial(out0s.shape[1])
    _, _, flat, _, stats = _indegree_classes(out0s)
    k, s, t_to_t2 = (stats[:, i, None] for i in (_K, _S, _T_TO_T2))
    nf = np.full(1, nfact, dtype=exact_dtype(4 * nfact))  # an array, so int64 columns join it in its dtype
    table = np.where(k == 1, (2 + (s == t_to_t2)) * nf, 2 * nf // k) * _BASIS[_OF_T]
    table += 2 * nf // (k * np.maximum(k - 1, 1)) * _BASIS[_T_T]  # T = {t} has no code (T, T)
    table += (k == 1) * (2 * nf // (s + 1)) * _BASIS[_T2_T]
    return table.take(flat), 4 * nfact


def prug_sampler(g: AnyGraph) -> Draws:
    """Per draw: a uniform ordering, then a uniform integer below 8 that
    picks by the weights of the ordering plus its reverse in eighths (the
    reverse-paired average), by engine.two_slot_rule."""
    rule = engine.two_slot_rule(engine.out_array(g), np.array([-1]))
    return _from_rows((*range(g.n, 1, -1), 8), lambda rows: rule(
        np.zeros(len(rows), dtype=np.intp), engine.orderings(rows[:, :-1]), rows[:, -1]))


# ---------------------------------------------------------------------------
# prug with a default vertex

def prugd_counts(out0s: np.ndarray) -> Counts:
    """prug run with a uniformly chosen default vertex, over 4 n n!, on
    total graphs.

    The default vertex's outgoing edge is removed before prug runs, and
    the default vertex picks up prug's unassigned mass on top of its own
    share, so the wrapped rule always selects.  With A_w prug's quarter
    counts read with the indegrees deg - e_w and the graph's own edges,
    and tot_w their sum, every vertex v gets

        P[v] = sum_w deg[w] A_w[v] + 4 n! - tot_{out[v]},

    since default j lowers the indegree of out[j] alone, and j's own
    missing edge moves only j's count, which cancels against j's
    unassigned mass.  A_w is the graph's own A_G unless w lies in the
    top class T, or T = {t} and w lies in T2 + {t} (_indegree_classes),
    and those w collapse in closed form.  So P[v] depends only on v's
    class, its target w's class and, when w is in T or T2, on whether
    w's target is in T and how many of T and of T2 nominate w.  Each
    graph's case of |T| (_PRUGD_CASES) writes the coefficients of its
    table over (v's class, w's class) and the weights of those three
    numbers, so a graph costs O(n).  Every sum stays within a few times
    the denominator, so int64 holds it while the denominator fits
    (n <= 18), and Python ints do above.
    """
    graphs, n = out0s.shape
    nfact = math.factorial(n)
    dtype = exact_dtype(4 * n * nfact)
    at, cls, flat, dmax, stats = _indegree_classes(out0s)
    case = np.minimum(stats[:, _K], 3) - (stats[:, _K] + stats[:, _S] == 1)
    sizes = np.bincount(case, minlength=4)
    ends = sizes.cumsum().tolist()
    order = None
    if np.count_nonzero(sizes) > 1:  # several cases: sort them into slices
        # grouped, not argsorted, and np.dot below, not @: either raised a batch's peak RSS
        order = np.concatenate([np.flatnonzero(case == c) for c in range(4)])
        dmax, stats = dmax[order], stats[order]
    nf = np.full(1, nfact, dtype=dtype)  # an array, so int64 columns join it in its dtype
    coefs = np.zeros((graphs, _COEFS), dtype=dtype)
    start = 0
    for fill, end in zip(_PRUGD_CASES, ends):
        if end > start:
            fill(coefs[start:end], n, nf, dmax[start:end], stats[start:end])
            start = end
    del dmax, stats
    if order is not None:
        coefs[order] = coefs.copy()
    # per vertex w in T, or in T2 when T = {t}: the weights of [out[w] in
    # T] and of w's nominators in T, or in T2 when |T| = 2
    behind = np.bincount(at[cls[:, :n] == (case == 2)[:, None]], minlength=graphs * (n + 1))
    behind = coefs[:, _NOMINATORS:] * behind.reshape(graphs, n + 1)
    behind[:, :n] += coefs[:, _ALPHA : _ALPHA + 1] * ((flat & 3) == 0)
    behind *= cls == (case == 1)[:, None]
    counts = behind.take(at)
    del behind, at
    counts += np.dot(coefs[:, : len(_BASIS)], _BASIS).take(flat)
    return counts, 4 * n * nfact


def _indegree_classes(out0s: np.ndarray) -> tuple[np.ndarray, ...]:
    """The indegree classes both two-slot forms read, on a (graphs, n)
    batch of 0-based targets (-1 for an absent edge): at, each vertex's
    target's flat index in a (graphs, n + 1) table whose column n is a
    sink for absent edges; cls, that table's classes (0: T at indegree
    dmax, 1: T2, 2: T3, 3: below, and the sink, which neither form reads
    as T or T2); flat, 4 cls[v] + cls[out[v]] + 16 * row per vertex;
    dmax; and per graph the stats _K .. _T3_TO_T."""
    graphs, n = out0s.shape
    rows = np.arange(graphs)[:, None]
    at = np.where(out0s < 0, n, out0s) + (n + 1) * rows
    deg = np.bincount(at.ravel(), minlength=graphs * (n + 1)).reshape(graphs, n + 1)
    dmax = deg[:, :n].max(axis=1)
    cls = np.minimum(dmax[:, None] - deg, 3).astype(np.int8)
    cls[:, n] = 3
    del deg
    flat = cls.take(at) + 4 * cls[:, :n] + 16 * rows
    pairs = np.bincount(flat.ravel(), minlength=16 * graphs).reshape(graphs, 16)
    # the class sizes |T|, |T2|, |T3|, then the vertices of each (class, target's class) a form reads
    stats = np.concatenate([np.add.reduceat(pairs, [0, 4, 8, 12], axis=1)[:, :3], pairs[:, _PAIRS]], axis=1)
    return at, cls, flat, dmax, stats


# A graph's table over the code 4 * (v's class) + (v's target's class)
# is a sum of coefficients times the rows of _BASIS, row i marking the
# codes whose v's class is in _ROWS[i][0] and target's in _ROWS[i][1].
_ALL, _TOP = range(4), (0,)
_ROWS = ((_ALL, _ALL), (_TOP, _ALL), ((1,), _ALL), (_ALL, _TOP), (_ALL, (1,)),
         (_TOP, _TOP), ((1,), _TOP), ((2,), _TOP), ((0, 1), (0, 1)))
_BASIS = np.array([[c in cs and t in ts for c in _ALL for t in _ALL] for cs, ts in _ROWS], dtype=np.int64)
# A graph's coefficients: one per row of _BASIS, then the weights of
# [out[w] in T] and of w's nominators (see prugd_counts).
_CONST, _OF_T, _OF_T2, _TO_T, _TO_T2, _T_T, _T2_T, _T3_T, _X_X, _ALPHA, _NOMINATORS, _COEFS = range(12)
# A graph's stats: |T|, |T2|, |T3|, then its vertices of the codes _PAIRS.
_PAIRS = [0, 1, 2, 4, 5, 8]
_K, _S, _S3, _T_TO_T, _T_TO_T2, _T_TO_T3, _T2_TO_T, _T2_TO_T2, _T3_TO_T = range(9)


# Each case gets its graphs' rows of the coefficients, n, n! (a (1,)
# array of the count dtype), and their dmax and stats, and writes the
# coefficients it uses.

def _lone_over_empty(c, n, nf, d, st):
    # T = {t}, T2 empty: t takes 3 n! in G, and its own variant leaves t
    # alone at dmax - 1 over T3, with the gap when T3 - {out[t]} is empty
    s3 = st[:, _S3]
    front = 2 + (s3 == st[:, _T_TO_T3])
    share = 2 * nf // (s3 + 1)
    c[:, _CONST] = nf
    c[:, _OF_T] = (3 * (n - d) + d * front) * nf
    c[:, _T3_T] = d * share
    c[:, _TO_T] = (3 - front) * nf - st[:, _T3_TO_T] * share


def _lone(c, n, nf, d, st):
    # T = {t} over T2, |T2| = s >= 1: t's gap holds when m = |T2 - {out[t]}|
    # is 0; a w in T2 leaves t alone over T2 - {w}, with the gap on
    # (m == 0) s + (m == 1) of them, and t's own variant has the top
    # class X = {t} + T2 at dmax - 1
    s, r = st[:, _S], st[:, _T2_TO_T]
    m = s - st[:, _T_TO_T2]
    m1 = m == 1
    front = 2 + (m == 0)
    two = 2 * nf
    share, wide = two // (s + 1), two // s
    pair = share // s
    tot_g = front * nf + r * share
    c[:, _CONST] = 4 * nf - tot_g
    c[:, _OF_T] = ((n - d) * front + (d - 1) * m1) * nf + d * share
    c[:, _OF_T2] = d * share
    c[:, _X_X] = d * pair
    c[:, _T2_T] = (n - d - s * (d - 1)) * share + (d - 1) * (s - 1) * wide
    c[:, _TO_T] = tot_g - two - (st[:, _T_TO_T2] + r + st[:, _T2_TO_T2]) * pair
    c[:, _TO_T2] = tot_g - (front + m1) * nf - r * wide
    c[:, _ALPHA] = wide
    c[:, _NOMINATORS] = m1 * nf


def _pair(c, n, nf, d, st):
    # T = {a, b}: removing a's indegree leaves b alone over T2 + {a}, with
    # the gap only when T2 is empty and b nominates a
    empty = st[:, _S] == 0
    share = 2 * nf // (st[:, _S] + 2)
    p = st[:, _T_TO_T]
    c[:, _CONST] = (2 - p) * nf
    c[:, _OF_T] = n * nf
    c[:, _T_T] = (n - 2 * d) * nf + d * (share + empty * nf)
    c[:, _T2_T] = d * share
    c[:, _TO_T] = (1 - empty) * p * nf - st[:, _T2_TO_T] * share
    c[:, _ALPHA] = empty * nf - share
    c[:, _NOMINATORS] = share


def _several(c, n, nf, d, st):
    # |T| = k >= 3: removing w's indegree leaves T - {w}, and the k
    # variants sum to k A_G, so only the totals move
    k, p = st[:, _K], st[:, _T_TO_T]
    share = 2 * nf // k
    pair, pair1 = share // (k - 1), 2 * nf // ((k - 1) * (k - 2))
    c[:, _CONST] = 2 * nf - p * pair
    c[:, _OF_T] = n * share
    c[:, _T_T] = n * pair
    c[:, _TO_T] = p * (pair - pair1)
    c[:, _ALPHA] = c[:, _NOMINATORS] = pair1


_PRUGD_CASES = (_lone_over_empty, _lone, _pair, _several)


def prugd_sampler(g: NominationGraph) -> Draws:
    """Per draw: a uniform default vertex, then a prug draw on the graph
    without its edge; no one there selects the default."""
    return _from_rows(*_prugd_rows(g))


def _prugd_rows(g: NominationGraph) -> Rows:
    two_slot = engine.two_slot_rule(engine.out_array(g), np.arange(g.n))  # variant j: without j's edge

    def rule(rows: np.ndarray) -> np.ndarray:
        default = rows[:, 0].astype(np.intp)
        picked = two_slot(default, engine.orderings(rows[:, 1:-1]), rows[:, -1])
        return np.where(picked > 0, picked, default + 1)

    return (g.n, *range(g.n, 1, -1), 8), rule


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


def mix_sampler(g: NominationGraph) -> Draws:
    """rd for n <= 5; otherwise one uniform integer below 1049 per draw
    picks perm when it falls below 825, prugd otherwise.  Each coin
    decides the next row, so SeedStream.coin_rows draws a chunk's coins
    and rows in one pass, and each rule then runs once on its rows of
    the chunk."""
    if g.n <= MIX_SMALL_N:
        return rd_sampler(g)
    (perm_bounds, perm), (prugd_bounds, prugd) = _perm_rows(g), _prugd_rows(g)
    den, cut = MIX_PERM_WEIGHT.denominator, MIX_PERM_WEIGHT.numerator

    def chunk(rng: SeedStream, k: int) -> np.ndarray:
        coins, rows = rng.coin_rows(den, cut, perm_bounds, prugd_bounds, k)  # row i: draw i's
        out = np.empty(k, dtype=np.int32)
        out[coins] = perm(rows[coins, : len(perm_bounds)])
        out[~coins] = prugd(rows[~coins])
        return out

    return Draws(chunk, len(prugd_bounds))


# ---------------------------------------------------------------------------
# Registry

class Draws(NamedTuple):
    """draws(rng, k): k seeded draws on a fixed graph as a (k,) int32
    array in draw order, 0 for no one; chunks(rng, k) yields it in the
    chunks chunk(rng, rows) makes, engine.sample_rows(width) rows each."""

    chunk: Callable[[SeedStream, int], np.ndarray]
    width: int

    def __call__(self, rng: SeedStream, k: int) -> np.ndarray:
        return np.concatenate([np.empty(0, dtype=np.int32), *self.chunks(rng, k)], dtype=np.int32)

    def chunks(self, rng: SeedStream, k: int) -> Iterator[np.ndarray]:
        step = engine.sample_rows(self.width)
        for start in range(0, k, step):
            yield self.chunk(rng, min(step, k - start))


def _from_rows(bounds: tuple[int, ...], rule: Callable[[np.ndarray], np.ndarray]) -> Draws:
    return Draws(lambda rng, k: rule(rng.uniform_rows(bounds, k)), len(bounds))  # rule on rows below bounds


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


class Mechanism(NamedTuple):
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
    sampler(g) reads the graph once and returns Draws: draws(rng, k) is
    k draws from a SeedStream as a (k,) array in draw order, 0 for no
    one, and draws.chunks(rng, k) the same a chunk at a time; sample()
    is one draw from a seed or a SeedStream, None for no one.
    exact_path and sampling_path are the mechanism's exact path and
    sampler factory, which counts() and sampler() run after their checks.
    A Mechanism is a NamedTuple, so it is immutable and built
    positionally as Mechanism(name, accepts_partial, exact_path,
    sampling_path).
    """

    name: str
    accepts_partial: bool
    exact_path: Callable[[np.ndarray], Counts]
    sampling_path: Callable[[AnyGraph], Draws]

    def counts(self, out0s: np.ndarray) -> Counts:
        self._check_total((out0s < 0).any())
        counts, den = self.exact_path(out0s)
        counts = np.asarray(counts)
        if counts.shape != out0s.shape:
            raise InputError(f"{self.name} gave counts of shape {counts.shape}, "
                             f"expected (graphs, n) = {out0s.shape}")
        return check_counts(counts, den)

    def exact(self, g: AnyGraph) -> SelectionDistribution:
        counts, den = self.counts(engine.out_array(g)[None])
        # counts has checked the row and made den a Python int; tolist gives Python ints
        return derived(SelectionDistribution, numerators=tuple(counts[0].tolist()), denominator=den)

    def sampler(self, g: AnyGraph) -> Draws:
        self._check_total(None in g.out)
        return self.sampling_path(g)

    def sample(self, g: AnyGraph, seed: int | SeedStream) -> Optional[int]:
        return int(self.sampler(g)(as_stream(seed), 1)[0]) or None

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
