import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from impartial import engine, mechanisms
from impartial.generators import cycle, lower_bound_family, random_graph, ub_family
from impartial.graphs import (
    CapacityError,
    InputError,
    NominationGraph,
    PartialNominationGraph,
    Permutation,
    SelectionDistribution,
    iso_classes,
)
from impartial.mechanisms import (
    MECHANISMS,
    Mechanism,
    get_mechanism,
    per_graph,
    mix_sampler,
    perm_sampler,
    perm_select,
    prug_sampler,
    prugd_sampler,
    rd_sampler,
)
from impartial.rng import SeedStream

PERM, RD, PRUG, PRUGD, MIX = (MECHANISMS[m] for m in ("perm", "rd", "prug", "prugd", "mix"))

TWO_CYCLE = NominationGraph((2, 1))
TRIANGLE_IN = NominationGraph((2, 1, 1))        # edges (1,2),(2,1),(3,1)
STAR4 = NominationGraph((2, 1, 1, 1))           # three nominations for vertex 1


def seeded_graphs(n, count, seed):
    rng = SeedStream(seed)
    return [random_graph(n, rng) for _ in range(count)]


def perm_run(g, *orders):
    """The batch perm rule's selections on orderings of 1..n."""
    return perm_select(engine.out_array(g), np.array(orders, dtype=np.int16).T - 1).tolist()


# ---------------------------------------------------------------------------
# permutation mechanism

def test_perm_run_two_cycle_traces():
    # vertex 2 ties at 0 (its edge from the candidate 1 is ignored) and
    # takes over
    assert perm_run(TWO_CYCLE, (1, 2), (2, 1)) == [2, 1]


def test_perm_run_three_vertices():
    assert perm_run(TRIANGLE_IN, (3, 2, 1)) == [1]
    assert TRIANGLE_IN.indegrees()[1 - 1] == 2


def test_perm_run_selects_a_maximum_left_indegree():
    for g in seeded_graphs(6, 20, 11):
        orders = list(itertools.islice(itertools.permutations(g.vertices), 40))
        for order, selected in zip(orders, perm_run(g, *orders)):
            left = [g.indegree_from(v, order[:i]) for i, v in enumerate(order)]
            assert left[order.index(selected)] == max(left)


def test_perm_run_matches_scan_oracle_exhaustive():
    for n in (2, 3, 4):
        totals = list(oracle.all_graphs(n))
        for g in totals + list(one_edge_removed(totals)):
            orders = list(itertools.permutations(g.vertices))
            expected = [oracle.scan_select(g, order) for order in orders]
            assert perm_run(g, *orders) == expected, g.out
            assert [oracle.perm_run(g, order) for order in orders] == expected, g.out


def test_perm_rule_raises_when_a_selection_misses_the_maximum(monkeypatch):
    # a scan whose takeover needs > instead of >= ends below the maximum
    # left indegree on some ordering, and the batch rule must say so
    g = ub_family(6, 0)
    orders = list(itertools.permutations(g.vertices))
    perm_run(g, *orders)
    monkeypatch.setattr(engine, "run_selection", oracle.late_takeover_run)
    with pytest.raises(RuntimeError, match="not the maximum"):
        perm_run(g, *orders)


# 200 draws from one SeedStream(7) on random_graph(50, 3), pinned so that
# the sampler's stream and its selection per ordering stay fixed
PERM_SAMPLE_PINNED = [
    10, 37, 39, 32, 39, 32, 10, 39, 47, 32, 37, 25, 32, 32, 36, 1, 42, 25, 42, 32,
    25, 25, 39, 10, 39, 47, 42, 32, 10, 32, 39, 39, 1, 42, 32, 39, 25, 32, 39, 32,
    39, 42, 42, 32, 37, 39, 39, 39, 32, 25, 37, 37, 37, 32, 10, 39, 32, 37, 39, 37,
    42, 32, 39, 25, 39, 39, 42, 32, 42, 39, 10, 47, 39, 32, 37, 10, 37, 39, 32, 18,
    39, 36, 42, 10, 25, 32, 32, 32, 47, 39, 5, 32, 39, 32, 42, 32, 32, 32, 36, 47,
    47, 5, 47, 25, 32, 25, 39, 42, 1, 42, 47, 15, 32, 32, 10, 37, 18, 39, 39, 47,
    39, 42, 32, 47, 42, 39, 47, 5, 47, 32, 10, 10, 18, 42, 39, 32, 39, 32, 47, 32,
    18, 39, 25, 47, 39, 10, 39, 40, 42, 47, 25, 25, 42, 47, 32, 32, 5, 39, 37, 39,
    37, 32, 32, 32, 10, 32, 1, 25, 32, 37, 32, 25, 32, 42, 32, 32, 32, 37, 47, 37,
    32, 39, 39, 25, 10, 10, 39, 32, 25, 5, 10, 39, 32, 47, 10, 37, 32, 32, 39, 10,
]


def test_perm_sample_seeded_stream_pinned():
    draws = perm_sampler(random_graph(50, 3))
    assert draws(SeedStream(7), 200).tolist() == PERM_SAMPLE_PINNED


def test_permutation_stream_is_the_stdlib_shuffle():
    # SeedStream.permutation runs Fisher-Yates on getrandbits, and
    # randrange and uniform_rows run randrange's rejection loop on it;
    # they must read the streams random.Random.shuffle and randrange
    # read, draw for draw, and leave the generator in the same state
    bounds = (1, 2, 3, 7, 8, 9, 1049, 2**31 + 1, 2**70)
    for seed in range(300):
        for n in (1, 2, 3, 5, 7, 23, 50, 200):
            stream, reference = SeedStream(seed), random.Random(seed)
            for _ in range(3):
                seq = list(range(1, n + 1))
                reference.shuffle(seq)
                assert stream.permutation(n) == tuple(seq), (seed, n)
                for b in bounds:
                    assert stream.randrange(b) == reference.randrange(b), (seed, b)
                for row in (bounds[:6] + (256,), bounds[:-1]):  # one byte an entry, then four
                    expected = [[reference.randrange(b) for b in row] for _ in range(2)]
                    assert stream.uniform_rows(row, 2).tolist() == expected, (seed, row)
            assert stream._rng.getstate() == reference.getstate(), (seed, n)


@pytest.mark.parametrize("n", [0, -3])
def test_randrange_of_an_empty_range_is_refused(n):
    with pytest.raises(ValueError):
        SeedStream(0).randrange(n)
    with pytest.raises(ValueError):
        SeedStream(0).uniform_rows((3, n), 1)
    with pytest.raises(ValueError):
        SeedStream(0).coin_rows(n, 1, (3,), (2,), 1)
    with pytest.raises(ValueError):
        SeedStream(0).coin_rows(5, 1, (3,), (2, n), 1)


def test_coin_rows_read_the_per_draw_stream():
    # one coin_rows pass reads what a randrange coin and then a one-row
    # uniform_rows call read per draw, and leaves the same state
    kinds = [((7, 6, 5, 4, 3, 2), (7, 7, 6, 5, 4, 3, 2, 8)),  # mix at n = 7: one byte
             ((300, 299, 2), (300, 8)),  # two bytes, the heads the longer
             ((2, 3), (2**40, 5, 9))]  # eight bytes, the tails the longer
    for seed in range(40):
        for heads, tails in kinds:
            stream, reference = SeedStream(seed), SeedStream(seed)
            coins, rows = stream.coin_rows(1049, 825, heads, tails, 50)
            width = max(len(heads), len(tails))
            assert rows.shape == (50, width) and rows.dtype == np.min_scalar_type(max(*heads, *tails) - 1)
            for coin, row in zip(coins.tolist(), rows.tolist()):
                assert coin == (reference.randrange(1049) < 825), seed
                want = reference.uniform_rows(heads if coin else tails, 1)[0].tolist()
                assert row == want + [0] * (width - len(want)), seed
            assert stream._rng.getstate() == reference._rng.getstate(), seed


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=1, max_value=60))
def test_permutation_draws_are_permutations(seed, n):
    rng = SeedStream(seed)
    for _ in range(3):
        pi = rng.permutation(n)
        assert type(pi) is tuple and sorted(pi) == list(range(1, n + 1))
        assert Permutation(pi).seq == pi


@pytest.mark.parametrize("n", [0, -3])
def test_permutation_of_no_vertices_is_refused(n):
    with pytest.raises(InputError, match="n >= 1"):
        SeedStream(0).permutation(n)


def test_perm_exact_two_cycle():
    assert PERM.exact(TWO_CYCLE).probs == (Fraction(1, 2), Fraction(1, 2))


def test_perm_exact_cycles_uniform():
    for n in (3, 4, 5):
        assert PERM.exact(cycle(n)).probs == (Fraction(1, n),) * n


def test_perm_exact_against_enumeration_oracle():
    # frozen from the 3! enumeration oracle
    assert PERM.exact(TRIANGLE_IN).probs == (Fraction(2, 3), Fraction(1, 3), Fraction(0))
    for g in oracle.all_graphs(4):
        assert list(PERM.exact(g).probs) == oracle.perm_dist(g)
    for g in seeded_graphs(6, 10, 5):
        assert list(PERM.exact(g).probs) == oracle.perm_dist(g)


def test_perm_exact_on_partial_graphs():
    p = PartialNominationGraph((2, None, 1))
    assert list(PERM.exact(p).probs) == oracle.perm_dist(p)


def test_perm_exact_capacity():
    with pytest.raises(CapacityError, match="eval --samples"):
        PERM.exact(cycle(17))


def test_each_walk_names_itself_past_the_dp_cap():
    out0s = engine.out_array(cycle(17))[None]
    cap = r" a DP over all 2\^17 prefix sets, capped at n <= 16$"
    with pytest.raises(CapacityError, match="^the Lemma 3 check runs" + cap):
        engine.left_max_misses(out0s)
    with pytest.raises(CapacityError, match="^the correlation check runs" + cap):
        engine.correlation_histograms(out0s, np.array([0]))


# ---------------------------------------------------------------------------
# the prefix-set DP behind exact perm

def dp_probs(g):
    counts, runs = engine.selection_counts(engine.out_array(g))
    assert runs == math.factorial(g.n)
    return [Fraction(c, runs) for c in counts]


def test_selection_dp_matches_oracle_exhaustive():
    for n in (2, 3, 4, 5):
        totals = list(oracle.all_graphs(n))
        # the n - 1 totals that differ only in v's target share one partial
        for g in dict.fromkeys(totals + list(one_edge_removed(totals))):
            assert dp_probs(g) == oracle.perm_dist(g), g.out


def test_permutation_table_is_one_cached_array_of_every_ordering():
    for n in range(1, 9):
        perms = engine.permutation_table(n)
        assert isinstance(perms, np.ndarray) and perms.dtype == np.int16
        assert perms.shape == (math.factorial(n), n)
        assert set(map(tuple, perms.tolist())) == set(itertools.permutations(range(n)))
        assert np.array_equal(perms, oracle.ordering_table(n))  # the row order is kept
        assert engine.permutation_table(n) is perms


def test_selection_dp_matches_ordering_table():
    for n in (6, 7, 8, 9):
        perms = engine.permutation_table(n)
        for g in seeded_graphs(n, 4, 60 + n):
            for h in (g, g.remove_out_edge(1)):
                out0 = engine.out_array(h)
                sel, d, m = engine.run_selection(out0, perms)
                counts, runs = engine.selection_counts(out0)
                assert counts == np.bincount(sel, minlength=n).tolist()
                assert runs == perms.shape[0] == math.factorial(n)
                assert int((d != m).sum()) == 0


def test_run_selection_matches_the_scan_oracle_on_every_ordering():
    # selected vertex, its final d and the maximum left indegree of the
    # batch scan against the one-ordering oracle, on every ordering
    for n in range(2, 8):
        perms = engine.permutation_table(n)
        orders = [tuple(row) for row in (perms + 1).tolist()]
        totals = seeded_graphs(n, 2, 80 + n)
        for g in totals + partial_graphs_of(totals, 90 + n):
            runs = zip(*(a.tolist() for a in engine.run_selection(engine.out_array(g), perms)))
            for order, (sel, d, m) in zip(orders, runs):
                assert (sel + 1, d, m) == oracle.scan_run(g, order), (g.out, order)


# seeded counts of the sampled scan on lower_bound_family(2, 10), n = 23,
# as drawn in chunks of 10 000; the chunk size must not move them
SAMPLED_COUNTS_LB_2_10 = [
    33523, 3099, 3001, 3113, 3120, 3076, 3145, 3136, 3126, 3141, 3105, 4443,
    0, 3070, 3034, 3087, 3096, 3144, 3144, 3085, 3110, 3077, 3125,
]


@pytest.mark.parametrize("chunk", [7, 10_000, 100_000])
def test_sampled_counts_do_not_depend_on_the_chunk(monkeypatch, chunk):
    monkeypatch.setattr(engine, "SAMPLE_CHUNK", chunk)
    out0 = engine.out_array(lower_bound_family(2, 10))
    counts, violations = engine.sampled_selection_counts(out0, 100_000, 5)
    assert counts.tolist() == SAMPLED_COUNTS_LB_2_10
    assert violations == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=n), min_size=n, max_size=n
        ).map(lambda out: tuple(None if t == 0 or t == v else t for v, t in enumerate(out, 1)))
    ),
)
def test_selection_dp_property(out):
    out0 = engine.out_array(PartialNominationGraph(out))
    perms = engine.permutation_table(len(out))
    sel, _, _ = engine.run_selection(out0, perms)
    counts, _ = engine.selection_counts(out0)
    assert counts == np.bincount(sel, minlength=len(out)).tolist()


def batch_probs(graphs):
    """The batched DP's distributions of graphs of one size, in one call."""
    nfact = math.factorial(graphs[0].n)
    counts = engine.batch_selection_counts(np.stack([engine.out_array(g) for g in graphs]))
    return [[Fraction(c, nfact) for c in row] for row in counts]


def partial_graphs_of(totals, seed):
    """Each total graph with one or two seeded out-edges removed."""
    rng = SeedStream(seed)
    partials = []
    for g in totals:
        for _ in range(1 + rng.randrange(2)):
            g = g.remove_out_edge(rng.randrange(g.n) + 1)
        partials.append(g)
    return partials


def test_batched_dp_matches_oracle_on_every_class():
    for n in range(2, 7):
        classes = [NominationGraph(out) for out, _ in iso_classes(n)]
        graphs = classes + partial_graphs_of(classes + seeded_graphs(n, 10, n), 70 + n)
        assert batch_probs(graphs) == [oracle.perm_dist(g) for g in graphs], n


def test_batched_dp_matches_ordering_table_on_every_class_at_7():
    # the oracle takes about 0.1 s per graph at n = 7, so the 100 classes
    # are checked against the explicit scan over all 5040 orderings
    classes = [NominationGraph(out) for out, _ in iso_classes(7)]
    graphs = classes + partial_graphs_of(classes, 77)
    perms = engine.permutation_table(7)
    got = engine.batch_selection_counts(np.stack([engine.out_array(g) for g in graphs]))
    assert got.dtype == np.int64
    for g, counts in zip(graphs, got):
        sel, _, _ = engine.run_selection(engine.out_array(g), perms)
        assert np.array_equal(counts, np.bincount(sel, minlength=7)), g.out
    for g in seeded_graphs(7, 3, 7):
        h = g.remove_out_edge(2)
        assert batch_probs([g, h]) == [oracle.perm_dist(g), oracle.perm_dist(h)]


def test_batch_over_several_passes_equals_per_graph_calls(monkeypatch):
    # each of the walk's three rules gives a batch split into passes what
    # it gives one graph at a time; the Lemma 3 rule runs the late-takeover
    # mutant, so its misses are not all 0
    graphs = [h for g in seeded_graphs(6, 30, 606) for h in (g, g.remove_out_edge(3))]
    graphs.append(NominationGraph((2, 1, 1, 1, 1, 1)))  # indegree 5 widens the state index
    out0s = np.stack([engine.out_array(g) for g in graphs])
    vstars = np.arange(len(graphs)) % 6
    top = int(engine.indegrees(out0s).max()) + 1
    monkeypatch.setattr(engine, "_left_max_step", oracle.late_takeover_step)

    def one(i):
        row = slice(i, i + 1)
        hist = engine.correlation_histograms(out0s[row], vstars[row])[0]
        pad = (0, top - len(hist))
        return engine.selection_counts(out0s[i])[0], np.pad(hist, (pad, pad)), engine.left_max_misses(out0s[row])[0]

    single = [np.array(column) for column in zip(*map(one, range(len(graphs))))]
    assert single[2].any()
    passes = []
    walk = engine._prefix_walk

    def counted(inmask, *args):
        passes.append(inmask.shape[0])
        return walk(inmask, *args)

    monkeypatch.setattr(engine, "_prefix_walk", counted)
    rules = (engine.batch_selection_counts, lambda batch: engine.correlation_histograms(batch, vstars),
             engine.left_max_misses)
    for rule, want in zip(rules, single):
        monkeypatch.setattr(engine, "STATE_BUDGET", 2000)  # a few graphs per pass
        assert np.array_equal(rule(out0s), want)
        assert len(passes) > 10 and max(passes) > 1 and sum(passes) == len(graphs)
        passes.clear()
        monkeypatch.setattr(engine, "STATE_BUDGET", 1)  # no graph fits: one pass each
        assert np.array_equal(rule(out0s), want)
        assert passes == [1] * len(graphs)
        passes.clear()


def test_dp_pinned_on_high_indegree_graphs():
    # counts pinned from the DP before it read left indegrees from one
    # table, on graphs whose maximum indegree nears n: the DP's state
    # codes reach left indegree * n + vertex, which wraps in int8 at n = 13
    star = {
        13: [5748019200, 479001600],
        16: [19615115520000, 1307674368000],
    }
    for n, head in star.items():
        counts, _ = engine.selection_counts(engine.out_array(NominationGraph((2,) + (1,) * (n - 1))))
        assert counts == head + [0] * (n - 2), n
    near_star = NominationGraph((2, 3, 1) + (1,) * 9 + (3, 3))  # n = 14
    counts, _ = engine.selection_counts(engine.out_array(near_star))
    assert counts == [66672668160, 4717440000, 15788183040] + [0] * 11
    g = lower_bound_family(9, 1)  # n = 15, indegree 9
    counts, _ = engine.selection_counts(engine.out_array(g))
    assert counts == [
        901716157440, 319874365440, 0, 0, 0, 0, 0, 0, 0, 43664624640, 0,
        42419220480, 0, 0, 0,
    ]


def test_dp_pinned_at_13():
    # counts of a partial graph at n = 13, pinned from the earlier
    # dictionary-based DP over prefix sets
    g = PartialNominationGraph((8, 13, 9, None, 7, 11, 11, 6, 12, 2, 2, 11, 5))
    counts, runs = engine.selection_counts(engine.out_array(g))
    assert runs == math.factorial(13)
    assert counts == [
        0, 1401499320, 0, 0, 220795224, 267723456, 268318336, 223750176,
        223750176, 0, 3113758128, 267723456, 239702528,
    ]


def test_dp_pinned_at_the_cap():
    # the graph of gen family=random n=16 seed=3, counts pinned from the
    # DP before its expansions were stored slot-major
    g = NominationGraph((5, 11, 10, 3, 7, 16, 11, 9, 12, 11, 2, 10, 1, 16, 14, 8))
    counts, runs = engine.selection_counts(engine.out_array(g))
    assert runs == math.factorial(16)
    assert counts == [
        374788513296, 498842672200, 564638614830, 0, 380862230112, 0,
        453351814560, 406647591840, 386893536120, 4913897625520,
        7969747855232, 565142511920, 0, 494563055490, 0, 3913413866880,
    ]


def test_dp_mutant_step_fails_the_oracle(monkeypatch):
    # a scan step where v takes over only when it beats the candidate,
    # full - [c nominates v] > d, must show against the per-ordering
    # oracle on some class at n = 5
    def mutant(targets, n, g, z, v, full):
        d, c = np.divmod(z, n)
        take = full - (targets.take(g * n + c) == v) > d
        return np.where(take, full * n + v, z)

    monkeypatch.setattr(engine, "_scan_step", mutant)
    classes = [NominationGraph(out) for out, _ in iso_classes(5)]
    counts = engine.batch_selection_counts(np.stack([engine.out_array(g) for g in classes]))
    assert any([Fraction(int(c), 120) for c in row] != oracle.perm_dist(g)
               for g, row in zip(classes, counts))


def test_batch_counts_equal_exact_per_graph():
    for n in (4, 6):
        graphs = [ub_family(6, 1), cycle(6)] if n == 6 else []
        graphs += seeded_graphs(n, 5, 90 + n)
        out0s = np.stack([engine.out_array(g) for g in graphs])
        for name, mech in MECHANISMS.items():
            counts, den = mech.counts(out0s)
            got = [SelectionDistribution(tuple(c.tolist()), den) for c in counts]
            assert got == [mech.exact(g) for g in graphs], (name, n)
    partial = [PartialNominationGraph((2, None, 1)), PartialNominationGraph((None, 3, 1))]
    out0s = np.stack([engine.out_array(g) for g in partial])
    counts, _ = PERM.counts(out0s)
    assert [tuple(c) for c in counts.tolist()] == [PERM.exact(g).numerators for g in partial]
    with pytest.raises(InputError, match="total"):
        MIX.counts(out0s)


# ---------------------------------------------------------------------------
# the array closed forms against the per-graph oracles

def batch_counts(mech, graphs):
    """mech's batch exact path on graphs of one size, as (counts, den)
    pairs of Python ints."""
    counts, den = mech.counts(np.stack([engine.out_array(g) for g in graphs]))
    return [(c.tolist(), den) for c in counts]


def test_closed_forms_match_the_per_graph_oracles_on_every_class():
    for n in range(2, 9):
        classes = [NominationGraph(out) for out, _ in iso_classes(n)]
        partials = partial_graphs_of(classes + seeded_graphs(n, 10, 80 + n), 180 + n)
        graphs = classes + partials
        assert batch_counts(PRUG, graphs) == [oracle.prug_counts(g) for g in graphs], n
        assert batch_counts(PRUGD, classes) == [oracle.prugd_counts(g) for g in classes], n
        assert batch_counts(RD, classes) == [(list(g.indegrees()), n) for g in classes], n
        if n > mechanisms.MIX_SMALL_N:
            perm = [engine.selection_counts(engine.out_array(g))[0] for g in classes]
            want = [oracle.mix_counts(g, p) for g, p in zip(classes, perm)]
            assert batch_counts(MIX, classes) == want, n


def test_closed_forms_stay_exact_past_int64():
    # a batch computes in int64 only while its largest count fits: prug's
    # 4 n! passes 2^63 at n = 20 and prugd's 4 n n! at n = 19, where they
    # switch to Python ints; mix's 1049 * 4 n n! still fits at the DP cap
    def check(mech, oracle_counts, ns, first_object, seed):
        for n in ns:
            totals = seeded_graphs(n, 4, seed + n) + [cycle(n), ub_family(n, 1)]
            graphs = totals + (partial_graphs_of(totals, seed - n) if mech.accepts_partial else [])
            counts, _ = mech.counts(np.stack([engine.out_array(g) for g in graphs]))
            assert counts.dtype == (object if n >= first_object else np.int64), (mech.name, n)
            assert batch_counts(mech, graphs) == [oracle_counts(g) for g in graphs], (mech.name, n)

    check(PRUG, oracle.prug_counts, range(19, 23), 20, 300)
    check(PRUGD, oracle.prugd_counts, range(17, 22), 19, 400)
    graphs = [random_graph(16, 5), ub_family(16, 2)]
    perm = batch_counts(PERM, graphs)
    want = [oracle.mix_counts(g, p) for g, (p, _) in zip(graphs, perm)]
    assert max(den for _, den in want) < 2**63 <= 1049 * 4 * 17 * math.factorial(17)
    assert batch_counts(MIX, graphs) == want


# prugd's closed form reads each default's variant off the indegree
# classes, one case of the top class T at a time: named graphs for each
PRUGD_CASE_GRAPHS = {
    "T = {t}, T2 empty, T3 - {out[t]} empty": [STAR4, NominationGraph((2, 1, 1, 1, 1, 1))],
    "T = {t}, T2 empty, T3 - {out[t]} not empty": [NominationGraph((5, 1, 1, 1, 2))],
    "T = {t}, m = |T2 - {out[t]}| = 0": [NominationGraph((2, 1, 1, 1, 2))],
    "T = {t}, m = 1": [NominationGraph((3, 1, 1, 1, 2, 2))],
    "T = {t}, m = 2": [NominationGraph((4, 1, 1, 1, 2, 2, 3, 3))],
    "|T| = 2 with the gap": [NominationGraph((2, 1, 1, 2))],
    "|T| = 2 without the gap": [NominationGraph((2, 1, 1, 2, 3)), NominationGraph((3, 1, 2, 1, 2))],
    "|T| = n": [cycle(n) for n in range(3, 8)],
    "|T| = 3": [NominationGraph((2, 3, 1, 1, 2, 3))],
}


def prugd_case(g):
    """The case prugd_counts takes on g: |T| (3 for three or more), and
    with T = {t}, |T2| and m = |T2 - {out[t]}|."""
    deg = g.indegrees()
    top = max(deg)
    tops = [v for v, d in enumerate(deg, start=1) if d == top]
    if len(tops) > 1:
        return min(len(tops), 3), None, None
    second = {v for v, d in enumerate(deg, start=1) if d == top - 1}
    return 1, len(second), len(second - {g.out[tops[0] - 1]})


def test_prugd_case_graphs_are_the_cases_they_name():
    want = {"T = {t}, T2 empty, T3 - {out[t]} empty": (1, 0, 0),
            "T = {t}, T2 empty, T3 - {out[t]} not empty": (1, 0, 0),
            "T = {t}, m = |T2 - {out[t]}| = 0": (1, 1, 0), "T = {t}, m = 1": (1, 1, 1),
            "T = {t}, m = 2": (1, 2, 2), "|T| = 2 with the gap": (2, None, None),
            "|T| = 2 without the gap": (2, None, None), "|T| = n": (3, None, None),
            "|T| = 3": (3, None, None)}
    for name, graphs in PRUGD_CASE_GRAPHS.items():
        assert all(prugd_case(g) == want[name] for g in graphs), name
    third = [d == 1 for d in NominationGraph((5, 1, 1, 1, 2)).indegrees()]
    assert third == [False, True, False, False, True]  # T3 = {2, 5}, out[t] = 5


def test_prugd_closed_form_matches_the_per_default_oracle():
    # oracle.prugd_counts runs the scalar two-slot form on each default
    # vertex's edge-removed copy; the closed form must agree in a batch
    # and one graph at a time
    named = [g for graphs in PRUGD_CASE_GRAPHS.values() for g in graphs]
    for g in named:
        assert batch_counts(PRUGD, [g]) == [oracle.prugd_counts(g)], g.out
        if g.n > mechanisms.MIX_SMALL_N:
            want = oracle.mix_counts(g, engine.selection_counts(engine.out_array(g))[0])
            assert batch_counts(MIX, [g]) == [want], g.out
    for n in range(2, 10):
        classes = [NominationGraph(out) for out, _ in iso_classes(n)]
        want = [oracle.prugd_counts(g) for g in classes]
        assert batch_counts(PRUGD, classes) == want, n
        assert [batch_counts(PRUGD, [g])[0] for g in classes] == want, n
    seeded = [g for n in range(10, 60) for g in seeded_graphs(n, 4, 500 + n)]
    assert {prugd_case(g)[0] for g in seeded} == {1, 2, 3}
    assert all(batch_counts(PRUGD, [g]) == [oracle.prugd_counts(g)] for g in seeded)
    for n in (10, 37):
        graphs = [g for g in seeded if g.n == n] + [cycle(n)]
        assert batch_counts(PRUGD, graphs) == [oracle.prugd_counts(g) for g in graphs], n


def test_prugd_counts_a_large_graph_in_process():
    # prugd holds O(n) Python ints of 2000!'s size per graph here, not
    # the n^2 that one prug run per default vertex would
    counts, den = PRUGD.counts(engine.out_array(random_graph(2000, 3))[None])
    assert den == 4 * 2000 * math.factorial(2000)
    assert sum(counts[0].tolist()) == den


def test_batch_counts_are_checked_without_wrapping():
    # each count is within its denominator, but the two sum past 2^63,
    # which int64 would wrap to a negative total
    big = np.array([[2**62, 2**62]], dtype=np.int64)
    wraps = Mechanism("wraps", True, lambda out0s: (big, 2**62 + 1), perm_sampler)
    two_cycle = np.array([[1, 0]])
    with pytest.raises(InputError, match="sum"):
        wraps.counts(two_cycle)
    halves = Mechanism("halves", True, lambda out0s: (np.full(out0s.shape, 0.5), 1), perm_sampler)
    with pytest.raises(InputError, match="integers"):
        halves.counts(two_cycle)
    # a shape other than (graphs, n) is named, rows too many or a flat row
    for bad in (np.ones((3, 2), dtype=np.int64), np.ones(2, dtype=np.int64)):
        shaped = Mechanism("shaped", True, lambda out0s: (bad, 4), perm_sampler)
        with pytest.raises(InputError) as err:
            shaped.counts(np.array([[1, 0], [1, 0]]))
        assert str(err.value) == f"shaped gave counts of shape {bad.shape}, expected (graphs, n) = (2, 2)"
    # per_graph scales its rows to the lcm of their denominators
    rows = Mechanism("rows", True, per_graph(lambda g: ((2, 2), 4) if None in g.out else ((1, 1), 2)),
                     perm_sampler)
    counts, den = rows.counts(np.array([[1, 0], [1, -1]]))  # a total and a partial graph
    assert counts.tolist() == [[2, 2], [2, 2]] and den == 4
    assert rows.counts(np.empty((0, 2), dtype=np.int64))[1] == 1
    # a bad denominator in a later row is reported, not scaled by
    for bad, message in ((0, "denominator 0 is not positive"), (-4, "denominator -4 is not positive"),
                         (Fraction(4), "selection counts must be integers: "
                                       "'Fraction' object cannot be interpreted as an integer")):
        mixed = Mechanism("mixed", True, per_graph(lambda g: ((0, 0), bad) if None in g.out else ((1, 1), 2)),
                          perm_sampler)
        with pytest.raises(InputError) as err:
            mixed.counts(np.array([[1, 0], [1, -1]]))
        assert str(err.value) == message


@pytest.mark.parametrize("row, den, message", [
    ((Fraction(1, 2), 0), 1, "selection counts must be integers: 'Fraction' object cannot be interpreted as an integer"),
    ((0.5, 0), 1, "selection counts must be integers: 'float' object cannot be interpreted as an integer"),
    ((-1, 2), 4, "probability of vertex 1 out of [0,1]: -1/4"),
    ((1, 5), 4, "probability of vertex 2 out of [0,1]: 5/4"),
    ((0, 0), 0, "denominator 0 is not positive"),
    # each count fits its denominator, but the sum passes it and 2^63
    ((2**62, 2**62), 2**62 + 1, f"probabilities sum to {2**63}/{2**62 + 1} > 1"),
    ((2**63, 1), 2**64, None),  # valid, past int64
])
def test_both_exact_entries_check_counts_alike(row, den, message):
    fixed = Mechanism("fixed", True, per_graph(lambda g: (row, den)), perm_sampler)

    def one():
        dist = SelectionDistribution(row, den)
        return dist.numerators, dist.denominator

    def batch():
        counts, den = fixed.counts(np.array([[1, 0]]))
        return tuple(counts[0].tolist()), den

    for entry in (one, batch):
        if message is None:
            assert entry() == (row, den)
        else:
            with pytest.raises(InputError) as err:
                entry()
            assert str(err.value) == message


def test_perm_sample_deterministic_and_consistent():
    assert PERM.sample(TRIANGLE_IN, 42) == PERM.sample(TRIANGLE_IN, 42)
    draws = 20_000
    counts = np.bincount(perm_sampler(TWO_CYCLE)(SeedStream(7), draws), minlength=3)
    assert counts[0] == 0
    f = counts[1] / draws
    assert abs(f - 0.5) < 3 * math.sqrt(0.25 / draws)


# ---------------------------------------------------------------------------
# random dictatorship

def test_rd_exact_values():
    assert RD.exact(TWO_CYCLE).probs == (Fraction(1, 2), Fraction(1, 2))
    assert RD.exact(ub_family(7, 0)).prob_of(2) == Fraction(2, 7)


def test_rd_rejects_partial():
    with pytest.raises(InputError):
        RD.exact(PartialNominationGraph((2, None, 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_rd_total_is_one(n, seed):
    assert RD.exact(random_graph(n, seed)).total == 1


def test_rd_sample_matches_support():
    draws = rd_sampler(TRIANGLE_IN)(SeedStream(3), 200)
    assert set(draws.tolist()) <= {1, 2}


# ---------------------------------------------------------------------------
# plurality with runner-up and gap

# the reference rule: oracle.prug_p_vector is in quarters and
# oracle.prug_q_vector in eighths

def test_prug_p_vector_two_cycle():
    p = oracle.prug_p_vector(TWO_CYCLE, Permutation((1, 2)))
    assert p == (2, 2)  # 1/2 each


def test_prug_p_vector_star_gap():
    for order in itertools.permutations(STAR4.vertices):
        p = oracle.prug_p_vector(STAR4, Permutation(order))
        assert p[0] == 3  # 3/4
        assert sum(p) == 3


def test_prug_p_vector_sum_support():
    allowed = {2, 3, 4, 5}  # 1/2, 3/4, 1, 5/4
    seen = set()
    for g in seeded_graphs(5, 60, 17):
        for order in itertools.permutations(g.vertices):
            seen.add(sum(oracle.prug_p_vector(g, Permutation(order))))
    assert seen <= allowed
    assert 5 in seen  # the overshoot case does occur


def test_prug_q_vector_is_distribution():
    for g in seeded_graphs(5, 30, 23):
        for order in itertools.islice(itertools.permutations(g.vertices), 24):
            q = oracle.prug_q_vector(g, Permutation(order))
            assert all(type(e) is int and 0 <= e <= 8 for e in q)
            assert sum(q) <= 8


def test_prug_exact_values_and_oracle():
    assert PRUG.exact(TWO_CYCLE).probs == (Fraction(1, 2), Fraction(1, 2))
    assert PRUG.exact(STAR4).probs == (Fraction(3, 4), 0, 0, 0)
    for g in oracle.all_graphs(4):
        assert list(PRUG.exact(g).probs) == oracle.prug_dist(g)
    for g in seeded_graphs(5, 15, 29):
        assert list(PRUG.exact(g).probs) == oracle.prug_dist(g)


def one_edge_removed(graphs):
    for g in graphs:
        for v in g.vertices:
            yield g.remove_out_edge(v)


def test_prug_closed_form_matches_oracle_exhaustive():
    for n in (2, 3, 4):
        totals = list(oracle.all_graphs(n))
        for g in totals + list(one_edge_removed(totals)):
            assert list(PRUG.exact(g).probs) == oracle.prug_dist(g), g.out


def test_prug_closed_form_matches_oracle_seeded():
    rng = SeedStream(43)
    for n, count in ((5, 6), (6, 4), (7, 2), (8, 1)):
        totals = [random_graph(n, rng) for _ in range(count)]
        partials = [g.remove_out_edge(rng.randrange(n) + 1) for g in totals]
        for g in totals + partials:
            assert list(PRUG.exact(g).probs) == oracle.prug_dist(g), g.out


@st.composite
def partial_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    out = [
        draw(st.one_of(st.none(), st.sampled_from([t for t in range(1, n + 1) if t != v])))
        for v in range(1, n + 1)
    ]
    return PartialNominationGraph(tuple(out))


@settings(max_examples=40, deadline=None)
@given(partial_graphs())
def test_prug_closed_form_matches_oracle_property(g):
    assert list(PRUG.exact(g).probs) == oracle.prug_dist(g)


def test_prug_exact_sum_at_most_one_exhaustive():
    for n in (2, 3, 4):
        for g in oracle.all_graphs(n):
            assert PRUG.exact(g).total <= 1


def test_prug_sample_star_none_rate():
    draws = 20_000
    nones = int((prug_sampler(STAR4)(SeedStream(11), draws) == 0).sum())
    f = nones / draws
    assert abs(f - 0.25) < 3 * math.sqrt(0.25 * 0.75 / draws)


def test_prug_sample_deterministic():
    assert PRUG.sample(STAR4, 5) == PRUG.sample(STAR4, 5)


class FixedDraw(SeedStream):
    """A stream whose uniform integer draw is always r."""

    def __init__(self, r):
        super().__init__(0)
        self.r = r

    def randrange(self, n):
        assert 0 <= self.r < n
        return self.r


def test_categorical_exact_over_every_draw():
    cases = (([3, 0, 5], 8), ([1, 2, 0, 1], 8), ([0, 0], 3), ([2], 2), ([0, 7, 0], 9))
    for weights, total in cases:
        picks = Counter(FixedDraw(r).categorical(weights, total) for r in range(total))
        assert [picks[i] for i in range(len(weights))] == weights
        assert picks[None] == total - sum(weights)
    for r in range(8):
        with pytest.raises(ValueError):
            FixedDraw(r).categorical([5, 4], 8)


# 200 draws from one SeedStream(7) on random_graph(50, 3), 0 for no
# selection, pinned so that the integer draws' streams stay fixed
PRUG_SAMPLE_PINNED = [
    0, 32, 39, 0, 0, 39, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0,
    32, 0, 0, 0, 39, 0, 32, 0, 32, 32, 32, 32, 0, 0, 39, 0, 39, 39, 0, 0,
    0, 0, 39, 0, 39, 0, 0, 0, 0, 39, 32, 32, 0, 39, 0, 0, 0, 0, 0, 39,
    0, 0, 0, 0, 0, 0, 0, 0, 32, 0, 39, 0, 0, 0, 0, 0, 0, 0, 32, 0,
    0, 0, 0, 0, 32, 0, 0, 32, 0, 32, 39, 39, 32, 32, 0, 32, 39, 39, 0, 39,
    39, 32, 32, 0, 0, 0, 32, 0, 32, 32, 39, 39, 32, 0, 32, 39, 32, 32, 0, 0,
    39, 0, 39, 0, 39, 0, 39, 39, 39, 0, 32, 32, 39, 0, 32, 0, 32, 39, 0, 0,
    32, 0, 39, 0, 0, 39, 0, 0, 39, 0, 0, 0, 0, 39, 39, 32, 32, 32, 0, 39,
    32, 0, 0, 0, 0, 0, 32, 0, 0, 32, 0, 0, 39, 0, 39, 39, 39, 0, 32, 39,
    0, 0, 0, 32, 0, 0, 39, 0, 0, 39, 39, 0, 39, 0, 39, 32, 39, 32, 39, 32,
]


def test_prug_sample_seeded_stream_pinned():
    draws = prug_sampler(random_graph(50, 3))
    assert draws(SeedStream(7), 200).tolist() == PRUG_SAMPLE_PINNED


# 200 draws each of perm and prug from one SeedStream(7) on a graph with
# an absent edge, 0 for no selection, pinned so that the scan's and the
# eighths' handling of a missing nomination stays fixed
PARTIAL = PartialNominationGraph((3, None, 1, 1, 2))
PERM_PARTIAL_PINNED = [
    3, 1, 1, 1, 1, 1, 1, 3, 3, 1, 1, 3, 3, 1, 1, 3, 1, 2, 1, 3,
    3, 1, 1, 3, 1, 1, 2, 1, 2, 2, 3, 1, 2, 1, 1, 3, 1, 1, 1, 1,
    1, 1, 1, 1, 2, 1, 3, 1, 3, 1, 1, 1, 2, 1, 2, 1, 3, 3, 1, 2,
    1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 3, 3, 3, 1, 1, 1, 2, 1, 1, 1,
    1, 3, 3, 3, 2, 1, 2, 1, 2, 1, 1, 3, 2, 1, 1, 3, 1, 1, 3, 2,
    1, 2, 1, 1, 1, 1, 1, 1, 3, 3, 1, 1, 1, 1, 3, 2, 2, 1, 2, 3,
    1, 2, 3, 1, 3, 1, 1, 1, 1, 3, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 2, 1, 1, 1, 3, 1, 2, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 3, 1,
    3, 1, 1, 3, 1, 2, 1, 1, 1, 1, 3, 2, 3, 2, 1, 1, 3, 1, 1, 1,
    3, 1, 3, 1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 2, 1, 3, 1, 3, 2,
]
PRUG_PARTIAL_PINNED = [
    1, 1, 1, 1, 0, 3, 0, 3, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 3, 1,
    0, 0, 3, 1, 1, 3, 3, 0, 0, 1, 1, 1, 3, 0, 0, 0, 1, 1, 0, 1,
    1, 1, 1, 3, 1, 3, 0, 0, 3, 1, 1, 0, 1, 0, 1, 3, 0, 1, 1, 1,
    1, 0, 1, 3, 3, 0, 1, 3, 1, 1, 1, 1, 1, 0, 1, 3, 0, 3, 0, 0,
    1, 3, 1, 1, 3, 1, 1, 1, 3, 1, 1, 1, 1, 1, 3, 3, 0, 1, 1, 0,
    1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1,
    3, 0, 0, 0, 3, 1, 3, 1, 3, 1, 1, 1, 0, 0, 0, 3, 0, 1, 0, 1,
    1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 3, 1, 1, 1,
    3, 0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 3, 0, 1, 1, 1, 1, 1,
    3, 3, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 3, 3, 1, 3, 1, 1, 1,
]


@pytest.mark.parametrize("sampler, pinned", [(perm_sampler, PERM_PARTIAL_PINNED),
                                             (prug_sampler, PRUG_PARTIAL_PINNED)])
def test_partial_graph_seeded_streams_pinned(sampler, pinned):
    draws = sampler(PARTIAL)
    assert draws(SeedStream(7), 200).tolist() == pinned


def two_slot_picks(g, orders, r):
    """engine.two_slot_rule on g, one column per (ordering of 1..n, r)
    pair."""
    cols = np.array(orders, dtype=np.int16).T - 1
    rule = engine.two_slot_rule(engine.out_array(g), np.array([-1]))
    return rule(np.zeros(len(orders), dtype=np.intp), cols, np.asarray(r))


def test_prug_sampler_eighths_match_the_reference_rule_exhaustive():
    # every ordering of every class representative for n <= 6, and of
    # each representative with one edge removed and the edgeless graph
    # for n <= 5: the eighths a vertex wins among the eight values of r
    # the vectorised rule picks by are prug_q_vector's
    checked = 0
    for n in range(2, 7):
        graphs = [NominationGraph(out) for out, _ in iso_classes(n)]
        if n <= 5:
            graphs += list(dict.fromkeys(one_edge_removed(graphs)))
            graphs.append(PartialNominationGraph((None,) * n))
        for g in graphs:
            orders = list(itertools.permutations(g.vertices))
            picks = two_slot_picks(g, [o for o in orders for _ in range(8)], np.tile(np.arange(8), len(orders)))
            slots = np.repeat(np.arange(len(orders)) * (n + 1), 8) + picks
            wins = np.bincount(slots, minlength=len(orders) * (n + 1)).reshape(len(orders), n + 1)
            for order, row in zip(orders, wins.tolist()):
                assert tuple(row[1:]) == oracle.prug_q_vector(g, Permutation(order)), (g.out, order)
                checked += 1
    assert checked == 30_518 + 7_122  # (graph, ordering) pairs: total, then partial


def test_prug_rule_raises_when_the_eighths_sum_past_8(monkeypatch):
    # T = {1} and T2 = {2, 3}, both nominating 1; 1 fails the gap test
    # (2 stays one below it), so it gets 2 quarters per ordering.  A
    # mutant gap test that passes every lone top vertex grants it 3, and
    # an ordering with 2 and 3 at the two marked ends weighs 6 + 2 + 2
    # eighths.
    g = NominationGraph((3, 1, 1, 1, 2, 2, 3))
    orders = [(2, 1, 3, 4, 5, 6, 7)] * 8
    picks = two_slot_picks(g, orders, np.arange(8))
    assert np.bincount(picks, minlength=4).tolist() == [0, 4, 2, 2]
    tables = engine._two_slot_tables

    def always_gap(out0, removed):
        *head, t, front = tables(out0, removed)
        return (*head, t, np.where(t >= 0, 3, front))

    monkeypatch.setattr(engine, "_two_slot_tables", always_gap)
    with pytest.raises(ValueError, match="> 8"):
        two_slot_picks(g, orders, np.arange(8))


# ---------------------------------------------------------------------------
# default-vertex wrapper

def test_dv_wrap_never_selecting_inner_gives_uniform():
    def nothing(h):
        return [0] * h.n, 1

    counts, den = oracle.dv_wrap_counts(nothing, STAR4)
    assert SelectionDistribution(counts, den).probs == (Fraction(1, 4),) * 4


def test_dv_wrap_exact_inner_is_plain_average():
    def first_on_board(h):
        # always selects the lowest-index vertex that still has an edge
        v = next(u for u in h.vertices if h.out[u - 1] is not None)
        counts = [0] * h.n
        counts[v - 1] = 1
        return counts, 1

    g = NominationGraph((2, 3, 1))
    counts, den = oracle.dv_wrap_counts(first_on_board, g)
    # defaults 1,2,3 leave lowest-edged vertices 2,1,1
    assert (counts, den) == ([2, 1, 0], 3)


def test_prugd_star_against_pair_oracle():
    # frozen from the 4 x 4! = 96-case (default, ordering) oracle
    assert PRUGD.exact(STAR4).probs == (Fraction(13, 16), Fraction(3, 16), 0, 0)
    assert oracle.prugd_dist(STAR4) == [Fraction(13, 16), Fraction(3, 16), 0, 0]


def test_prugd_exact_oracle_and_total():
    for g in oracle.all_graphs(3):
        assert list(PRUGD.exact(g).probs) == oracle.prugd_dist(g)
    for g in seeded_graphs(5, 10, 31):
        probs = PRUGD.exact(g)
        assert list(probs.probs) == oracle.prugd_dist(g)
        assert probs.total == 1


def test_prugd_capacity():
    # prugd is a closed form with no cap; mix keeps perm's scan cap
    assert PRUGD.exact(cycle(9)).probs == (Fraction(1, 9),) * 9
    assert PRUGD.exact(random_graph(30, 41)).total == 1
    with pytest.raises(CapacityError, match="eval --samples"):
        MIX.exact(cycle(17))


def test_prugd_sample_deterministic():
    assert PRUGD.sample(STAR4, 9) == PRUGD.sample(STAR4, 9)


PRUGD_SAMPLE_PINNED = [
    21, 37, 32, 32, 39, 39, 38, 50, 32, 32, 12, 11, 2, 5, 32, 21, 32, 32, 9, 32,
    11, 5, 36, 17, 39, 1, 32, 47, 32, 4, 12, 32, 32, 32, 39, 32, 30, 33, 32, 32,
    32, 26, 32, 4, 44, 31, 3, 39, 29, 33, 32, 2, 22, 39, 33, 39, 32, 32, 2, 39,
    46, 39, 46, 45, 41, 32, 32, 32, 13, 20, 44, 23, 39, 41, 32, 36, 39, 32, 12, 10,
    32, 44, 39, 39, 39, 32, 32, 39, 39, 39, 41, 1, 32, 39, 18, 39, 33, 39, 8, 32,
    39, 15, 8, 39, 14, 12, 35, 29, 39, 39, 39, 32, 32, 12, 39, 11, 39, 25, 1, 39,
    14, 39, 38, 29, 32, 39, 24, 39, 37, 32, 39, 20, 39, 28, 32, 32, 9, 28, 32, 18,
    39, 24, 24, 32, 29, 32, 39, 16, 14, 35, 10, 32, 6, 18, 46, 32, 21, 16, 23, 32,
    39, 1, 32, 39, 20, 39, 39, 32, 32, 34, 18, 32, 32, 29, 32, 2, 39, 32, 39, 34,
    35, 32, 37, 12, 12, 8, 32, 32, 39, 32, 37, 39, 35, 39, 32, 32, 32, 37, 35, 32,
]


def test_prugd_sample_seeded_stream_pinned():
    draws = prugd_sampler(random_graph(50, 3))
    assert draws(SeedStream(7), 200).tolist() == PRUGD_SAMPLE_PINNED


# ---------------------------------------------------------------------------
# mixture

def test_mix_small_n_equals_rd():
    for g in seeded_graphs(5, 10, 37):
        assert MIX.exact(g).probs == RD.exact(g).probs
    for g in seeded_graphs(3, 5, 38):
        assert MIX.exact(g).probs == RD.exact(g).probs


def test_mix_weights_sum_to_one():
    assert Fraction(825, 1049) + Fraction(224, 1049) == 1


def test_mix_blend_at_six():
    g = ub_family(6, 1)
    blended = MIX.exact(g)
    pe, pd = PERM.exact(g), PRUGD.exact(g)
    for v in g.vertices:
        assert blended.prob_of(v) == Fraction(825, 1049) * pe.prob_of(v) + Fraction(
            224, 1049
        ) * pd.prob_of(v)
    assert blended.total == 1


def test_mix_against_oracle_small():
    for g in oracle.all_graphs(3):
        assert list(MIX.exact(g).probs) == oracle.mix_dist(g)


def test_mix_sample_deterministic():
    g = ub_family(6, 0)
    assert MIX.sample(g, 13) == MIX.sample(g, 13)


class CoinStub:
    """A stream whose every coin is one fixed value below den and whose
    rows are all zeros; it records the bounds it is asked for, the
    coin's and then each row's."""

    def __init__(self, value):
        self.value = value
        self.bounds = []

    def coin_rows(self, den, cut, heads, tails, k):
        coins = []
        for _ in range(k):
            self.bounds.append(den)
            coins.append(self.value < cut)
            self.bounds.append(tuple(heads if coins[-1] else tails))
        return np.array(coins, dtype=bool), np.zeros((k, max(len(heads), len(tails))), dtype=np.uint8)


def test_mix_coin_sends_825_of_1049_values_to_perm(monkeypatch):
    # perm's rule selects vertex 1 and prugd's vertex 2, on any rows
    monkeypatch.setattr(mechanisms, "_perm_rows", lambda g: (("perm",), lambda rows: np.ones(len(rows))))
    monkeypatch.setattr(mechanisms, "_prugd_rows", lambda g: (("prugd",), lambda rows: np.full(len(rows), 2)))
    draws = mechanisms.mix_sampler(ub_family(6, 0))
    picks = Counter()
    for value in range(1049):
        stub = CoinStub(value)
        (picked,) = draws(stub, 1).tolist()
        picks[picked] += 1
        assert stub.bounds == [1049, ("perm",) if picked == 1 else ("prugd",)]
    assert picks == {1: 825, 2: 224}


# 200 draws from one SeedStream(7) on random_graph(50, 3), pinned so that
# the coin's stream and the perm and prugd draws behind it stay fixed
MIX_SAMPLE_PINNED = [
    10, 37, 42, 32, 39, 47, 39, 50, 32, 32, 39, 11, 39, 5, 37, 1, 32, 25, 42, 32,
    39, 5, 32, 32, 32, 37, 39, 25, 37, 37, 12, 47, 37, 37, 42, 39, 42, 25, 32, 39,
    10, 37, 32, 47, 39, 39, 37, 47, 39, 25, 47, 39, 25, 40, 36, 25, 10, 39, 37, 32,
    25, 32, 42, 37, 49, 32, 25, 47, 37, 39, 32, 39, 37, 32, 39, 10, 39, 32, 42, 18,
    37, 42, 32, 25, 39, 36, 39, 39, 47, 39, 39, 32, 42, 32, 32, 42, 37, 39, 39, 39,
    10, 37, 37, 1, 42, 32, 32, 42, 32, 39, 32, 36, 32, 32, 39, 32, 42, 39, 10, 10,
    32, 21, 39, 39, 6, 42, 32, 39, 32, 37, 39, 14, 37, 39, 37, 39, 18, 39, 47, 39,
    42, 37, 39, 15, 21, 39, 32, 10, 10, 32, 39, 25, 39, 32, 47, 10, 36, 47, 25, 37,
    32, 37, 5, 25, 25, 32, 39, 37, 32, 34, 25, 32, 15, 37, 10, 39, 39, 39, 42, 10,
    37, 37, 43, 10, 39, 25, 36, 1, 37, 32, 42, 43, 39, 32, 10, 32, 39, 32, 37, 32,
]


def test_mix_sample_seeded_stream_pinned():
    draws = mix_sampler(random_graph(50, 3))
    assert draws(SeedStream(7), 200).tolist() == MIX_SAMPLE_PINNED


# ---------------------------------------------------------------------------
# registry

def test_registry_flags():
    # only prug may select no one
    g = lower_bound_family(2, 1)
    assert PRUG.exact(g).total < 1
    assert all(MECHANISMS[m].exact(g).total == 1 for m in ("perm", "rd", "prugd", "mix"))
    assert MECHANISMS["perm"].accepts_partial and MECHANISMS["prug"].accepts_partial
    assert not MECHANISMS["rd"].accepts_partial
    assert not MECHANISMS["mix"].accepts_partial
    assert not MECHANISMS["prugd"].accepts_partial


def test_registry_rejects_partial_for_total_only():
    p = PartialNominationGraph((2, None, 1))
    for name in ("rd", "prugd", "mix"):
        mech = MECHANISMS[name]
        entries = (lambda: mech.counts(engine.out_array(p)[None]),
                   lambda: mech.exact(p), lambda: mech.sample(p, 7))
        for entry in entries:
            with pytest.raises(InputError) as err:
                entry()
            assert str(err.value) == f"{name} is only defined on total nomination graphs"
    assert MECHANISMS["perm"].exact(p).total == 1


def test_total_graph_rule_reads_the_edges_not_the_type():
    # a partial graph with every edge present is a total graph
    total, all_edges = NominationGraph((2, 3, 1)), PartialNominationGraph((2, 3, 1))
    assert RD.exact(all_edges) == RD.exact(total)
    for name, mech in MECHANISMS.items():
        draws = []
        for g in (total, all_edges):
            draws.append(mech.sampler(g)(SeedStream(11), 50).tolist())
        assert draws[0] == draws[1], name


def test_exact_checks_its_row_once(monkeypatch):
    calls = []
    check = mechanisms.check_counts

    def counted(*args):
        calls.append(args)
        return check(*args)

    # mechanisms imports the name, so both bindings are patched
    monkeypatch.setattr("impartial.graphs.check_counts", counted)
    monkeypatch.setattr(mechanisms, "check_counts", counted)
    partial = PartialNominationGraph((2, None, 1, 3, 1, 2, 4))
    cases = [(mech, ub_family(7, 1)) for mech in MECHANISMS.values()]
    cases += [(PERM, partial), (PRUG, partial), (PRUG, random_graph(20, 3)),
              (PRUGD, random_graph(19, 3))]  # the last two count in Python ints
    for mech, g in cases:
        calls.clear()
        d = mech.exact(g)
        assert len(calls) == 1, (mech.name, g)
        assert all(type(c) is int for c in d.numerators), (mech.name, g)
        assert type(d.denominator) is int, (mech.name, g)
        # a caller's SelectionDistribution is still checked
        assert d == SelectionDistribution(d.numerators, d.denominator), (mech.name, g)
        assert len(calls) == 2, (mech.name, g)


@pytest.mark.parametrize("n", [5, 8])
def test_counts_on_an_empty_batch(n):
    for name, mech in MECHANISMS.items():
        counts, den = mech.counts(np.empty((0, n), dtype=np.int16))
        assert counts.shape == (0, n) and counts.dtype == np.int64, name
        # the batch's denominator depends on n alone
        assert den == mech.counts(engine.out_array(cycle(n))[None])[1] and type(den) is int, name


def test_registry_sample_takes_a_seed_or_a_stream():
    g = ub_family(7, 1)
    for name, mech in MECHANISMS.items():
        assert mech.sample(g, 7) == mech.sample(g, SeedStream(7)), name


def test_get_mechanism_unknown():
    with pytest.raises(InputError):
        get_mechanism("nope")


def test_all_samplers_agree_with_support():
    g = lower_bound_family(2, 1)
    for name, mech in MECHANISMS.items():
        dist = mech.exact(g)
        support = {v for v in g.vertices if dist.prob_of(v) > 0}
        rng = SeedStream(101).split(name)
        for _ in range(300):
            picked = mech.sample(g, rng)
            if picked is None:
                assert name == "prug" and dist.total < 1
            else:
                assert picked in support


# ---------------------------------------------------------------------------
# batch samplers against the per-draw oracle

def sampler_cases():
    """Every class at n <= 6, three partial graphs and one seeded random
    graph per n from 7 to 50 and at n = 300, whose rows no longer fit in
    a byte."""
    for n in range(2, 7):
        yield from (NominationGraph(out) for out, _ in iso_classes(n))
    yield from map(PartialNominationGraph, [(3, None, 1, 1, 2), (None,) * 4, (2, None, 2, 3, None, 1)])
    rng = SeedStream(29)
    yield from (random_graph(n, rng) for n in [*range(7, 51), 300])


def test_batch_samplers_match_the_per_draw_oracle():
    # draw for draw, and the generator ends in the same state
    cases = 0
    for seed, g in enumerate(sampler_cases()):
        for name, mech in MECHANISMS.items():
            if None in g.out and not mech.accepts_partial:
                continue
            batch, reference = SeedStream(seed), SeedStream(seed)
            draw = oracle.SAMPLERS[name](g)
            expected = [draw(reference) or 0 for _ in range(100)]
            assert mech.sampler(g)(batch, 100).tolist() == expected, (name, g.out)
            assert batch._rng.getstate() == reference._rng.getstate(), (name, g.out)
            cases += 1
    assert cases == 5 * (1 + 2 + 6 + 13 + 40 + 45) + 2 * 3  # classes at n = 2..6, random, partial


@pytest.mark.parametrize("chunk", [1, 7, engine.SAMPLE_CHUNK])
def test_sampled_draws_do_not_depend_on_the_chunk(monkeypatch, chunk):
    monkeypatch.setattr(engine, "SAMPLE_CHUNK", chunk)
    g = random_graph(50, 3)
    pinned = {"perm": PERM_SAMPLE_PINNED, "prug": PRUG_SAMPLE_PINNED,
              "prugd": PRUGD_SAMPLE_PINNED, "mix": MIX_SAMPLE_PINNED}
    for name, draws in pinned.items():
        assert MECHANISMS[name].sampler(g)(SeedStream(7), 200).tolist() == draws, name
    draw, rng = oracle.rd_sampler(g), SeedStream(7)
    assert RD.sampler(g)(SeedStream(7), 200).tolist() == [draw(rng) for _ in range(200)]
    assert PERM.sampler(PARTIAL)(SeedStream(7), 200).tolist() == PERM_PARTIAL_PINNED
    assert PRUG.sampler(PARTIAL)(SeedStream(7), 200).tolist() == PRUG_PARTIAL_PINNED


def test_two_slot_tables_match_each_edge_removed_copy():
    # each variant's tables, read off the graph's classes, against the
    # classes of the copy itself: every class at n <= 6 and seeded random
    # graphs, without each vertex's edge and without none
    rng = SeedStream(31)
    graphs = [NominationGraph(out) for n in range(2, 7) for out, _ in iso_classes(n)]
    graphs += [random_graph(n, rng) for n in range(7, 41)]
    for g in graphs:
        removed = np.arange(-1, g.n)
        deg, *tables = engine._two_slot_tables(engine.out_array(g), removed)
        assert tuple(deg.tolist()) == g.indegrees()
        tables = np.stack(tables).T.tolist()
        for j, row in zip(removed.tolist(), tables):
            h = g if j < 0 else g.remove_out_edge(j + 1)
            degs = h.indegrees()
            dmax = max(degs)
            top = [v for v in h.vertices if degs[v - 1] == dmax]
            v = -1 if j < 0 else g.out[j] - 1
            expected = [v, dmax - (len(top) == 1), -1, 2]
            if len(top) == 1:
                (t,) = top
                reduced = list(degs)
                if h.out[t - 1] is not None:
                    reduced[h.out[t - 1] - 1] -= 1
                gap = all(dmax >= reduced[u - 1] + 2 for u in h.vertices if u != t)
                expected[2:] = t - 1, 3 if gap else 2
            assert row == expected, (g.out, j)


def test_samplers_hold_their_memory_at_n_2000():
    # a chunk holds about SAMPLE_CHUNK * 64 entries whatever n (perm
    # draws one chunk and one draw more), and prugd and mix read the n
    # defaults off one table; whole-graph copies and chunks of
    # SAMPLE_CHUNK orderings took 27 to 88 MB here
    g = random_graph(2000, SeedStream(1))
    for name, mech in MECHANISMS.items():
        k = engine.sample_rows(g.n) + 1 if name == "perm" else 3
        tracemalloc.start()
        try:
            mech.sampler(g)(SeedStream(7), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (name, peak)


def test_samplers_run_past_int16_vertices():
    # n = 2^15 + 1: vertex numbers and indegrees no longer fit in int16
    g = random_graph(2**15 + 1, SeedStream(2))
    for name in ("perm", "prugd"):
        batch, reference = SeedStream(3), SeedStream(3)
        draw = oracle.SAMPLERS[name](g)
        assert MECHANISMS[name].sampler(g)(batch, 1).tolist() == [draw(reference)], name
