import itertools
import math
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
    perm_run,
    perm_sampler,
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


# ---------------------------------------------------------------------------
# permutation mechanism

def test_perm_run_two_cycle_traces():
    # vertex 2 ties at 0 (its edge from the candidate 1 is ignored) and
    # takes over
    assert perm_run(TWO_CYCLE, Permutation((1, 2))) == 2
    assert perm_run(TWO_CYCLE, Permutation((2, 1))) == 1


def test_perm_run_three_vertices():
    assert perm_run(TRIANGLE_IN, Permutation((3, 2, 1))) == 1
    assert TRIANGLE_IN.indegrees()[1 - 1] == 2


def test_perm_run_selects_a_maximum_left_indegree():
    for g in seeded_graphs(6, 20, 11):
        for order in itertools.islice(itertools.permutations(g.vertices), 40):
            left = [g.indegree_from(v, order[:i]) for i, v in enumerate(order)]
            selected = perm_run(g, Permutation(order))
            assert left[order.index(selected)] == max(left)


def test_perm_run_matches_scan_oracle_exhaustive():
    for n in (2, 3, 4):
        totals = list(oracle.all_graphs(n))
        for g in totals + list(one_edge_removed(totals)):
            for order in itertools.permutations(g.vertices):
                assert perm_run(g, Permutation(order)) == oracle.scan_select(g, order), (g.out, order)


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
    draw = perm_sampler(random_graph(50, 3))
    rng = SeedStream(7)
    assert [draw(rng) for _ in range(200)] == PERM_SAMPLE_PINNED


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


def test_selection_dp_matches_ordering_table():
    for n in (6, 7, 8, 9):
        perms, pos = engine.permutation_table(n)
        for g in seeded_graphs(n, 4, 60 + n):
            for h in (g, g.remove_out_edge(1)):
                out0 = engine.out_array(h)
                sel, d, m = engine.run_selection(out0, perms, pos)
                counts, runs = engine.selection_counts(out0)
                assert counts == np.bincount(sel, minlength=n).tolist()
                assert runs == perms.shape[0] == math.factorial(n)
                assert int((d != m).sum()) == 0


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
    perms, pos = engine.permutation_table(len(out))
    sel, _, _ = engine.run_selection(out0, perms, pos)
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
            g = g.remove_out_edge(rng.vertex(g.n))
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
    perms, pos = engine.permutation_table(7)
    got = engine.batch_selection_counts(np.stack([engine.out_array(g) for g in graphs]))
    for g, counts in zip(graphs, got):
        sel, _, _ = engine.run_selection(engine.out_array(g), perms, pos)
        assert counts == np.bincount(sel, minlength=7).tolist(), g.out
    for g in seeded_graphs(7, 3, 7):
        h = g.remove_out_edge(2)
        assert batch_probs([g, h]) == [oracle.perm_dist(g), oracle.perm_dist(h)]


def test_batch_over_several_passes_equals_per_graph_calls(monkeypatch):
    graphs = [h for g in seeded_graphs(6, 30, 606) for h in (g, g.remove_out_edge(3))]
    graphs.append(NominationGraph((2, 1, 1, 1, 1, 1)))  # indegree 5 widens the state index
    out0s = np.stack([engine.out_array(g) for g in graphs])
    single = [engine.selection_counts(out0)[0] for out0 in out0s]
    passes = []
    kernel = engine._counts_pass

    def counted(targets, *args):
        passes.append(len(targets))
        return kernel(targets, *args)

    monkeypatch.setattr(engine, "_counts_pass", counted)
    monkeypatch.setattr(engine, "STATE_BUDGET", 2000)  # a few graphs per pass
    assert engine.batch_selection_counts(out0s) == single
    assert len(passes) > 10 and sum(passes) == len(graphs)


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


def test_batch_counts_equal_exact_per_graph():
    for n in (4, 6):
        graphs = [ub_family(6, 1), cycle(6)] if n == 6 else []
        graphs += seeded_graphs(n, 5, 90 + n)
        out0s = np.stack([engine.out_array(g) for g in graphs])
        for name, mech in MECHANISMS.items():
            counts, dens = mech.counts(out0s)
            got = [SelectionDistribution(tuple(c.tolist()), int(d)) for c, d in zip(counts, dens)]
            assert got == [mech.exact(g) for g in graphs], (name, n)
    partial = [PartialNominationGraph((2, None, 1)), PartialNominationGraph((None, 3, 1))]
    out0s = np.stack([engine.out_array(g) for g in partial])
    counts, dens = PERM.counts(out0s)
    assert [tuple(c) for c in counts.tolist()] == [PERM.exact(g).numerators for g in partial]
    with pytest.raises(InputError, match="total"):
        MIX.counts(out0s)


# ---------------------------------------------------------------------------
# the array closed forms against the per-graph oracles

def batch_counts(mech, graphs):
    """mech's batch exact path on graphs of one size, as (counts, den)
    pairs of Python ints."""
    counts, dens = mech.counts(np.stack([engine.out_array(g) for g in graphs]))
    return [(c.tolist(), int(d)) for c, d in zip(counts, dens)]


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
    rows = Mechanism("rows", True, per_graph(lambda g: ([1] * g.n, g.n)), perm_sampler)
    counts, dens = rows.counts(np.array([[1, 0], [1, -1]]))  # a total and a partial graph
    assert counts.tolist() == [[1, 1], [1, 1]] and dens.tolist() == [2, 2]


def test_perm_sample_deterministic_and_consistent():
    assert PERM.sample(TRIANGLE_IN, 42) == PERM.sample(TRIANGLE_IN, 42)
    rng = SeedStream(7)
    draw = perm_sampler(TWO_CYCLE)
    counts = [0, 0]
    draws = 20_000
    for _ in range(draws):
        counts[draw(rng) - 1] += 1
    f = counts[0] / draws
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
    draw = rd_sampler(TRIANGLE_IN)
    rng = SeedStream(3)
    assert all(draw(rng) in (1, 2) for _ in range(200))


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
        partials = [g.remove_out_edge(rng.vertex(n)) for g in totals]
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
    rng = SeedStream(11)
    draw = prug_sampler(STAR4)
    draws = 20_000
    nones = sum(1 for _ in range(draws) if draw(rng) is None)
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
    draw = prug_sampler(random_graph(50, 3))
    rng = SeedStream(7)
    assert [draw(rng) or 0 for _ in range(200)] == PRUG_SAMPLE_PINNED


class OrderingStub:
    """A stream whose permutation is a fixed ordering and whose
    categorical draw records its weights and selects no one."""

    def __init__(self, order):
        self.order = order
        self.weights = []

    def permutation(self, n):
        assert n == len(self.order)
        return Permutation(self.order)

    def categorical(self, weights, total):
        assert total == 8
        self.weights.append(tuple(weights))
        return None


def test_prug_sampler_eighths_match_the_reference_rule_exhaustive():
    # every ordering of every class representative for n <= 6, and of
    # each representative with one edge removed and the edgeless graph
    # for n <= 5: the vector the sampler draws from is prug_q_vector's
    checked = 0
    for n in range(2, 7):
        graphs = [NominationGraph(out) for out, _ in iso_classes(n)]
        if n <= 5:
            graphs += list(dict.fromkeys(one_edge_removed(graphs)))
            graphs.append(PartialNominationGraph((None,) * n))
        for g in graphs:
            draw = prug_sampler(g)
            for order in itertools.permutations(g.vertices):
                stub = OrderingStub(order)
                assert draw(stub) is None
                assert stub.weights == [oracle.prug_q_vector(g, Permutation(order))], (g.out, order)
                checked += 1
    assert checked == 30_518 + 7_122  # (graph, ordering) pairs: total, then partial


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
    draw = prugd_sampler(random_graph(50, 3))
    rng = SeedStream(7)
    assert [draw(rng) for _ in range(200)] == PRUGD_SAMPLE_PINNED


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
    """A stream whose every randrange call returns one fixed value."""

    def __init__(self, value):
        self.value = value
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return self.value


def test_mix_coin_sends_825_of_1049_values_to_perm(monkeypatch):
    monkeypatch.setattr(mechanisms, "perm_sampler", lambda g: lambda rng: "perm")
    monkeypatch.setattr(mechanisms, "prugd_sampler", lambda g: lambda rng: "prugd")
    draw = mechanisms.mix_sampler(ub_family(6, 0))
    picks = Counter()
    for value in range(1049):
        stub = CoinStub(value)
        picks[draw(stub)] += 1
        assert stub.bounds == [1049]
    assert picks == {"perm": 825, "prugd": 224}


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
    draw = mix_sampler(random_graph(50, 3))
    rng = SeedStream(7)
    assert [draw(rng) for _ in range(200)] == MIX_SAMPLE_PINNED


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
        with pytest.raises(InputError):
            MECHANISMS[name].exact(p)
        with pytest.raises(InputError):
            MECHANISMS[name].sample(p, 7)
    assert MECHANISMS["perm"].exact(p).total == 1


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
