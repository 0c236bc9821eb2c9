import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from impartial import engine
from impartial.generators import cycle, lower_bound_family, random_graph, ub_family
from impartial.graphs import (
    CapacityError,
    InputError,
    NominationGraph,
    PartialNominationGraph,
    Permutation,
    SelectionDistribution,
)
from impartial.mechanisms import (
    MECHANISMS,
    dv_wrap_counts,
    get_mechanism,
    perm_run,
    perm_sample,
    prug_p_vector,
    prug_q_vector,
    prug_sample,
    prugd_sample,
    rd_sample,
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
    tr = perm_run(TWO_CYCLE, Permutation((1, 2)))
    assert tr.selected == 2
    assert tr.steps == ((1, 0), (2, 1))  # tie 0 >= 0 fires, then d = 1
    tr = perm_run(TWO_CYCLE, Permutation((2, 1)))
    assert tr.selected == 1


def test_perm_run_three_vertices():
    tr = perm_run(TRIANGLE_IN, Permutation((3, 2, 1)))
    assert tr.selected == 1
    assert tr.steps[-1] == (1, 2)
    assert tr.selected_indegree == 2


def test_perm_run_candidate_indegree_nondecreasing():
    for g in seeded_graphs(6, 20, 11):
        for order in itertools.islice(itertools.permutations(g.vertices), 40):
            steps = perm_run(g, Permutation(order)).steps
            assert all(a[1] <= b[1] for a, b in zip(steps, steps[1:]))


def test_perm_run_matches_scan_oracle_exhaustive():
    for n in (2, 3, 4):
        totals = list(oracle.all_graphs(n))
        for g in totals + list(one_edge_removed(totals)):
            for order in itertools.permutations(g.vertices):
                for ex in (True, False):
                    tr = perm_run(g, Permutation(order), ex)
                    assert tr.selected == oracle.scan_select(g, order, ex), (g.out, order, ex)
                    assert tr.steps[-1][1] == tr.max_left_indegree


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
    g = random_graph(50, 3)
    rng = SeedStream(7)
    assert [perm_sample(g, rng) for _ in range(200)] == PERM_SAMPLE_PINNED


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
    with pytest.raises(CapacityError, match="perm_sample"):
        PERM.exact(cycle(17))


# ---------------------------------------------------------------------------
# the prefix-set DP behind exact perm

def dp_probs(g, exclude_candidate=True):
    counts, runs = engine.selection_counts(engine.out_array(g), exclude_candidate)
    assert runs == math.factorial(g.n)
    return [Fraction(int(c), runs) for c in counts]


def test_selection_dp_matches_oracle_exhaustive():
    for n in (2, 3, 4, 5):
        totals = list(oracle.all_graphs(n))
        # the n - 1 totals that differ only in v's target share one partial
        for g in dict.fromkeys(totals + list(one_edge_removed(totals))):
            for ex in (True, False):
                assert dp_probs(g, ex) == oracle.perm_dist(g, ex), (g.out, ex)


def test_selection_dp_matches_ordering_table():
    for n in (6, 7, 8, 9):
        perms, pos = engine.permutation_table(n)
        for g in seeded_graphs(n, 4, 60 + n):
            for h in (g, g.remove_out_edge(1)):
                out0 = engine.out_array(h)
                for ex in (True, False):
                    sel, d, m = engine.run_selection(out0, perms, pos, ex)
                    counts, runs = engine.selection_counts(out0, ex)
                    assert counts.tolist() == np.bincount(sel, minlength=n).tolist()
                    assert runs == perms.shape[0] == math.factorial(n)
                    assert int((d != m).sum()) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=n), min_size=n, max_size=n
        ).map(lambda out: tuple(None if t == 0 or t == v else t for v, t in enumerate(out, 1)))
    ),
    st.booleans(),
)
def test_selection_dp_property(out, exclude_candidate):
    out0 = engine.out_array(PartialNominationGraph(out))
    perms, pos = engine.permutation_table(len(out))
    sel, _, _ = engine.run_selection(out0, perms, pos, exclude_candidate)
    counts, _ = engine.selection_counts(out0, exclude_candidate)
    assert counts.tolist() == np.bincount(sel, minlength=len(out)).tolist()


def test_perm_sample_deterministic_and_consistent():
    assert PERM.sample(TRIANGLE_IN, 42) == PERM.sample(TRIANGLE_IN, 42)
    rng = SeedStream(7)
    counts = [0, 0]
    draws = 20_000
    for _ in range(draws):
        counts[perm_sample(TWO_CYCLE, rng) - 1] += 1
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
    assert RD.exact(random_graph(n, seed)).is_exact


def test_rd_sample_matches_support():
    g = TRIANGLE_IN
    rng = SeedStream(3)
    assert all(rd_sample(g, rng) in (1, 2) for _ in range(200))


# ---------------------------------------------------------------------------
# plurality with runner-up and gap

# prug_p_vector is in quarters and prug_q_vector in eighths

def test_prug_p_vector_two_cycle():
    p = prug_p_vector(TWO_CYCLE, Permutation((1, 2)))
    assert p == (2, 2)  # 1/2 each


def test_prug_p_vector_star_gap():
    for order in itertools.permutations(STAR4.vertices):
        p = prug_p_vector(STAR4, Permutation(order))
        assert p[0] == 3  # 3/4
        assert sum(p) == 3


def test_prug_p_vector_sum_support():
    allowed = {2, 3, 4, 5}  # 1/2, 3/4, 1, 5/4
    seen = set()
    for g in seeded_graphs(5, 60, 17):
        for order in itertools.permutations(g.vertices):
            seen.add(sum(prug_p_vector(g, Permutation(order))))
    assert seen <= allowed
    assert 5 in seen  # the overshoot case does occur


def test_prug_q_vector_is_distribution():
    for g in seeded_graphs(5, 30, 23):
        for order in itertools.islice(itertools.permutations(g.vertices), 24):
            q = prug_q_vector(g, Permutation(order))
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
    draws = 20_000
    nones = sum(1 for _ in range(draws) if prug_sample(STAR4, rng) is None)
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
    g = random_graph(50, 3)
    rng = SeedStream(7)
    assert [prug_sample(g, rng) or 0 for _ in range(200)] == PRUG_SAMPLE_PINNED


# ---------------------------------------------------------------------------
# default-vertex wrapper

def test_dv_wrap_never_selecting_inner_gives_uniform():
    def nothing(h):
        return [0] * h.n, 1

    counts, den = dv_wrap_counts(nothing, STAR4)
    assert SelectionDistribution.from_counts(counts, den).probs == (Fraction(1, 4),) * 4


def test_dv_wrap_exact_inner_is_plain_average():
    def first_on_board(h):
        # always selects the lowest-index vertex that still has an edge
        v = next(u for u in h.vertices if h.out[u - 1] is not None)
        counts = [0] * h.n
        counts[v - 1] = 1
        return counts, 1

    g = NominationGraph((2, 3, 1))
    counts, den = dv_wrap_counts(first_on_board, g)
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
        assert probs.is_exact


def test_prugd_capacity():
    # prugd is a closed form with no cap; mix keeps perm's scan cap
    assert PRUGD.exact(cycle(9)).probs == (Fraction(1, 9),) * 9
    assert PRUGD.exact(random_graph(30, 41)).is_exact
    with pytest.raises(CapacityError, match="perm_sample"):
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
    g = random_graph(50, 3)
    rng = SeedStream(7)
    assert [prugd_sample(g, rng) for _ in range(200)] == PRUGD_SAMPLE_PINNED


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
    assert blended.is_exact


def test_mix_against_oracle_small():
    for g in oracle.all_graphs(3):
        assert list(MIX.exact(g).probs) == oracle.mix_dist(g)


def test_mix_sample_deterministic():
    g = ub_family(6, 0)
    assert MIX.sample(g, 13) == MIX.sample(g, 13)


# ---------------------------------------------------------------------------
# registry

def test_registry_flags():
    assert MECHANISMS["prug"].always_selects is False
    assert all(
        MECHANISMS[m].always_selects for m in ("perm", "rd", "prugd", "mix")
    )
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
    assert MECHANISMS["perm"].exact(p).is_exact


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
