import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from impartial import analysis, engine
from impartial.analysis import (
    MIX_GUARANTEE,
    PRUGD_DELTA2_GUARANTEE,
    PRUGD_DELTA3_SINGLE_HIGH_GUARANTEE,
    SymmetryError,
    check_impartial,
    correlation_example_graph,
    frac_decimal,
    graph_at,
    graph_count,
    guarantee_rows,
    mix_high_delta_branch,
    perm_alpha,
    prugd_alpha,
    ratio,
    sweep_graphs,
    symmetrize,
    tightness_scan,
    upper_bound,
    verify_negative_correlation,
    verify_upper_bound_chain,
    worst_case,
)
from impartial.generators import (
    cycle,
    lower_bound_family,
    random_graph,
    ub_family,
    ub_family_prime,
)
from impartial.graphs import CapacityError, InputError, NominationGraph
from impartial.mechanisms import MECHANISMS, Mechanism
from impartial.rng import SeedStream


# ---------------------------------------------------------------------------
# closed-form guarantee values

def test_perm_alpha_values():
    assert perm_alpha(1) == 1
    assert perm_alpha(2) == Fraction(2, 3)
    assert perm_alpha(3) == Fraction(2, 3)
    assert perm_alpha(4) == Fraction(7, 10)
    assert perm_alpha(5) == Fraction(7, 10)
    assert perm_alpha(100) == Fraction(302, 404)
    with pytest.raises(InputError):
        perm_alpha(0)


def test_perm_alpha_nondecreasing():
    values = [perm_alpha(d) for d in range(2, 40)]
    assert values == sorted(values)


def test_prugd_alpha_values():
    assert prugd_alpha(2) == Fraction(1, 2) + Fraction(5, 48)
    assert prugd_alpha(3) == Fraction(25, 42)
    assert prugd_alpha(5) == Fraction(1, 2) + Fraction(13, 195)
    assert PRUGD_DELTA2_GUARANTEE == Fraction(65, 96)
    assert PRUGD_DELTA3_SINGLE_HIGH_GUARANTEE == Fraction(13, 18)
    with pytest.raises(InputError):
        prugd_alpha(1)


def test_mix_high_delta_branch():
    assert mix_high_delta_branch(5) == Fraction(7119, 10490)
    # among odd deltas the branch is smallest at 5
    odd = [mix_high_delta_branch(d) for d in range(5, 200, 2)]
    assert min(odd) == odd[0]
    assert all(v > MIX_GUARANTEE for v in odd)


def test_upper_bound_values():
    assert upper_bound(7) == Fraction(76, 105)
    assert upper_bound(6) == Fraction(35, 48)
    values = {n: upper_bound(n) for n in range(6, 201)}
    assert min(values, key=values.get) == 7
    with pytest.raises(InputError):
        upper_bound(5)


def test_guarantee_rows_pinned_values():
    rows = {(r.delta, r.case): r for r in guarantee_rows(15)}
    assert rows[(2, "all")].perm == Fraction(2, 3)
    assert rows[(2, "all")].prugd == Fraction(65, 96)
    assert rows[(2, "all")].mix == Fraction(2105, 3147)
    assert rows[(3, "multi_high")].perm == Fraction(31, 45)
    assert rows[(3, "multi_high")].mix == Fraction(2105, 3147)
    assert rows[(3, "single_high")].prugd == Fraction(13, 18)
    assert rows[(3, "single_high")].mix == Fraction(6406, 9441)
    assert rows[(4, "all")].perm == Fraction(7, 10)
    assert len(rows) == 15  # 2..15 with the delta=3 split


def test_guarantee_table_floor_location():
    rows = guarantee_rows(40)
    floor = min(r.mix for r in rows)
    assert floor == MIX_GUARANTEE
    attained = {(r.delta, r.case) for r in rows if r.mix == floor}
    assert attained == {(2, "all"), (3, "multi_high")}


# ---------------------------------------------------------------------------
# ratio

def test_ratio_uniform_indegree_graph():
    rep = ratio("rd", cycle(6))
    assert rep.ratio == 1 and rep.delta == 1


def test_ratio_prime_member_equals_half_x_plus_one():
    # the scan never selects a zero-indegree vertex, so its ratio on the
    # redirected member is exactly (x1 + 1)/2
    x1 = MECHANISMS["perm"].exact(ub_family(7, 1)).prob_of(2)
    rep = ratio("perm", ub_family_prime(7, 1))
    assert rep.delta == 2
    assert rep.ratio == (x1 + 1) / 2


# ---------------------------------------------------------------------------
# sweeps and worst case

def test_graph_at_matches_enumeration():
    n = 4
    for idx, out in enumerate(analysis.iter_out_tuples(n)):
        assert graph_at(n, idx).out == out
    assert graph_count(4) == 81


def test_worst_case_rd_small_n():
    for n in (2, 3, 4, 5):
        rep = worst_case("rd", n)
        assert rep.min_ratio == Fraction(1, 2) + Fraction(1, n)
        assert rep.witness.max_indegree_and_top()[0] == 2 or n == 2
    assert worst_case("rd", 5).witness.max_indegree_and_top()[0] == 2


def test_worst_case_perm_small_n():
    for n in (4, 5):
        sweep = sweep_graphs(n, ("perm",), scan_orderings=True)
        assert sweep.runs == graph_count(n) * math.factorial(n)
        assert sweep.left_max_violations == 0
        for r, d in zip(sweep.ratios["perm"], sweep.deltas):
            assert r >= perm_alpha(d)
        assert min(sweep.ratios["perm"]) >= Fraction(2, 3)


def test_sweep_low_perm_ratio_structure():
    # graphs where the scan dips under 31/45 have max indegree 2 or 3
    # and a single vertex of indegree >= 2
    sweep = sweep_graphs(5, ("perm",))
    for i, r in enumerate(sweep.ratios["perm"]):
        if r < Fraction(31, 45):
            assert sweep.deltas[i] in (2, 3)
            assert sweep.high2_counts[i] == 1


def test_sweep_perm_floor_with_many_top_vertices():
    # empirical only: with k vertices tied at the maximum indegree the
    # scan's ratio stays at or above k/(k+1)
    for n in (4, 5):
        sweep = sweep_graphs(n, ("perm",))
        for r, k in zip(sweep.ratios["perm"], sweep.top_counts):
            assert r >= Fraction(k, k + 1)


def test_sweep_parallel_matches_serial():
    serial = sweep_graphs(4, ("perm", "rd"), jobs=1, scan_orderings=True)
    parallel = sweep_graphs(4, ("perm", "rd"), jobs=2, scan_orderings=True)
    assert serial.ratios == parallel.ratios
    assert serial.deltas == parallel.deltas
    assert serial.runs == parallel.runs


def test_sweep_budget_guard():
    with pytest.raises(CapacityError):
        worst_case("perm", 8)
    with pytest.raises(CapacityError):
        sweep_graphs(6, ("perm",), budget_rows=1000)
    with pytest.raises(CapacityError):
        sweep_graphs(8, ("prugd",))
    # the prefix-set DP is charged n * 2^n per graph, so perm and mix fit
    # the default budget at n = 7; scanning every ordering (n!) does not
    dp_charge = graph_count(7) * 7 * 2**7
    assert dp_charge <= 300_000_000
    for mech in ("perm", "mix"):
        with pytest.raises(CapacityError, match=f"needs {dp_charge} units"):
            sweep_graphs(7, (mech,), budget_rows=dp_charge - 1)
    with pytest.raises(CapacityError):
        sweep_graphs(7, ("perm",), scan_orderings=True)


def test_sweep_sums_pinned_to_enumerator():
    # sums of every graph's ratio, as computed by the n! enumerator
    expected = {
        5: {"prug": Fraction(2955, 4), "prugd": Fraction(3145, 4), "mix": Fraction(809)},
        6: {
            "prug": Fraction(22449, 2),
            "prugd": Fraction(24583, 2),
            "mix": Fraction(25822217, 2098),
        },
    }
    for n, sums in expected.items():
        sweep = sweep_graphs(n, ("prug", "prugd", "mix"))
        assert {m: sum(sweep.ratios[m]) for m in sums} == sums
        assert sweep.runs == 0


def test_sweep_ratios_equal_mechanism_ratios():
    mechs = ("perm", "rd", "prug", "prugd", "mix")
    sweep = sweep_graphs(4, mechs)
    for idx in range(0, graph_count(4), 7):
        g = graph_at(4, idx)
        for m in mechs:
            assert sweep.ratios[m][idx] == ratio(m, g).ratio, (m, g.out)


# ---------------------------------------------------------------------------
# impartiality checking

def test_all_mechanisms_impartial_exhaustive_n3():
    for name in ("perm", "rd", "prug", "prugd", "mix"):
        rep = check_impartial(name, 3)
        assert rep.passed, rep.counterexample
        assert rep.graphs_checked == 8


def test_naive_scan_variant_fails_impartiality():
    # the scan comparing against the full prefix indegree, without
    # ignoring the current candidate's edge: a negative control
    def naive_counts(g):
        return engine.selection_counts(engine.out_array(g), exclude_candidate=False)

    naive = Mechanism("perm-naive", True, True, naive_counts, lambda g, s: 1)
    rep = check_impartial(naive, 4)
    assert not rep.passed
    w = rep.counterexample
    assert w.prob_before != w.prob_after
    assert w.vertex >= 1 and w.new_target != w.vertex


def test_check_impartial_budget_and_sampled():
    with pytest.raises(CapacityError, match="sampled"):
        check_impartial("rd", 7)
    rep = check_impartial("rd", 7, mode="sampled", seed=5, samples=20)
    assert rep.passed and rep.graphs_checked == 20


def test_rd_impartial_exhaustive_n6():
    rep = check_impartial("rd", 6)
    assert rep.passed and rep.graphs_checked == 5**6


def test_check_impartial_rejects_bad_mode():
    with pytest.raises(InputError):
        check_impartial("rd", 4, mode="partial")


# ---------------------------------------------------------------------------
# symmetrization

def test_perm_and_rd_relabel_invariance_exhaustive():
    # exact_dist(relabel(G, pi))[pi(v)] == exact_dist(G)[v] on the whole
    # class for n <= 5
    from impartial.graphs import Permutation

    for n in (3, 4, 5):
        relabellings = [
            Permutation(seq) for seq in itertools.permutations(range(1, n + 1))
        ]
        for name in ("perm", "rd"):
            dists = {}
            for out in analysis.iter_out_tuples(n):
                dists[out] = MECHANISMS[name].exact(NominationGraph(out)).probs
            for out, base in dists.items():
                g = NominationGraph(out)
                for pi in relabellings:
                    image = dists[g.relabel(pi).out]
                    assert all(
                        image[pi.image_of(v) - 1] == base[v - 1]
                        for v in range(1, n + 1)
                    ), (name, out, pi.seq)


def test_symmetrize_perm_is_already_symmetric():
    for g in itertools.islice(
        (random_graph(4, s) for s in range(40)), 0, None
    ):
        assert symmetrize("perm", g).probs == MECHANISMS["perm"].exact(g).probs


def test_symmetrize_cycle_uniform():
    d = symmetrize("prugd", cycle(5))
    assert d.probs == (Fraction(1, 5),) * 5


def test_symmetrize_preserves_total():
    g = NominationGraph((2, 1, 1, 1, 1))
    assert symmetrize("prug", g).total == MECHANISMS["prug"].exact(g).total


def test_symmetrize_capacity():
    with pytest.raises(CapacityError):
        symmetrize("perm", cycle(7))
    assert symmetrize("perm", cycle(7), cap=7).probs == (Fraction(1, 7),) * 7


def test_symmetrize_output_is_relabel_invariant():
    g = NominationGraph((3, 1, 2, 1))
    base = symmetrize("prugd", g)
    from impartial.graphs import Permutation

    for seq in itertools.permutations(range(1, 5)):
        pi = Permutation(seq)
        image = symmetrize("prugd", g.relabel(pi))
        for v in g.vertices:
            assert image.prob_of(pi.image_of(v)) == base.prob_of(v)


# ---------------------------------------------------------------------------
# correlation check

def test_correlation_example_graph_passes():
    g = correlation_example_graph()
    assert g.max_indegree_and_top() == (3, frozenset({7}), 7)
    rep = verify_negative_correlation(g)
    assert rep.passed and not rep.vacuous
    assert {(c.i, c.j) for c in rep.comparisons} == {
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)
    }


def test_correlation_level_probs_uniform():
    rep = verify_negative_correlation(lower_bound_family(2, 1))
    assert rep.level_probs == (Fraction(1, 3),) * 3
    assert rep.level_probs_ok


def test_correlation_on_seeded_graphs():
    rng = SeedStream(77)
    for _ in range(20):
        rep = verify_negative_correlation(random_graph(6, rng))
        assert rep.passed


def test_correlation_i_range_validation():
    with pytest.raises(InputError):
        verify_negative_correlation(lower_bound_family(2, 1), i_values=[5])


# ---------------------------------------------------------------------------
# upper-bound chain

def test_chain_perm_n6():
    rep = verify_upper_bound_chain("perm", 6)
    assert rep.passed
    assert rep.p[0] == Fraction(1, 6)
    assert rep.p[2] <= Fraction(1, 4)
    assert rep.x == (Fraction(43, 120), Fraction(43, 120))
    assert rep.min_family_ratio == Fraction(163, 240)
    assert rep.bound == Fraction(35, 48)
    assert rep.min_family_ratio <= rep.bound


def test_chain_rd_n6():
    rep = verify_upper_bound_chain("rd", 6)
    assert rep.passed
    assert rep.p[0] == Fraction(1, 6)


def test_chain_rejects_relabelling_sensitive_mechanism():
    def const_first(g):
        return [1] + [0] * (g.n - 1), 1

    fixed = Mechanism("const1", True, False, const_first, lambda g, s: 1)
    with pytest.raises(SymmetryError) as err:
        verify_upper_bound_chain(fixed, 6)
    assert err.value.mechanism == "const1"
    assert err.value.graph.n == 6


def test_chain_requires_n_at_least_6():
    with pytest.raises(InputError):
        verify_upper_bound_chain("perm", 5)


def test_chain_prugd_reverse_averaging_is_relabel_invariant():
    # the two-slot rule breaks ties by position, but averaging over all
    # orderings and their reverses washes the positions out, so the
    # exact wrapped distribution passes the relabelling scan
    rep = verify_upper_bound_chain("prugd", 6)
    assert rep.passed
    assert rep.symmetry_checks == 720 * 7


# ---------------------------------------------------------------------------
# tightness scan

def test_tightness_exact_rows():
    # n' = 4 is n = 11, past the ordering table but within the DP cap
    rep = tightness_scan(2, (1, 2, 3, 4))
    assert [r.ratio for r in rep.rows] == [
        Fraction(43, 60),
        Fraction(29, 42),
        Fraction(49, 72),
        Fraction(223, 330),
    ]
    assert [(r.n, r.kind) for r in rep.rows][3] == (11, "exact")
    assert rep.exact_monotone_ok and rep.exact_above_alpha_ok
    assert rep.alpha == Fraction(2, 3)


def test_tightness_sampled_row():
    rep = tightness_scan(2, (1, 30), samples=20_000, seed=3)
    exact_row, mc_row = rep.rows
    assert exact_row.kind == "exact" and mc_row.kind == "sampled"
    assert mc_row.n == 63 and mc_row.ci_halfwidth > 0
    assert float(mc_row.ratio) + mc_row.ci_halfwidth < 2 / 3 + 0.05
    assert rep.exact_monotone_ok


# ---------------------------------------------------------------------------
# rendering

@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=0, max_value=1))
def test_frac_decimal_roundtrip(f):
    assert abs(float(frac_decimal(f)) - float(f)) <= 1e-12
