import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from impartial import analysis, engine
from impartial.analysis import (
    MIX_GUARANTEE,
    PRUGD_DELTA2_GUARANTEE,
    PRUGD_DELTA3_SINGLE_HIGH_GUARANTEE,
    SymmetryError,
    check_impartial,
    correlation_example_graph,
    guarantee_rows,
    mix_high_delta_branch,
    perm_alpha,
    perm_floor,
    prugd_alpha,
    prugd_floor,
    ratio,
    scan_orderings,
    sweep_graphs,
    tightness_scan,
    upper_bound,
    verify_negative_correlations,
    verify_upper_bound_chain,
    worst_case,
)
from impartial.cli import frac_decimal
from impartial.generators import (
    cycle,
    lower_bound_family,
    random_graph,
    ub_family,
    ub_family_prime,
)
from impartial.graphs import (
    CapacityError,
    InputError,
    NominationGraph,
    SelectionDistribution,
    iso_classes,
    iso_code,
)
from impartial.mechanisms import MECHANISMS, Mechanism, per_graph
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


def test_floors_by_delta_and_high_vertices():
    assert perm_floor(1, 0) == 1
    assert perm_floor(3, 1) == perm_alpha(3) == Fraction(2, 3)
    assert perm_floor(3, 2) == perm_floor(3, 3) == Fraction(31, 45)
    assert perm_floor(4, 2) == perm_alpha(4)
    assert prugd_floor(1, 0) == 1
    assert prugd_floor(2, 1) == prugd_floor(2, 3) == PRUGD_DELTA2_GUARANTEE
    assert prugd_floor(3, 1) == PRUGD_DELTA3_SINGLE_HIGH_GUARANTEE
    assert prugd_floor(3, 2) == prugd_alpha(3)
    assert prugd_floor(5, 1) == prugd_alpha(5)


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

def test_ratio_of_distribution():
    g = NominationGraph((2, 1, 1))
    rep = analysis.ratio_of("any", g, SelectionDistribution((1, 1, 0), 2))
    assert rep.expected_indegree == Fraction(3, 2)
    assert rep.delta == 2 and rep.ratio == Fraction(3, 4)


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

def test_graph_count_matches_enumeration():
    # the reference walk yields each of the (n-1)^n labelled graphs once
    for n in range(2, 6):
        outs = list(oracle.iter_out_tuples(n))
        assert len(outs) == len(set(outs)) == (n - 1) ** n
    assert len(list(oracle.iter_out_tuples(4))) == 81


def test_worst_case_rd_small_n():
    for n in (2, 3, 4, 5):
        rep = worst_case("rd", n)
        assert rep.min_ratio == Fraction(1, 2) + Fraction(1, n)
        assert max(rep.witness.indegrees()) == 2 or n == 2
    assert max(worst_case("rd", 5).witness.indegrees()) == 2


def test_worst_case_perm_small_n():
    for n in (4, 5):
        assert scan_orderings(n) == ((n - 1) ** n, (n - 1) ** n * math.factorial(n), 0)
        sweep = sweep_graphs(n, ("perm",))
        for r, d in zip(sweep.ratios["perm"], sweep.deltas):
            assert r >= perm_alpha(d)
        assert min(sweep.ratios["perm"]) >= Fraction(2, 3)


def _assert_pinned_worst_cases(n, pinned):
    sweep = sweep_graphs(n, tuple(pinned))
    assert sweep.graphs_checked == (n - 1) ** n
    for m, (value, witness) in pinned.items():
        best, idx = sweep.min_ratio(m)
        assert (best, sweep.reps[idx]) == (value, witness), m
        # the witness is a class representative that attains the minimum
        assert ratio(m, sweep.witness(idx)).ratio == value, m


def test_worst_case_perm_n7_pinned():
    # one sweep pins every mechanism's n = 7 worst case and witness
    _assert_pinned_worst_cases(7, {
        "perm": (Fraction(563, 840), (2, 3, 4, 1, 1, 5, 6)),
        "mix": (Fraction(594599, 881160), (2, 3, 4, 5, 1, 1, 6)),
        "prugd": (Fraction(19, 28), (2, 1, 1, 3, 4, 4, 4)),
        "rd": (Fraction(13, 21), (2, 1, 4, 5, 3, 1, 1)),
        "prug": (Fraction(1, 2), (2, 1, 4, 5, 3, 1, 3)),
    })


def test_worst_cases_n8_and_perm_n9_pinned():
    _assert_pinned_worst_cases(8, {
        "perm": (Fraction(6731, 10080), (2, 3, 4, 5, 1, 1, 6, 7)),
        "mix": (Fraction(475261, 704928), (2, 3, 4, 5, 1, 1, 6, 7)),
        "prugd": (Fraction(95, 144), (2, 1, 4, 3, 1, 1, 3, 4)),
        "rd": (Fraction(7, 12), (2, 1, 4, 3, 6, 5, 1, 1)),
        "prug": (Fraction(1, 2), (2, 1, 4, 3, 6, 5, 1, 3)),
    })
    _assert_pinned_worst_cases(9, {"perm": (Fraction(30251, 45360), (2, 3, 4, 5, 1, 1, 6, 7, 8))})


def test_sweep_runs_the_dp_once_per_class(monkeypatch):
    calls = []  # one entry per graph the DP runs on
    kernel = engine.batch_selection_counts

    def counted(out0s):
        calls.extend(map(tuple, out0s.tolist()))
        return kernel(out0s)

    monkeypatch.setattr(engine, "batch_selection_counts", counted)
    built = []

    def build(out):
        built.append(out)
        return NominationGraph(out)

    monkeypatch.setattr(analysis, "NominationGraph", build)
    sweep_graphs(6, ("perm",))
    assert len(calls) == len(set(calls)) == 40  # the isomorphism classes at n = 6
    assert built == []  # the classes go to the exact paths as one array: no graph object is built
    calls.clear()
    sweep_graphs(6, ("perm", "mix"))
    assert len(calls) == 80  # mix runs the DP again inside its blend


def test_dp_passes_stay_within_the_state_budget(monkeypatch):
    passes = []  # (graphs, top, 1 + the largest indegree among them) per DP pass
    kernel = engine._counts_pass

    def counted(targets, inmask, top, *args):
        passes.append((len(targets), top, int(engine.indegrees(targets).max()) + 1))
        return kernel(targets, inmask, top, *args)

    monkeypatch.setattr(engine, "_counts_pass", counted)

    def check(n, most):
        assert 0 < len(passes) <= most, n
        width = math.comb(n, n // 2) * n
        for graphs, top, own in passes:
            assert top == own, n  # each pass indexes d up to its own largest indegree
            assert graphs == 1 or graphs * width * top <= engine.STATE_BUDGET, (n, graphs, top)
        passes.clear()

    # at most the pass counts of the earlier packing, which cut a batch
    # by its largest indegree and regrouped one too big for one pass
    sweep_graphs(9, ("perm",))
    check(9, 284)
    assert check_impartial("perm", 7).passed
    check(7, 139)


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
        for i, (r, d) in enumerate(zip(sweep.ratios["perm"], sweep.deltas)):
            k = sweep.witness(i).indegrees().count(d)
            assert r >= Fraction(k, k + 1)


def test_sweep_parallel_matches_serial():
    serial = sweep_graphs(6, ("perm", "rd"), jobs=1)
    parallel = sweep_graphs(6, ("perm", "rd"), jobs=2)
    assert serial == parallel
    assert scan_orderings(4, jobs=1) == scan_orderings(4, jobs=2)


def test_walk_pool_is_capped_by_windows_and_cpus(monkeypatch):
    # the pool starts no more workers than there are windows or CPUs,
    # whatever jobs asks for; the windows, and so the result, are unchanged
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 64)
    serial = sweep_graphs(6, ("rd",))
    assert sweep_graphs(6, ("rd",), jobs=500) == serial
    assert sizes == [40]  # one window per class at n = 6
    drawn = {"mode": "sampled", "seed": 1, "samples": 20}
    assert check_impartial("rd", 6, jobs=500) == check_impartial("rd", 6)
    assert check_impartial("mix", 6, jobs=500, **drawn) == check_impartial("mix", 6, **drawn)
    assert sizes == [40, 40, 20]  # one window per class, or per drawn graph
    # a failing check reports the same first witness and counts through
    # the pool; the test-local mechanism cannot pickle into a real one
    naive = _naive_perm()
    for (n, sampled), pinned in NAIVE_FIRST_FAILS.items():
        kwargs = {"mode": "sampled", "seed": 0, "samples": 20} if sampled else {}
        rep = check_impartial(naive, n, jobs=500, **kwargs)
        w = rep.counterexample
        assert (w.graph.out, w.vertex, w.new_target, rep.graphs_checked,
                rep.deviations_checked) == pinned
    assert sizes[3:] == [6, 20, 20]
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
    assert scan_orderings(5, jobs=500) == scan_orderings(5)
    assert check_impartial("perm", 5, jobs=500) == check_impartial("perm", 5)
    assert sizes[6:] == [2, 2]
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: None)
    assert sweep_graphs(6, ("rd",), jobs=500) == serial  # one CPU: no pool
    assert check_impartial("rd", 6, jobs=500) == check_impartial("rd", 6)
    assert len(sizes) == 8


def test_sweep_budget_guard(monkeypatch):
    # a sweep is charged per class: n units, plus 2^n for each run of the
    # prefix-set DP (perm, and mix above n = 5); the ordering scan is
    # charged per class as the perm sweep is
    assert analysis.SWEEP_BUDGET == 300_000_000
    assert 18264 * (12 + 2 * 2**12) <= analysis.SWEEP_BUDGET  # perm and mix at CLASS_CAP
    with pytest.raises(CapacityError, match=f"needs {18264 * (12 + 5 * 2**12)} units"):
        sweep_graphs(12, ("perm", "mix", "perm", "mix", "perm"))
    for walk in (lambda: sweep_graphs(30, ("rd",)), lambda: scan_orderings(13)):
        with pytest.raises(CapacityError, match="n <= 12"):
            walk()
    # mix runs the DP only above n = 5, the closed forms never
    monkeypatch.setattr(analysis, "SWEEP_BUDGET", 0)
    for n, mechs, charge in ((5, ("mix", "rd", "prug", "prugd"), 13 * 5),
                             (6, ("mix",), 40 * (6 + 64)),
                             (6, ("perm", "mix"), 40 * (6 + 2 * 64))):
        with pytest.raises(CapacityError, match=f"needs {charge} units"):
            sweep_graphs(n, mechs)
    for n, classes in ((4, 6), (6, 40), (10, 2273)):
        with pytest.raises(CapacityError, match=f"needs {classes * (n + 2**n)} units"):
            scan_orderings(n)
    # the budget is inclusive: a sweep charged exactly the budget runs
    monkeypatch.setattr(analysis, "SWEEP_BUDGET", 40 * (6 + 64))
    assert sweep_graphs(6, ("perm",)).graphs_checked == 5**6
    monkeypatch.setattr(analysis, "SWEEP_BUDGET", 6 * (4 + 2**4))
    assert scan_orderings(4)[1] == 81 * 24
    with pytest.raises(CapacityError):
        sweep_graphs(7, ("perm",))


def test_sweep_sums_pinned_to_enumerator():
    # sums of every labelled graph's ratio, as computed by the n! enumerator
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
        weighted = {m: sum(w * r for w, r in zip(sweep.weights, sweep.ratios[m])) for m in sums}
        assert weighted == sums


def test_sweep_ratios_equal_mechanism_ratios():
    # the sweep evaluates one representative per isomorphism class; every
    # labelled graph's delta, count of vertices of indegree >= 2 and
    # ratios must equal its class row, from its own indegrees and its
    # own uncached evaluation
    mechs = ("perm", "rd", "prug", "prugd", "mix")
    for n in range(2, 6):
        sweep = sweep_graphs(n, mechs)
        row = {iso_code(out): i for i, out in enumerate(sweep.reps)}
        for out in oracle.iter_out_tuples(n):
            g, i = NominationGraph(out), row[iso_code(out)]
            deg = g.indegrees()
            assert sweep.deltas[i] == max(deg), out
            assert sweep.high2_counts[i] == sum(d >= 2 for d in deg), out
            for m in mechs:
                assert sweep.ratios[m][i] == ratio(m, g).ratio, (m, out)


# ---------------------------------------------------------------------------
# impartiality checking

def test_all_mechanisms_impartial_exhaustive_n3():
    for name in ("perm", "rd", "prug", "prugd", "mix"):
        rep = check_impartial(name, 3)
        assert rep.passed, rep.counterexample
        assert rep.graphs_checked == 8


def _naive_perm():
    """The scan comparing against the full prefix indegree, without
    ignoring the current candidate's edge: a negative control."""
    def naive_counts(g):
        nfact = math.factorial(g.n)
        return [int(p * nfact) for p in oracle.perm_dist(g, exclude_candidate=False)], nfact

    return Mechanism("perm-naive", True, per_graph(naive_counts), lambda g, s: 1)


def _labelled_impartial(mech, n):
    """Whether no deviation on any labelled graph of size n changes the
    deviator's own probability, by the reference walk."""
    dist = functools.cache(lambda out: mech.exact(NominationGraph(out)).probs)
    return all(
        dist(out[: v - 1] + (u,) + out[v:])[v - 1] == dist(out)[v - 1]
        for out in oracle.iter_out_tuples(n)
        for v in range(1, n + 1)
        for u in range(1, n + 1)
        if u not in (v, out[v - 1])
    )


def _scan_misses(n, outs, run):
    """Per out tuple of size n, the runs of the scan kernel run over
    every ordering that miss the maximum left indegree."""
    perms = engine.permutation_table(n)
    runs = (run(np.array(out, dtype=np.int16) - 1, perms) for out in outs)
    return [int((d != m).sum()) for _, d, m in runs]


def _labelled_scan_violations(n, run):
    """_scan_misses summed over every labelled graph of size n."""
    return sum(_scan_misses(n, oracle.iter_out_tuples(n), run))


def test_class_walk_matches_the_labelled_walk(monkeypatch):
    # impartiality and the Lemma 3 scan visit one representative per
    # class; they must agree with the labelled walk on pass or fail for
    # every registry mechanism and the negative control, and their
    # weighted counts must equal the labelled ones
    mechs = [MECHANISMS[m] for m in ("perm", "rd", "prug", "prugd", "mix")]
    for n in range(2, 6):
        for mech in mechs + [_naive_perm()]:
            rep = check_impartial(mech, n)
            assert rep.passed == _labelled_impartial(mech, n), (mech.name, n)
            assert rep.passed == (mech.name != "perm-naive" or n == 2), (mech.name, n)
            if rep.passed:
                assert rep.graphs_checked == (n - 1) ** n
                assert rep.deviations_checked == (n - 1) ** n * n * (n - 2)
        assert scan_orderings(n)[2] == _labelled_scan_violations(n, engine.run_selection) == 0
    monkeypatch.setattr(engine, "_left_max_step", oracle.late_takeover_step)
    for n, violations in ((3, 24), (4, 504), (5, 19200)):
        labelled = _labelled_scan_violations(n, oracle.late_takeover_run)
        assert scan_orderings(n)[2] == labelled == violations


def test_left_max_walk_matches_the_explicit_scan_on_every_class(monkeypatch):
    # the walk's misses equal the explicit scan's class by class: 0 for
    # the true rule at n <= 8, and for the late-takeover mutant, whose
    # misses are not 0, the oracle's at n <= 6
    reps = {n: [out for out, _ in iso_classes(n)] for n in range(2, 9)}
    for n in range(2, 9):
        scan = _scan_misses(n, reps[n], engine.run_selection)
        assert engine.left_max_misses(np.array(reps[n]) - 1).tolist() == scan
    monkeypatch.setattr(engine, "_left_max_step", oracle.late_takeover_step)
    totals = []
    for n in range(2, 7):
        scan = _scan_misses(n, reps[n], oracle.late_takeover_run)
        assert engine.left_max_misses(np.array(reps[n]) - 1).tolist() == scan, n
        totals.append(sum(scan))
    assert totals == [2, 6, 32, 220, 3233]


# the naive scan's first failing move in walk order, with the labelled
# counts up to it: (n, sampled) -> (graph, vertex, new target, graphs, deviations)
NAIVE_FIRST_FAILS = {
    (4, False): ((2, 3, 4, 1), 1, 3, 9, 30),
    (4, True): ((2, 4, 1, 1), 1, 3, 1, 1),
    (5, True): ((2, 3, 2, 2, 3), 2, 1, 1, 4),
}


def test_naive_scan_variant_fails_impartiality():
    naive = _naive_perm()
    sampled = {"mode": "sampled", "seed": 0, "samples": 20}
    for n, kwargs in ((4, {}), (4, sampled), (5, sampled)):
        rep = check_impartial(naive, n, **kwargs)
        assert not rep.passed, (n, kwargs)
        w = rep.counterexample
        assert (w.graph.out, w.vertex, w.new_target, rep.graphs_checked,
                rep.deviations_checked) == NAIVE_FIRST_FAILS[n, bool(kwargs)]
        assert w.vertex >= 1 and w.new_target not in (w.vertex, w.graph.out[w.vertex - 1])
        deviated = w.graph.retarget(w.vertex, w.new_target)
        assert w.prob_before == naive.exact(w.graph).prob_of(w.vertex)
        assert w.prob_after == naive.exact(deviated).prob_of(w.vertex)
        assert w.prob_before != w.prob_after


def test_check_impartial_budget_and_sampled():
    # each class is charged its (n-1)^2 evaluations at the sweep's units
    # per graph: perm runs up to n = 10
    assert 2273 * 81 * (10 + 2**10) <= analysis.SWEEP_BUDGET
    # a walk can only be made smaller; a sampled check can also draw fewer
    # graphs, and its message names --samples
    with pytest.raises(CapacityError, match=f"needs {6389 * 100 * (11 + 2**11)} units .*; reduce n$"):
        check_impartial("perm", 11)
    with pytest.raises(CapacityError, match=r"needs 554252400 units .*; reduce n or --samples$"):
        check_impartial("perm", 14, mode="sampled", seed=1)
    assert 100 * 13**2 * (14 + 2**14) == 277_126_200 <= analysis.SWEEP_BUDGET
    assert check_impartial("rd", 7).graphs_checked == 6**7
    rep = check_impartial("rd", 7, mode="sampled", seed=5, samples=20)
    assert rep.passed and rep.graphs_checked == 20


def test_budget_admits_the_perm_sweep_at_12_and_perm_impartiality_at_10(monkeypatch):
    # the perm sweep at n = 12 and perm impartiality at n = 10 pass the
    # budget.  An admitted walk is stopped right after its budget check.
    class Admitted(Exception):
        pass

    charge = analysis._charge

    def checked(*args):
        charge(*args)
        raise Admitted

    monkeypatch.setattr(analysis, "_charge", checked)
    with pytest.raises(Admitted):
        worst_case("perm", 12)
    with pytest.raises(Admitted):
        check_impartial("perm", 10)


def test_rd_impartial_exhaustive_n6():
    rep = check_impartial("rd", 6)
    assert rep.passed and rep.graphs_checked == 5**6


def test_check_impartial_rejects_bad_mode():
    with pytest.raises(InputError):
        check_impartial("rd", 4, mode="partial")


def _half_on_top(half):
    """Counts of half on the top vertex and 0 elsewhere, over 1: a rule
    that is not impartial, unless half is truncated to 0."""

    def counts(g):
        deg = g.indegrees()
        top = deg.index(max(deg)) + 1
        return [half if v == top else 0 for v in g.vertices], 1

    return counts


@pytest.mark.parametrize(
    "counts",
    [
        lambda g: ([1] * g.n, 2),
        lambda g: ([-1] + [1] * (g.n - 1), g.n),
        lambda g: ([0] * (g.n - 1), 1),
        _half_on_top(Fraction(1, 2)),
        _half_on_top(0.5),
    ],
    ids=["sum-past-denominator", "negative-count", "count-missing", "fraction-count",
         "float-count"],
)
def test_verifiers_reject_counts_that_are_no_distribution(counts):
    bad = Mechanism("bad", False, per_graph(counts), lambda g, s: 1)
    with pytest.raises(InputError):
        check_impartial(bad, 4)
    with pytest.raises(InputError):
        verify_upper_bound_chain(bad, 6)
    with pytest.raises(InputError):
        bad.exact(NominationGraph((2, 1, 1, 1)))


@pytest.mark.parametrize(
    "scale",
    [lambda g: 1 + max(g.indegrees()), lambda g: g.out[0]],
    ids=["by-max-indegree", "by-label"],
)
def test_verifiers_compare_across_denominators(scale):
    # rd with a denominator that varies by graph, and in the second case
    # by labelling too: the probabilities are rd's, so both checks pass
    # and the chain reads rd's values
    def scaled_rd(g):
        k = scale(g)
        return [k * d for d in g.indegrees()], k * g.n

    mech = Mechanism("rd-scaled", False, per_graph(scaled_rd), lambda g, s: 1)
    assert check_impartial(mech, 4).passed
    rep, rd = verify_upper_bound_chain(mech, 6), verify_upper_bound_chain("rd", 6)
    assert rep.passed
    assert (rep.p, rep.x, rep.prime_ratios) == (rd.p, rd.x, rd.prime_ratios)


def test_impartiality_witness_carries_the_oracle_fractions():
    # rd everywhere but on the first deviation of the first class
    # representative, where one count moves to the deviator over a
    # doubled denominator: the witness holds the probabilities that the
    # Fraction oracle compares
    out = iso_classes(4)[0][0]
    u = next(u for u in range(2, 5) if u != out[0])
    shifted = (u,) + out[1:]

    def counts(g):
        deg = list(g.indegrees())
        if g.out != shifted:
            return deg, g.n
        nums = [2 * d for d in deg]
        nums[0] += 1
        nums[u - 1] -= 1
        return nums, 2 * g.n

    mech = Mechanism("rd-shifted", False, per_graph(counts), lambda g, s: 1)
    assert not _labelled_impartial(mech, 4)
    rep = check_impartial(mech, 4)
    w = rep.counterexample
    assert (w.graph.out, w.vertex, w.new_target) == (out, 1, u) == ((2, 1, 4, 3), 1, 3)
    assert (rep.graphs_checked, rep.deviations_checked) == (3, 3)
    assert w.prob_before == mech.exact(NominationGraph(out)).probs[0]
    assert w.prob_after == mech.exact(NominationGraph(shifted)).probs[0] != w.prob_before


# ---------------------------------------------------------------------------
# relabelling invariance

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
            for out in oracle.iter_out_tuples(n):
                dists[out] = MECHANISMS[name].exact(NominationGraph(out)).probs
            for out, base in dists.items():
                g = NominationGraph(out)
                for pi in relabellings:
                    image = dists[g.relabel(pi).out]
                    assert all(
                        image[pi.seq[v - 1] - 1] == base[v - 1]
                        for v in range(1, n + 1)
                    ), (name, out, pi.seq)


# ---------------------------------------------------------------------------
# correlation check

def test_correlation_example_graph_passes():
    g = correlation_example_graph()
    assert g.indegrees() == (1, 0, 2, 1, 0, 0, 3)
    rep = verify_negative_correlations([g])[0]
    assert rep.passed and not rep.vacuous and rep.vstar == 7
    assert {(c.i, c.j) for c in rep.comparisons} == {
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)
    }


def test_correlation_level_probs_uniform():
    rep = verify_negative_correlations([lower_bound_family(2, 1)])[0]
    assert rep.level_probs == (Fraction(1, 3),) * 3
    assert rep.level_probs_ok


def test_correlation_on_seeded_graphs():
    rng = SeedStream(77)
    for _ in range(20):
        rep = verify_negative_correlations([random_graph(6, rng)])[0]
        assert rep.passed


def test_correlation_matches_the_position_oracle_on_every_class():
    # the check sums over prefix sets; the oracle reads each ordering's
    # own positions.  Each class also goes in with vertex 1's edge removed.
    for n in range(3, 7):
        classes = [NominationGraph(out) for out, _ in iso_classes(n)]
        for g in classes + [g.remove_out_edge(1) for g in classes]:
            out = g.out
            rep = verify_negative_correlations([g])[0]
            hist = oracle.correlation_histogram(g, rep.vstar)
            levels = [sum(k for (a, _), k in hist.items() if a == j) for j in range(rep.delta + 1)]
            assert rep.level_probs == tuple(Fraction(k, math.factorial(n)) for k in levels), out

            def given_a(j, i):
                return Fraction(sum(k for (a, m), k in hist.items() if a == j and m >= i), levels[j])

            pairs = [(i, j) for i in range(1, rep.delta + 1) for j in range(i)]
            assert [(c.i, c.j) for c in rep.comparisons] == pairs and not rep.vacuous, out
            for c in rep.comparisons:
                assert (c.given_aj, c.given_ai) == (given_a(c.j, c.i), given_a(c.i, c.i)), (out, c)


def table_histogram(g, vstar, levels):
    """The (levels, levels) joint histogram of (a, m) read off the
    ordering table, the reference for engine.correlation_histograms.
    Row r of the table read as positions is the inverse of ordering r,
    and the inverses are again all n! orderings."""
    c = engine.left_indegree_matrix(engine.out_array(g), engine.permutation_table(g.n))
    a = c[:, vstar - 1].copy()
    c[:, vstar - 1] = -1
    m = c.max(axis=1)
    return np.bincount(a * levels + m, minlength=levels * levels).reshape(levels, levels)


def correlation_batch(n, count, seed):
    """count seeded graphs, then the first two again with a seeded edge
    removed, and a seeded v* for each (any vertex will do)."""
    rng = SeedStream(seed)
    graphs = [random_graph(n, rng) for _ in range(count)]
    graphs += [g.remove_out_edge(rng.randrange(n) + 1) for g in graphs[:2]]
    return graphs, [rng.randrange(n) + 1 for _ in graphs]


def dp_histograms(graphs, vstars):
    out0s = np.stack([engine.out_array(g) for g in graphs])
    hists = engine.correlation_histograms(out0s, np.array(vstars) - 1)
    assert hists.dtype == np.int64
    top = int(engine.indegrees(out0s).max()) + 1
    assert hists.shape == (len(graphs), top, top)
    return hists


@pytest.mark.parametrize("n, count", [(7, 12), (8, 6), (9, 3), (10, 1)])
def test_correlation_dp_matches_the_ordering_table(n, count):
    graphs, vstars = correlation_batch(n, count, 300 + n)
    hists = dp_histograms(graphs, vstars)
    for g, v, hist in zip(graphs, vstars, hists):
        assert np.array_equal(hist, table_histogram(g, v, hists.shape[1])), (g.out, v)


def test_correlation_dp_mutant_fails_the_table_check(monkeypatch):
    # a step where v*'s own arrival also raises m, the others' maximum
    def mutant(vstars, top, g, z, v, full):
        # the walk's expansions are (n - k, states): per-state arrays
        # broadcast along the last axis
        m = z % top
        mine = v == vstars.take(g)
        return np.where(mine, full * top + np.maximum(m, full), np.maximum(z, z - m + full))

    monkeypatch.setattr(engine, "_correlation_step", mutant)
    graphs, vstars = correlation_batch(7, 4, 307)
    hists = dp_histograms(graphs, vstars)
    assert not all(np.array_equal(hist, table_histogram(g, v, hists.shape[1]))
                   for g, v, hist in zip(graphs, vstars, hists))


def test_correlation_batch_of_mixed_sizes():
    # the CLI puts the n = 7 example graph before graphs of its --n
    rng = SeedStream(31)
    graphs = [correlation_example_graph(), random_graph(5, rng),
              random_graph(7, rng).remove_out_edge(2), random_graph(5, rng), random_graph(8, rng)]
    reps = verify_negative_correlations(graphs)
    assert [rep.graph for rep in reps] == graphs
    for g, rep in zip(graphs, reps):
        hist = table_histogram(g, rep.vstar, rep.delta + 1).tolist()

        def given_a(j, i):
            return Fraction(sum(hist[j][i:]), sum(hist[j]))

        assert [(c.given_aj, c.given_ai) for c in rep.comparisons] == [
            (given_a(c.j, c.i), given_a(c.i, c.i)) for c in rep.comparisons
        ], g.out


def test_correlation_dp_pinned_at_the_cap():
    # random_graph(16, SeedStream(320)) and v* = 12, the stream's next
    # vertex; the histogram pinned from the DP before its expansions
    # were stored slot-major
    g = NominationGraph((9, 10, 12, 2, 9, 10, 6, 2, 7, 5, 2, 13, 9, 12, 13, 13))
    hist = engine.correlation_histograms(engine.out_array(g)[None], np.array([11]))
    assert hist.tolist() == [[
        [0, 317316679680, 2214313221120, 4442633395200],
        [0, 409845596160, 2316897623040, 4247520076800],
        [0, 514920806400, 2633184153600, 3826158336000],
        [0, 0, 0, 0],
    ]]


# ---------------------------------------------------------------------------
# upper-bound chain

def test_unique_counts_match_every_row():
    # seeded batches with repeated rows and absent edges (-1 entries)
    rng = SeedStream(41)
    for n in (5, 6):
        graphs = [random_graph(n, rng) for _ in range(30)]
        graphs += [g.remove_out_edge(rng.randrange(n) + 1) for g in graphs[:10]]
        outs = np.stack([engine.out_array(g) for g in graphs])
        picks = [rng.randrange(len(outs)) for _ in range(200)]
        for name, mech in MECHANISMS.items():
            # rows 30 on are partial: a mechanism defined only on total
            # graphs gets a total row in their place
            rows = outs[picks if mech.accepts_partial else [p % 30 for p in picks]]
            counts, den, index = analysis._unique_counts(mech, rows)
            assert len(counts) == len(np.unique(rows, axis=0)), (n, name)
            expected, expected_den = mech.counts(rows)
            assert den == expected_den and np.array_equal(counts[index], expected), (n, name)


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

    fixed = Mechanism("const1", False, per_graph(const_first), lambda g, s: 1)
    with pytest.raises(SymmetryError) as err:
        verify_upper_bound_chain(fixed, 6)
    assert err.value.mechanism == "const1"
    # the first mismatch in (family graph, relabelling, vertex) order
    assert err.value.graph.out == (2, 1, 2, 3, 4, 5)
    assert err.value.relabelling.seq == (2, 1, 3, 4, 5, 6)
    assert err.value.vertex == 1


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
