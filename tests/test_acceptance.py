"""Acceptance suite: every numbered criterion as one test, each printing
a pass line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The exhaustive sweeps are shared session fixtures; all comparisons
against closed-form guarantees are exact rational comparisons with zero
tolerance unless a criterion explicitly states a Monte Carlo margin.
"""
import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest

import _oracles as oracle
from impartial import engine
from impartial.analysis import (
    MIX_GUARANTEE,
    SymmetryError,
    check_impartial,
    correlation_example_graph,
    perm_alpha,
    scan_orderings,
    sweep_graphs,
    tightness_scan,
    upper_bound,
    verify_negative_correlations,
    verify_upper_bound_chain,
)
from impartial.cli import main as cli_main
from impartial.generators import lower_bound_family, random_graph
from impartial.graphs import Permutation
from impartial.mechanisms import MECHANISMS, Mechanism, per_graph
from impartial.rng import SeedStream

ALL_MECHS = ("perm", "rd", "prug", "prugd", "mix")


def note(num, msg):
    print(f"[acceptance] criterion {num}: PASS — {msg}")


@pytest.fixture(scope="session")
def small_sweeps():
    return {n: sweep_graphs(n, ("perm", "rd", "mix")) for n in (2, 3, 4, 5)}


@pytest.fixture(scope="session")
def sweep6():
    return sweep_graphs(6, ("perm", "prugd", "mix"))


def test_criterion_01_impartiality_exhaustive():
    for n in range(2, 8):
        for name in ALL_MECHS:
            rep = check_impartial(name, n)
            assert rep.passed, (name, n, rep.counterexample)
            assert rep.graphs_checked == (n - 1) ** n
    note(1, "all five mechanisms impartial on every graph and deviation, n in 2..7 "
            "(mix is rd to n = 5 and the perm/prugd blend from n = 6)")


def test_criterion_02_perm_floor_on_g6(sweep6):
    floors = {d: perm_alpha(d) for d in range(1, 6)}
    for r, d in zip(sweep6.ratios["perm"], sweep6.deltas):
        assert r >= floors[d]
    assert sweep6.graphs_checked == 5**6
    note(2, "perm ratio >= alpha(max indegree) on all 15625 graphs at n=6, exact")


def test_low_perm_ratio_structure_at_n6(sweep6):
    # supporting invariant for criteria 2/6: every n=6 graph where the
    # scan dips under 31/45 has max indegree 2 or 3 and exactly one
    # vertex of indegree >= 2
    hits = 0
    for i, r in enumerate(sweep6.ratios["perm"]):
        if r < Fraction(31, 45):
            hits += 1
            assert sweep6.deltas[i] in (2, 3)
            assert sweep6.high2_counts[i] == 1
    assert hits > 0


def test_criterion_03_perm_global_minimum(small_sweeps, sweep6):
    minima = [min(sw.ratios["perm"]) for sw in small_sweeps.values()]
    minima.append(min(sweep6.ratios["perm"]))
    overall = min(minima)
    assert overall >= Fraction(2, 3)
    note(3, f"global perm minimum over n<=6 is {overall} >= 2/3")


def test_criterion_04_tightness_trend():
    rep = tightness_scan(2, (1, 2, 3, 30), samples=1_000_000, seed=2024)
    exact = [r for r in rep.rows if r.kind == "exact"]
    assert [r.nprime for r in exact] == [1, 2, 3]
    assert rep.exact_monotone_ok and rep.exact_above_alpha_ok
    assert [r.ratio for r in exact] == [
        Fraction(43, 60),
        Fraction(29, 42),
        Fraction(49, 72),
    ]
    mc = rep.rows[-1]
    assert mc.kind == "sampled" and mc.samples == 1_000_000
    assert float(mc.ratio) + mc.ci_halfwidth < 2 / 3 + 0.05
    note(
        4,
        f"exact ratios strictly decrease toward 2/3; Monte Carlo at n'=30 gives "
        f"{float(mc.ratio):.4f} ± {mc.ci_halfwidth:.4f} < 2/3 + 0.05",
    )


def test_criterion_05_rd_worst_case(small_sweeps):
    for n, sw in small_sweeps.items():
        best = min(sw.ratios["rd"])
        assert best == Fraction(1, 2) + Fraction(1, n)
        if n >= 3:
            witness_deltas = {
                sw.deltas[i] for i, r in enumerate(sw.ratios["rd"]) if r == best
            }
            assert 2 in witness_deltas
    note(5, "rd minimum equals 1/2 + 1/n for n in 2..5, attained at max indegree 2")


def test_criterion_06_prugd_structured_floors(sweep6):
    d2 = d3 = 0
    for r, d, h in zip(sweep6.ratios["prugd"], sweep6.deltas, sweep6.high2_counts):
        if d == 2:
            assert r >= Fraction(65, 96)
            d2 += 1
        if d == 3 and h == 1:
            assert r >= Fraction(13, 18)
            d3 += 1
    assert d2 and d3
    note(6, f"prugd >= 65/96 on {d2} max-indegree-2 graphs and >= 13/18 on {d3} single-high graphs")


def test_criterion_07_mix_floors(small_sweeps, sweep6):
    assert all(r >= MIX_GUARANTEE for r in sweep6.ratios["mix"])
    for n, sw in small_sweeps.items():
        assert min(sw.ratios["mix"]) >= Fraction(7, 10)
    note(7, f"mix >= 2105/3147 on all of n=6 and >= 7/10 for n <= 5")


def test_criterion_08_upper_bound_formula():
    assert upper_bound(7) == Fraction(76, 105)
    assert upper_bound(6) == Fraction(35, 48)
    values = {n: upper_bound(n) for n in range(6, 201)}
    assert min(values, key=values.get) == 7
    note(8, "ceiling formula gives 76/105 at n=7, 35/48 at n=6, minimized at n=7")


def test_criterion_09a_chain_passes_for_perm():
    rep = verify_upper_bound_chain("perm", 6)
    assert rep.passed
    assert rep.min_family_ratio <= Fraction(35, 48)
    note(9, f"perm passes the n=6 constraint chain; family minimum {rep.min_family_ratio} <= 35/48")


def test_criterion_09b_chain_rejects_prugd():
    # The relabelling scan must reject prugd when its two-slot rule breaks
    # ties by a fixed label order.  The shipped prugd gives no witness: its
    # inner prug counts sum the single-ordering weights over all n!
    # orderings, and relabelling a graph by sigma maps each ordering pi to
    # sigma o pi, a bijection on orderings, so dist(sigma g)[sigma(v)] ==
    # dist(g)[v] on every graph (test_analysis checks the chain passes it).
    # Pinning the ordering to the vertex labels is the position-based
    # tie-break the scan exists to catch.
    def label_order_prug_counts(g):
        return list(oracle.prug_q_vector(g, Permutation(tuple(g.vertices)))), 8  # in eighths

    label_order = Mechanism(  # the chain never samples
        "prugd", False, per_graph(lambda g: oracle.dv_wrap_counts(label_order_prug_counts, g)),
        lambda g: lambda rng: 1,
    )
    with pytest.raises(SymmetryError) as err:
        verify_upper_bound_chain(label_order, 6)
    graph, relabelling, v = err.value.graph, err.value.relabelling, err.value.vertex
    # the first mismatch in (family graph, relabelling, vertex) order
    assert (graph.out, relabelling.seq, v) == ((2, 1, 2, 3, 4, 5), (1, 2, 3, 5, 4, 6), 1)
    relabelled, image = graph.relabel(relabelling), relabelling.seq[v - 1]
    before = label_order.exact(graph).prob_of(v)
    after = label_order.exact(relabelled).prob_of(image)
    assert after != before
    shipped = MECHANISMS["prugd"]
    assert shipped.exact(relabelled).prob_of(image) == shipped.exact(graph).prob_of(v)
    note(
        9,
        f"chain rejected label-order prugd on {graph.out} relabelled by "
        f"{relabelling.seq} (vertex {v}: {before} vs {after}); shipped prugd "
        "agrees on that pair",
    )


def test_criterion_10_left_max_invariant(monkeypatch):
    # count the orderings the walk covers, n! per class representative
    # it is handed, not the labelled runs they stand for
    covered = []
    walk = engine.left_max_misses

    def counted(out0s):
        covered.append(out0s.shape[0] * math.factorial(out0s.shape[1]))
        return walk(out0s)

    monkeypatch.setattr(engine, "left_max_misses", counted)
    violations = sum(scan_orderings(n)[2] for n in range(2, 9))
    runs = sum(covered)
    assert runs >= 10_000_000
    assert violations == 0
    note(10, f"{runs} orderings of the class representatives for n in 2..8 "
             "covered by the prefix-set walk, zero missed the maximum left indegree")


def test_criterion_11_correlation_checks():
    rep = verify_negative_correlations([correlation_example_graph()])[0]
    assert rep.passed and not rep.vacuous
    rng = SeedStream(7_2024).split("acceptance-correlation")
    for _ in range(200):
        rep = verify_negative_correlations([random_graph(7, rng)])[0]
        assert rep.passed, rep.graph.out
        assert rep.level_probs_ok
    note(11, "correlation inequalities hold on the example graph and 200 seeded graphs at n=7")


def test_criterion_12_sampler_exact_agreement():
    g = lower_bound_family(2, 1)  # n = 5
    draws = 100_000

    def run(name, seed):
        counts = np.bincount(MECHANISMS[name].sampler(g)(SeedStream(seed), draws), minlength=g.n + 1)
        return [*counts[1:].tolist(), int(counts[0])]  # last slot counts "no selection"

    for name in ALL_MECHS:
        mech = MECHANISMS[name]
        dist = mech.exact(g)
        counts = run(name, seed=424242)
        assert counts == run(name, seed=424242)  # bit-identical rerun
        targets = [*dist.probs, 1 - dist.total]
        for slot, p in enumerate(targets):
            f = counts[slot] / draws
            if p == 0:
                assert counts[slot] == 0
                continue
            sigma = math.sqrt(float(p) * (1 - float(p)) / draws)
            assert abs(f - float(p)) <= 3 * sigma, (name, slot, f, float(p))
    note(12, f"five samplers match exact probabilities within 3 sigma over {draws} seeded draws")


def test_criterion_13_figure3_columns(capsys):
    assert cli_main(["figure3", "--delta-max", "15"]) == 0
    out = capsys.readouterr().out
    rows = {(r[0], r[1]): r for r in list(csv.reader(io.StringIO(out)))[1:]}

    w_perm, w_prugd = Fraction(825, 1049), Fraction(224, 1049)

    def fr(text):
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))

    def alpha_perm(d):
        if d % 2 == 1:
            d -= 1
        return Fraction(3 * d + 2, 4 * d + 4)

    def alpha_prugd(d):
        return Fraction(1, 2) + Fraction(7 * d - 9, 6 * d * (3 * d - 2))

    assert fr(rows[("2", "all")][4]) == Fraction(2105, 3147)
    assert fr(rows[("2", "all")][3]) == Fraction(65, 96)
    assert fr(rows[("3", "single_high")][4]) == Fraction(6406, 9441)
    for d in range(2, 16):
        if d == 2:
            cases = {("2", "all"): (Fraction(2, 3), Fraction(65, 96))}
        elif d == 3:
            cases = {
                ("3", "multi_high"): (Fraction(31, 45), alpha_prugd(3)),
                ("3", "single_high"): (Fraction(2, 3), Fraction(13, 18)),
            }
        else:
            cases = {(str(d), "all"): (alpha_perm(d), alpha_prugd(d))}
        for key, (p, q) in cases.items():
            row = rows[key]
            assert fr(row[2]) == p and fr(row[3]) == q
            assert fr(row[4]) == w_perm * p + w_prugd * q
    note(13, "guarantee table reproduces every closed-form column for delta 2..15, exact")
