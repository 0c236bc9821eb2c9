import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from impartial.generators import (
    _FAMILY_ALIASES,
    FamilySpec,
    cycle,
    lower_bound_family,
    random_graph,
    required_nprime,
    two_cycle_path,
    ub_family,
    ub_family_prime,
)
from impartial.graphs import InputError, NominationGraph, Permutation
from impartial.rng import SeedStream


def test_cycle_small():
    assert cycle(2).out == (2, 1)
    assert cycle(10).indegrees() == (1,) * 10
    with pytest.raises(InputError):
        cycle(1)


def test_cycle_seven_edges():
    assert set(enumerate(cycle(7).out, start=1)) == {
        (1, 7), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (7, 6)
    }


def test_two_cycle_path():
    g = two_cycle_path(7)
    assert g.indegrees() == (1,) * 7
    assert set(enumerate(g.out, start=1)) == {
        (1, 2), (2, 1), (3, 7), (4, 3), (5, 4), (6, 5), (7, 6)
    }
    g4 = two_cycle_path(4)
    assert set(enumerate(g4.out, start=1)) == {(1, 2), (2, 1), (3, 4), (4, 3)}
    with pytest.raises(InputError):
        two_cycle_path(3)


def test_ub_family_member_zero():
    g0 = ub_family(7, 0)
    # 2-cycle on {1,2} plus the path 7 -> 6 -> 5 -> 4 -> 3 -> 2
    assert set(enumerate(g0.out, start=1)) == {
        (1, 2), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (7, 6)
    }


def test_ub_family_member_one():
    g1 = ub_family(7, 1)
    assert set(enumerate(g1.out, start=1)) == {
        (1, 2), (2, 1), (3, 1), (4, 2), (5, 4), (6, 5), (7, 6)
    }


def test_ub_family_two_cycle_edge_always_present():
    for n in (6, 7, 8):
        for i in range(1, n // 2):
            assert ub_family(n, i).out[2 - 1] == 1


def test_ub_family_degree_of_two():
    for n in (6, 7, 8):
        for i in range(1, n // 2):
            g = ub_family(n, i)
            assert g.indegrees()[2 - 1] == 2
            assert g.indegree_from(2, {1, i + 3}) == 2


def test_ub_family_range_checks():
    with pytest.raises(InputError):
        ub_family(5, 0)
    with pytest.raises(InputError):
        ub_family(7, 3)


def test_ub_family_prime():
    g = ub_family_prime(7, 1)
    base = ub_family(7, 1)
    assert g.out == base.retarget(2, 7).out
    delta, top, vstar = g.max_indegree_and_top()
    assert (delta, top, vstar) == (2, frozenset({2}), 2)
    g2 = ub_family_prime(7, 2)
    assert g2.max_indegree_and_top()[1] == frozenset({2})
    with pytest.raises(InputError):
        ub_family_prime(7, 0)


def test_ub_family_neighbor_relabelling_identity():
    # dropping vertex 2's edge from member i and vertex 1's from member
    # i+1 leaves graphs related by an explicit relabelling
    for n in (6, 7, 8):
        nprime = n // 2 - 1
        for i in range(nprime):
            seq = list(range(1, n + 1))
            seq[1 - 1] = 3
            seq[2 - 1] = 1
            for v in range(3, i + 3):
                seq[v - 1] = v + 1
            seq[i + 3 - 1] = 2
            pi = Permutation(tuple(seq))
            left = ub_family(n, i).remove_out_edge(2).relabel(pi)
            right = ub_family(n, i + 1).remove_out_edge(1)
            assert left.out == right.out, (n, i)


def test_lower_bound_family_figure_wiring():
    g = lower_bound_family(4, 2)
    assert g.n == 11
    assert g.out == (6, 8, 10, 1, 1, 1, 1, 2, 2, 3, 3)


def test_lower_bound_family_small():
    g = lower_bound_family(2, 1)
    assert g.n == 5
    assert g.indegrees()[:2] == (2, 1)
    assert sorted(g.indegrees()) == [0, 1, 1, 1, 2]


def test_lower_bound_family_profile():
    for delta in range(2, 7):
        half = delta // 2
        for nprime in range(1, 5):
            g = lower_bound_family(delta, nprime)
            assert g.n == delta + 1 + nprime * (half + 1)
            degs = g.indegrees()
            assert degs[0] == delta
            assert all(degs[v - 1] == half for v in range(2, nprime + 2))
            assert all(d <= 1 for d in degs[nprime + 1 :])
    with pytest.raises(InputError):
        lower_bound_family(1, 3)
    with pytest.raises(InputError):
        lower_bound_family(3, 0)


def test_required_nprime_values():
    assert required_nprime(4, 0.1) == 14
    assert required_nprime(2, Fraction(1, 10)) == 7
    assert required_nprime(2, 0.9) == 1  # one block already beats eps


def test_required_nprime_monotone_in_eps():
    values = [required_nprime(3, Fraction(1, k)) for k in (4, 8, 16, 64, 256)]
    assert values == sorted(values)
    assert required_nprime(3, Fraction(1, 4)) <= required_nprime(3, Fraction(1, 8))


def test_required_nprime_strictness():
    # the returned count must strictly beat the escape-probability target
    delta, eps = 4, Fraction(1, 10)
    m = required_nprime(delta, eps)
    half = delta // 2
    a = Fraction((delta - half) * (half + 1), delta + 1)
    shrink = Fraction(2 * half + 1, 2 * half + 2)
    assert a * shrink**m < eps
    assert not a * shrink ** (m - 1) < eps


def test_required_nprime_errors():
    with pytest.raises(InputError):
        required_nprime(4, 0)
    with pytest.raises(InputError):
        required_nprime(4, 1)
    with pytest.raises(InputError):
        required_nprime(1, 0.1)


def test_random_graph_deterministic():
    assert random_graph(9, 123).out == random_graph(9, 123).out
    assert random_graph(9, 123).out != random_graph(9, 124).out


def test_random_graph_n2():
    for seed in range(10):
        assert random_graph(2, seed).out == (2, 1)


def test_random_graph_indegree_mean():
    # indegree of a fixed vertex is Binomial(n-1, 1/(n-1)): mean 1
    n, draws = 8, 10_000
    rng = SeedStream(2024)
    total = sum(random_graph(n, rng).indegrees()[0] for _ in range(draws))
    var = (n - 1) * (1 / (n - 1)) * (1 - 1 / (n - 1))
    assert abs(total / draws - 1.0) < 3 * math.sqrt(var / draws)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32))
def test_random_graph_always_valid(n, seed):
    g = random_graph(n, seed)
    assert isinstance(g, NominationGraph) and g.n == n


def test_family_spec_parse_and_build():
    cases = {  # alias: (parameters, the graph they build)
        "cycle": ("n=7", cycle(7)),
        "two_cycle_path": ("n=6", two_cycle_path(6)),
        "c2n": ("n=5", two_cycle_path(5)),
        "ub": ("n=7 i=0", ub_family(7, 0)),
        "ub_family": ("n=8,i=2", ub_family(8, 2)),
        "ub_prime": ("n=7,i=1", ub_family_prime(7, 1)),
        "ub_family_prime": ("n=8,i=3", ub_family_prime(8, 3)),
        "lb": ("delta=4,nprime=2", lower_bound_family(4, 2)),
        "lower_bound": ("delta=3,nprime=1", lower_bound_family(3, 1)),
        "random": ("n=6,seed=5", random_graph(6, 5)),
    }
    assert set(cases) == set(_FAMILY_ALIASES)
    for alias, (params, graph) in cases.items():
        assert FamilySpec.parse(f"family={alias} {params}").build() == graph, alias


def test_family_spec_errors():
    with pytest.raises(InputError):
        FamilySpec.parse("family=nope,n=3")
    with pytest.raises(InputError):
        FamilySpec.parse("n=3")
    with pytest.raises(InputError):
        FamilySpec.parse("family=cycle")
    with pytest.raises(InputError, match=r"family 'cycle' takes parameters \('n',\); missing \[\], unexpected \['i'\]"):
        FamilySpec.parse("family=cycle,n=7,i=1")
    with pytest.raises(InputError):
        FamilySpec.parse("family=cycle,n=x")
    with pytest.raises(InputError, match="n= given more than once"):
        FamilySpec.parse("family=cycle n=7 n=3")
    with pytest.raises(InputError, match="family= given more than once"):
        FamilySpec.parse("family=cycle,family=ub,n=7,i=0")
