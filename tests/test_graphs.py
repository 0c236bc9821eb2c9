import itertools
from collections import Counter

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from _oracles import iter_out_tuples
from impartial.generators import cycle, lower_bound_family, two_cycle_path, ub_family
from impartial.graphs import (
    CLASS_CAP,
    CapacityError,
    InputError,
    NominationGraph,
    PartialNominationGraph,
    Permutation,
    SelectionDistribution,
    graph_from_text,
    graph_to_text,
    graphs_from_text,
    iso_classes,
    iso_code,
)


def random_graphs(n):
    choices = st.integers(min_value=1, max_value=n - 1)
    return st.lists(choices, min_size=n, max_size=n).map(
        lambda ks: NominationGraph(
            tuple(k if k < v else k + 1 for v, k in enumerate(ks, start=1))
        )
    )


def random_partial_graphs(n):
    """Graphs with any edges missing; a draw with none missing is total."""
    choices = st.one_of(st.none(), st.integers(min_value=1, max_value=n - 1))

    def build(ks):
        out = tuple(k if k is None or k < v else k + 1 for v, k in enumerate(ks, start=1))
        return (PartialNominationGraph if None in out else NominationGraph)(out)

    return st.lists(choices, min_size=n, max_size=n).map(build)


def permutations_of(n):
    return st.permutations(list(range(1, n + 1))).map(lambda s: Permutation(tuple(s)))


def prefix_set(pi, v):
    """Vertices strictly to the left of v in the ordering pi."""
    return frozenset(pi.seq[: pi.seq.index(v)])


# ---------------------------------------------------------------------------
# construction and validation

def test_rejects_self_loops():
    with pytest.raises(InputError):
        NominationGraph((1, 1))
    with pytest.raises(InputError):
        PartialNominationGraph((None, 2))


def test_rejects_small_and_out_of_range():
    with pytest.raises(InputError):
        NominationGraph((1,))
    with pytest.raises(InputError):
        NominationGraph((2, 3))
    with pytest.raises(InputError):
        NominationGraph((2, 0))


def test_total_graph_embeds_as_partial():
    # a total graph is a partial graph with every edge present
    g = NominationGraph((2, 1, 1))
    p = PartialNominationGraph(g.out)
    assert isinstance(g, PartialNominationGraph) and None not in g.out
    assert g != p and p != g  # the dataclass equality compares classes
    pi = Permutation((2, 3, 1))
    assert type(g.relabel(pi)) is NominationGraph
    assert type(p.relabel(pi)) is PartialNominationGraph
    assert g.relabel(pi).out == p.relabel(pi).out
    assert type(g.remove_out_edge(3)) is PartialNominationGraph
    with pytest.raises(InputError, match="target None of vertex 2"):
        NominationGraph((2, None))


# ---------------------------------------------------------------------------
# indegree queries

def test_indegree_two_cycle():
    assert NominationGraph((2, 1)).indegrees() == (1, 1)


def test_indegree_family_member():
    g0 = ub_family(7, 0)
    assert g0.indegrees()[2 - 1] == 2


def test_indegree_block_family_top():
    g = lower_bound_family(4, 2)
    assert g.indegrees()[1 - 1] == 4


def test_indegree_range_check():
    g = NominationGraph((2, 1))
    with pytest.raises(InputError):
        g.indegree_from(3, ())
    with pytest.raises(InputError):
        g.indegree_from(2, (0,))


def test_indegree_from():
    g = NominationGraph((2, 1))
    assert g.indegree_from(2, set()) == 0
    assert g.indegree_from(2, {1}) == 1
    g0 = ub_family(7, 0)
    assert g0.indegree_from(2, {1, 3}) == 2


def test_remove_out_edge():
    g = NominationGraph((2, 1))
    h = g.remove_out_edge(1)
    assert h.out == (None, 1)
    assert h.remove_out_edge(1) is h  # idempotent


def test_remove_out_edge_family_identity():
    # dropping vertex 3's edge from the i=0 member leaves the same graph
    # as dropping it from the two-cycle-plus-path graph
    left = ub_family(7, 0).remove_out_edge(3)
    right = two_cycle_path(7).remove_out_edge(3)
    assert left.out == right.out


# ---------------------------------------------------------------------------
# permutations

def test_prefix_set_and_restrict():
    pi = Permutation((3, 1, 2))
    assert prefix_set(pi, 3) == frozenset()
    assert prefix_set(pi, 2) == frozenset({3, 1})


def test_relabel_cycle_rotation_preserves_structure():
    g = cycle(5)
    rot = Permutation((2, 3, 4, 5, 1))
    h = g.relabel(rot)
    assert sorted(h.indegrees()) == sorted(g.indegrees())
    assert max(h.indegrees()) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7).flatmap(permutations_of))
def test_permutation_roundtrips(pi):
    n = pi.n
    inverse = Permutation(tuple(pi.seq.index(v) + 1 for v in range(1, n + 1)))
    assert all(inverse.seq[pi.seq[v - 1] - 1] == v for v in range(1, n + 1))
    g = cycle(n)
    assert g.relabel(pi).relabel(inverse) == g


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(random_graphs(n), permutations_of(n))
    )
)
def test_relabel_preserves_indegree_multiset(case):
    g, pi = case
    assert sorted(g.relabel(pi).indegrees()) == sorted(g.indegrees())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(random_graphs(n), permutations_of(n))
    )
)
def test_prefix_indegree_sum(case):
    # the sum of left-indegrees counts the edges whose source precedes
    # the target; equality with n iff that holds for every edge
    g, pi = case
    total = sum(g.indegree_from(v, prefix_set(pi, v)) for v in g.vertices)
    assert total <= g.n
    all_forward = all(
        pi.seq.index(v) < pi.seq.index(g.out[v - 1]) for v in g.vertices
    )
    assert (total == g.n) == all_forward
    assert tuple(g.indegree_from(v, g.vertices) for v in g.vertices) == g.indegrees()


def test_prefix_indegree_sum_attains_n_on_partial_path():
    # 1 -> 2 -> 3 with vertex 3 bare, scanned in order (1, 2, 3)
    g = PartialNominationGraph((2, 3, None))
    pi = Permutation((1, 2, 3))
    assert sum(g.indegree_from(v, prefix_set(pi, v)) for v in g.vertices) == 2
    assert g.out.count(None) == 1


# ---------------------------------------------------------------------------
# selection distributions

def test_distribution_validation():
    SelectionDistribution((1, 1), 2)
    with pytest.raises(InputError):
        SelectionDistribution((3, 2), 4)  # sums past 1
    with pytest.raises(InputError):
        SelectionDistribution((-1, 2), 4)
    with pytest.raises(InputError):
        SelectionDistribution((0, 0), 0)  # no positive denominator
    for bad in (Fraction(1, 2), 0.5, Fraction(1)):
        with pytest.raises(InputError):  # rejected, not truncated to an integer
            SelectionDistribution((bad, 0), 1)
    with pytest.raises(InputError):
        SelectionDistribution((1,), 1)


def test_distribution_accessors():
    d = SelectionDistribution((1, 2), 4)
    assert d.probs == (Fraction(1, 4), Fraction(1, 2))
    assert d.prob_of(2) == Fraction(1, 2)
    assert d.total == Fraction(3, 4)
    # the counts are kept as given: equal probabilities over another
    # denominator make another value
    assert d != SelectionDistribution((2, 4), 8)


# ---------------------------------------------------------------------------
# text format

def test_text_roundtrip_total():
    g = cycle(7)
    line = graph_to_text(g)
    assert line == "7; 7,1,2,3,4,5,6"
    assert graph_from_text(line) == g


def test_text_roundtrip_partial():
    p = PartialNominationGraph((2, None, 1))
    line = graph_to_text(p)
    assert line == "3; 2,0,1"
    assert graph_from_text(line) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=9).flatmap(random_partial_graphs))
def test_text_roundtrip_property(g):
    assert graph_from_text(graph_to_text(g)) == g


def test_text_errors():
    with pytest.raises(InputError):
        graph_from_text("3; 1,2")
    with pytest.raises(InputError):
        graph_from_text("nonsense")
    with pytest.raises(InputError):
        graph_from_text("2; 1,1")


def test_multi_line_parse():
    text = graph_to_text(cycle(3)) + "\n\n" + graph_to_text(cycle(4)) + "\n"
    assert [g.n for g in graphs_from_text(text)] == [3, 4]


# ---------------------------------------------------------------------------
# isomorphism codes

@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=9).flatmap(
        lambda n: st.tuples(random_graphs(n), permutations_of(n))
    )
)
def test_iso_code_is_relabelling_invariant(case):
    g, pi = case
    assert iso_code(g.relabel(pi).out) == iso_code(g.out)


def test_iso_code_class_counts():
    # unlabelled functional digraphs without fixed points, OEIS A001373;
    # at n = 6 the count keeps mirror-image cycles apart
    counts = {n: len({iso_code(out) for out in iter_out_tuples(n)}) for n in range(2, 7)}
    assert counts == {2: 1, 3: 2, 4: 6, 5: 13, 6: 40}


def _orbit_min(out):
    """Least out tuple over all n! relabellings of out."""
    n = len(out)
    best = None
    for seq in itertools.permutations(range(1, n + 1)):
        image = [0] * n
        for v, t in enumerate(out):
            image[seq[v] - 1] = seq[t - 1]
        image = tuple(image)
        if best is None or image < best:
            best = image
    return best


def test_iso_code_matches_brute_force_orbits():
    for n in range(2, 6):
        pairs = {(iso_code(out), _orbit_min(out)) for out in iter_out_tuples(n)}
        # one code per orbit and one orbit per code
        assert len({c for c, _ in pairs}) == len({m for _, m in pairs}) == len(pairs)



def test_iso_classes_counts_and_weights():
    # OEIS A001373 for n = 2..12; the orbits partition all (n-1)^n graphs
    counts = [1, 2, 6, 13, 40, 100, 291, 797, 2273, 6389, 18264]
    for n, count in zip(range(2, CLASS_CAP + 1), counts):
        classes = iso_classes(n)
        assert len(classes) == count, n
        assert sum(w for _, w in classes) == (n - 1) ** n, n
    with pytest.raises(CapacityError):
        iso_classes(CLASS_CAP + 1)
    with pytest.raises(InputError):
        iso_classes(1)


def test_iso_classes_match_labelled_enumeration():
    for n in range(2, 7):
        labelled = Counter(iso_code(out) for out in iter_out_tuples(n))
        classes = iso_classes(n)
        generated = {iso_code(NominationGraph(out).out): w for out, w in classes}
        assert len(generated) == len(classes), n  # one representative per class
        assert generated == dict(labelled), n  # and its orbit size
