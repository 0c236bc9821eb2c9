"""Core value types: nomination graphs, permutations, selection distributions.

A partial nomination graph has n vertices (labelled 1..n), at most one
outgoing edge per vertex and no self-loops; it is what remains after a
vertex's outgoing edge is removed.  A (total) nomination graph is a
partial graph with every edge present, so NominationGraph subclasses
PartialNominationGraph and only tightens its validation.  iso_code
names a total graph's isomorphism class, and iso_classes lists the
classes of a size with a representative of each.  A
SelectionDistribution is a mechanism's exact result: integer counts
over one denominator, validated once when it is built, read as
rationals.

All types are immutable values and all operations are pure, so instances
can be shared freely across parallel workers.  Vertices are 1-based
everywhere, including the serialized text form.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

# Largest n that iso_classes generates: 18 264 classes in about 2 s
# at n = 12, and each further vertex roughly triples both.
CLASS_CAP = 12


class InputError(ValueError):
    """Raised for invalid arguments: bad vertex indices, bad parameters."""


class CapacityError(RuntimeError):
    """Raised when an exact computation would exceed its enumeration cap."""


def _check_vertex(v: int, n: int) -> None:
    if not isinstance(v, int) or not 1 <= v <= n:
        raise InputError(f"vertex {v!r} out of range 1..{n}")


@dataclass(frozen=True)
class PartialNominationGraph:
    """Directed graph with at most one outgoing edge per vertex, no loops.

    ``out[v-1]`` is the 1-based target of vertex v's nomination, or None
    if v currently has no outgoing edge.
    """

    out: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        out = tuple(self.out)
        object.__setattr__(self, "out", out)
        n = len(out)
        if n < 2:
            raise InputError(f"need at least 2 vertices, got {n}")
        for v, t in enumerate(out, start=1):
            if t is None:
                continue
            if not isinstance(t, int) or not 1 <= t <= n:
                raise InputError(f"target {t!r} of vertex {v} out of range 1..{n}")
            if t == v:
                raise InputError(f"vertex {v} nominates itself")

    @property
    def n(self) -> int:
        return len(self.out)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def indegree_from(self, v: int, sources: Iterable[int]) -> int:
        _check_vertex(v, self.n)
        seen = set()
        for u in sources:
            _check_vertex(u, self.n)
            seen.add(u)
        return sum(1 for u in seen if self.out[u - 1] == v)

    def indegrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for t in self.out:
            if t is not None:
                degs[t - 1] += 1
        return tuple(degs)

    def max_indegree_and_top(self) -> tuple[int, frozenset[int], int]:
        """Maximum indegree, the set attaining it, and its smallest member.

        The smallest-index member is the fixed deterministic choice of
        top vertex used wherever a single representative is needed.
        """
        degs = self.indegrees()
        dmax = max(degs)
        top = frozenset(v for v in self.vertices if degs[v - 1] == dmax)
        return dmax, top, min(top)

    @classmethod
    def _derived(cls, out: tuple[Optional[int], ...]) -> "PartialNominationGraph":
        """An instance on out without validation, for an out tuple derived
        from a valid graph by a change that keeps it valid."""
        g = object.__new__(cls)
        object.__setattr__(g, "out", out)
        return g

    def remove_out_edge(self, v: int) -> "PartialNominationGraph":
        """Drop v's outgoing edge; idempotent if it is already absent."""
        _check_vertex(v, self.n)
        if self.out[v - 1] is None:
            return self
        return PartialNominationGraph._derived(self.out[: v - 1] + (None,) + self.out[v:])

    def relabel(self, pi: "Permutation") -> "PartialNominationGraph":
        """Rename vertices by pi, mapping each edge (u, w) to (pi(u), pi(w));
        the result has the same graph type as self."""
        if pi.n != self.n:
            raise InputError(f"permutation size {pi.n} != graph size {self.n}")
        seq = pi.seq  # a relabelling renames v to seq[v-1]
        out: list[Optional[int]] = [None] * self.n
        for v, t in enumerate(self.out):
            if t is not None:
                out[seq[v] - 1] = seq[t - 1]
        return type(self)._derived(tuple(out))


@dataclass(frozen=True)
class NominationGraph(PartialNominationGraph):
    """Directed graph with exactly one outgoing edge per vertex, no loops.

    ``out[v-1]`` is the 1-based target of vertex v's nomination.  Since
    there are n edges among n vertices, the maximum indegree is >= 1.
    """

    out: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if None in self.out:
            v = self.out.index(None) + 1
            raise InputError(f"target None of vertex {v} out of range 1..{self.n}")

    def retarget(self, v: int, new_target: int) -> "NominationGraph":
        """The graph with v's nomination redirected to new_target."""
        _check_vertex(v, self.n)
        out = list(self.out)
        out[v - 1] = new_target
        return NominationGraph(tuple(out))


AnyGraph = PartialNominationGraph  # total graphs included, as a subclass


def iso_code(out: Sequence[int]) -> tuple[str, ...]:
    """Canonical code of the total graph with out tuple out: two graphs
    get the same code exactly when one is a relabelling of the other.

    Each component of a total graph is one directed cycle with in-trees
    hanging off it.  A vertex's tree code is the AHU string of the
    in-tree below it: its off-cycle nominators' codes, sorted, in
    brackets.  A cycle's code is the least rotation of its vertices'
    tree codes read in edge direction (no reflections), joined; brackets
    keep the joined string decodable.  The graph's code is the sorted
    tuple of its cycles' codes.
    """
    n = len(out)
    pending = [0] * n  # nominators of each vertex not yet coded
    for t in out:
        pending[t - 1] += 1
    below: list[list[str]] = [[] for _ in range(n)]
    peeled = [v for v in range(n) if not pending[v]]
    # peel the trees leaves first (the loop visits what it appends); a
    # vertex never peeled lies on a cycle and still waits for its
    # predecessor there
    for v in peeled:
        t = out[v] - 1
        below[t].append("(" + "".join(sorted(below[v])) + ")")
        pending[t] -= 1
        if not pending[t]:
            peeled.append(t)
    cycles = []
    for start in range(n):
        ring, v = [], start
        while pending[v]:
            pending[v] = 0
            ring.append("(" + "".join(sorted(below[v])) + ")")
            v = out[v] - 1
        if ring:
            cycles.append("".join(min(ring[i:] + ring[:i] for i in range(len(ring)))))
    return tuple(sorted(cycles))


def _cycle_types(n: int, least: int = 2) -> Iterator[tuple[int, ...]]:
    """Partitions of n into nondecreasing parts of at least least."""
    if n == 0:
        yield ()
    for k in range(least, n + 1):
        for rest in _cycle_types(n - k, k):
            yield (k,) + rest


@cache
def iso_classes(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(representative out tuple, orbit size) per isomorphism class of
    total graphs on n <= CLASS_CAP vertices; the orbits sum to (n-1)^n.

    A class with no leaf (a vertex nobody nominates) is one union of
    cycles per partition of n into parts >= 2, of orbit n!/prod(k^m m!).
    Every other class is a class at n-1 plus a leaf n, deduplicated by
    iso_code; counting (graph, leaf) pairs both ways gives its orbit: n
    times the orbits of the n-1 graphs leading into it, over its leaves.
    """
    if n < 2:
        raise InputError(f"need at least 2 vertices, got {n}")
    if n > CLASS_CAP:
        raise CapacityError(
            f"isomorphism classes are generated up to n <= {CLASS_CAP}, got n={n}"
        )
    classes = []
    for parts in _cycle_types(n):
        out: list[int] = []
        for k in parts:
            out += [len(out) + (i + 1) % k + 1 for i in range(k)]
        symmetries = math.prod(k**m * math.factorial(m) for k, m in Counter(parts).items())
        classes.append((tuple(out), math.factorial(n) // symmetries))
    grown: dict[tuple[str, ...], list] = {}
    for out, orbit in iso_classes(n - 1) if n > 2 else ():
        for t in range(1, n):
            entry = grown.setdefault(iso_code(out + (t,)), [out + (t,), 0])
            entry[1] += orbit
    for out, orbits in grown.values():
        classes.append((out, n * orbits // (n - len(set(out)))))
    return tuple(classes)


@dataclass(frozen=True)
class Permutation:
    """An ordering of the vertices 1..n.

    ``seq[i-1]`` is the vertex at position i.  The same object doubles
    as a relabelling map via :meth:`image_of`, which sends v to seq[v-1];
    this is the convention used when renaming graph vertices.
    """

    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = tuple(self.seq)
        object.__setattr__(self, "seq", seq)
        n = len(seq)
        if n < 1 or sorted(seq) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of 1..{n}: {seq!r}")

    @property
    def n(self) -> int:
        return len(self.seq)

    def image_of(self, v: int) -> int:
        """The relabelling view: v is renamed to the v-th entry of seq."""
        _check_vertex(v, self.n)
        return self.seq[v - 1]


@dataclass(frozen=True, slots=True)
class SelectionDistribution:
    """Exact per-vertex selection probabilities: vertex v is selected with
    probability numerators[v-1] / denominator.

    The counts are validated once, in integers, when the value is built;
    a Fraction or float count is rejected rather than truncated.  The
    total is at most 1; mechanisms that always select sum to exactly 1,
    inexact ones may leave a deficit (the probability of selecting no
    one).  The rationals are computed when read, and the denominator is
    kept as given, so equality compares the stored counts.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        try:
            nums = tuple(map(operator.index, self.numerators))
            den = operator.index(self.denominator)
        except TypeError as exc:
            raise InputError(f"selection counts must be integers: {exc}") from None
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)
        if len(nums) < 2:
            raise InputError("distribution needs at least 2 vertices")
        if den < 1:
            raise InputError(f"denominator {den} is not positive")
        for v, c in enumerate(nums, start=1):
            if not 0 <= c <= den:
                raise InputError(f"probability of vertex {v} out of [0,1]: {Fraction(c, den)}")
        if sum(nums) > den:
            raise InputError(f"probabilities sum to {Fraction(sum(nums), den)} > 1")

    @property
    def n(self) -> int:
        return len(self.numerators)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def prob_of(self, v: int) -> Fraction:
        _check_vertex(v, self.n)
        return Fraction(self.numerators[v - 1], self.denominator)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator)


# ---------------------------------------------------------------------------
# Text interchange format: one graph per line, "n; t1,t2,...,tn".
# Targets are 1-based; 0 marks an absent edge (partial graphs only).

def graph_to_text(g: AnyGraph) -> str:
    targets = ",".join("0" if t is None else str(t) for t in g.out)
    return f"{g.n}; {targets}"


def graph_from_text(line: str) -> AnyGraph:
    try:
        head, _, body = line.partition(";")
        n = int(head.strip())
        raw = [int(tok.strip()) for tok in body.strip().split(",")]
    except ValueError as exc:
        raise InputError(f"malformed graph line: {line!r}") from exc
    if len(raw) != n:
        raise InputError(f"expected {n} targets, got {len(raw)}: {line!r}")
    if any(t == 0 for t in raw):
        return PartialNominationGraph(tuple(None if t == 0 else t for t in raw))
    return NominationGraph(tuple(raw))


def graphs_from_text(text: str) -> list[AnyGraph]:
    return [graph_from_text(line) for line in text.splitlines() if line.strip()]
