"""Core value types: nomination graphs, permutations, selection distributions.

A partial nomination graph has n vertices (labelled 1..n), at most one
outgoing edge per vertex and no self-loops; it is what remains after a
vertex's outgoing edge is removed.  A (total) nomination graph is a
partial graph with every edge present, so NominationGraph subclasses
PartialNominationGraph and only tightens its validation.  iso_code
names a total graph's isomorphism class, and iso_classes lists the
classes of a size with a representative of each.  A
SelectionDistribution is a mechanism's exact result: integer counts
over one denominator, read as rationals.  A batch of exact results is
a (graphs, n) integer count array over one integer denominator for the
whole batch, as every mechanism's denominator depends on n alone, so
two results of a batch compare by their counts.  check_counts holds
the rules every exact result obeys and checks a whole batch at once;
Mechanism.counts runs it on every batch, and a SelectionDistribution
that a caller builds on a batch of one.  derived builds a value from
checked ones without a second check, as Mechanism.exact does from its
checked row.  exact_dtype picks int64 or Python ints for exact integer
arithmetic, so counts never wrap.

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

import numpy as np

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


def derived(cls: type, **fields):
    """A cls built from fields without running its __post_init__, for
    values derived from already checked ones by a change that keeps them
    valid; the checks are for values that come from outside."""
    value = object.__new__(cls)
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    return value


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

    def remove_out_edge(self, v: int) -> "PartialNominationGraph":
        """Drop v's outgoing edge; idempotent if it is already absent."""
        _check_vertex(v, self.n)
        if self.out[v - 1] is None:
            return self
        return derived(PartialNominationGraph, out=self.out[: v - 1] + (None,) + self.out[v:])

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
        return derived(type(self), out=tuple(out))


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
    as a relabelling map that sends v to seq[v-1]; this is the
    convention used when renaming graph vertices.
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


def exact_dtype(bound: int) -> type:
    """The dtype of a computation whose integers are all at most bound:
    int64 when bound fits in it, otherwise Python ints (dtype object),
    so exact counts never wrap."""
    return np.int64 if bound < 2**63 else object


_as_index = np.frompyfunc(operator.index, 1, 1)


def check_counts(counts: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Check a batch of exact results, the (graphs, n) counts over the
    one denominator den, and return (counts, den): counts as a signed
    integer array as given, any other entries as Python ints, and den
    as a Python int.

    The rules: every count and the denominator are integers (a Fraction
    or float is rejected, not truncated), the denominator is at least 1,
    each count lies between 0 and the denominator, and each row sums to
    at most the denominator, summed in Python ints when the sum could
    pass int64.  Raises InputError on the first row that breaks one.
    """
    n = counts.shape[1]
    try:
        if counts.dtype.kind != "i":
            counts = _as_index(counts)
        den = operator.index(den)
    except TypeError as exc:
        raise InputError(f"selection counts must be integers: {exc}") from None
    if den < 1:
        raise InputError(f"denominator {den} is not positive")
    outside = (counts < 0) | (counts > den)
    if outside.any():
        g, v = divmod(int(np.argmax(outside)), n)
        raise InputError(f"probability of vertex {v + 1} out of [0,1]: {Fraction(int(counts[g, v]), den)}")
    totals = counts.astype(exact_dtype(n * den), copy=False).sum(axis=1)
    over = totals > den
    if over.any():
        raise InputError(f"probabilities sum to {Fraction(int(totals[np.argmax(over)]), den)} > 1")
    return counts, den


@dataclass(frozen=True, slots=True)
class SelectionDistribution:
    """Exact per-vertex selection probabilities: vertex v is selected with
    probability numerators[v-1] / denominator.

    Counts from outside are validated once, by check_counts on a batch
    of one, when the value is built; Mechanism.exact builds its result
    with derived from a row check_counts has already passed.  The total
    is at most 1; mechanisms that always select sum to exactly 1,
    inexact ones may leave a deficit (the probability of selecting no
    one).  The rationals are computed when read, and the denominator is
    kept as given, so equality compares the stored counts.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        nums = tuple(self.numerators)
        if len(nums) < 2:
            raise InputError("distribution needs at least 2 vertices")
        # dtype object: numpy would turn a row of Python ints past 2^63 into floats
        counts, den = check_counts(np.array([nums], dtype=object), self.denominator)
        object.__setattr__(self, "numerators", tuple(counts[0].tolist()))
        object.__setattr__(self, "denominator", den)

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
