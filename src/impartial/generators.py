"""Named graph families and a seeded uniform sampler.

The families keep their construction-specific vertex labels (not just
isomorphism classes) so that structural identities between family
members can be checked verbatim, e.g. that redirecting one nomination
turns one family member into a relabelling of another.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import InputError, NominationGraph
from .rng import SeedStream


def cycle(n: int) -> NominationGraph:
    """Directed cycle n -> n-1 -> ... -> 1 -> n; every indegree is 1."""
    if n < 2:
        raise InputError(f"cycle needs n >= 2, got {n}")
    out = [0] * n
    out[0] = n
    for v in range(2, n + 1):
        out[v - 1] = v - 1
    return NominationGraph(tuple(out))


def two_cycle_path(n: int) -> NominationGraph:
    """A 2-cycle on {1,2} beside the cycle n -> n-1 -> ... -> 3 -> n."""
    if n < 4:
        raise InputError(f"two_cycle_path needs n >= 4, got {n}")
    out = [0] * n
    out[0] = 2
    out[1] = 1
    out[2] = n
    for v in range(4, n + 1):
        out[v - 1] = v - 1
    return NominationGraph(tuple(out))


def ub_family(n: int, i: int) -> NominationGraph:
    """Member i of the two-cycle-with-two-paths family.

    Vertices 1 and 2 form a 2-cycle, vertices i+2 down to 3 a path
    directed at vertex 1, and vertices n down to i+3 a path directed at
    vertex 2.  For i = 0 the first path is empty and vertex 3 points at
    vertex 2 instead.
    """
    if n < 6:
        raise InputError(f"ub_family needs n >= 6, got {n}")
    if not 0 <= i <= n // 2 - 1:
        raise InputError(f"ub_family index i={i} outside 0..{n // 2 - 1}")
    out = [0] * n
    for v in range(1, n):
        if v not in (2, i + 2):
            out[v + 1 - 1] = v
    out[0] = 2
    out[2] = 1 + (1 if i == 0 else 0)
    out[i + 3 - 1] = 2
    return NominationGraph(tuple(out))


def ub_family_prime(n: int, i: int) -> NominationGraph:
    """ub_family(n, i) with vertex 2's nomination redirected to vertex n,
    making vertex 2 the unique maximum-indegree vertex (indegree 2)."""
    if i < 1:
        raise InputError(f"ub_family_prime needs i >= 1, got {i}")
    return ub_family(n, i).retarget(2, n)


def lower_bound_family(delta: int, nprime: int) -> NominationGraph:
    """Disjoint-blocks family: one vertex of indegree delta and nprime
    vertices of indegree floor(delta/2).

    Vertex 1 receives delta nominations, each vertex v in 2..nprime+1
    receives floor(delta/2), and each of the vertices 1..nprime+1
    nominates one of its own in-neighbors, keeping the blocks disjoint.
    """
    if delta < 2:
        raise InputError(f"lower_bound_family needs delta >= 2, got {delta}")
    if nprime < 1:
        raise InputError(f"lower_bound_family needs nprime >= 1, got {nprime}")
    half = delta // 2
    n = delta + 1 + nprime * (half + 1)
    out = [0] * n
    out[0] = nprime + delta
    for v in range(2, nprime + 2):
        out[v - 1] = nprime + delta + 2 + (v - 2) * half
    for v in range(nprime + 2, nprime + delta + 2):
        out[v - 1] = 1
    for v in range(2, nprime + 2):
        first = nprime + delta + 2 + (v - 2) * half
        for u in range(first, first + half):
            out[u - 1] = v
    return NominationGraph(tuple(out))


def required_nprime(delta: int, eps: Fraction | float) -> int:
    """Smallest block count making the top vertex's escape probability
    drop below eps: the least integer m >= 1 with
    A * B1**m < eps * (delta+1) * B2**m, where A, B1, B2 depend on delta.
    It is at least 1, since lower_bound_family needs one block.

    Evaluated in exact integers, so boundary cases where the underlying
    threshold is an integer resolve strictly.
    """
    if delta < 2:
        raise InputError(f"required_nprime needs delta >= 2, got {delta}")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"required_nprime needs 0 < eps < 1, got {eps}")
    half = delta // 2
    b1, b2 = 2 * half + 1, 2 * half + 2
    # both sides at m = 1, multiplied through by eps's denominator
    lhs = (delta - half) * (half + 1) * eps.denominator * b1
    rhs = eps.numerator * (delta + 1) * b2
    m = 1
    while lhs >= rhs:
        lhs *= b1
        rhs *= b2
        m += 1
    return m


def random_graph(n: int, seed: int | SeedStream) -> NominationGraph:
    """Uniform member of the class: each vertex nominates one of the
    other n-1 vertices independently.  Deterministic per seed."""
    if n < 2:
        raise InputError(f"random_graph needs n >= 2, got {n}")
    rng = seed if isinstance(seed, SeedStream) else SeedStream(seed)
    out = []
    for v in range(1, n + 1):
        k = rng.randrange(n - 1) + 1
        out.append(k if k < v else k + 1)
    return NominationGraph(tuple(out))


_FAMILY_ALIASES = {
    "cycle": "cycle",
    "two_cycle_path": "two_cycle_path",
    "c2n": "two_cycle_path",
    "ub": "ub_family",
    "ub_family": "ub_family",
    "ub_prime": "ub_family_prime",
    "ub_family_prime": "ub_family_prime",
    "lb": "lower_bound",
    "lower_bound": "lower_bound",
    "random": "random",
}

# each builder's parameter names are the ones the spec takes
_FAMILIES = {
    "cycle": cycle,
    "two_cycle_path": two_cycle_path,
    "ub_family": ub_family,
    "ub_family_prime": ub_family_prime,
    "lower_bound": lower_bound_family,
    "random": random_graph,
}


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its integer parameters, e.g. parsed from
    ``family=ub,n=7,i=0``."""

    kind: str
    params: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = _FAMILY_ALIASES.get(self.kind)
        if kind is None:
            raise InputError(
                f"unknown family {self.kind!r}; expected one of "
                f"{sorted(set(_FAMILY_ALIASES))}"
            )
        object.__setattr__(self, "kind", kind)
        expected = tuple(inspect.signature(_FAMILIES[kind]).parameters)
        missing = [k for k in expected if k not in self.params]
        extra = [k for k in self.params if k not in expected]
        if missing or extra:
            raise InputError(
                f"family {kind!r} takes parameters {expected}; "
                f"missing {missing}, unexpected {extra}"
            )

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse ``family=name,key=value,...`` (spaces also separate); a
        key given twice is an error."""
        tokens = [t for part in text.split(",") for t in part.split()]
        kind = None
        params: dict[str, int] = {}
        for tok in tokens:
            if not tok:
                continue
            key, sep, value = tok.partition("=")
            if not sep:
                raise InputError(f"expected key=value, got {tok!r}")
            if key in params or key == "family" and kind is not None:
                raise InputError(f"{key}= given more than once in {text!r}")
            if key == "family":
                kind = value
            else:
                try:
                    params[key] = int(value)
                except ValueError as exc:
                    raise InputError(f"parameter {key}={value!r} is not an integer") from exc
        if kind is None:
            raise InputError(f"no family= given in {text!r}")
        return cls(kind, params)

    def build(self) -> NominationGraph:
        return _FAMILIES[self.kind](**self.params)
