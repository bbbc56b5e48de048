"""Declarative group recipes and their realizations.

Every spec kind is one entry of ``KINDS``: its fields, how it is
described, its one parameter check and its builder.  JSON reading
(``descriptor_from_dict``), ``to_dict``/``describe``, validation
(``validate_spec``) and ``construct`` all go through that entry.

Presentation-style families (metacyclic, dicyclic) are realized by exact
normal-form multiplication rather than coset enumeration; the defining
relations are cheap to state and tests hold them as the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidMetacyclicParameters,
    InvalidParameters,
    NotAPrime,
    OrderCapExceeded,
)
from .group_core import (
    FiniteGroup,
    TableGroup,
    build_from_permutations,
    build_from_table,
    check_image_budget,
    direct_product,
    max_order_cap,
    moved_points,
    permutation_images,
    prime_factors,
    quotient,
    subgroup_generated,
)


@dataclass(frozen=True)
class GroupSpecDescriptor:
    """A recipe for a group: a family name plus its parameters.

    Only the fields relevant to ``kind`` are set; the rest stay None.
    """

    kind: str
    n: int | None = None
    factors: tuple[int, ...] | None = None
    m: int | None = None
    r: int | None = None
    p: int | None = None
    degree: int | None = None
    generators: tuple[tuple[int, ...], ...] | None = None
    order: int | None = None
    table: tuple[tuple[int, ...], ...] | None = None
    parts: "tuple[GroupSpecDescriptor, ...] | None" = None
    group: "GroupSpecDescriptor | None" = None
    normal_generators: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        """JSON-ready form with a fixed key order (kind first)."""
        out: dict = {"kind": self.kind}
        for name, _ in _kind(self.kind).fields:
            out[name] = _to_json(getattr(self, name))
        return out

    def describe(self) -> str:
        return _kind(self.kind).describe(self)


# -- convenience descriptor builders ----------------------------------------

def cyclic(n: int) -> GroupSpecDescriptor:
    return GroupSpecDescriptor("cyclic", n=int(n))


def abelian(factors) -> GroupSpecDescriptor:
    return GroupSpecDescriptor("abelian", factors=tuple(int(f) for f in factors))


def metacyclic(m: int, n: int, r: int) -> GroupSpecDescriptor:
    return GroupSpecDescriptor("metacyclic", m=int(m), n=int(n), r=int(r))


def dicyclic(n: int) -> GroupSpecDescriptor:
    return GroupSpecDescriptor("dicyclic", n=int(n))


def heisenberg(p: int) -> GroupSpecDescriptor:
    return GroupSpecDescriptor("heisenberg", p=int(p))


def symmetric(degree: int) -> GroupSpecDescriptor:
    return GroupSpecDescriptor("symmetric", degree=int(degree))


def permutation(degree: int, generators) -> GroupSpecDescriptor:
    return GroupSpecDescriptor(
        "permutation",
        degree=int(degree),
        generators=tuple(tuple(int(i) for i in g) for g in generators),
    )


def table_spec(order: int, table) -> GroupSpecDescriptor:
    return GroupSpecDescriptor(
        "table",
        order=int(order),
        table=tuple(tuple(int(v) for v in row) for row in table),
    )


def product(*parts: GroupSpecDescriptor) -> GroupSpecDescriptor:
    return GroupSpecDescriptor("product", parts=tuple(parts))


def quotient_spec(group: GroupSpecDescriptor, normal_generators) -> GroupSpecDescriptor:
    return GroupSpecDescriptor(
        "quotient",
        group=group,
        normal_generators=tuple(int(i) for i in normal_generators),
    )


# -- field shapes: int, GroupSpecDescriptor, or a one-element list of a shape --

def _read(value, shape):
    """A JSON value as a descriptor field of ``shape``, or None if it has another shape."""
    if shape is int:
        return value if type(value) is int else None  # JSON true/false load as bool
    if shape is GroupSpecDescriptor:
        return descriptor_from_dict(value) if isinstance(value, dict) else None
    if not isinstance(value, list):
        return None
    if shape[0] is int:  # the common case, kept fast for large tables
        return tuple(value) if all(type(v) is int for v in value) else None
    items = tuple(_read(v, shape[0]) for v in value)
    return None if None in items else items


def _to_json(value):
    if isinstance(value, GroupSpecDescriptor):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


@dataclass(frozen=True)
class Kind:
    """Everything known about one spec kind."""

    fields: tuple[tuple[str, object], ...]  # (name, shape) in JSON key order
    describe: Callable[[GroupSpecDescriptor], str]
    # check(spec, cap) raises on invalid parameters and returns the group
    # order when the parameters determine it (else None)
    check: Callable[[GroupSpecDescriptor, int], "int | None"]
    build: Callable[[GroupSpecDescriptor, int], FiniteGroup]


def _kind(name) -> Kind:
    if not isinstance(name, str) or name not in KINDS:
        raise InvalidParameters(f"unknown group kind {name!r}")
    return KINDS[name]


def descriptor_from_dict(payload) -> GroupSpecDescriptor:
    """Read a descriptor from its JSON form; checks field presence and types only."""
    if not isinstance(payload, dict):
        raise InvalidParameters("group spec must be a JSON object")
    name = payload.get("kind")
    values = {}
    for key, shape in _kind(name).fields:
        if key not in payload:
            raise InvalidParameters(f"{name} spec is missing the {key!r} field")
        values[key] = _read(payload[key], shape)
        if values[key] is None:
            raise InvalidParameters(f"{name} spec field {key!r} has the wrong type")
    return GroupSpecDescriptor(name, **values)


def validate_spec(spec: GroupSpecDescriptor, max_order: int | None = None) -> int | None:
    """Check a descriptor's parameters against its kind; the one validator.

    Cheap checks come first, then the order cap, then primality, so a huge
    prime parameter is rejected at once instead of being factored.
    Returns the group order when the parameters determine it, else None.
    """
    cap = max_order if max_order is not None else max_order_cap()
    return _kind(spec.kind).check(spec, cap)


def construct(spec: GroupSpecDescriptor, max_order: int | None = None) -> FiniteGroup:
    """Validate a descriptor and realize it as a concrete group."""
    cap = max_order if max_order is not None else max_order_cap()
    validate_spec(spec, cap)
    return KINDS[spec.kind].build(spec, cap)


# -- parameter checks ----------------------------------------------------------

def _positive(kind: str, **params):
    for name, value in params.items():
        if value < 1:
            raise InvalidParameters(f"{kind} parameter {name} must be positive, got {value}")


def _capped_product(values, cap: int, spec: GroupSpecDescriptor) -> int:
    """Product of ``values``, raising as soon as a partial product passes the cap."""
    order = 1
    for v in values:
        order *= v
        if order > cap:
            raise OrderCapExceeded(f"order of {spec.describe()} exceeds the cap {cap}")
    return order


def _check_element_indices(indices, order: int):
    for i in indices:
        if not 0 <= i < order:
            raise InvalidParameters(
                f"normal generator {i} is not an element of the parent group "
                f"(indices 0..{order - 1})"
            )


def _check_cyclic(spec, cap):
    _positive("cyclic", n=spec.n)
    return _capped_product([spec.n], cap, spec)


def _check_abelian(spec, cap):
    if not spec.factors or any(f < 1 for f in spec.factors):
        raise InvalidParameters(f"invariant factors must be positive, got {spec.factors}")
    return _capped_product(spec.factors, cap, spec)


def _check_metacyclic(spec, cap):
    m, n, r = spec.m, spec.n, spec.r
    _positive("metacyclic", m=m, n=n)
    if math.gcd(r, m) != 1:
        raise InvalidMetacyclicParameters(
            f"gcd(r, m) = gcd({r}, {m}) = {math.gcd(r, m)}, expected 1"
        )
    residue = pow(r, n, m)
    if residue != 1 % m:
        raise InvalidMetacyclicParameters(
            f"r^n = {r}^{n} ≡ {residue} (mod {m}), expected 1"
        )
    return _capped_product([m, n], cap, spec)


def _check_dicyclic(spec, cap):
    _positive("dicyclic", n=spec.n)
    return _capped_product([4, spec.n], cap, spec)


def _check_heisenberg(spec, cap):
    p = spec.p
    if p < 3:
        raise NotAPrime(f"heisenberg parameter must be an odd prime, got {p}")
    order = _capped_product([p, p, p], cap, spec)
    if list(prime_factors(p).items()) != [(p, 1)]:
        raise NotAPrime(f"heisenberg parameter must be an odd prime, got {p}")
    return order


def _check_symmetric(spec, cap):
    _positive("symmetric", degree=spec.degree)
    return _capped_product(range(2, spec.degree + 1), cap, spec)


def _check_permutation(spec, cap):
    gen_imgs = permutation_images(spec.degree, spec.generators)
    imgs = [g.tolist() for g in gen_imgs]
    points = moved_points(gen_imgs).size
    # each generator's order and each orbit length divide |G|: bound it, and the closure's
    # |G| image rows of the moved points, before the closure
    bound = 1
    for perms in [[g] for g in imgs] + [imgs]:
        bound = math.lcm(bound, *_orbit_lengths(perms))
        if bound > cap:
            raise OrderCapExceeded(f"order of {spec.describe()} exceeds the cap {cap}")
        check_image_budget(bound, points, f"permutation images of {spec.describe()}")


def _orbit_lengths(perms: list[list[int]]) -> list[int]:
    """Sizes of the orbits of the points 0..degree-1 under the permutations."""
    seen: set[int] = set()
    lengths = []
    for start in range(len(perms[0])):
        if start not in seen:
            frontier, size = {start}, len(seen)
            seen.add(start)
            while frontier:
                frontier = {p[x] for x in frontier for p in perms} - seen
                seen |= frontier
            lengths.append(len(seen) - size)
    return lengths


def _check_table(spec, cap):
    _positive("table", order=spec.order)
    order = _capped_product([spec.order], cap, spec)
    if len(spec.table) != order or any(len(row) != order for row in spec.table):
        raise InvalidParameters(
            f"table must be {order}x{order}, got {len(spec.table)} rows"
        )
    return order


def _check_product(spec, cap):
    if not spec.parts:
        raise InvalidParameters("product spec needs at least one part")
    orders = [validate_spec(part, cap) for part in spec.parts]
    if None in orders:
        return None
    return _capped_product(orders, cap, spec)


def _check_quotient(spec, cap):
    parent_order = validate_spec(spec.group, cap)
    if parent_order is not None:
        _check_element_indices(spec.normal_generators, parent_order)
    return None


# -- label helpers -----------------------------------------------------------

def _pow_str(sym: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return sym
    return f"{sym}^{e}"


def _ab_label(i: int, j: int) -> str:
    parts = [s for s in (_pow_str("a", i), _pow_str("b", j)) if s]
    return " ".join(parts) if parts else "1"


# -- realizations: each runs on a descriptor its kind's check accepted --------

def _build_cyclic(spec, cap) -> FiniteGroup:
    n = spec.n
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = tuple(_pow_str("g", i) or "1" for i in range(n))
    return TableGroup(table, (1,) if n > 1 else (0,), labels, name=spec.describe())


def _build_abelian(spec, cap) -> FiniteGroup:
    factors = spec.factors
    order = math.prod(factors)
    idx = np.arange(order)
    strides = []
    s = order
    for f in factors:
        s //= f
        strides.append(s)
    table = np.zeros((order, order), dtype=np.int64)
    residues = []
    for f, s in zip(factors, strides):
        res = (idx // s) % f
        residues.append(res)
        table += ((res[:, None] + res[None, :]) % f) * s
    gens = [s for f, s in zip(factors, strides) if f > 1]
    labels = tuple(
        "(" + ",".join(str(int(r[i])) for r in residues) + ")" for i in range(order)
    )
    return TableGroup(table, gens or (0,), labels, name=spec.describe())


def _build_metacyclic(spec, cap) -> FiniteGroup:
    m, n, r = spec.m, spec.n, spec.r
    order = m * n
    # b a b^-1 = a^t with t*r = 1 (mod m) realizes the relation b^-1 a b = a^r
    t = pow(r, -1, m) if m > 1 else 0
    tpow = np.array([pow(t, j, m) if m > 1 else 0 for j in range(n)], dtype=np.int64)
    idx = np.arange(order)
    i1, j1 = idx % m, idx // m
    i2, j2 = i1, j1
    inew = (i1[:, None] + i2[None, :] * tpow[j1][:, None]) % m
    jnew = (j1[:, None] + j2[None, :]) % n
    table = jnew * m + inew
    gens = []
    if m > 1:
        gens.append(1)
    if n > 1:
        gens.append(m)
    labels = tuple(_ab_label(int(i), int(j)) for i, j in zip(i1, j1))
    return TableGroup(table, gens or (0,), labels, name=spec.describe())


def _build_dicyclic(spec, cap) -> FiniteGroup:
    n = spec.n
    order = 4 * n
    two_n = 2 * n
    idx = np.arange(order)
    i1, j1 = (idx % two_n)[:, None], (idx // two_n)[:, None]
    i2, j2 = (idx % two_n)[None, :], (idx // two_n)[None, :]
    # j1 = 0: a^(i1+i2) b^j2 ; j1 = 1: b a^i2 = a^-i2 b, and b^2 = a^n
    inew = np.where(j1 == 0, i1 + i2, i1 - i2)
    jnew = j1 + j2
    inew = np.where(jnew == 2, inew + n, inew) % two_n
    jnew = jnew % 2
    table = jnew * two_n + inew
    labels = tuple(_ab_label(int(k % two_n), int(k // two_n)) for k in idx)
    return TableGroup(table, (1, two_n), labels, name=spec.describe())


def _build_heisenberg(spec, cap) -> FiniteGroup:
    p = spec.p
    order = p ** 3
    idx = np.arange(order)
    x, rem = np.divmod(idx, p * p)
    y, z = np.divmod(rem, p)
    x1, y1, z1 = x[:, None], y[:, None], z[:, None]
    x2, y2, z2 = x[None, :], y[None, :], z[None, :]
    table = (
        ((x1 + x2) % p) * p * p
        + ((y1 + y2) % p) * p
        + ((z1 + z2 + x1 * y2) % p)
    )
    labels = tuple(f"({a},{b},{c})" for a, b, c in zip(x, y, z))
    return TableGroup(table, (p * p, p), labels, name=spec.describe())


def _build_symmetric(spec, cap) -> FiniteGroup:
    degree = spec.degree
    if degree == 1:
        G = build_from_permutations(1, [[0]], max_order=cap)
    else:
        swap = [1, 0] + list(range(2, degree))
        cycle = list(range(1, degree)) + [0]
        G = build_from_permutations(degree, [swap, cycle], max_order=cap)
    G.name = spec.describe()
    return G


def _build_product(spec, cap) -> FiniteGroup:
    G = construct(spec.parts[0], cap)
    for part in spec.parts[1:]:
        G = direct_product(G, construct(part, cap), max_order=cap)
    return G


def _build_quotient(spec, cap) -> FiniteGroup:
    parent = construct(spec.group, cap)
    # the check could not bound the indices when the parent's order needs a build
    _check_element_indices(spec.normal_generators, parent.order)
    return quotient(parent, subgroup_generated(parent, spec.normal_generators))


KINDS: dict[str, Kind] = {
    "cyclic": Kind(
        (("n", int),), lambda s: f"cyclic({s.n})", _check_cyclic, _build_cyclic
    ),
    "abelian": Kind(
        (("factors", [int]),),
        lambda s: "abelian(" + "x".join(map(str, s.factors)) + ")",
        _check_abelian,
        _build_abelian,
    ),
    "metacyclic": Kind(
        (("m", int), ("n", int), ("r", int)),
        lambda s: f"metacyclic({s.m},{s.n},{s.r})",
        _check_metacyclic,
        _build_metacyclic,
    ),
    "dicyclic": Kind(
        (("n", int),), lambda s: f"dicyclic({s.n})", _check_dicyclic, _build_dicyclic
    ),
    "heisenberg": Kind(
        (("p", int),), lambda s: f"heisenberg({s.p})", _check_heisenberg, _build_heisenberg
    ),
    "symmetric": Kind(
        (("degree", int),),
        lambda s: f"symmetric({s.degree})",
        _check_symmetric,
        _build_symmetric,
    ),
    "permutation": Kind(
        (("degree", int), ("generators", [[int]])),
        lambda s: f"permutation(degree={s.degree})",
        _check_permutation,
        lambda s, cap: build_from_permutations(s.degree, s.generators, max_order=cap),
    ),
    "table": Kind(
        (("order", int), ("table", [[int]])),
        lambda s: f"table(order={s.order})",
        _check_table,
        lambda s, cap: build_from_table(s.order, s.table, max_order=cap),
    ),
    "product": Kind(
        (("parts", [GroupSpecDescriptor]),),
        lambda s: "product(" + ", ".join(p.describe() for p in s.parts) + ")",
        _check_product,
        _build_product,
    ),
    "quotient": Kind(
        (("group", GroupSpecDescriptor), ("normal_generators", [int])),
        lambda s: f"quotient({s.group.describe()})",
        _check_quotient,
        _build_quotient,
    ),
}
