"""Declarative group recipes and their realizations.

Every spec kind is one entry of ``KINDS``: its fields, how it is
described, its one parameter check and its builder.  JSON reading
(``descriptor_from_dict``), ``to_dict``/``describe``, validation
(``validate_spec``) and ``construct`` all go through that entry, and
``construct`` validates a spec tree once, its parts included.

Presentation-style families (metacyclic, dicyclic) are realized by exact
normal-form multiplication rather than coset enumeration; the defining
relations are cheap to state and tests hold them as the ground truth.
The five formula kinds (cyclic, abelian, metacyclic, dicyclic, heisenberg)
each state one product formula over broadcast index arrays; the abelian
one adds mixed-radix digits, one pass per factor that can carry.  Each
also states its closed-form inverse, which a group past one row block
calls once over every element, and one naming function, which names an
element only when its label is asked for, so building a group computes
no label.  Each is a
``group_core.FormulaGroup``: it keeps the Cayley table its formula fills
while that fits one row block (order <= 512, decided by
``group_core.FiniteGroup`` for every backend), and then drops its formulas,
and past it holds no order x order array.  The abelian formula
gathers through intp digit indices and the others compute in int32
(``_int32``).
Their check still refuses an order whose table would pass the byte budget,
before anything is built, so ``dense_table`` (the oracle, ``--emit-table``)
can always be formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .errors import (
    InvalidMetacyclicParameters,
    InvalidParameters,
    NotAPrime,
    OrderCapExceeded,
)
from .group_core import (
    FiniteGroup,
    FormulaGroup,
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
    if shape[0] is int:  # the common case, checked at C speed for large tables
        return tuple(value) if set(map(type, value)) <= {int} else None
    items = tuple(_read(v, shape[0]) for v in value)
    return None if None in items else items


def _to_json(value):
    if isinstance(value, GroupSpecDescriptor):
        return value.to_dict()
    if isinstance(value, tuple):
        if set(map(type, value)) <= {int}:  # a table row, say: at C speed
            return list(value)
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
    """Validate a descriptor once, subtrees included, and realize it as a concrete group."""
    cap = max_order if max_order is not None else max_order_cap()
    validate_spec(spec, cap)
    return _build(spec, cap)


def _build(spec: GroupSpecDescriptor, cap: int) -> FiniteGroup:
    """Realize a descriptor whose whole tree ``validate_spec`` accepted."""
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


def _table_order(order: int, spec: GroupSpecDescriptor) -> int:
    """``order``, once its int32 Cayley table is known to fit the byte budget."""
    check_image_budget(order, order, f"int32 table rows of {spec.describe()}")
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
    return _table_order(_capped_product([spec.n], cap, spec), spec)


def _check_abelian(spec, cap):
    if not spec.factors or any(f < 1 for f in spec.factors):
        raise InvalidParameters(f"invariant factors must be positive, got {spec.factors}")
    return _table_order(_capped_product(spec.factors, cap, spec), spec)


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
    return _table_order(_capped_product([m, n], cap, spec), spec)


def _check_dicyclic(spec, cap):
    _positive("dicyclic", n=spec.n)
    return _table_order(_capped_product([4, spec.n], cap, spec), spec)


def _check_heisenberg(spec, cap):
    p = spec.p
    if p < 3:
        raise NotAPrime(f"heisenberg parameter must be an odd prime, got {p}")
    order = _table_order(_capped_product([p, p, p], cap, spec), spec)
    if list(prime_factors(p).items()) != [(p, 1)]:
        raise NotAPrime(f"heisenberg parameter must be an odd prime, got {p}")
    return order


def _check_symmetric(spec, cap):
    _positive("symmetric", degree=spec.degree)
    return _capped_product(range(2, spec.degree + 1), cap, spec)


def _check_permutation(spec, cap):
    gen_imgs = permutation_images(spec.degree, spec.generators)
    points = moved_points(gen_imgs).size
    # each generator's order and each orbit length divide |G|: bound it, and the closure's
    # |G| image rows of the moved points, before the closure
    bound = 1
    for lengths in _orbit_lengths(gen_imgs):
        bound = math.lcm(bound, *lengths)
        if bound > cap:
            raise OrderCapExceeded(f"order of {spec.describe()} exceeds the cap {cap}")
        check_image_budget(bound, points, f"permutation images of {spec.describe()}")


def _orbit_lengths(gen_imgs) -> list[list[int]]:
    """Orbit sizes of the points 0..d-1 under each of the k generators alone, then under all.

    One ``orbit_labels`` call on 2k copies of the points, copy c offset by c*d,
    linear in k: generator c moves copies c and k+c, and a shift cycles copies
    k..2k-1, which so hold each orbit of all the generators k times over.
    """
    k, d = len(gen_imgs), len(gen_imgs[0])
    copies = np.arange(2 * k)[:, None]
    moves = np.concatenate([gen_imgs, gen_imgs]) + d * copies
    shifts = np.arange(d) + d * np.concatenate([copies[:k], np.roll(copies[k:], -1)])
    sizes = np.bincount(_kernels.orbit_labels(np.stack([moves, shifts]).reshape(2, -1)))
    per_copy = list(sizes[:k * d].reshape(k, d)) + [sizes[k * d:(k + 1) * d] // k]
    return [s[s > 0].tolist() for s in per_copy]


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
    return f"{sym}^{e}" if e > 1 else sym if e else ""


def _ab_label(i: int, j: int) -> str:
    return f"{_pow_str('a', i)}{' ' if i and j else ''}{_pow_str('b', j)}" or "1"


# -- realizations: each runs on a descriptor its kind's check accepted --------

def _int32(a, b):
    """Index arrays as int32, in which the formulas' arithmetic runs fastest.

    A formula kind's table must fit the byte budget, so its order is at most
    16384 and its largest intermediate, i*t^j < m^2 (metacyclic), stays
    below 2^28.
    """
    return a.astype(np.int32, copy=False), b.astype(np.int32, copy=False)


def _build_cyclic(spec, cap) -> FiniteGroup:
    n = spec.n

    def namer(i):
        return _pow_str("g", i) or "1"

    def product(a, b):
        a, b = _int32(a, b)
        return (a + b) % n

    def invert(a):
        return (n - a) % n

    return FormulaGroup(n, product, invert, (1,) if n > 1 else (0,), namer, spec.describe())


def _build_abelian(spec, cap) -> FiniteGroup:
    factors = np.array(spec.factors, dtype=np.int64)
    order = int(factors.prod())
    strides = order // np.cumprod(factors)
    # digits[x, i] is x's mixed-radix digit i; two digits of a factor up to 64 sum within int8
    dtype = np.int8 if factors.max() <= 64 else np.int32
    digits = (np.arange(order)[:, None] // strides % factors).astype(dtype)
    carries = [
        (np.ascontiguousarray(digits[:, i]), int(factors[i]), int(factors[i] * strides[i]))
        for i in np.flatnonzero(factors > 1)
    ]

    def product(a, b):
        # digit lookups gather fastest through intp indices
        a, b = a.astype(np.intp, copy=False), b.astype(np.intp, copy=False)
        # digit i of a*b is d_i(a) + d_i(b) less f_i when it carries, so subtract f_i * s_i there
        out = a + b
        for digit, f, drop in carries:
            out -= drop * (digit[a] + digit[b] >= f)
        return out

    def invert(a):
        # digit i of a^-1 is (f_i - d_i(a)) mod f_i: -a, plus f_i * s_i where d_i(a) is not 0
        out = -a.astype(np.intp)
        for digit, f, drop in carries:
            out += drop * (digit[a] > 0)
        return out

    gens = strides[factors > 1].tolist()
    places = list(zip(strides.tolist(), factors.tolist()))

    def namer(x):
        return "(" + ",".join(str(x // s % f) for s, f in places) + ")"

    return FormulaGroup(order, product, invert, gens, namer, spec.describe())


def _build_metacyclic(spec, cap) -> FiniteGroup:
    m, n, r = spec.m, spec.n, spec.r
    order = m * n
    # b a b^-1 = a^t with t*r = 1 (mod m) realizes the relation b^-1 a b = a^r
    t = pow(r, -1, m) if m > 1 else 0
    tpow = np.array([pow(t, j, m) if m > 1 else 0 for j in range(n)], dtype=np.int32)

    def product(a, b):
        a, b = _int32(a, b)
        i1, j1 = a % m, a // m
        i2, j2 = b % m, b // m
        return ((j1 + j2) % n) * m + (i1 + i2 * tpow[j1]) % m

    def invert(a):
        # (a^i b^j)^-1 = a^i' b^j' with j' = -j and i' + i * t^j' = 0 (mod m)
        i, j = a % m, (n - a // m) % n
        return j * m + (-i * tpow[j]) % m

    gens = []
    if m > 1:
        gens.append(1)
    if n > 1:
        gens.append(m)

    def namer(k):
        return _ab_label(k % m, k // m)

    return FormulaGroup(order, product, invert, gens, namer, spec.describe())


def _build_dicyclic(spec, cap) -> FiniteGroup:
    n = spec.n
    order = 4 * n
    two_n = 2 * n

    def product(a, b):
        a, b = _int32(a, b)
        i1, j1 = a % two_n, a // two_n
        i2, j2 = b % two_n, b // two_n
        # j1 = 0: a^(i1+i2) b^j2 ; j1 = 1: b a^i2 = a^-i2 b, and b^2 = a^n
        inew = np.where(j1 == 0, i1 + i2, i1 - i2)
        jnew = j1 + j2
        inew = np.where(jnew == 2, inew + n, inew) % two_n
        return (jnew % 2) * two_n + inew

    def invert(a):
        # (a^i)^-1 = a^-i, and (a^i b)^-1 = a^(i+n) b
        i, j = a % two_n, a // two_n
        return j * two_n + np.where(j == 0, -i, i + n) % two_n

    def namer(k):
        return _ab_label(k % two_n, k // two_n)

    return FormulaGroup(order, product, invert, (1, two_n), namer, spec.describe())


def _build_heisenberg(spec, cap) -> FiniteGroup:
    p = spec.p
    order = p ** 3

    def product(a, b):
        a, b = _int32(a, b)
        x1, rem1 = np.divmod(a, p * p)
        y1, z1 = np.divmod(rem1, p)
        x2, rem2 = np.divmod(b, p * p)
        y2, z2 = np.divmod(rem2, p)
        return ((x1 + x2) % p) * p * p + ((y1 + y2) % p) * p + (z1 + z2 + x1 * y2) % p

    def invert(a):
        # (x, y, z)^-1 = (-x, -y, xy - z)
        x, rem = np.divmod(a, p * p)
        y, z = np.divmod(rem, p)
        return (-x % p) * p * p + (-y % p) * p + (x * y - z) % p

    def namer(k):
        return f"({k // (p * p)},{k // p % p},{k % p})"

    return FormulaGroup(order, product, invert, (p * p, p), namer, spec.describe())


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
    G = _build(spec.parts[0], cap)
    for part in spec.parts[1:]:
        G = direct_product(G, _build(part, cap), max_order=cap)
    return G


def _build_quotient(spec, cap) -> FiniteGroup:
    parent = _build(spec.group, cap)
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
