"""Declarative group recipes and their realizations.

Presentation-style families (metacyclic, dicyclic) are realized by exact
normal-form multiplication rather than coset enumeration; the defining
relations are cheap to state and tests hold them as the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    direct_product,
    max_order_cap,
    prime_factors,
    quotient,
    subgroup_generated,
)

KINDS = (
    "cyclic",
    "abelian",
    "metacyclic",
    "dicyclic",
    "heisenberg",
    "symmetric",
    "permutation",
    "table",
    "product",
    "quotient",
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
        if self.kind in ("cyclic", "dicyclic"):
            out["n"] = self.n
        elif self.kind == "abelian":
            out["factors"] = list(self.factors)
        elif self.kind == "metacyclic":
            out["m"], out["n"], out["r"] = self.m, self.n, self.r
        elif self.kind == "heisenberg":
            out["p"] = self.p
        elif self.kind == "symmetric":
            out["degree"] = self.degree
        elif self.kind == "permutation":
            out["degree"] = self.degree
            out["generators"] = [list(g) for g in self.generators]
        elif self.kind == "table":
            out["order"] = self.order
            out["table"] = [list(row) for row in self.table]
        elif self.kind == "product":
            out["parts"] = [part.to_dict() for part in self.parts]
        elif self.kind == "quotient":
            out["group"] = self.group.to_dict()
            out["normal_generators"] = list(self.normal_generators)
        return out

    def describe(self) -> str:
        if self.kind == "cyclic":
            return f"cyclic({self.n})"
        if self.kind == "abelian":
            return "abelian(" + "x".join(map(str, self.factors)) + ")"
        if self.kind == "metacyclic":
            return f"metacyclic({self.m},{self.n},{self.r})"
        if self.kind == "dicyclic":
            return f"dicyclic({self.n})"
        if self.kind == "heisenberg":
            return f"heisenberg({self.p})"
        if self.kind == "symmetric":
            return f"symmetric({self.degree})"
        if self.kind == "permutation":
            return f"permutation(degree={self.degree})"
        if self.kind == "table":
            return f"table(order={self.order})"
        if self.kind == "product":
            return "product(" + ", ".join(p.describe() for p in self.parts) + ")"
        if self.kind == "quotient":
            return f"quotient({self.group.describe()})"
        return self.kind


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


# -- realizations ------------------------------------------------------------

def _check_cap(order: int, cap: int):
    if order > cap:
        raise OrderCapExceeded(f"order {order} exceeds the cap {cap}")


def _build_cyclic(n: int, cap: int) -> FiniteGroup:
    if n < 1:
        raise InvalidParameters(f"cyclic order must be positive, got {n}")
    _check_cap(n, cap)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = tuple(_pow_str("g", i) or "1" for i in range(n))
    return TableGroup(table, (1,) if n > 1 else (0,), labels, name=f"cyclic({n})")


def _build_abelian(factors: tuple[int, ...], cap: int) -> FiniteGroup:
    if not factors or any(f < 1 for f in factors):
        raise InvalidParameters(f"invariant factors must be positive, got {factors}")
    order = math.prod(factors)
    _check_cap(order, cap)
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
    name = "abelian(" + "x".join(map(str, factors)) + ")"
    return TableGroup(table, gens or (0,), labels, name=name)


def _build_metacyclic(m: int, n: int, r: int, cap: int) -> FiniteGroup:
    if m < 1 or n < 1:
        raise InvalidParameters(f"metacyclic orders must be positive, got m={m}, n={n}")
    if math.gcd(r, m) != 1:
        raise InvalidMetacyclicParameters(
            f"gcd(r, m) = gcd({r}, {m}) = {math.gcd(r, m)}, expected 1"
        )
    residue = pow(r, n, m)
    if residue != 1 % m:
        raise InvalidMetacyclicParameters(
            f"r^n = {r}^{n} ≡ {residue} (mod {m}), expected 1"
        )
    order = m * n
    _check_cap(order, cap)
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
    return TableGroup(table, gens or (0,), labels, name=f"metacyclic({m},{n},{r})")


def _build_dicyclic(n: int, cap: int) -> FiniteGroup:
    if n < 1:
        raise InvalidParameters(f"dicyclic parameter must be positive, got {n}")
    order = 4 * n
    _check_cap(order, cap)
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
    return TableGroup(table, (1, two_n), labels, name=f"dicyclic({n})")


def _build_heisenberg(p: int, cap: int) -> FiniteGroup:
    if p < 3:
        raise NotAPrime(f"heisenberg parameter must be an odd prime, got {p}")
    order = p ** 3
    _check_cap(order, cap)  # before factoring: trial division of a huge p takes hours
    if list(prime_factors(p).items()) != [(p, 1)]:
        raise NotAPrime(f"heisenberg parameter must be an odd prime, got {p}")
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
    return TableGroup(table, (p * p, p), labels, name=f"heisenberg({p})")


def _build_symmetric(degree: int, cap: int) -> FiniteGroup:
    if degree < 1:
        raise InvalidParameters(f"symmetric degree must be positive, got {degree}")
    if degree == 1:
        G = build_from_permutations(1, [[0]], max_order=cap)
    else:
        swap = [1, 0] + list(range(2, degree))
        cycle = list(range(1, degree)) + [0]
        G = build_from_permutations(degree, [swap, cycle], max_order=cap)
    G.name = f"symmetric({degree})"
    return G


def construct(spec: GroupSpecDescriptor, max_order: int | None = None) -> FiniteGroup:
    """Realize a descriptor as a concrete group."""
    cap = max_order if max_order is not None else max_order_cap()
    kind = spec.kind
    if kind == "cyclic":
        return _build_cyclic(spec.n, cap)
    if kind == "abelian":
        return _build_abelian(spec.factors, cap)
    if kind == "metacyclic":
        return _build_metacyclic(spec.m, spec.n, spec.r, cap)
    if kind == "dicyclic":
        return _build_dicyclic(spec.n, cap)
    if kind == "heisenberg":
        return _build_heisenberg(spec.p, cap)
    if kind == "symmetric":
        return _build_symmetric(spec.degree, cap)
    if kind == "permutation":
        return build_from_permutations(spec.degree, spec.generators, max_order=cap)
    if kind == "table":
        return build_from_table(spec.order, spec.table, max_order=cap)
    if kind == "product":
        if not spec.parts:
            raise InvalidParameters("product requires at least one part")
        G = construct(spec.parts[0], cap)
        for part in spec.parts[1:]:
            G = direct_product(G, construct(part, cap), max_order=cap)
        return G
    if kind == "quotient":
        parent = construct(spec.group, cap)
        N = subgroup_generated(parent, spec.normal_generators)
        return quotient(parent, N)
    raise InvalidParameters(f"unknown group kind {kind!r}")
