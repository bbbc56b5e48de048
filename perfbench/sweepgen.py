"""Seeded stream of random group specs for the ``sweep`` workload.

Everything here is computed without cutlab: raw Cayley tables come from
this module's own numpy formulas and are relabelled by a seeded
permutation, permutation generators are seeded conjugates of fixed
templates, and each item carries the order (and, for abelian groups, the
exponent) the harness expects cutlab to find.  Specs leave this module as
JSON text only.

The stream has a fixed plan, so that the work in one pass, and the items
that make up its median and its tail, barely depend on the seed: a fixed
number of items per kind, orders on a fixed grid (the midpoint of each equal
slice of the log-order range), and each item's shape drawn from a fixed
generator (``SHAPE_SEED``): the metacyclic ``n``, the abelian factors, the
table family, the parts of a product, the normal subgroup of a quotient.
The seed draws everything else: each metacyclic twist ``r`` (in every kind
that has one), each table's relabelling, each permutation's conjugation and
generator set, and the order of the stream.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

SHAPE_SEED = 20161227  # the same item shapes for every --seed

# kind -> number of items in one stream
PLAN = (
    ("metacyclic", 48),
    ("abelian", 40),
    ("dicyclic", 20),
    ("heisenberg", 12),
    ("permutation", 36),
    ("table", 40),
    ("product", 32),
    ("quotient", 32),
)
MIN_ORDER, MAX_ORDER = 6, 512  # log-order range of the order grid
TABLE_MAX_ORDER = 256  # raw tables stay where the full associativity scan runs
ORDER_BUCKETS = (16, 64, 256, 1024, 4096)

# permutation templates in ascending order: (degree, generators as cycle lists)
PERM_TEMPLATES = (
    (5, [[(0, 1, 2, 3, 4)]]),  # C5
    (5, [[(0, 1, 2, 3, 4)], [(1, 4), (2, 3)]]),  # D10
    (6, [[(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]]),  # D12
    (5, [[(0, 1, 2)], [(1, 2, 3)]]),  # A4
    (5, [[(0, 1, 2)], [(0, 1)], [(3, 4)]]),  # S3 x C2
    (6, [[(0, 1, 2)], [(0, 3), (1, 4), (2, 5)]]),  # C3 wr C2
    (5, [[(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]]),  # F20
    (5, [[(0, 1, 2, 3)], [(0, 1)]]),  # S4
    (6, [[(0, 1)], [(0, 2, 4), (1, 3, 5)]]),  # C2 wr C3
    (6, [[(0, 1, 2)], [(0, 1)], [(3, 4, 5)], [(3, 4)]]),  # S3 x S3
    (5, [[(0, 1, 2, 3, 4)], [(0, 1, 2)]]),  # A5
    (5, [[(0, 1, 2, 3, 4)], [(0, 1)]]),  # S5
)


@dataclass(frozen=True)
class SweepItem:
    """One generated spec and what the harness knows about its group."""

    id: int
    kind: str
    text: str
    order: int
    abelian_exponent: int | None = None


def generate(seed: int) -> list[SweepItem]:
    """The seeded stream, in a seeded order."""
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SHAPE_SEED)
    specs: list[tuple[str, dict, int, int | None]] = []
    for kind, count in PLAN:
        for target in _grid_orders(count):
            spec, order, exponent = _MAKERS[kind](rng, shape, target)
            specs.append((kind, spec, order, exponent))
    order = rng.permutation(len(specs))
    return [
        SweepItem(i, specs[k][0], json.dumps(specs[k][1], separators=(",", ":")), specs[k][2], specs[k][3])
        for i, k in enumerate(order)
    ]


def histogram(items: list[SweepItem]) -> dict:
    """Item counts by kind and by order bucket (upper bound of each bucket)."""
    buckets = Counter()
    for item in items:
        bound = next(b for b in ORDER_BUCKETS if item.order <= b)
        buckets[f"<={bound}"] += 1
    return {
        "by_kind": dict(sorted(Counter(item.kind for item in items).items())),
        "by_order": {f"<={b}": buckets[f"<={b}"] for b in ORDER_BUCKETS},
    }


def _grid_orders(count: int) -> list[int]:
    lo, hi = math.log(MIN_ORDER), math.log(MAX_ORDER)
    draws = (np.arange(count) + 0.5) / count
    return [int(round(math.exp(lo + (hi - lo) * u))) for u in draws]


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


# -- presentation-style kinds --------------------------------------------------

def _metacyclic(rng, shape, target: int, n_choices=(2, 2, 2, 3, 4, 4, 6, 8, 9, 16)):
    n = _pick(shape, [v for v in n_choices if target // v >= 2] or [2])
    m = max(2, target // n)
    rs = [r for r in range(1, m) if math.gcd(r, m) == 1 and pow(r, n, m) == 1]
    nontrivial = [r for r in rs if r != 1]
    r = _pick(rng, nontrivial or rs)
    exponent = math.lcm(m, n) if r == 1 else None
    return {"kind": "metacyclic", "m": m, "n": n, "r": r}, m * n, exponent


def _abelian_factors(shape, target: int) -> list[int]:
    # half the groups have exponent dividing 4 or 6, where the cut verdict flips
    palette = _pick(shape, [(2, 4), (2, 3, 6), (2, 3, 4, 5, 7, 8, 9, 16)])
    factors: list[int] = []
    remaining = target
    while remaining >= 2:
        fitting = [f for f in palette if f <= remaining]
        if not fitting:
            break
        f = _pick(shape, fitting)
        factors.append(f)
        remaining //= f
    return factors or [2]


def _abelian(rng, shape, target: int):
    factors = _abelian_factors(shape, target)
    return {"kind": "abelian", "factors": factors}, math.prod(factors), math.lcm(*factors)


def _dicyclic(rng, shape, target: int):
    n = max(2, round(target / 4))
    return {"kind": "dicyclic", "n": n}, 4 * n, None


def _heisenberg(rng, shape, target: int):
    p = min((3, 5, 7), key=lambda q: abs(math.log(q ** 3 / target)))
    return {"kind": "heisenberg", "p": p}, p ** 3, None


# -- permutation generators ----------------------------------------------------

def _cycles_to_images(degree: int, cycles) -> list[int]:
    img = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return img


def _closure_size(gens: list[list[int]]) -> int:
    start = tuple(range(len(gens[0])))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _permutation(rng, shape, target: int):
    # the grid target picks the template, so each appears equally often
    u = math.log(target / MIN_ORDER) / math.log(MAX_ORDER / MIN_ORDER)
    degree, template = PERM_TEMPLATES[min(len(PERM_TEMPLATES) - 1, int(u * len(PERM_TEMPLATES)))]
    sigma = rng.permutation(degree)
    sigma_inv = np.argsort(sigma)
    gens = []
    for cycles in template:
        img = np.asarray(_cycles_to_images(degree, cycles))
        gens.append([int(v) for v in sigma[img[sigma_inv]]])  # sigma g sigma^-1
    if len(gens) > 1 and rng.random() < 0.5:  # swap in a product for one generator
        a, b = gens[0], gens[1]
        gens[1] = [a[i] for i in b]
    rng.shuffle(gens)
    return {"kind": "permutation", "degree": degree, "generators": gens}, _closure_size(gens), None


# -- raw Cayley tables ---------------------------------------------------------

def _table_cyclic(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _table_abelian(factors: list[int]) -> np.ndarray:
    order = math.prod(factors)
    idx = np.arange(order)
    table = np.zeros((order, order), dtype=np.int64)
    stride = 1
    for f in factors:
        digit = (idx // stride) % f
        table += ((digit[:, None] + digit[None, :]) % f) * stride
        stride *= f
    return table


def _table_semidirect(m: int, n: int, t: int) -> np.ndarray:
    """C_m x| C_n: (i1, j1)(i2, j2) = (i1 + t^j1 i2, j1 + j2), element i + m j."""
    idx = np.arange(m * n)
    i, j = idx % m, idx // m
    tpow = np.array([pow(t, k, m) for k in range(n)])
    inew = (i[:, None] + tpow[j][:, None] * i[None, :]) % m
    jnew = (j[:, None] + j[None, :]) % n
    return inew + m * jnew


def _table_dicyclic(n: int) -> np.ndarray:
    """Q_4n: a^i x^j with x a x^-1 = a^-1 and x^2 = a^n, element i + 2n j."""
    idx = np.arange(4 * n)
    i, j = idx % (2 * n), idx // (2 * n)
    sign = np.where(j == 1, -1, 1)
    inew = i[:, None] + sign[:, None] * i[None, :] + n * (j[:, None] & j[None, :])
    jnew = (j[:, None] + j[None, :]) % 2
    return inew % (2 * n) + 2 * n * jnew


def _relabel(rng, table: np.ndarray) -> np.ndarray:
    """Rename element e as sigma[e], with the identity (0) moved off index 0."""
    n = table.shape[0]
    sigma = rng.permutation(n)
    if sigma[0] == 0:
        k = int(rng.integers(1, n))
        sigma[0], sigma[k] = sigma[k], sigma[0]
    out = np.empty_like(table)
    out[sigma[:, None], sigma[None, :]] = sigma[table]
    return out


def _table(rng, shape, target: int):
    target = max(MIN_ORDER, min(TABLE_MAX_ORDER, int(round(target ** 0.8))))
    choice = int(shape.integers(4))
    exponent = None
    if choice == 0:
        table, exponent = _table_cyclic(target), target
    elif choice == 1:
        factors = _abelian_factors(shape, target)
        table, exponent = _table_abelian(factors), math.lcm(*factors)
    elif choice == 2:
        spec, _, _ = _metacyclic(rng, shape, target)
        m, n, r = spec["m"], spec["n"], spec["r"]
        table = _table_semidirect(m, n, r)
        if r == 1:
            exponent = math.lcm(m, n)
    else:
        table = _table_dicyclic(max(2, round(target / 4)))
    table = _relabel(rng, table)
    n = table.shape[0]
    return {"kind": "table", "order": n, "table": table.tolist()}, n, exponent


# -- products and quotients ----------------------------------------------------

def _small_part(rng, shape, target: int):
    if target >= 27 and shape.random() < 0.25:
        return {"kind": "heisenberg", "p": 3}, 27, None
    return _pick(shape, [_metacyclic, _abelian, _dicyclic])(rng, shape, max(4, target))


def _product(rng, shape, target: int):
    target = min(target, 512)
    left_target = max(2, int(round(target ** float(shape.uniform(0.3, 0.7)))))
    left, lo, le = _small_part(rng, shape, left_target)
    right, ro, re = _small_part(rng, shape, max(2, target // lo))
    exponent = math.lcm(le, re) if le and re else None
    return {"kind": "product", "parts": [left, right]}, lo * ro, exponent


def _quotient(rng, shape, target: int):
    """A group and generators of a normal subgroup, by cutlab's element numbering.

    metacyclic and dicyclic number a^i b^j as i + (size of <a>) j, so <a^k>
    (element k) is normal; heisenberg numbers (x, y, z) as x p^2 + y p + z, so
    element 1 generates the centre; abelian groups number digits most
    significant first, and every subgroup is normal.
    """
    choice = int(shape.integers(4))
    if choice == 0:
        spec, order, _ = _metacyclic(rng, shape, max(8, target))
        m = spec["m"]
        k = _pick(shape, [d for d in range(1, m) if m % d == 0])
        return _quotient_spec(spec, [k], order // (m // math.gcd(k, m)), None)
    if choice == 1:
        spec, order, _ = _dicyclic(rng, shape, max(8, target))
        two_n = 2 * spec["n"]
        k = _pick(shape, [d for d in range(1, two_n) if two_n % d == 0])
        return _quotient_spec(spec, [k], order // (two_n // math.gcd(k, two_n)), None)
    if choice == 2:
        spec, order, _ = _heisenberg(rng, shape, target)
        return _quotient_spec(spec, [1], order // spec["p"], None)
    factors = _abelian_factors(shape, max(4, target))
    strides = [math.prod(factors[i + 1:]) for i in range(len(factors))]
    i = int(shape.integers(len(factors)))
    c = _pick(shape, [d for d in range(1, factors[i]) if factors[i] % d == 0])
    sub = factors[i] // math.gcd(c, factors[i])
    rest = factors[:i] + [math.gcd(c, factors[i])] + factors[i + 1:]
    return _quotient_spec(
        {"kind": "abelian", "factors": factors}, [c * strides[i]], math.prod(factors) // sub, math.lcm(*rest)
    )


def _quotient_spec(group: dict, normal_generators: list[int], order: int, exponent):
    return {"kind": "quotient", "group": group, "normal_generators": normal_generators}, order, exponent


_MAKERS = {
    "metacyclic": _metacyclic,
    "abelian": _abelian,
    "dicyclic": _dicyclic,
    "heisenberg": _heisenberg,
    "permutation": _permutation,
    "table": _table,
    "product": _product,
    "quotient": _quotient,
}
