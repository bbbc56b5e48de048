"""Finite groups with 0-based indexed elements and eager conjugacy data.

Every group is a set of element indices 0..n-1 with index 0 the identity.
Four backends cover all constructions, and each states only its product
(``_product``): a dense Cayley table, a normal-form formula
(``FormulaGroup``), permutation images, and componentwise direct products.
``FiniteGroup`` decides storage for all of them: a group given its table
keeps it, any other keeps its int32 Cayley table while that fits one row
block (``fits_one_block``, order <= 512), so a product is one gather, and
past it holds no n x n array; a direct product keeps none.
A permutation group keeps its images on the moved points only, and a
closure whose images would pass PERMUTATION_BYTE_BUDGET bytes raises
OrderCapExceeded, up front from the order bound of the spec and again
while the closure grows.  Its table is composed from its generators'
columns (``composed_table``); without one image rows are composed by one
flat take and each is mapped back to its element through one sorted index
of int64 row keys (``_point_weights``), so products and inverses are
whole-array numpy operations at every degree.  A formula group without a
table takes its inverses from its kind's closed-form inverse formula.
Elements are named only when a label is asked for.
Conjugacy classes are computed once at build time as orbits under the
generators' conjugations (one cached array, also read by normal closures),
as a class id per element; class sizes, member lists and realness are
built on demand.  Every class fact is read off that partition: the center
is the singleton classes, a subgroup is normal iff it is a union of
classes, and a class is real iff it is its own inverse class.  A direct
product takes its classes and element orders from its factors instead.
Each group fact is computed once and kept on the group (see
``FiniteGroup``); the brute-force oracle of ``cut_engine`` reads none of
them, and the center is formed afresh on each call.
Element orders come from a whole-array power walk over the class
representatives (``orders_modulo``, which also gives the orders of cosets
xN), cut short where p-part powering needs fewer products.  Every power is
``power_vec``'s one-exponent square-and-multiply, whose accumulator starts
at the lowest set bit, so x^k costs ``_power_products(k)`` products (a
square one, x^1 none), and the walk is budgeted in those; the class of x^k
for each class representative is kept per k (``power_map``).  Nilpotency and the class
are read off the upper central series on the class representatives
(``_central_height``), which closes no subgroup.  Subgroups (the center,
the Sylow subgroups, the derived series, and [x, G] for many x at once)
are derived lazily inside G, each as a sorted member set of G and a
short generating list.  A closure still open after
a few plain rounds adds every generator's powers, found by doubling, and a
normal closure adds one outside conjugate of a generator at a time, so it
keeps at most log2 |G| added generators; commutator subgroups are formed
from generators, not from members.  The cosets xH of a subgroup are the
orbits of right multiplication by its generators, each labelled by its
least member in one ``orbit_labels`` walk and kept on the subgroup; a
subgroup given by its members adopts its generators in that walk.
A dense Cayley table is built only where a table is the input or the
output (a table spec, a group small enough to keep one, a quotient,
``dense_table``, and ``SubgroupHandle.as_group``, which serves the tests),
each held to PERMUTATION_BYTE_BUDGET before it is allocated; a
permutation group's is composed, a table spec's is read and checked in row
blocks, a direct product's is the outer sum of its factors' tables, and all
others are filled by ``fill_table``, so the table is their only n x n array.
Every pass in row blocks is sliced by ``_kernels.row_blocks``, to one budget.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InvalidParameters, NotAGroup, NotAPermutation, NotNormal, OrderCapExceeded

DEFAULT_MAX_ORDER = 65_536

# Most bytes of permutation images one closure may store (moved points only),
# and of any int32 Cayley table built from a spec, a subgroup or a quotient.
PERMUTATION_BYTE_BUDGET = 1 << 30


def max_order_cap() -> int:
    """Configured maximum group order (env CUTLAB_MAX_ORDER overrides)."""
    raw = os.environ.get("CUTLAB_MAX_ORDER")
    if not raw:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameters(f"CUTLAB_MAX_ORDER must be an integer, got {raw!r}") from None


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_power(n: int) -> bool:
    """True for 1 and for p^k, k >= 1."""
    return len(prime_factors(n)) <= 1


def _power_products(k: int) -> int:
    """Products ``FiniteGroup.power_vec`` spends on the exponent k >= 0.

    ⌊log2 k⌋ squarings and popcount(k) - 1 multiplies, none for k <= 1.
    """
    return max(k.bit_length() + k.bit_count() - 2, 0)


def _p_part_products(n: int) -> int:
    """Products p-part powering spends on an element of a group of order n.

    For each p^a exactly dividing n: one power x^(n/p^a), then at most a
    powers by p, each counted in ``power_vec``'s real products
    (``_power_products``), so a square costs one and x^(n/p^a) nothing
    when n is a power of p.
    """
    return sum(
        _power_products(n // p**a) + a * _power_products(p)
        for p, a in prime_factors(n).items()
    )


@dataclass(frozen=True, eq=False)
class ConjugacyPartition:
    """Conjugacy classes of a group, indexed by class id.

    Class ids are assigned by ascending smallest member, so the identity
    class is always id 0 and ``representatives[c]`` is the least element
    of class c.  The class sizes, the per-class member arrays and the
    realness of each class are built on first access.  Equal only to itself.
    """

    class_of: np.ndarray
    representatives: np.ndarray
    inverse_class: np.ndarray

    @property
    def num_classes(self) -> int:
        return len(self.representatives)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Size of each class, by class id."""
        sizes = np.bincount(self.class_of, minlength=self.num_classes)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def class_members(self) -> tuple[np.ndarray, ...]:
        """Sorted member array of each class, by class id."""
        by_class = np.argsort(self.class_of, kind="stable").astype(np.int32)
        members = tuple(np.split(by_class, np.cumsum(self.sizes)[:-1]))
        for arr in members:
            arr.flags.writeable = False
        return members

    @cached_property
    def is_real(self) -> np.ndarray:
        """Whether each class is its own inverse class (x ~ x^-1), by class id."""
        real = self.inverse_class == np.arange(self.num_classes)
        real.flags.writeable = False
        return real


class _Names(dict):
    """Names by index (elements or classes), each formed by ``namer`` on first request, then kept."""

    def __init__(self, namer):
        super().__init__()
        self.namer = namer

    def __missing__(self, x: int) -> str:
        name = self[x] = self.namer(x)
        return name


class FiniteGroup:
    """A finite group on element indices 0..order-1 with identity 0.

    A backend states only its product ``_product`` over broadcast index
    arrays, and its inverses (``_compute_inverses``) when it keeps no
    table; everything else (``mul_vec``, powers, orders, conjugacy,
    subgroups, ``dense_table``, names) is generic, and ``ProductGroup``
    overrides conjugacy and orders with factor data.  Instances are
    immutable after construction and safe to share across threads.

    Storage is decided here.  ``table`` is the int32 Cayley table: the one
    given (a table spec, a quotient, ``as_group``), else the one formed by
    ``_form_table`` while it fits one row block (``fits_one_block``, order
    <= 512), else None.  With a table every product is one gather and the
    inverses are read off it; without one ``mul_vec`` calls ``_product``.

    Each group fact is computed once, on first request, and kept on the
    group.  The facts this module forms are cached attributes: the element
    orders, the class power maps (``power_map``, kept per exponent), the
    structural profile and the derived subgroup.  A fact that another
    module computes is kept through ``fact``, keyed by the function that
    computes it: the cut verdict of ``decide_cut``, and what the
    characterizations read (the [x, G] of every class representative, the
    names and order kinds of the representatives, and the cube split).
    The center is formed afresh on each call.  The brute-force oracle reads
    none of these.

    ``labels`` names the elements: a sequence of names by index, or a
    function naming one index, called only when ``label`` first asks for
    that index (default: the index itself).  A naming function must not
    hold the group, so that a group is never part of a reference cycle.
    """

    identity = 0
    # whether a group of at most one row block keeps its table
    keeps_table = True

    def __init__(self, order: int, generators, labels=None, name: str = "group", table=None):
        self.order = int(order)
        self.name = name
        gens = tuple(int(g) for g in generators)
        self.generators = gens if gens else (0,)
        if callable(labels):
            labels = _Names(labels)
        elif labels is not None:
            labels = tuple(labels)
        self._labels = labels
        self._power_maps: dict[int, np.ndarray] = {}
        self._facts: dict = {}
        if table is None and self.keeps_table and fits_one_block(self.order):
            table = self._form_table()
        if table is not None:
            table.flags.writeable = False
        self.table = table
        self.inv_vec = self._compute_inverses() if table is None else _table_inverses(table)
        self.inv_vec.flags.writeable = False
        if not self._generators_cover():
            raise NotAGroup(
                f"generators {self.generators} do not generate all "
                f"{self.order} elements"
            )
        self.conjugacy = self._build_conjugacy()

    # -- backend hooks -----------------------------------------------------

    def _product(self, a, b) -> np.ndarray:
        """Elementwise product of broadcastable index arrays, without the table."""
        raise NotImplementedError

    def _compute_inverses(self) -> np.ndarray:
        """The inverse of every element; a backend that may keep no table states its own."""
        return _table_inverses(self.table)

    def _form_table(self) -> np.ndarray:
        """The int32 Cayley table, filled from ``_product`` (``fill_table``)."""
        return fill_table(self.order, self._product)

    def _generators_cover(self) -> bool:
        return bool((_coset_labels(self, self.generators) == 0).all())

    def _build_conjugacy(self) -> ConjugacyPartition:
        labels = _kernels.orbit_labels(self.generator_conjugations)
        reps = np.unique(labels)
        class_of = np.searchsorted(reps, labels)
        return _frozen_partition(class_of, reps, class_of[self.inv_vec[reps]])

    # -- generic operations -------------------------------------------------

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise product of broadcastable index arrays: a table gather, else ``_product``."""
        if self.table is not None:
            return self.table[a, b]
        return self._product(a, b)

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_vec(a, b))

    def inverse(self, x: int) -> int:
        return int(self.inv_vec[x])

    def lmul_perm(self, g: int) -> np.ndarray:
        """Permutation x -> g*x."""
        return self.mul_vec(g, np.arange(self.order))

    def rmul_perm(self, g: int) -> np.ndarray:
        """Permutation x -> x*g."""
        return self.mul_vec(np.arange(self.order), g)

    def conj_perm(self, g: int) -> np.ndarray:
        """Permutation x -> g*x*g^-1."""
        return self.mul_vec(self.lmul_perm(g), int(self.inv_vec[g]))

    @cached_property
    def generator_conjugations(self) -> np.ndarray:
        """Row i is the permutation x -> g*x*g^-1 of the i-th generator g."""
        gens = np.asarray(self.generators)[:, None]
        perms = self.mul_vec(self.mul_vec(gens, np.arange(self.order)), self.inv_vec[gens])
        perms.flags.writeable = False
        return perms

    def power(self, x: int, k: int) -> int:
        """x^k by square-and-multiply; k may be zero or negative."""
        if k < 0:
            x, k = int(self.inv_vec[x]), -k
        acc, base = 0, int(x)
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return acc

    def power_vec(self, xs, k: int) -> np.ndarray:
        """x^k for every x of ``xs``, one int exponent k >= 0 (ValueError below 0).

        The right-to-left binary method (Knuth, TAOCP Vol. 2, 4.6.3, Alg. A)
        with the accumulator started at the lowest set bit: one squaring per
        bit after the first and one product per set bit after the lowest,
        ``_power_products(k)`` products in all.  For k <= 1 the result is a
        fresh array, never ``xs`` itself.
        """
        if k < 0:
            raise ValueError(f"power_vec takes an exponent k >= 0, got {k}")
        acc, xs = None, np.asarray(xs)
        for bit in range(k.bit_length()):
            if bit:
                xs = self.mul_vec(xs, xs)
            if k >> bit & 1:
                acc = xs if acc is None else self.mul_vec(acc, xs)
        return np.zeros_like(xs) if k == 0 else acc.copy() if k == 1 else acc

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Order of every element (``orders_modulo`` with N the identity).

        Order is a class function, so only the class representatives are
        walked, and each class's order is spread to its members through
        ``class_of``.  The walk x, x^2, ... runs for the
        ``_p_part_products(order)`` products p-part powering needs, counted
        in real products; that settles every element of a small exponent,
        and p-part powering finishes the rest.
        """
        part = self.conjugacy
        reps = part.representatives.astype(np.intp)  # int32 indices would cast in every gather
        identity = np.arange(self.order) == 0
        orders = orders_modulo(self, reps, identity, _p_part_products(self.order) + 1)
        orders = orders[part.class_of]
        orders.flags.writeable = False
        return orders

    def element_order(self, x: int) -> int:
        return int(self.element_orders[x])

    def power_map(self, k: int) -> np.ndarray:
        """The class of x^k for the representative x of each class (read-only, kept per k)."""
        classes = self._power_maps.get(k)
        if classes is None:
            classes = self.conjugacy.class_of[self.power_vec(self.conjugacy.representatives, k)]
            classes.flags.writeable = False
            self._power_maps[k] = classes
        return classes

    @cached_property
    def is_abelian(self) -> bool:
        return self.conjugacy.num_classes == self.order

    def fact(self, compute):
        """``compute(self)``, computed on the first request and kept on G, keyed by ``compute``."""
        if compute not in self._facts:
            self._facts[compute] = compute(self)
        return self._facts[compute]

    @property
    def labels(self) -> tuple[str, ...] | None:
        """Every element's name by index, or None when the index is the name."""
        if isinstance(self._labels, _Names):
            self._labels = tuple(self._labels[x] for x in range(self.order))
        return self._labels

    @property
    def is_named(self) -> bool:
        """Whether ``label`` names an element other than by its index."""
        return self._labels is not None

    def label(self, x: int) -> str:
        return str(int(x)) if self._labels is None else self._labels[int(x)]

    def subgroup(self, members, generators=None) -> "SubgroupHandle":
        """The subgroup on ``members`` (generated by ``generators`` when given).

        It is normal iff it is a union of classes.
        """
        members = np.unique(np.asarray(members, dtype=np.int32))
        mask = np.zeros(self.order, dtype=bool)
        mask[members] = True
        part = self.conjugacy
        met = np.bincount(part.class_of[members], minlength=part.num_classes)
        is_normal = bool(((met == 0) | (met == part.sizes)).all())
        return SubgroupHandle(self, members, mask, is_normal, generators)

    @cached_property
    def profile(self) -> "StructuralProfile":
        return _compute_profile(self)

    @cached_property
    def derived_subgroup(self) -> "SubgroupHandle":
        """[G, G], the normal closure of the commutators of G's generators."""
        return _commutator_subgroup(self, self.generators, self.generators)

    def dense_table(self) -> np.ndarray:
        """The kept Cayley table, else one formed afresh (``_form_table``) within the byte budget."""
        if self.table is not None:
            return self.table
        check_image_budget(self.order, self.order, f"table rows of {self.name}")
        return self._form_table()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, order={self.order})"


class TableGroup(FiniteGroup):
    """Group given by its dense Cayley table: a table spec, a quotient or ``as_group``."""

    def __init__(self, table: np.ndarray, generators, labels=None, name="table"):
        table = np.ascontiguousarray(table, dtype=np.int32)
        super().__init__(table.shape[0], generators, labels, name, table)


class FormulaGroup(FiniteGroup):
    """Group whose product is a normal-form formula.

    ``product(a, b)`` takes broadcastable integer index arrays, each formula
    casting them to the dtype it computes in, and returns the index of each
    product; ``invert(a)``, its closed-form inverse, is called once over
    every element when no table is kept.  A group that keeps its table drops
    both formulas once the table is filled.  Without a table every product
    is evaluated on demand, so memory stays O(order).
    """

    def __init__(self, order: int, product, invert, generators, labels=None, name="formula"):
        self.product, self.invert = product, invert
        super().__init__(order, generators, labels, name)
        if self.table is not None:
            self.product = self.invert = None  # products and inverses are read off the kept table

    def _product(self, a, b) -> np.ndarray:
        return np.asarray(self.product(np.asarray(a), np.asarray(b)), dtype=np.int32)

    def _compute_inverses(self) -> np.ndarray:
        return np.asarray(self.invert(np.arange(self.order, dtype=np.int32)), dtype=np.int32)


class PermutationGroup(FiniteGroup):
    """Group whose elements are permutation image rows.

    ``images[i]`` is the image row of element i, on the points named by
    ``points`` (default 0..degree-1); an element is named in cycle notation
    of those names when its label is asked for.
    Each row is keyed by one int64, its dot product with per-point weights
    (``_point_weights``, wrapping), and the keys are sorted once here; the
    weights are derived afresh while two distinct rows share a key.
    ``_product`` composes image rows by one flat take and maps each back to
    its element by ``np.searchsorted`` on that index, with an exact check of
    the row found, so memory stays O(order * degree); the inverses are found so.
    Its Cayley table is composed from its generators' columns
    (``composed_table``); ``columns``, when given, holds the column x -> x*g
    of each generator g (a closure knows them) and the table is kept, else
    they are looked up.  ``build_from_permutations`` keeps ``images`` within
    ``PERMUTATION_BYTE_BUDGET`` by storing only the moved points.
    """

    def __init__(self, images: np.ndarray, generators, points=None, name="perm", columns=None):
        images = np.ascontiguousarray(images, dtype=np.int32)
        images.flags.writeable = False
        self.images = images
        self.degree = images.shape[1]
        self.points = points = np.arange(self.degree) if points is None else np.asarray(points)
        for salt in itertools.count():
            self._weights = _point_weights(self.degree, salt)
            keys = images @ self._weights
            self._key_order = np.argsort(keys, kind="stable").astype(np.int32)
            self._sorted_keys = keys[self._key_order]
            ties = np.flatnonzero(self._sorted_keys[1:] == self._sorted_keys[:-1])
            if not ties.size:
                break
            tied = images[self._key_order[np.union1d(ties, ties + 1)]]  # equal rows share a key
            if len(np.unique(tied, axis=0)) < len(tied):
                raise NotAGroup("permutation images are not distinct")
        table = None if columns is None else composed_table(generators, columns)
        super().__init__(
            images.shape[0], generators, lambda x: _perm_cycle_label(images[x], points), name, table
        )

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each image row; NotAGroup if a row is not an element."""
        pos = np.searchsorted(self._sorted_keys, rows @ self._weights)
        # a key above every element's sorts past the end: clipped, its row check fails
        found = self._key_order.take(pos, mode="clip")
        if not np.array_equal(self.images.take(found, axis=0), rows):
            raise NotAGroup("a product of permutations is not an element of the group")
        return found

    def _product(self, a, b) -> np.ndarray:
        """Compose image rows by one flat take and look each one up, in row blocks."""
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        flat_a, flat_b = a.ravel(), b.ravel()
        out = np.empty(flat_a.size, dtype=np.int32)
        for chunk in _kernels.row_blocks(out.size, 4 * self.degree):
            # row r of the chunk is images[a][images[b]], read at a * degree + images[b]
            at = self.images.take(flat_b[chunk], axis=0) + (flat_a[chunk] * self.degree)[:, None]
            out[chunk] = self._lookup(self.images.ravel().take(at))
        return out.reshape(a.shape)

    def _form_table(self) -> np.ndarray:
        """The Cayley table composed from the generators' columns, each looked up."""
        gens = np.asarray(self.generators)
        return composed_table(gens, self._product(np.arange(self.order)[None, :], gens[:, None]))

    def _generators_cover(self) -> bool:
        # a table is composed from the generators' columns, and composed_table refuses a short cover
        return self.table is not None or super()._generators_cover()

    def _compute_inverses(self) -> np.ndarray:
        back = np.empty_like(self.images)
        spots = np.broadcast_to(np.arange(self.degree, dtype=np.int32), self.images.shape)
        np.put_along_axis(back, self.images, spots, axis=-1)
        return self._lookup(back)


def orders_modulo(G: FiniteGroup, xs, kernel: np.ndarray, steps: int, rows=0) -> np.ndarray:
    """Order of xN for each x of ``xs``, where N is the member mask ``kernel``.

    ``kernel`` may also stack one mask per row, and ``rows`` names the row
    each x is taken modulo.  The walk x, x^2, x^3, ... over all of ``xs`` at
    once, one ``mul_vec`` per step over the x still open, settles each x
    with x^k in N for some k <= ``steps``; x^k is tested only when k
    divides |G|, since o(xN) divides |G/N|, which divides |G|.  P-part
    powering finishes the rest: for each p^a exactly dividing |G|,
    y = x^(|G|/p^a) has for yN the order the p-part of o(xN), so while y is
    not in N the order gains a factor p and y is replaced by y^p, one
    product for p = 2 (``power_vec``).
    """
    xs = np.asarray(xs)
    inside = np.atleast_2d(kernel).ravel()  # inside[at + y]: whether y is in the N of its row
    at = np.broadcast_to(rows, xs.shape) * G.order
    orders = np.zeros(len(xs), dtype=np.int64)
    live, x, y = np.arange(len(xs)), xs, xs
    for k in range(1, steps + 1):
        if G.order % k == 0:
            done = inside[at + y]
            if done.any():
                orders[live[done]] = k
                keep = ~done
                live, at, x, y = live[keep], at[keep], x[keep], y[keep]
                if not live.size:
                    return orders
        if k < steps:
            y = G.mul_vec(y, x)
    orders[live] = 1
    for p, a in prime_factors(G.order).items():
        open_, at_p, y = live, at, G.power_vec(x, G.order // p**a)
        while True:
            keep = ~inside[at_p + y]
            open_, at_p, y = open_[keep], at_p[keep], y[keep]
            if not open_.size:
                break
            orders[open_] *= p
            y = G.power_vec(y, p)
    return orders


def _frozen_partition(class_of, reps, inverse_class) -> ConjugacyPartition:
    """A read-only int32 ConjugacyPartition of the three arrays."""
    arrays = [np.asarray(a, dtype=np.int32) for a in (class_of, reps, inverse_class)]
    for arr in arrays:
        arr.flags.writeable = False
    return ConjugacyPartition(*arrays)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte key per int32 image row, the dict key of ``build_from_permutations``."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(np.dtype((np.void, 4 * rows.shape[-1]))).reshape(rows.shape[:-1])


def _point_weights(degree: int, salt: int = 0) -> np.ndarray:
    """One int64 weight per point: splitmix64's output ``salt * degree`` plus the point's index.

    An image row's key is its dot product with these weights, wrapping
    (``PermutationGroup``); a fixed mixer keeps every key the same from run to run.
    """
    z = np.arange(salt * degree + 1, (salt + 1) * degree + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return (z ^ z >> np.uint64(31)).view(np.int64)


class ProductGroup(FiniteGroup):
    """Direct product with componentwise multiplication; index = g*|H| + h.

    The factors' generators generate the product, and its classes and
    element orders follow from theirs: the class of (g, h) is the pair of
    classes, numbered c_g * k_H + c_h over the k_H classes of H (which keeps
    the ascending-smallest-member order), and o(g, h) = lcm(o(g), o(h)).
    It keeps no table: most products serve too few calls to repay one.
    ``dense_table`` forms one from the factors' ``dense_table``s, as their
    outer sum.
    """

    keeps_table = False

    def __init__(self, left: FiniteGroup, right: FiniteGroup, name=None):
        self.left = left
        self.right = right
        order = left.order * right.order
        gens = [g * right.order for g in left.generators if g != 0]
        gens += [h for h in right.generators if h != 0]

        def namer(x):
            a1, a2 = divmod(x, right.order)
            return f"({left.label(a1)},{right.label(a2)})"

        super().__init__(order, gens, namer, name or f"{left.name}x{right.name}")

    def _product(self, a, b) -> np.ndarray:
        g, h = self._factor_indices
        return self.left.mul_vec(g[a], g[b]) * self.right.order + self.right.mul_vec(h[a], h[b])

    def _form_table(self) -> np.ndarray:
        """The Cayley table: entry ((g, h), (g', h')) is gg' * |H| + hh', one outer sum."""
        left, right = self.left.dense_table(), self.right.dense_table()
        table = left[:, None, :, None] * self.right.order + right[None, :, None, :]
        return table.reshape(self.order, self.order)

    def _compute_inverses(self) -> np.ndarray:
        a1, a2 = self._factor_indices
        return (
            self.left.inv_vec[a1] * self.right.order + self.right.inv_vec[a2]
        ).astype(np.int32)

    @cached_property
    def _factor_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """The factor elements (g, h) of every element, as two index arrays."""
        return np.divmod(np.arange(self.order), self.right.order)

    def _generators_cover(self) -> bool:
        return True

    def _build_conjugacy(self) -> ConjugacyPartition:
        left, right = self.left.conjugacy, self.right.conjugacy
        k = right.num_classes
        a1, a2 = self._factor_indices
        reps = left.representatives[:, None] * self.right.order + right.representatives[None, :]
        inverse_class = left.inverse_class[:, None] * k + right.inverse_class[None, :]
        return _frozen_partition(
            left.class_of[a1] * k + right.class_of[a2], reps.ravel(), inverse_class.ravel()
        )

    @cached_property
    def element_orders(self) -> np.ndarray:
        a1, a2 = self._factor_indices
        orders = np.lcm(self.left.element_orders[a1], self.right.element_orders[a2])
        orders.flags.writeable = False
        return orders


@dataclass(frozen=True, eq=False)
class SubgroupHandle:
    """A subgroup of a parent group: a sorted member-index array and a generating list.

    ``closed_from`` is the generating list it was closed from, if any.  The
    least member of every left coset xH is kept with the generators
    (``_cosets``).  Equal only to itself.
    """

    parent: FiniteGroup
    members: np.ndarray
    _mask: np.ndarray = field(repr=False)
    is_normal: bool
    closed_from: tuple[int, ...] | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def generators(self) -> tuple[int, ...]:
        """``closed_from``, else the members ``_cosets`` adopts (at most log2 |H|)."""
        return self._cosets[0] if self.closed_from is None else self.closed_from

    @cached_property
    def _cosets(self) -> tuple[tuple[int, ...], np.ndarray]:
        """The generators and, by x, the least member of the left coset xH (read-only).

        A handle closed from generators labels their orbits under right
        multiplication; one built from members adopts them in the same walk.
        """
        G = self.parent
        if self.closed_from is None:
            gens, minima = _adopt_generators(G.rmul_perm, self.members, G.order)
        else:
            gens, minima = self.closed_from, _coset_labels(G, self.closed_from)
        minima.flags.writeable = False
        return gens, minima

    def as_group(self, name=None) -> TableGroup:
        """Re-index the members as a standalone group of their own (a dense table)."""
        name = name or f"{self.parent.name}-sub{self.order}"
        check_image_budget(self.order, self.order, f"table rows of {name}")
        members, mul_vec = self.members, self.parent.mul_vec
        table = fill_table(
            self.order, lambda a, b: np.searchsorted(members, mul_vec(members[a], members[b]))
        )
        labels = None
        if self.parent.is_named:
            labels = tuple(self.parent.label(int(m)) for m in members)
        return TableGroup(table, greedy_generators(table), labels, name)


@dataclass(frozen=True)
class StructuralProfile:
    """Coarse structural facts about a group (``_compute_profile``).

    ``pi``, ``is_p_group`` and ``p`` come from the prime factors of the
    order; ``exponent`` and ``is_eppo`` from the distinct element orders;
    ``is_real_group`` from the class partition (every class its own inverse
    class).  ``is_nilpotent`` and ``nilpotency_class`` are read off the
    upper central series (``_central_height``; class 0 for the trivial
    group, None when not nilpotent).  ``is_solvable`` is True for a
    nilpotent group, else read off the derived series
    (``derived_series_orders``).  ``sylow_subgroups`` holds the Sylow
    subgroup of each prime of a nilpotent group, its q-elements; it is empty
    otherwise.
    """

    order: int
    pi: tuple[int, ...]
    exponent: int
    is_solvable: bool
    is_nilpotent: bool
    nilpotency_class: int | None
    is_p_group: bool
    p: int | None
    is_eppo: bool
    is_real_group: bool
    sylow_subgroups: dict[int, SubgroupHandle]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

# Rounds of plain search before a closure adds its generators' powers: on
# the small groups of the corpus most closures end within them, and the
# powers would cost more rounds than they save.
PLAIN_ROUNDS = 8


def _closure_members(G: FiniteGroup, gens, inside=None) -> np.ndarray:
    """Members of the subgroup generated by ``gens``, ascending.

    ``inside``, when given, is the member mask of a subgroup generated by
    some of ``gens``, which the closure extends.  Closure under
    multiplication alone suffices: inverses are positive powers in a finite
    group.  Each round multiplies the elements new in the last one by every
    generator (right-mult BFS), in row blocks (``_kernels.row_blocks``).  A
    closure still open after PLAIN_ROUNDS rounds adds every generator's
    powers (``_mark_powers``) and goes on from all it holds, so a cyclic
    subgroup of order m closes in about log2 m rounds, not m.
    """
    garr = np.unique(np.asarray(list(gens), dtype=np.int32))
    if not garr.size:
        return np.zeros(1, dtype=np.int32)
    mask = np.zeros(G.order, dtype=bool) if inside is None else inside.copy()
    mask[0] = True
    frontier = np.flatnonzero(mask)
    for done in itertools.count(1):
        found = []
        for rows in _kernels.row_blocks(frontier.size, 8 * garr.size):
            prod = np.unique(G.mul_vec(frontier[rows, None], garr[None, :]))
            new = prod[~mask[prod]]
            mask[new] = True
            found.append(new)
        frontier = found[0] if len(found) == 1 else np.concatenate(found)
        if not frontier.size:
            return np.flatnonzero(mask).astype(np.int32)
        if done == PLAIN_ROUNDS:
            _mark_powers(G, garr, mask)
            frontier = np.flatnonzero(mask)


def _mark_powers(G: FiniteGroup, gens: np.ndarray, mask: np.ndarray) -> None:
    """Mark every power of every generator in ``mask``, by doubling.

    Block k of g's powers is g^(2^k)..g^(2^(k+1) - 1), the blocks before it
    times g^(2^k); g is done once a block holds the identity, as every power
    of g is then marked.
    """
    powers, step = np.zeros((gens.size, 1), dtype=np.int32), gens
    while step.size:
        block = G.mul_vec(powers, step[:, None])
        mask[block] = True
        open_ = (block != 0).all(axis=1)
        powers = np.concatenate([powers, block], axis=1)[open_]
        step = G.mul_vec(step, step)[open_]


def subgroup_generated(G: FiniteGroup, seeds, normal_closure: bool = False) -> SubgroupHandle:
    """Subgroup (or normal closure) generated by the given element indices.

    A subgroup is normal iff every generator of G conjugates each of its
    generators into it.  So the normal closure adds one conjugate g s g^-1
    outside the subgroup at a time, for s a kept generator and g a generator
    of G, and closes again.  Each addition at least doubles the order, so at
    most log2 |G| generators are added (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 3).  The handle keeps the seeds
    and the added conjugates as its generators.
    """
    gens = sorted({int(s) for s in seeds} - {0})
    if not gens:
        return G.subgroup([0], ())
    members = _closure_members(G, gens)
    while normal_closure:
        mask = np.zeros(G.order, dtype=bool)
        mask[members] = True
        conj = G.generator_conjugations[:, gens].ravel()
        outside = conj[~mask[conj]]
        if not outside.size:
            break
        gens.append(int(outside[0]))
        members = _closure_members(G, gens, mask)
    return G.subgroup(members, tuple(gens))


def _coset_labels(G: FiniteGroup, gens) -> np.ndarray:
    """The least member of each left coset x<gens>: the orbits of right multiplication by ``gens``."""
    gens = np.asarray(gens, dtype=np.int64)
    return _kernels.orbit_labels(G.mul_vec(np.arange(G.order)[None, :], gens[:, None]))


def _adopt_generators(rmul, candidates: np.ndarray, order: int):
    """Adopt the least candidate outside <gens> while one is; return gens and the labels of x<gens>.

    ``rmul(g)`` is the permutation x -> x*g, and each adopted g extends the
    labels (``orbit_labels``); <gens> is the coset of 0.  Each adopted g at
    least doubles <gens>, so at most log2 ``order`` are adopted.
    """
    gens: list[int] = []
    labels = np.arange(order, dtype=np.int32)
    while True:
        outside = candidates[labels[candidates] != 0]
        if not outside.size:
            return tuple(gens), labels
        gens.append(int(outside[0]))
        labels = _kernels.orbit_labels(rmul(gens[-1])[None], labels)


def greedy_generators(table: np.ndarray) -> tuple[int, ...]:
    """Small generating set of a Latin square's group: column g is x -> x*g (``_adopt_generators``)."""
    n = len(table)
    return _adopt_generators(lambda g: table[:, g], np.arange(n), n)[0] or (0,)


def fill_table(order: int, product) -> np.ndarray:
    """The int32 Cayley table of ``product(a, b)`` over broadcast int32 index arrays.

    ``a`` is a column of row indices, one row block, and ``b`` is always the
    row ``arange(order)[None, :]``.

    Each int64 array of a row block holds an eighth of BLOCK_BYTES, so the
    few arrays of that size a product forms stay within about BLOCK_BYTES
    together, and the table is the only order x order array.
    """
    table = np.empty((order, order), dtype=np.int32)
    idx = np.arange(order, dtype=np.int32)
    for rows in _kernels.row_blocks(order, 64 * order):
        table[rows] = product(idx[rows, None], idx[None, :])
    return table


def fits_one_block(order: int) -> bool:
    """Whether the int32 Cayley table of a group of ``order`` fits one row block (order <= 512).

    A group that small keeps its table, so every product is one gather;
    past it the table would be the only order x order array of the group.
    """
    return 4 * order * order <= _kernels.BLOCK_BYTES


def composed_table(gens, columns: np.ndarray) -> np.ndarray:
    """The int32 Cayley table of a group from the columns x -> x*g of its generators.

    ``columns[i]`` is the column of ``gens[i]``, and ``gens`` generate the
    group.  The column of y*d is the column of d read at the column of y
    (x*y*d), so each round extends the known columns by every step d: the
    generators and their repeated squares, one more square each round.
    Each new column is one gather of n entries, in row blocks; the columns
    are filled as rows and transposed in place, so the table is the only
    n x n array.  Raises NotAGroup when ``gens`` do not generate n elements.
    """
    gens = np.asarray(gens, dtype=np.intp)
    n = columns.shape[1]
    table = np.empty((n, n), dtype=np.int32)  # row y holds the column of y until the transpose
    table[0] = np.arange(n)
    table[gens] = columns
    flat = table.reshape(-1)
    known, is_step = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    known[0] = known[gens] = is_step[0] = is_step[gens] = True
    source = np.empty(n, dtype=np.intp)  # where each element was last met among the products
    steps = latest = gens[gens != 0]
    while not known.all():
        ys = np.flatnonzero(known)
        products = table[steps[:, None], ys].ravel()  # y*d, one row of ys per step d
        source[products] = np.arange(products.size)
        reached = known.copy()
        reached[products] = True
        found = np.flatnonzero(reached ^ known)
        if not found.size:
            raise NotAGroup(f"generators {tuple(gens.tolist())} do not generate all {n} elements")
        d, y = np.divmod(source[found], ys.size)
        at, y = steps[d] * n, ys[y]
        for rows in _kernels.row_blocks(found.size, 16 * n):
            table[found[rows]] = flat[at[rows, None] + table[y[rows]]]
        known = reached
        if latest.size:
            squares = table[latest, latest]
            latest = squares[~is_step[squares]]
            is_step[latest] = True
            steps = np.concatenate([steps, latest])
    _transpose_in_place(table)
    return table


def _transpose_in_place(a: np.ndarray) -> None:
    """Transpose a square array in place, one strip of rows and its columns at a time."""
    n = len(a)
    for rows in _kernels.row_blocks(n, 8 * n):
        lo, hi = rows.start, rows.stop
        row, col = a[lo:hi, lo:].copy(), a[lo:, lo:hi].copy()
        a[lo:hi, lo:] = col.T
        a[lo:, lo:hi] = row.T


def _table_inverses(table: np.ndarray) -> np.ndarray:
    """The column of the identity 0 in each row of a table, read in row blocks."""
    blocks = _kernels.row_blocks(len(table), len(table))
    return np.concatenate([np.argmax(table[rows] == 0, axis=1) for rows in blocks]).astype(np.int32)


def build_from_table(n: int, table, max_order: int | None = None) -> FiniteGroup:
    """Validate a raw n x n multiplication table and wrap it as a group.

    The identity is located and relabeled to index 0 if needed.  Raises
    NotAGroup naming the offending cell or triple on any axiom violation.
    ``table`` (an array or a sequence of rows) is read into one int32 table
    in row blocks, and every check runs in row blocks, so the int32 table is
    the only n x n array.
    """
    cap = max_order if max_order is not None else max_order_cap()
    if n < 1:
        raise NotAGroup("order must be positive")
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    if isinstance(table, np.ndarray) or not len(table):
        shape = np.shape(table)
    else:  # the shape np.asarray would give, without converting every row
        shape = (len(table),) + np.shape(table[0])
    if shape != (n, n):
        raise NotAGroup(f"table shape {shape} does not match order {n}")
    idx = np.arange(n)
    out = np.empty((n, n), dtype=np.int32)
    row_id, col_id = np.empty(n, dtype=bool), np.ones(n, dtype=bool)
    for rows in _kernels.row_blocks(n, 8 * n):
        block = np.asarray(table[rows], dtype=np.int64)
        bad = (block < 0) | (block >= n)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise NotAGroup(f"entry out of range at cell ({rows.start + r}, {c})")
        out[rows] = block
        row_id[rows] = (block == idx).all(axis=1)
        col_id &= (block == idx[rows, None]).all(axis=0)
    hits = np.nonzero(row_id & col_id)[0]
    if hits.size != 1:
        raise NotAGroup("table has no two-sided identity element")
    e = int(hits[0])
    if e != 0:
        # swap the names 0 and e: rows, columns, then entries
        swap = idx.copy()
        swap[0], swap[e] = e, 0
        out[[0, e]] = out[[e, 0]]
        out[:, [0, e]] = out[:, [e, 0]]
        for rows in _kernels.row_blocks(n, 8 * n):
            out[rows] = swap[out[rows]]

    return TableGroup(out, _check_group_table(out), name=f"table{n}")


def _check_group_table(table: np.ndarray, gens=None) -> tuple[int, ...]:
    """Raise NotAGroup unless a table with identity 0 is a group; return ``gens``.

    Checks the Latin square, two-sided inverses and, by Light's test over
    ``gens`` (greedy when None; they must reach every element from 0 under
    right multiplication), associativity, each in row blocks.
    """
    n = table.shape[0]
    idx = np.arange(n)
    for word in ("row", "column"):
        for lines in _kernels.row_blocks(n, 12 * n):
            chunk = table[lines] if word == "row" else table[:, lines].T
            ok = (np.sort(chunk, axis=1) == idx).all(axis=1)
            if not ok.all():
                line = lines.start + int(np.argmin(ok))
                raise NotAGroup(f"{word} {line} is not a permutation (Latin square fails)")

    inv = _table_inverses(table)
    two_sided = table[inv, idx] == 0
    if not two_sided.all():
        x = int(np.argmin(two_sided))
        raise NotAGroup(f"element {x} has mismatched left/right inverse")

    if gens is None:
        gens = greedy_generators(table)
    bad = _kernels.first_bad_triple(table, gens)
    if bad is not None:
        raise NotAGroup(f"associativity fails on triple {bad}")
    return gens


def _perm_cycle_label(img: np.ndarray, points: np.ndarray) -> str:
    """Cycle notation of an image row on ``points`` (ascending), named by those points."""
    n = len(img)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or img[start] == start:
            seen[start] = True
            continue
        cur, cyc = start, []
        while not seen[cur]:
            seen[cur] = True
            cyc.append(int(points[cur]))
            cur = int(img[cur])
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


def permutation_images(degree: int, gens) -> list[np.ndarray]:
    """Generator image arrays; raises NotAPermutation unless each is a bijection."""
    if degree < 1:
        raise NotAPermutation("degree must be positive")
    gen_imgs = []
    for g in gens:
        arr = np.asarray(list(g), dtype=np.int32)
        if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
            raise NotAPermutation(f"{list(g)} is not a permutation of 0..{degree - 1}")
        gen_imgs.append(arr)
    if not gen_imgs:
        raise NotAPermutation("at least one generator is required")
    return gen_imgs


def moved_points(gen_imgs) -> np.ndarray:
    """Points moved by some generator, ascending (point 0 when none moves)."""
    stack = np.stack(gen_imgs)
    moved = np.nonzero((stack != np.arange(stack.shape[1])).any(axis=0))[0]
    return moved if moved.size else np.zeros(1, dtype=np.int64)


def check_image_budget(rows: int, points: int, what: str) -> None:
    """Raise OrderCapExceeded when ``rows`` int32 image rows of ``points`` entries pass the budget."""
    if rows * points * 4 > PERMUTATION_BYTE_BUDGET:
        raise OrderCapExceeded(f"{what} exceed the byte budget {PERMUTATION_BYTE_BUDGET}")


def build_from_permutations(degree: int, gens, max_order: int | None = None) -> FiniteGroup:
    """Close a set of permutation generators under composition (BFS order).

    Elements are indexed in breadth-first discovery order starting from the
    identity: element i's products with the generators, in generator order,
    are numbered before element i+1's.  Images are stored on the moved
    points only, and the closure raises OrderCapExceeded when the element
    count passes the cap or the stored images pass PERMUTATION_BYTE_BUDGET.
    """
    cap = max_order if max_order is not None else max_order_cap()
    gen_imgs = permutation_images(degree, gens)
    points = moved_points(gen_imgs)
    local = np.full(degree, -1, dtype=np.int32)
    local[points] = np.arange(points.size, dtype=np.int32)
    gen_stack = local[np.stack(gen_imgs)[:, points]]

    keys = [np.arange(points.size, dtype=np.int32).tobytes()]
    index = {keys[0]: 0}
    products = []  # the index of x*g for every element x and every row g of gen_stack
    start = 0
    while start < len(keys):
        # the next frontier slice, each element times every generator, in BFS order
        rows = next(_kernels.row_blocks(len(keys), 4 * points.size * len(gen_imgs), start))
        frontier = np.frombuffer(b"".join(keys[rows]), dtype=np.int32)
        composed_keys = _row_keys(frontier.reshape(-1, points.size)[:, gen_stack]).ravel().tolist()
        for key in composed_keys:
            if key not in index:
                if len(keys) >= cap:
                    raise OrderCapExceeded(f"permutation closure exceeds the cap {cap}")
                check_image_budget(len(keys) + 1, points.size, "permutation images")
                index[key] = len(keys)
                keys.append(key)
        # kept while the group may still keep its table, whose columns they give
        if products is not None and fits_one_block(len(keys)):
            products.append(np.array(list(map(index.__getitem__, composed_keys)), dtype=np.int32))
        else:
            products = None
        start = rows.stop

    gen_idx, firsts = [], []
    for s, key in enumerate(_row_keys(gen_stack).tolist()):
        i = index[key]
        if i != 0 and i not in gen_idx:
            gen_idx.append(i)
            firsts.append(s)
    stack = np.frombuffer(b"".join(keys), dtype=np.int32).reshape(len(keys), points.size)
    columns = None
    if products is not None and gen_idx:  # a trivial group's identity generator is looked up
        columns = np.concatenate(products).reshape(len(keys), len(gen_imgs))[:, firsts].T
    return PermutationGroup(stack, gen_idx, points, name=f"perm{len(stack)}", columns=columns)


def direct_product(G: FiniteGroup, H: FiniteGroup, max_order: int | None = None) -> FiniteGroup:
    """Direct product with (g, h) indexed as g*|H| + h."""
    cap = max_order if max_order is not None else max_order_cap()
    if G.order * H.order > cap:
        raise OrderCapExceeded(
            f"product order {G.order * H.order} exceeds the cap {cap}"
        )
    return ProductGroup(G, H)


# ---------------------------------------------------------------------------
# subgroups, quotients and series inside G
# ---------------------------------------------------------------------------

def center(G: FiniteGroup) -> SubgroupHandle:
    """The elements that are conjugacy classes of their own."""
    part = G.conjugacy
    return G.subgroup(part.representatives[part.sizes == 1])


def _require_normal(G: FiniteGroup, N: SubgroupHandle) -> None:
    if not N.is_normal:
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")


def coset_minima(G: FiniteGroup, N: SubgroupHandle) -> np.ndarray:
    """The least member of each element's coset xN, for a normal N (kept on N: ``_cosets``)."""
    _require_normal(G, N)
    return N._cosets[1]


def quotient(G: FiniteGroup, N: SubgroupHandle) -> FiniteGroup:
    """Quotient group on cosets, numbered and named by their least members (a dense table)."""
    n = G.order // N.order
    check_image_budget(n, n, f"table rows of {G.name}/N{N.order}")
    rep_of = coset_minima(G, N)
    reps = np.flatnonzero(rep_of == np.arange(G.order))
    coset_id = np.searchsorted(reps, rep_of)
    # fill_table's column operand is always the whole row, whose representatives are reps itself
    table = fill_table(n, lambda a, _: coset_id[G.mul_vec(reps[a], reps[None, :])])
    labels = tuple(G.label(int(r)) for r in reps)
    gens = []
    for g in G.generators:
        c = int(coset_id[g])
        if c != 0 and c not in gens:
            gens.append(c)
    return TableGroup(table, gens, labels, name=f"{G.name}/N{N.order}")


def _commutators(G: FiniteGroup, xs, ys) -> np.ndarray:
    """[x, y] = x y x^-1 y^-1 for broadcastable index arrays ``xs`` and ``ys``."""
    return G.mul_vec(G.mul_vec(G.mul_vec(xs, ys), G.inv_vec[xs]), G.inv_vec[ys])


def commutator_subgroups(G: FiniteGroup, xs) -> list[SubgroupHandle]:
    """[x, G], the normal closure of {[x, g] : g in G}, for each x of ``xs``.

    As [x, gh] = [x, g] g[x, h]g^-1, it is the normal closure of the
    commutators of x with G's generators; elements with the same such
    commutators share one closure (``_distinct_commutator_subgroups``).
    """
    subs, which = _distinct_commutator_subgroups(G, xs)
    return [subs[i] for i in which.tolist()]


def _distinct_commutator_subgroups(G: FiniteGroup, xs) -> tuple[list[SubgroupHandle], np.ndarray]:
    """One [x, G] per distinct row of commutators [x, g] over G's generators g, and each x's row."""
    rows = _commutators(G, np.asarray(xs)[:, None], np.asarray(G.generators)[None, :])
    distinct, which = np.unique(rows, axis=0, return_inverse=True)
    return [subgroup_generated(G, row, normal_closure=True) for row in distinct], which.ravel()


def _commutator_subgroup(G: FiniteGroup, xs, ys) -> SubgroupHandle:
    """The normal closure in G of [x, y] for x in ``xs`` and y in ``ys``.

    Conjugate commutators have the same normal closure, so it is seeded with
    one class representative of G per class the commutators meet.
    """
    comms = _commutators(G, np.asarray(xs)[:, None], np.asarray(ys)[None, :])
    part = G.conjugacy
    seeds = part.representatives[np.unique(part.class_of[comms])]
    return subgroup_generated(G, seeds, normal_closure=True)


def derived_series_orders(G: FiniteGroup) -> list[int]:
    """Orders along the derived series, ending at 1 iff solvable.

    Each term is a subgroup of G: D_{k+1} = [D_k, D_k] is the normal closure
    in G of [s, t] over the generators s, t of D_k.  That closure lies in
    [D_k, D_k], which is characteristic in D_k and so normal in G; and
    modulo it the generators of D_k commute, so it holds [D_k, D_k].
    """
    orders = [G.order]
    if G.order == 1:
        return orders
    D = G.derived_subgroup
    while True:
        orders.append(D.order)
        if D.order in (1, orders[-2]):
            return orders
        D = _commutator_subgroup(G, D.generators, D.generators)


def lower_central_series(G: FiniteGroup) -> list[SubgroupHandle]:
    """G = gamma_1 >= gamma_2 >= ..., stopping at 1 or at stabilization.

    gamma_{k+1} = [G, gamma_k] is the normal closure in G of [g, s] over the
    generators g of G and s of gamma_k: modulo that closure each s commutes
    with all of G, so gamma_k is central there.  gamma_2 is the derived
    subgroup kept on G.  Nothing in the package calls it: the profile reads
    nilpotency off the upper central series (``_central_height``), and the
    tests check that against this series.
    """
    series = [G.subgroup(np.arange(G.order), G.generators)]
    while series[-1].order > 1:
        if len(series) == 1:
            series.append(G.derived_subgroup)
        else:
            series.append(_commutator_subgroup(G, G.generators, series[-1].generators))
        if series[-1].order == series[-2].order:
            break
    return series


def _central_height(G: FiniteGroup) -> int | None:
    """The length of the upper central series 1 = Z_0 <= Z_1 <= ..., or None if it stops below G.

    Z_1 is the center, the singleton classes.  Past it, x is in Z_{i+1} iff
    [x, g] is in Z_i for every generator g of G, since [x, gh] =
    [x, g] g[x, h]g^-1 and Z_i is normal.  Each Z_i is a union of classes,
    so the commutators of the class representatives with the generators are
    formed once, as classes, when a second step is needed, and each step is
    one gather and one ``all`` over them.  For a nilpotent G the length is
    its class, the length of the lower central series (Robinson, *A Course
    in the Theory of Groups*, section 5.1).
    """
    part = G.conjugacy
    central = part.sizes == 1  # Z_1, by class
    height, below, comm_classes = int(G.order > 1), 1, None
    while (size := int(central.sum())) < part.num_classes:
        if size == below:
            return None
        if comm_classes is None:
            reps, gens = part.representatives[:, None], np.asarray(G.generators)[None, :]
            comm_classes = part.class_of[_commutators(G, reps, gens)]
        central, height, below = central[comm_classes].all(axis=1), height + 1, size
    return height


def _compute_profile(G: FiniteGroup) -> StructuralProfile:
    n = G.order
    pi = tuple(sorted(prime_factors(n)))
    orders = G.element_orders
    distinct = [int(v) for v in np.unique(orders)]
    exponent = math.lcm(*distinct) if distinct else 1
    eppo = all(is_prime_power(v) for v in distinct)
    real = bool(G.conjugacy.is_real.all())

    nilpotency_class = _central_height(G)
    nilpotent = nilpotency_class is not None
    # a nilpotent group is solvable
    solvable = nilpotent or derived_series_orders(G)[-1] == 1

    p_group = len(pi) <= 1
    p = pi[0] if len(pi) == 1 else None

    sylow: dict[int, SubgroupHandle] = {}
    if nilpotent:
        # in a nilpotent group the q-elements form the Sylow q-subgroup
        for q, a in sorted(prime_factors(n).items()):
            sylow[q] = G.subgroup(np.flatnonzero(q**a % orders == 0))
    return StructuralProfile(
        order=n,
        pi=pi,
        exponent=exponent,
        is_solvable=solvable,
        is_nilpotent=nilpotent,
        nilpotency_class=nilpotency_class,
        is_p_group=p_group,
        p=p,
        is_eppo=eppo,
        is_real_group=real,
        sylow_subgroups=sylow,
    )


# ---------------------------------------------------------------------------
# axiom validation (used by tests and by untrusted-table ingestion)
# ---------------------------------------------------------------------------

def validate_group_axioms(G: FiniteGroup) -> None:
    """Re-check identity, Latin square, inverses and associativity.

    Constructor-built groups satisfy these by construction; this is the
    independent re-verification path, exact because construction proved that
    ``G.generators`` reach all of G.  Raises NotAGroup on any violation.
    """
    idx = np.arange(G.order)
    if not (np.array_equal(G.lmul_perm(0), idx) and np.array_equal(G.rmul_perm(0), idx)):
        raise NotAGroup("index 0 is not a two-sided identity")
    _check_group_table(G.dense_table(), G.generators)
