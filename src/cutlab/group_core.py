"""Finite groups with 0-based indexed elements and eager conjugacy data.

Every group is a set of element indices 0..n-1 with index 0 the identity.
Three storage backends cover all constructions: a dense Cayley table, a
permutation-image backend that composes images on demand (never
materializing the n x n table), and a componentwise direct-product backend.
The permutation backend maps a composed image row back to its element
through one sorted index of fixed-width byte keys, so products, inverses
and tables are whole-array numpy operations at every degree.  Its images
are stored on the moved points only, and a closure whose images would pass
PERMUTATION_BYTE_BUDGET bytes raises OrderCapExceeded, up front from the
order bound of the spec and again while the closure grows.
Conjugacy classes are computed once at build time as orbits under
conjugation by the generator set, as a class id per element; the member
list of each class is built on demand.  All other structural computations
(center, subgroup closure, quotients, series) are derived lazily.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InvalidParameters, NotAGroup, NotAPermutation, NotNormal, OrderCapExceeded

DEFAULT_MAX_ORDER = 65_536

# Most bytes of permutation images one closure may store (moved points only).
PERMUTATION_BYTE_BUDGET = 1 << 30

# Most bytes of composed image rows one PermutationGroup.mul_vec step holds.
MUL_CHUNK_BYTES = 1 << 24


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


@dataclass(frozen=True)
class ConjugacyPartition:
    """Conjugacy classes of a group, indexed by class id.

    Class ids are assigned by ascending smallest member, so the identity
    class is always id 0 and ``representatives[c]`` is the least element
    of class c.  The per-class member arrays are built on first access.
    """

    class_of: np.ndarray
    representatives: np.ndarray
    inverse_class: np.ndarray

    @property
    def num_classes(self) -> int:
        return len(self.representatives)

    @cached_property
    def class_members(self) -> tuple[np.ndarray, ...]:
        """Sorted member array of each class, by class id."""
        by_class = np.argsort(self.class_of, kind="stable").astype(np.int32)
        counts = np.bincount(self.class_of, minlength=self.num_classes)
        members = tuple(np.split(by_class, np.cumsum(counts)[:-1]))
        for arr in members:
            arr.flags.writeable = False
        return members

    def class_size(self, c: int) -> int:
        return len(self.class_members[c])


class FiniteGroup:
    """A finite group on element indices 0..order-1 with identity 0.

    Subclasses provide ``mul`` / ``mul_vec`` and ``_compute_inverses``;
    everything else (powers, conjugacy, subgroups) is generic.  Instances
    are immutable after construction and safe to share across threads.
    """

    identity = 0

    def __init__(self, order: int, generators, labels=None, name: str = "group"):
        self.order = int(order)
        self.name = name
        gens = tuple(int(g) for g in generators)
        self.generators = gens if gens else (0,)
        self.labels = tuple(labels) if labels is not None else None

    # -- backend hooks -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise product of broadcastable index arrays."""
        raise NotImplementedError

    def _compute_inverses(self) -> np.ndarray:
        raise NotImplementedError

    # -- finalization (run once by every constructor) ----------------------

    def _finalize(self):
        self.inv_vec = self._compute_inverses()
        self.inv_vec.flags.writeable = False
        self._gen_conj_perms: dict[int, np.ndarray] = {}
        if not self._generators_cover():
            raise NotAGroup(
                f"generators {self.generators} do not generate all "
                f"{self.order} elements"
            )
        self.conjugacy = self._build_conjugacy()
        return self

    def _generators_cover(self) -> bool:
        perms = np.stack([self.rmul_perm(g) for g in self.generators])
        return bool((_kernels.orbit_labels(perms) == 0).all())

    def _build_conjugacy(self) -> ConjugacyPartition:
        perms = np.stack([self.conj_perm(g) for g in self.generators])
        labels = _kernels.orbit_labels(perms)
        reps = np.unique(labels)
        class_of = np.searchsorted(reps, labels).astype(np.int32)
        inverse_class = class_of[self.inv_vec[reps]].astype(np.int32)
        for arr in (class_of, reps, inverse_class):
            arr.flags.writeable = False
        return ConjugacyPartition(class_of, reps.astype(np.int32), inverse_class)

    # -- generic operations -------------------------------------------------

    def inverse(self, x: int) -> int:
        return int(self.inv_vec[x])

    def lmul_perm(self, g: int) -> np.ndarray:
        """Permutation x -> g*x."""
        return self.mul_vec(g, np.arange(self.order))

    def rmul_perm(self, g: int) -> np.ndarray:
        """Permutation x -> x*g."""
        return self.mul_vec(np.arange(self.order), g)

    def conj_perm(self, g: int) -> np.ndarray:
        """Permutation x -> g*x*g^-1 (cached for generators)."""
        cached = getattr(self, "_gen_conj_perms", {}).get(g)
        if cached is not None:
            return cached
        perm = self.mul_vec(self.lmul_perm(g), int(self.inv_vec[g]))
        if g in self.generators:
            perm.flags.writeable = False
            self._gen_conj_perms[g] = perm
        return perm

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

    @cached_property
    def element_orders(self) -> np.ndarray:
        orders = np.zeros(self.order, dtype=np.int64)
        everyone = np.arange(self.order)
        y = everyone.copy()
        k = 1
        while True:
            done = (y == 0) & (orders == 0)
            orders[done] = k
            if orders.all():
                orders.flags.writeable = False
                return orders
            k += 1
            y = self.mul_vec(y, everyone)

    def element_order(self, x: int) -> int:
        return int(self.element_orders[x])

    @cached_property
    def is_abelian(self) -> bool:
        return self.conjugacy.num_classes == self.order

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(int(x))

    def subgroup(self, members) -> "SubgroupHandle":
        members = np.unique(np.asarray(members, dtype=np.int32))
        mask = np.zeros(self.order, dtype=bool)
        mask[members] = True
        is_normal = True
        for g in self.generators:
            if not mask[self.conj_perm(g)[members]].all():
                is_normal = False
                break
        return SubgroupHandle(self, members, mask, is_normal)

    @cached_property
    def profile(self) -> "StructuralProfile":
        return _compute_profile(self)

    def dense_table(self) -> np.ndarray:
        """Materialize the full Cayley table (rebuilt on every call)."""
        rows = np.empty((self.order, self.order), dtype=np.int32)
        everyone = np.arange(self.order)
        for g in range(self.order):
            rows[g] = self.mul_vec(g, everyone)
        return rows

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, order={self.order})"


class TableGroup(FiniteGroup):
    """Group backed by a dense Cayley table."""

    def __init__(self, table: np.ndarray, generators, labels=None, name="table"):
        table = np.ascontiguousarray(table, dtype=np.int32)
        table.flags.writeable = False
        self.table = table
        super().__init__(table.shape[0], generators, labels, name)
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def mul_vec(self, a, b) -> np.ndarray:
        return self.table[a, b]

    def _compute_inverses(self) -> np.ndarray:
        inv = np.argmax(self.table == 0, axis=1).astype(np.int32)
        if not (self.table[inv, np.arange(self.order)] == 0).all():
            raise NotAGroup("table has one-sided inverses only")
        return inv

    def dense_table(self) -> np.ndarray:
        return self.table


class PermutationGroup(FiniteGroup):
    """Group whose elements are permutation image rows, composed on demand.

    ``images[i]`` is the image row of element i.  Each row is read as one
    fixed-width byte key (``np.void`` of ``degree * 4`` bytes), and the keys
    are sorted once here; a composed row is mapped back to its element by
    ``np.searchsorted`` on that index, with an exact equality check on the
    key found.  Products, inverses and tables all go through that lookup,
    so the Cayley table is never materialized and memory stays
    O(order * degree).  ``build_from_permutations`` keeps ``images`` within
    ``PERMUTATION_BYTE_BUDGET`` by storing only the moved points.
    """

    def __init__(self, images: np.ndarray, generators, labels=None, name="perm"):
        images = np.ascontiguousarray(images, dtype=np.int32)
        images.flags.writeable = False
        self.images = images
        self.degree = images.shape[1]
        keys = _row_keys(images)
        self._key_order = np.argsort(keys, kind="stable").astype(np.int32)
        # a last key of all-0xff bytes (images of -1) sorts above every image and equals none,
        # so a searchsorted miss past the end needs no clipping
        self._sorted_keys = np.append(keys[self._key_order], _row_keys(np.full(self.degree, -1)))
        if (self._sorted_keys[1:] == self._sorted_keys[:-1]).any():
            raise NotAGroup("permutation images are not distinct")
        super().__init__(images.shape[0], generators, labels, name)
        self._finalize()

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each image row; NotAGroup if a row is not an element."""
        keys = _row_keys(rows)
        pos = np.searchsorted(self._sorted_keys, keys)
        if not (self._sorted_keys[pos] == keys).all():
            raise NotAGroup("a product of permutations is not an element of the group")
        return self._key_order[pos]

    def mul(self, a: int, b: int) -> int:
        return int(self._lookup(self.images[a][self.images[b]]))

    def mul_vec(self, a, b) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        flat_a, flat_b = a.ravel(), b.ravel()
        out = np.empty(flat_a.size, dtype=np.int32)
        step = max(1, MUL_CHUNK_BYTES // (4 * self.degree))
        for start in range(0, out.size, step):
            ia, ib = flat_a[start:start + step], flat_b[start:start + step]
            # row r of the chunk is images[a][images[b]]
            composed = self.images[ia][np.arange(ia.size)[:, None], self.images[ib]]
            out[start:start + step] = self._lookup(composed)
        return out.reshape(a.shape)

    def _compute_inverses(self) -> np.ndarray:
        back = np.empty_like(self.images)
        spots = np.broadcast_to(np.arange(self.degree, dtype=np.int32), self.images.shape)
        np.put_along_axis(back, self.images, spots, axis=-1)
        return self._lookup(back)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte key per int32 image row."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(np.dtype((np.void, 4 * rows.shape[-1]))).reshape(rows.shape[:-1])


class ProductGroup(FiniteGroup):
    """Direct product with componentwise multiplication; index = g*|H| + h."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup, name=None):
        self.left = left
        self.right = right
        order = left.order * right.order
        gens = [g * right.order for g in left.generators if g != 0]
        gens += [h for h in right.generators if h != 0]
        super().__init__(
            order,
            gens or (0,),
            None,
            name or f"{left.name}x{right.name}",
        )
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        a1, a2 = divmod(int(a), self.right.order)
        b1, b2 = divmod(int(b), self.right.order)
        return self.left.mul(a1, b1) * self.right.order + self.right.mul(a2, b2)

    def mul_vec(self, a, b) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        a1, a2 = np.divmod(a, self.right.order)
        b1, b2 = np.divmod(b, self.right.order)
        return self.left.mul_vec(a1, b1) * self.right.order + self.right.mul_vec(a2, b2)

    def _compute_inverses(self) -> np.ndarray:
        idx = np.arange(self.order)
        a1, a2 = np.divmod(idx, self.right.order)
        return (
            self.left.inv_vec[a1] * self.right.order + self.right.inv_vec[a2]
        ).astype(np.int32)

    def label(self, x: int) -> str:
        a1, a2 = divmod(int(x), self.right.order)
        return f"({self.left.label(a1)},{self.right.label(a2)})"


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of a parent group, kept as a sorted member-index array."""

    parent: FiniteGroup
    members: np.ndarray
    _mask: np.ndarray = field(repr=False)
    is_normal: bool

    @property
    def order(self) -> int:
        return len(self.members)

    def contains(self, x: int) -> bool:
        return bool(self._mask[x])

    def as_group(self, name=None) -> TableGroup:
        """Re-index the members as a standalone group of their own."""
        members = self.members
        raw = self.parent.mul_vec(members[:, None], members[None, :])
        table = np.searchsorted(members, raw).astype(np.int32)
        labels = None
        if self.parent.labels is not None or isinstance(self.parent, ProductGroup):
            labels = tuple(self.parent.label(int(m)) for m in members)
        return TableGroup(
            table,
            greedy_generators(table),
            labels,
            name or f"{self.parent.name}-sub{len(members)}",
        )


@dataclass(frozen=True)
class StructuralProfile:
    """Coarse structural facts about a group."""

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

def _closure_members(G: FiniteGroup, gens) -> np.ndarray:
    """Members of the subgroup generated by ``gens`` (right-mult BFS).

    Closure under multiplication alone suffices: inverses are positive
    powers in a finite group.
    """
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    garr = np.unique(np.asarray(list(gens), dtype=np.int32))
    if garr.size == 0:
        return np.array([0], dtype=np.int32)
    frontier = np.array([0], dtype=np.int32)
    while frontier.size:
        prod = np.unique(G.mul_vec(frontier[:, None], garr[None, :]))
        new = prod[~mask[prod]]
        mask[new] = True
        frontier = new.astype(np.int32)
    return np.nonzero(mask)[0].astype(np.int32)


def subgroup_generated(G: FiniteGroup, seeds, normal_closure: bool = False) -> SubgroupHandle:
    """Subgroup (or normal closure) generated by the given element indices."""
    gens = {int(s) for s in seeds if int(s) != 0}
    if not gens:
        return G.subgroup([0])
    members = _closure_members(G, gens)
    if normal_closure:
        while True:
            mask = np.zeros(G.order, dtype=bool)
            mask[members] = True
            added = False
            for g in G.generators:
                conj = G.conj_perm(g)[members]
                outside = conj[~mask[conj]]
                if outside.size:
                    gens.update(int(c) for c in outside)
                    added = True
            if not added:
                break
            members = _closure_members(G, gens)
    return G.subgroup(members)


def greedy_generators(table: np.ndarray) -> tuple[int, ...]:
    """Small generating set: repeatedly adopt the least uncovered element."""
    n = table.shape[0]
    if n == 1:
        return (0,)
    covered = np.zeros(n, dtype=bool)
    covered[0] = True
    gens: list[int] = []
    while not covered.all():
        g = int(np.argmin(covered))
        gens.append(g)
        frontier = np.nonzero(covered)[0]
        garr = np.asarray(gens, dtype=np.int32)
        while frontier.size:
            prod = np.unique(table[frontier[:, None], garr[None, :]])
            new = prod[~covered[prod]]
            covered[new] = True
            frontier = new
    return tuple(gens)


def build_from_table(n: int, table, max_order: int | None = None) -> FiniteGroup:
    """Validate a raw n x n multiplication table and wrap it as a group.

    The identity is located and relabeled to index 0 if needed.  Raises
    NotAGroup naming the offending cell or triple on any axiom violation.
    """
    cap = max_order if max_order is not None else max_order_cap()
    if n < 1:
        raise NotAGroup("order must be positive")
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the cap {cap}")
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (n, n):
        raise NotAGroup(f"table shape {table.shape} does not match order {n}")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotAGroup(f"entry out of range at cell ({bad[0]}, {bad[1]})")
    table = table.astype(np.int32)

    idx = np.arange(n)
    is_id = (table == idx[None, :]).all(axis=1) & (table == idx[:, None]).all(axis=0)
    hits = np.nonzero(is_id)[0]
    if hits.size != 1:
        raise NotAGroup("table has no two-sided identity element")
    e = int(hits[0])
    if e != 0:
        swap = idx.copy()
        swap[0], swap[e] = e, 0
        table = swap[table[np.ix_(swap, swap)]]

    return TableGroup(table, _check_group_table(table), name=f"table{n}")


def _check_group_table(table: np.ndarray, gens=None) -> tuple[int, ...]:
    """Raise NotAGroup unless a table with identity 0 is a group; return ``gens``.

    Checks the Latin square, two-sided inverses and, by Light's test over
    ``gens`` (greedy when None; they must reach every element from 0 under
    right multiplication), associativity.
    """
    idx = np.arange(table.shape[0])
    for axis, word in ((1, "row"), (0, "column")):
        sorted_lines = np.sort(table, axis=axis)
        ok = (sorted_lines == (idx[None, :] if axis == 1 else idx[:, None])).all(axis=axis)
        if not ok.all():
            line = int(np.argmin(ok))
            raise NotAGroup(f"{word} {line} is not a permutation (Latin square fails)")

    inv = np.argmax(table == 0, axis=1)
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
    step = max(1, MUL_CHUNK_BYTES // (4 * points.size * len(gen_imgs)))

    keys = [np.arange(points.size, dtype=np.int32).tobytes()]
    index = {keys[0]: 0}
    start = 0
    while start < len(keys):
        # the next frontier slice, each element times every generator, in BFS order
        stop = min(len(keys), start + step)
        frontier = np.frombuffer(b"".join(keys[start:stop]), dtype=np.int32)
        composed = frontier.reshape(stop - start, points.size)[:, gen_stack]
        for key in _row_keys(composed).ravel().tolist():
            if key not in index:
                if len(keys) >= cap:
                    raise OrderCapExceeded(f"permutation closure exceeds the cap {cap}")
                check_image_budget(len(keys) + 1, points.size, "permutation images")
                index[key] = len(keys)
                keys.append(key)
        start = stop

    gen_idx = []
    for key in _row_keys(gen_stack).tolist():
        i = index[key]
        if i != 0 and i not in gen_idx:
            gen_idx.append(i)
    stack = np.frombuffer(b"".join(keys), dtype=np.int32).reshape(len(keys), points.size)
    labels = tuple(_perm_cycle_label(im, points) for im in stack)
    return PermutationGroup(stack, gen_idx or (0,), labels, name=f"perm{len(stack)}")


def direct_product(G: FiniteGroup, H: FiniteGroup, max_order: int | None = None) -> FiniteGroup:
    """Direct product with (g, h) indexed as g*|H| + h."""
    cap = max_order if max_order is not None else max_order_cap()
    if G.order * H.order > cap:
        raise OrderCapExceeded(
            f"product order {G.order * H.order} exceeds the cap {cap}"
        )
    return ProductGroup(G, H)


# ---------------------------------------------------------------------------
# spec-level operations delegating to group internals
# ---------------------------------------------------------------------------

def power(G: FiniteGroup, x: int, k: int) -> int:
    return G.power(x, k)


def element_order(G: FiniteGroup, x: int) -> int:
    return G.element_order(x)


def conjugacy_partition(G: FiniteGroup) -> ConjugacyPartition:
    return G.conjugacy


def center(G: FiniteGroup) -> SubgroupHandle:
    """Elements commuting with every generator (hence with everything)."""
    mask = np.ones(G.order, dtype=bool)
    for g in G.generators:
        mask &= G.lmul_perm(g) == G.rmul_perm(g)
    return G.subgroup(np.nonzero(mask)[0])


def commutator_of_element(G: FiniteGroup, x: int):
    """The set {x g x^-1 g^-1 : g in G} and the subgroup it generates."""
    everyone = np.arange(G.order)
    xg = G.mul_vec(x, everyone)
    xgx = G.mul_vec(xg, int(G.inv_vec[x]))
    comms = np.unique(G.mul_vec(xgx, G.inv_vec))
    return comms.astype(np.int32), subgroup_generated(G, comms, normal_closure=True)


def cosets(G: FiniteGroup, N: SubgroupHandle) -> tuple[np.ndarray, np.ndarray]:
    """Cosets of a normal N: their smallest members, ascending, and each element's coset id."""
    if not N.is_normal:
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    everyone = np.arange(G.order)
    rep_of = G.mul_vec(everyone[:, None], N.members[None, :]).min(axis=1)
    reps = np.unique(rep_of)
    return reps, np.searchsorted(reps, rep_of)


def quotient(G: FiniteGroup, N: SubgroupHandle) -> FiniteGroup:
    """Quotient group on cosets, each named by its smallest member."""
    reps, coset_id = cosets(G, N)
    raw = G.mul_vec(reps[:, None], reps[None, :])
    table = coset_id[raw].astype(np.int32)
    labels = tuple(G.label(int(r)) for r in reps)
    gens = []
    for g in G.generators:
        c = int(coset_id[g])
        if c != 0 and c not in gens:
            gens.append(c)
    return TableGroup(table, gens or (0,), labels, name=f"{G.name}/N{N.order}")


def _derived_subgroup(G: FiniteGroup) -> SubgroupHandle:
    comms = set()
    for g in G.generators:
        for h in G.generators:
            gh = G.mul(g, h)
            hg = G.mul(h, g)
            comms.add(G.mul(gh, int(G.inv_vec[hg])))
    return subgroup_generated(G, comms, normal_closure=True)


def _commutator_with_group(G: FiniteGroup, H: SubgroupHandle) -> SubgroupHandle:
    """[G, H] for H normal: normal closure of generator-member commutators."""
    comms: set[int] = set()
    for g in G.generators:
        conj = G.conj_perm(g)[H.members]
        comms.update(int(c) for c in G.mul_vec(conj, G.inv_vec[H.members]))
    return subgroup_generated(G, comms, normal_closure=True)


def derived_series_orders(G: FiniteGroup) -> list[int]:
    """Orders along the derived series, ending at 1 iff solvable."""
    orders = [G.order]
    cur = G
    while cur.order > 1:
        d = _derived_subgroup(cur)
        if d.order == cur.order:
            orders.append(d.order)
            return orders
        orders.append(d.order)
        if d.order == 1:
            return orders
        cur = d.as_group()
    return orders


def lower_central_series(G: FiniteGroup) -> list[SubgroupHandle]:
    """G = gamma_1 >= gamma_2 >= ..., stopping at 1 or at stabilization."""
    whole = G.subgroup(np.arange(G.order))
    series = [whole]
    if G.order == 1:
        return series
    cur = _derived_subgroup(G)
    while True:
        series.append(cur)
        if cur.order == 1 or cur.order == series[-2].order:
            return series
        cur = _commutator_with_group(G, cur)


def _compute_profile(G: FiniteGroup) -> StructuralProfile:
    n = G.order
    pi = tuple(sorted(prime_factors(n)))
    orders = G.element_orders
    distinct = [int(v) for v in np.unique(orders)]
    exponent = math.lcm(*distinct) if distinct else 1
    eppo = all(is_prime_power(v) for v in distinct)
    real = bool(
        (G.conjugacy.inverse_class == np.arange(G.conjugacy.num_classes)).all()
    )

    d_orders = derived_series_orders(G)
    solvable = d_orders[-1] == 1

    lcs = lower_central_series(G)
    nilpotent = lcs[-1].order == 1
    nilpotency_class = len(lcs) - 1 if nilpotent else None

    p_group = len(pi) <= 1
    p = pi[0] if len(pi) == 1 else None

    sylow: dict[int, SubgroupHandle] = {}
    if nilpotent:
        for q in pi:
            members = [x for x in range(n) if _is_power_of(int(orders[x]), q)]
            sylow[q] = G.subgroup(members)
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


def _is_power_of(m: int, q: int) -> bool:
    while m % q == 0:
        m //= q
    return m == 1


def structural_profile(G: FiniteGroup) -> StructuralProfile:
    return G.profile


# ---------------------------------------------------------------------------
# axiom validation (used by tests and by untrusted-table ingestion)
# ---------------------------------------------------------------------------

def validate_group_axioms(G: FiniteGroup) -> None:
    """Re-check identity, Latin square, inverses and associativity.

    Constructor-built groups satisfy these by construction; this is the
    independent re-verification path, exact because ``_finalize`` proved that
    ``G.generators`` reach all of G.  Raises NotAGroup on any violation.
    """
    idx = np.arange(G.order)
    if not (np.array_equal(G.lmul_perm(0), idx) and np.array_equal(G.rmul_perm(0), idx)):
        raise NotAGroup("index 0 is not a two-sided identity")
    _check_group_table(G.dense_table(), G.generators)
