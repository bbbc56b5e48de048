"""Decide the cut-property and classify groups by power-map conjugacy.

A group has the cut-property exactly when, for every element x and every
exponent j coprime to the order of x, x^j is conjugate to x or to x^-1.
``decide_cut`` scans class representatives using the eagerly built
conjugacy partition, walking the powers of all of them at once with one
whole-array product per exponent, and reads each one's first witness
exponent off the walk.  The same walk decides quotients G/N on G's own
elements, without building them: it takes one row of class labels per
scanned group, so one stacked walk decides every N of a stack at once
(``central_factor_cuts``, and ``quotient_cuts`` for a list of normal
subgroups).
A central subgroup N needs only its element orders
(``central_subgroup_has_cut``).  The walk is handed its orders (of x in
G, or of xN from ``group_core.orders_modulo``), so it knows nothing of N.
Every class fact comes from G's partition: the class of xN in G/N
(labelled by its least element, the least coset minimum over x's class),
the centrality of N and realness are read off it, with no conjugation by
generators.
The fast path reads the facts kept on the group (the class partition,
the element orders, the coset minima kept on each N) and keeps one of its
own there: ``decide_cut``'s verdict (``FiniteGroup.fact``), so a group is
scanned once however often it is decided.
``decide_cut_bruteforce`` is the independent oracle: it reads only the
dense table, and scans every element in whole-array passes
(``_kernels.cut_witness_scan``): one order walk over all elements, which
looks for the identity only at divisors of |G| and yields the inverses,
each class recomputed from scratch by conjugating with every element in
row blocks, then one witness walk over all elements.  It shares only the
row slicing with the fast path: no partition, element orders, generators,
``orbit_labels`` or ``power_vec``, and none of the facts kept on the group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import HypothesisViolated
from .group_core import (
    FiniteGroup,
    SubgroupHandle,
    _p_part_products,
    coset_minima,
    orders_modulo,
)


@dataclass(frozen=True)
class CutVerdict:
    """Outcome of a cut-property scan.

    ``witnesses`` holds (element, exponent) pairs where the power escapes
    both the element's class and its inverse's class; empty iff the group
    has the property.
    """

    has_cut: bool
    witnesses: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Classification:
    """Cut verdict plus the derived group-class labels."""

    cut: bool
    inverse_semi_rational: bool
    real_group: bool
    rational: bool
    central_height_label: int | None


def _power_map_witnesses(G: FiniteGroup, labels, rows, reps, orders) -> np.ndarray:
    """The first witness exponent of each (row, representative) pair, 0 where it has none.

    Each row of ``labels`` is one scanned group H given on G's elements: G
    itself or a quotient G/N, which is never built, so one walk decides many
    quotients at once.  ``labels[r, y]`` is the class in H_r of y (of yN for
    a quotient); the pair (``rows[i]``, ``reps[i]``) names an element x of G
    whose class is scanned in H_r, and ``orders[i]`` is its order m in H_r
    (of xN for a quotient).  For each pair the entry is the first exponent j
    in 2..m-1 coprime to m whose power x^j lands outside the classes of x
    and x^-1 in H_r.

    The powers of all pairs are walked together, one ``mul_vec`` per exponent
    over the ones still open; gcd(j, m) is taken only on the pairs whose
    power left their own pair of classes.  A pair leaves the walk at its
    first witness or when j + 2 reaches m, since x^(m-1) = x^-1 never escapes
    (so only m > 3 walks at all).
    """
    first = np.zeros(len(reps), dtype=np.int64)
    live = (orders > 3).nonzero()[0]  # positions in reps still walking
    if not live.size:
        return first
    # the lesser of the classes of y and y^-1: equal for y and x exactly when y ~ x or y ~ x^-1
    pair = np.minimum(labels, labels[:, G.inv_vec]).ravel()
    at, xs = rows[live] * G.order, reps[live]  # pair[at + y] is the entry of y in the pair's row
    ys, own, m = xs, pair[at + xs], orders[live]
    ends = set(m.tolist())  # some walk may end after exponent j only when j + 2 is in here
    j = 1
    while live.size:
        j += 1
        ys = G.mul_vec(ys, xs)
        miss = (pair[at + ys] != own).nonzero()[0]
        hit = miss[np.gcd(j, m[miss]) == 1]
        if hit.size or j + 2 in ends:
            first[live[hit]] = j
            keep = (first[live] == 0) & (j + 2 < m)
            live, at, xs, ys, own, m = (a[keep] for a in (live, at, xs, ys, own, m))
    return first


def decide_cut(G: FiniteGroup) -> CutVerdict:
    """Scan class representatives for coprime powers escaping x and x^-1.

    Scanning representatives only is sound: conjugate elements have
    conjugate powers.  Witnesses are reported as the first failing
    exponent per failing representative, in ascending representative
    order; the scan of a representative stops at its first failure.  The
    verdict is kept on G, so a second call returns the same object.
    """
    return G.fact(_scan_classes)


def _scan_classes(G: FiniteGroup) -> CutVerdict:
    """``decide_cut``'s one walk over G's class representatives."""
    part = G.conjugacy
    reps = part.representatives
    rows = np.zeros(len(reps), dtype=np.int64)
    first = _power_map_witnesses(G, part.class_of[None], rows, reps, G.element_orders[reps])
    failing = first.nonzero()[0]
    witnesses = tuple(zip(reps[failing].tolist(), first[failing].tolist()))
    return CutVerdict(has_cut=not witnesses, witnesses=witnesses)


def _central_cuts(G: FiniteGroup, inside: np.ndarray) -> np.ndarray:
    """Whether each central N, one member mask over G per row, has the cut-property.

    A central N is abelian, so each of its elements is a class of its own
    and the criterion asks x^j in {x, x^-1} for j coprime to m = o(x), that
    is (Z/m)^x = {1, -1}: m is 1, 2, 3, 4 or 6.  Centrality is checked, not
    assumed: N is central iff each of its members is a class of its own in
    G, and a non-central N raises HypothesisViolated.
    """
    part = G.conjugacy
    shared = inside[:, part.sizes[part.class_of] != 1].any(axis=1)
    if shared.any():
        order = int(np.count_nonzero(inside[shared.argmax()]))
        raise HypothesisViolated(f"subgroup of order {order} is not central in {G.name}")
    orders = G.element_orders
    return ~inside[:, (orders > 4) & (orders != 6)].any(axis=1)


def central_subgroup_has_cut(G: FiniteGroup, N: SubgroupHandle) -> bool:
    """Whether a central subgroup N has the cut-property, decided inside G (``_central_cuts``)."""
    return bool(_central_cuts(G, N._mask[None])[0])


def _quotient_labels(G: FiniteGroup, minima: np.ndarray) -> np.ndarray:
    """Label each x of G with the least element of the class of xN in G/N.

    ``minima`` holds the least member of each coset xN (one row per N, or
    one 1-D row).  The cosets in the class of xN are gxg^-1 N for g in G,
    so its least element is the least coset minimum over the class of x in
    G.
    """
    part = G.conjugacy
    by_class = np.argsort(part.class_of, kind="stable")
    starts = np.cumsum(part.sizes) - part.sizes
    least = np.minimum.reduceat(minima[..., by_class], starts, axis=-1)
    return least[..., part.class_of]


def _quotient_cuts(G: FiniteGroup, minima: np.ndarray) -> np.ndarray:
    """Whether G/N has the cut-property, for each normal N given by its row of coset minima.

    The classes of G/N are read off G's classes (``_quotient_labels``), each
    labelled by its least element, the coset name ``quotient`` would give
    the least coset of that class, so its representatives are the x whose
    label is x.  The orders of xN and the witnesses of every N of a row
    block come from one order walk and one ``_power_map_witnesses`` walk;
    a block (``_kernels.row_blocks``) holds about ``BLOCK_BYTES`` of labels.
    """
    ok = np.ones(len(minima), dtype=bool)
    for block in _kernels.row_blocks(len(minima), 8 * G.order):
        labels = _quotient_labels(G, minima[block])
        rows, reps = (labels == np.arange(G.order)).nonzero()
        orders = orders_modulo(G, reps, minima[block] == 0, _p_part_products(G.order) + 1, rows)
        first = _power_map_witnesses(G, labels, rows, reps, orders)
        ok[block.start + rows[first.nonzero()[0]]] = False
    return ok


def quotient_cuts(G: FiniteGroup, normals) -> np.ndarray:
    """Whether G/N has the cut-property, for each normal N of ``normals``, in one stacked walk."""
    return _quotient_cuts(G, np.stack([coset_minima(G, N) for N in normals]))


def central_factor_cuts(G: FiniteGroup, minima: np.ndarray) -> np.ndarray:
    """Whether N and G/N both have the cut-property, for each central N given by its coset minima.

    One row of ``minima`` per N, holding the least member of each coset xN;
    N is the x with minimum 0.  Every N of the stack is decided together,
    and G/N is walked only for the N that have the cut-property.
    """
    ok = _central_cuts(G, minima == 0)
    ok[ok] = _quotient_cuts(G, minima[ok])
    return ok


def decide_cut_bruteforce(G: FiniteGroup) -> CutVerdict:
    """Oracle path: exhaustive scan over every element, no shared caches.

    Materializes the multiplication table and hands it alone to
    ``cut_witness_scan``, whose order walk yields every element's order and
    inverse, and which recomputes the conjugacy class of each element by
    conjugating with all group elements.  Witnesses are the first failing
    exponent per failing element in ascending element order.
    """
    wx, wj = _kernels.cut_witness_scan(G.dense_table())
    witnesses = tuple(zip(wx.tolist(), wj.tolist()))
    return CutVerdict(has_cut=not witnesses, witnesses=witnesses)


def classify(G: FiniteGroup, verdict: CutVerdict | None = None) -> Classification:
    """Cut flag, realness, rationality, and the odd-order height label.

    The central-height label applies to odd-order groups only: 0 in the
    exceptional case (cut-property together with an element of order 7),
    1 otherwise.  It is a statement-level label, never checked against
    any unit-group computation.
    """
    if verdict is None:
        verdict = decide_cut(G)
    cut = verdict.has_cut
    real = bool(G.conjugacy.is_real.all())
    label = None
    if G.order % 2 == 1:
        has_order_seven = bool((G.element_orders == 7).any())
        label = 0 if (cut and has_order_seven) else 1
    return Classification(
        cut=cut,
        inverse_semi_rational=cut,
        real_group=real,
        rational=cut and real,
        central_height_label=label,
    )
