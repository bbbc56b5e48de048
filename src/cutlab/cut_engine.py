"""Decide the cut-property and classify groups by power-map conjugacy.

A group has the cut-property exactly when, for every element x and every
exponent j coprime to the order of x, x^j is conjugate to x or to x^-1.
``decide_cut`` scans class representatives using the eagerly built
conjugacy partition, walking the powers of all of them at once with one
whole-array product per exponent, and reads each one's first witness
exponent off the walk; the same walk decides a quotient G/N on G's own
elements, without building it (``quotient_has_cut``), and a central
subgroup N needs only its element orders (``central_subgroup_has_cut``).
The walk is handed its orders (of x in G, or of xN from
``group_core.orders_modulo``), so it knows nothing of N.  Every class fact
comes from G's partition: the class of xN in G/N (labelled by its least
element), the centrality of N and realness are read off it, with no
conjugation by generators.
``decide_cut_bruteforce`` is the independent oracle:
it scans every element and recomputes each conjugacy class from scratch,
sharing no cached state with the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import HypothesisViolated
from .group_core import FiniteGroup, SubgroupHandle, cosets, orders_modulo


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


def _power_map_witnesses(G: FiniteGroup, reps, labels, orders) -> np.ndarray:
    """The first witness exponent of each representative, 0 where it has none.

    The scanned group H is given on G's elements: G itself or a quotient
    G/N, which is never built.  ``labels[y]`` is the class in H of y (of yN
    for a quotient), ``reps`` holds one G element per class of H, and
    ``orders`` holds the order m in H of each of them (of xN for a
    quotient).  For each x of ``reps`` the entry is the first exponent j in
    2..m-1 coprime to m whose power x^j lands outside the classes of x and
    x^-1.

    The powers of all representatives are walked together, one ``mul_vec``
    per exponent over the ones still open; a representative leaves the walk
    at its first witness or when j + 2 reaches m, since x^(m-1) = x^-1 never
    escapes (so only m > 3 walks at all).
    """
    first = np.zeros(len(reps), dtype=np.int64)
    live = (orders > 3).nonzero()[0]  # positions in reps still walking
    if not live.size:
        return first
    # the lesser of the classes of y and y^-1: equal for y and x exactly when y ~ x or y ~ x^-1
    pair = np.minimum(labels, labels[G.inv_vec])
    xs = ys = reps[live]
    own, m = pair[xs], orders[live]
    ends = set(m.tolist())  # some walk may end after exponent j only when j + 2 is in here
    j = 1
    while live.size:
        j += 1
        ys = G.mul_vec(ys, xs)
        hit = (pair[ys] != own) & (np.gcd(j, m) == 1)
        if np.count_nonzero(hit) or j + 2 in ends:
            first[live[hit]] = j
            keep = ~hit & (j + 2 < m)
            live, xs, ys, own, m = (a[keep] for a in (live, xs, ys, own, m))
    return first


def decide_cut(G: FiniteGroup) -> CutVerdict:
    """Scan class representatives for coprime powers escaping x and x^-1.

    Scanning representatives only is sound: conjugate elements have
    conjugate powers.  Witnesses are reported as the first failing
    exponent per failing representative, in ascending representative
    order; the scan of a representative stops at its first failure.
    """
    part = G.conjugacy
    reps = part.representatives
    first = _power_map_witnesses(G, reps, part.class_of, G.element_orders[reps])
    failing = first.nonzero()[0]
    witnesses = tuple(zip(reps[failing].tolist(), first[failing].tolist()))
    return CutVerdict(has_cut=not witnesses, witnesses=witnesses)


def central_subgroup_has_cut(G: FiniteGroup, N: SubgroupHandle) -> bool:
    """Whether a central subgroup N has the cut-property, decided inside G.

    A central N is abelian, so each of its elements is a class of its own
    and the criterion asks x^j in {x, x^-1} for j coprime to m = o(x), that
    is (Z/m)^x = {1, -1}: m is 1, 2, 3, 4 or 6.  Centrality is checked, not
    assumed: N is central iff each of its members is a class of its own in
    G, and a non-central N raises HypothesisViolated.
    """
    part = G.conjugacy
    if (part.sizes[part.class_of[N.members]] != 1).any():
        raise HypothesisViolated(f"subgroup of order {N.order} is not central in {G.name}")
    orders = G.element_orders[N.members]
    return bool(((orders <= 4) | (orders == 6)).all())


def _quotient_labels(G: FiniteGroup, N: SubgroupHandle) -> np.ndarray:
    """Label each x of G with the least element of the class of xN in G/N.

    The cosets in that class are gxg^-1 N for g in G, so its least element
    is the least coset minimum over the class of x in G.
    """
    reps, coset_id = cosets(G, N)
    class_of = G.conjugacy.class_of
    least = np.full(G.conjugacy.num_classes, G.order)
    np.minimum.at(least, class_of, reps[coset_id])
    return least[class_of]


def quotient_has_cut(G: FiniteGroup, N: SubgroupHandle) -> bool:
    """Whether G/N has the cut-property, decided on G's own elements.

    The classes of G/N are read off G's classes (``_quotient_labels``), each
    labelled by its least element, the coset name ``quotient`` would give
    the least coset of that class.
    """
    labels = _quotient_labels(G, N)
    reps = np.unique(labels)
    orders = orders_modulo(G, reps, N._mask, G.order // N.order)
    return not _power_map_witnesses(G, reps, labels, orders).any()


def decide_cut_bruteforce(G: FiniteGroup) -> CutVerdict:
    """Oracle path: exhaustive scan over every element, no shared caches.

    Materializes the multiplication table, derives inverses from it, and
    recomputes the conjugacy class of each element (and of its inverse) by
    conjugating with all group elements.  Witnesses are the first failing
    exponent per failing element in ascending element order.
    """
    table = G.dense_table()
    inv = np.argmax(table == 0, axis=1).astype(np.int32)
    wx, wj = _kernels.cut_witness_scan(table, inv)
    witnesses = tuple((int(x), int(j)) for x, j in zip(wx, wj))
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
