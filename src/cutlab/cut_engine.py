"""Decide the cut-property and classify groups by power-map conjugacy.

A group has the cut-property exactly when, for every element x and every
exponent j coprime to the order of x, x^j is conjugate to x or to x^-1.
``decide_cut`` scans class representatives using the eagerly built
conjugacy partition; ``decide_cut_bruteforce`` is the independent oracle:
it scans every element and recomputes each conjugacy class from scratch,
sharing no cached state with the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .group_core import FiniteGroup


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


def decide_cut(G: FiniteGroup) -> CutVerdict:
    """Scan class representatives for coprime powers escaping x and x^-1.

    Scanning representatives only is sound: conjugate elements have
    conjugate powers.  Witnesses are reported as the first failing
    exponent per failing representative, in ascending representative
    order; the scan of a representative stops at its first failure.
    """
    part = G.conjugacy
    witnesses: list[tuple[int, int]] = []
    for c in range(part.num_classes):
        x = int(part.representatives[c])
        m = G.element_order(x)
        inv_c = int(part.inverse_class[c])
        y = x
        for j in range(2, m):
            y = G.mul(y, x)
            if math.gcd(j, m) != 1:
                continue
            if int(part.class_of[y]) not in (c, inv_c):
                witnesses.append((x, j))
                break
    return CutVerdict(has_cut=not witnesses, witnesses=tuple(witnesses))


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
    part = G.conjugacy
    real = bool((part.inverse_class == np.arange(part.num_classes)).all())
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
