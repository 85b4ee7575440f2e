"""Decompose a group with a chosen normal subgroup into pair coordinates.

Given an ambient abelian group ``G`` and a subgroup ``N``, a decomposition
stores one int column: for each pair ``(u, s)``, the index of the element of
``G`` that carries it.  ``s`` names the element's coset in a canonical group
``S`` isomorphic to ``G/N``, and ``u`` its residue over the coset's lift, the
lexicographically minimal member, in a canonical group ``U`` isomorphic to
``N``; both are read from one walk over ``G``.  The pair of each element, the
projection, the embedding of ``N``, the lifting and ``N`` are derived from
that column, and the factor set measures how far the lifting is from a
homomorphism.
Conjugation is trivial in an abelian group, so pairs multiply by

    (u1, s1) * (u2, s2) = (u1 + u2 + factor_set(s1, s2), s1 + s2)

and the pair map ``(u, s) -> lifting(s) + embed(u)`` is an isomorphism onto
``G``.  With the minimal-representative lifting the factor set is normalized:
its value is the identity whenever either argument is the identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

from .errors import NotApplicable
from .groups import (
    Element,
    FiniteAbelianGroup,
    Subgroup,
    _add,
    _cosets,
    _recognize,
    direct_sum,
    invariant_factors,
    is_prime,
)


class ExtensionKind(enum.Enum):
    DIRECT_PRODUCT = "direct_product"
    CYCLIC = "cyclic"


@dataclass(frozen=True, eq=False)
class ExtensionDecomposition:
    """Pair-coordinate presentation of an ambient group over a normal subgroup.

    ``column[index(u) * |S| + index(s)]`` is the index of the ambient element
    whose pair is ``(u, s)``, indices in ``elements()`` order.  Tabulating an
    encoder reads only the column, which every encoder on the decomposition
    shares; every other map is derived from it the first time it is used.
    """

    ambient: FiniteAbelianGroup
    u_part: FiniteAbelianGroup
    s_part: FiniteAbelianGroup
    column: Sequence[int]

    @cached_property
    def pair_of(self) -> tuple[tuple[Element, Element], ...]:
        """``pair_of[g]`` is the pair of the ambient element with index ``g``."""
        pair_of = [None] * len(self.column)
        for g, pair in zip(self.column, self.pairs()):
            pair_of[g] = pair
        return tuple(pair_of)

    @cached_property
    def to_quotient(self) -> dict[Element, Element]:
        """The projection ``G -> S``, in ``ambient.elements()`` order."""
        return {g: s for g, (_, s) in zip(self.ambient.elements(), self.pair_of)}

    @cached_property
    def n_to_u(self) -> dict[Element, Element]:
        """The isomorphism ``N -> U``: the elements whose pair has the identity state."""
        e_s = self.s_part.identity()
        return {g: u for g, (u, s) in zip(self.ambient.elements(), self.pair_of) if s == e_s}

    @cached_property
    def u_to_n(self) -> dict[Element, Element]:
        return {u: n for n, u in self.n_to_u.items()}

    @cached_property
    def lifting(self) -> dict[Element, Element]:
        """Each state's lift, the element with pair ``(e_U, s)``, in order of the coset minima."""
        e_u = self.u_part.identity()
        return {s: g for g, (u, s) in zip(self.ambient.elements(), self.pair_of) if u == e_u}

    @cached_property
    def normal(self) -> Subgroup:
        return Subgroup(self.ambient, tuple(self.n_to_u))

    def pair_to_element(self, u: Element, s: Element) -> Element:
        j = self.u_part.index_of(self.u_part.check(u))
        i = self.s_part.index_of(self.s_part.check(s))
        return self.ambient.element_at(self.column[j * self.s_part.order + i])

    def element_to_pair(self, g: Element) -> tuple[Element, Element]:
        ambient = self.ambient
        position = self.column.index(ambient.index_of(ambient.check(g)))
        j, i = divmod(position, self.s_part.order)
        return self.u_part.element_at(j), self.s_part.element_at(i)

    def pairs(self):
        for u in self.u_part.elements():
            for s in self.s_part.elements():
                yield u, s

    @cached_property
    def factor_set(self) -> dict[tuple[Element, Element], Element]:
        """``(s1, s2) -> u``, where ``(u, s1 + s2)`` is the pair of ``lifting(s1) + lifting(s2)``."""
        ambient, lifting, pair_of = self.ambient, self.lifting, self.pair_of
        states = list(self.s_part.elements())
        return {
            (s1, s2): pair_of[ambient.index_of(_add(ambient.factors, lifting[s1], lifting[s2]))][0]
            for s1 in states
            for s2 in states
        }


def decompose(ambient: FiniteAbelianGroup, normal: Subgroup) -> ExtensionDecomposition:
    """Decompose ``ambient`` over ``normal`` with deterministic labeling.

    One :func:`_cosets` walk gives the quotient ``S`` in canonical
    coordinates and files each element ``g`` as ``m + x``: ``m`` its coset's
    minimum and lift (the identity coset lifts to the identity), ``x`` in
    ``normal``, whose table is built here and so goes to :func:`_recognize`
    unchecked.  The column holds ``g``'s index at its pair ``(n_to_u[x], s)``.
    """
    s_part, s_coords, filed = _cosets(ambient, normal)  # checks that normal is a subgroup
    u_part, n_to_u = _recognize(normal.elements, partial(_add, ambient.factors), ambient.identity())
    s_index = {m: s_part.index_of(s) for m, s in s_coords.items()}
    u_index = {x: u_part.index_of(u) * s_part.order for x, u in n_to_u.items()}
    column = [0] * ambient.order
    for g, (m, x) in filed.items():
        column[u_index[x] + s_index[m]] = ambient.index_of(g)
    return ExtensionDecomposition(ambient, u_part, s_part, column)


def direct_sum_decomposition(
    u_part: FiniteAbelianGroup, s_part: FiniteAbelianGroup
) -> ExtensionDecomposition:
    """The split decomposition of ``u_part (+) s_part`` in its own coordinates.

    Unlike :func:`decompose`, the components keep the caller's coordinates
    verbatim (no recognition step), so states and inputs print exactly as
    supplied: the pair of an element is its coordinate split, so the element
    at position ``index(u) * |S| + index(s)`` has that same index and the
    column is the identity order.  The factor set is identically zero.
    """
    ambient = direct_sum(u_part, s_part)
    return ExtensionDecomposition(ambient, u_part, s_part, range(ambient.order))


def extension_product(
    dec: ExtensionDecomposition,
    pair1: tuple[Element, Element],
    pair2: tuple[Element, Element],
) -> tuple[Element, Element]:
    """Multiply two pairs; the second coordinate is always the state sum."""
    pair1, pair2 = (
        (tuple(dec.u_part.check(u)), tuple(dec.s_part.check(s))) for u, s in (pair1, pair2)
    )
    return _product(dec, pair1, pair2)


def _product(dec: ExtensionDecomposition, pair1, pair2) -> tuple[Element, Element]:
    """Unchecked product of two pairs known to lie in ``U x S``."""
    (u1, s1), (u2, s2) = pair1, pair2
    u_moduli = dec.u_part.factors
    u = _add(u_moduli, _add(u_moduli, u1, u2), dec.factor_set[(s1, s2)])
    return u, _add(dec.s_part.factors, s1, s2)


def verify_decomposition(dec: ExtensionDecomposition) -> bool:
    """Check the pair map is a bijection onto ``U x S`` carrying sums to pair products."""
    ambient = dec.ambient
    n_pairs = dec.u_part.order * dec.s_part.order
    if ambient.order != n_pairs or sorted(dec.column) != list(range(n_pairs)):
        return False
    pair_of = dict(zip(ambient.elements(), dec.pair_of))
    for g1, p1 in pair_of.items():
        for g2, p2 in pair_of.items():
            if _product(dec, p1, p2) != pair_of[_add(ambient.factors, g1, g2)]:
                return False
    return True


def classify_prime_by_cyclic(dec: ExtensionDecomposition) -> ExtensionKind:
    """Classify an extension of a prime-order group by a cyclic group.

    The extension is a direct product exactly when the lift of the cyclic
    quotient's generator, its all-ones state (a cyclic group's moduli are
    coprime), has the quotient's order; otherwise the accumulated factor-set
    drift makes the whole group cyclic.
    """
    p_factors = dec.u_part.factors
    if len(p_factors) != 1 or not is_prime(p_factors[0]):
        raise NotApplicable(f"subgroup part {p_factors} is not of prime order")
    if len(invariant_factors(dec.s_part)) > 1:
        raise NotApplicable(f"quotient part {dec.s_part.factors} is not cyclic")
    lift = dec.pair_to_element(dec.u_part.identity(), (1,) * dec.s_part.rank)
    if dec.ambient.element_order(lift) == dec.s_part.order:
        return ExtensionKind.DIRECT_PRODUCT
    return ExtensionKind.CYCLIC
