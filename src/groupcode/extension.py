"""Decompose a group with a chosen normal subgroup into pair coordinates.

Given an ambient abelian group ``G`` and a subgroup ``N``, a decomposition
stores one int column: for each pair ``(u, s)``, the index of the element of
``G`` that carries it.  ``s`` names the element's coset in a canonical group
``S`` isomorphic to ``G/N``, and ``u`` its residue over the coset's lift, the
lexicographically minimal member, in a canonical group ``U`` isomorphic to
``N``.  The pair of each element, the projection, the embedding of ``N``, the
lifting and ``N`` are derived from that column, and the factor set measures
how far the lifting is from a homomorphism.
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
    direct_sum,
    is_prime,
    quotient,
    recognize_with_iso,
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
        """``(s1, s2) -> n_to_u[lifting(s1) + lifting(s2) - lifting(s1 + s2)]``."""
        ambient, lifting, s_part = self.ambient, self.lifting, self.s_part
        table = {}
        for s1 in s_part.elements():
            for s2 in s_part.elements():
                drift = ambient.sub(
                    ambient.add(lifting[s1], lifting[s2]), lifting[s_part.add(s1, s2)]
                )
                table[(s1, s2)] = self.n_to_u[drift]
        return table


def decompose(ambient: FiniteAbelianGroup, normal: Subgroup) -> ExtensionDecomposition:
    """Decompose ``ambient`` over ``normal`` with deterministic labeling.

    The subgroup and quotient are recognized into canonical coordinate
    groups.  :func:`quotient` lists the projection in ``elements()`` order,
    so the first element met in each coset is its minimum, which becomes the
    coset's lift (the identity coset lifts to the identity).  Each element
    ``g`` of the coset gets the pair ``(n_to_u[g - lift], s)``, the lift
    itself ``(e_U, s)``, and the column holds its index at that pair's
    position.
    """
    s_part, to_quotient = quotient(ambient, normal)  # checks that normal is a subgroup
    moduli = ambient.factors
    u_part, n_to_u = recognize_with_iso(list(normal.elements), partial(_add, moduli))
    n_states = s_part.order

    neg_lift: dict[Element, Element] = {}
    column = [0] * ambient.order
    for g_index, (g, s) in enumerate(to_quotient.items()):
        if s not in neg_lift:
            neg_lift[s] = tuple(-c % d for c, d in zip(g, moduli))
        u = n_to_u[_add(moduli, g, neg_lift[s])]
        column[u_part.index_of(u) * n_states + s_part.index_of(s)] = g_index
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

    The extension is a direct product exactly when the lifted generator of
    the cyclic quotient has order equal to the quotient's; otherwise the
    accumulated factor-set drift makes the whole group cyclic.
    """
    p_factors = dec.u_part.factors
    if len(p_factors) != 1 or not is_prime(p_factors[0]):
        raise NotApplicable(f"subgroup part {p_factors} is not of prime order")
    if len(dec.s_part.factors) > 1:
        raise NotApplicable(f"quotient part {dec.s_part.factors} is not cyclic")
    m = dec.s_part.order
    if m == 1:
        return ExtensionKind.DIRECT_PRODUCT
    generator = (dec.u_part.identity(), (1,))
    acc = (dec.u_part.identity(), dec.s_part.identity())
    for _ in range(m):
        acc = extension_product(dec, acc, generator)
    u, s = acc
    if s != dec.s_part.identity():  # pragma: no cover - m*s is always the identity
        raise NotApplicable("cyclic power did not close")
    if u == dec.u_part.identity():
        return ExtensionKind.DIRECT_PRODUCT
    return ExtensionKind.CYCLIC


def factor_set_matrix(dec: ExtensionDecomposition) -> list[list[list[int]]]:
    """The factor set as a JSON-ready matrix indexed by canonical element order.

    Entry ``[i][j]`` is the coordinate array of the factor-set value at the
    i-th and j-th elements of the quotient part.
    """
    ordered = list(dec.s_part.elements())
    return [
        [list(dec.factor_set[(s1, s2)]) for s2 in ordered] for s1 in ordered
    ]
