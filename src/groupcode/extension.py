"""Decompose a group with a chosen normal subgroup into pair coordinates.

Given an ambient abelian group ``G`` and a subgroup ``N``, a decomposition
stores one map: the pair ``(u, s)`` of every element of ``G``.  ``s`` names
the element's coset in a canonical group ``S`` isomorphic to ``G/N``, and
``u`` its residue over the coset's lift, the lexicographically minimal
member, in a canonical group ``U`` isomorphic to ``N``.  The projection, the
embedding of ``N``, the lifting and ``N`` are read from that map, and the
factor set measures how far the lifting is from a homomorphism.
Conjugation is trivial in an abelian group, so pairs multiply by

    (u1, s1) * (u2, s2) = (u1 + u2 + factor_set(s1, s2), s1 + s2)

and the pair map ``(u, s) -> lifting(s) + embed(u)`` is an isomorphism onto
``G``.  With the minimal-representative lifting the factor set is normalized:
its value is the identity whenever either argument is the identity.
"""

from __future__ import annotations

import enum
import itertools
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

    ``pair_of[i]`` is the pair ``(u, s)`` of the ambient element with index
    ``i`` in ``ambient.elements()`` order.  Every other map is read from it
    the first time it is used; tabulating an encoder reads only
    :attr:`_by_position`, which every encoder on the decomposition shares.
    """

    ambient: FiniteAbelianGroup
    u_part: FiniteAbelianGroup
    s_part: FiniteAbelianGroup
    pair_of: tuple[tuple[Element, Element], ...]

    @cached_property
    def _by_position(self) -> Sequence[int]:
        """Ambient indices in pair-position order.

        Entry ``index(u) * |S| + index(s)`` is the index of the ambient
        element whose pair is ``(u, s)``, indices in ``elements()`` order.
        """
        u_index, s_index = self.u_part._index, self.s_part._index
        n_states = len(s_index)
        order = [0] * len(self.pair_of)
        for g, (u, s) in enumerate(self.pair_of):
            order[u_index[u] * n_states + s_index[s]] = g
        return order

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
        lift = self.lifting[self.s_part.check(s)]
        return self.ambient.add(lift, self.u_to_n[self.u_part.check(u)])

    def element_to_pair(self, g: Element) -> tuple[Element, Element]:
        return self.pair_of[self.ambient.index_of(self.ambient.check(g))]

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
    coset's lift (the identity coset lifts to the identity).  Every other
    element ``g`` of the coset gets the pair ``(n_to_u[g - lift], s)``.
    """
    s_part, to_quotient = quotient(ambient, normal)  # checks that normal is a subgroup
    moduli = ambient.factors
    u_part, n_to_u = recognize_with_iso(list(normal.elements), partial(_add, moduli))
    e_u = u_part.identity()

    neg_lift: dict[Element, Element] = {}
    pair_of = []
    for g, s in to_quotient.items():
        if s in neg_lift:
            pair_of.append((n_to_u[_add(moduli, g, neg_lift[s])], s))
        else:
            neg_lift[s] = tuple(-c % d for c, d in zip(g, moduli))
            pair_of.append((e_u, s))
    return ExtensionDecomposition(ambient, u_part, s_part, tuple(pair_of))


def direct_sum_decomposition(
    u_part: FiniteAbelianGroup, s_part: FiniteAbelianGroup
) -> ExtensionDecomposition:
    """The split decomposition of ``u_part (+) s_part`` in its own coordinates.

    Unlike :func:`decompose`, the components keep the caller's coordinates
    verbatim (no recognition step), so states and inputs print exactly as
    supplied: the pair of an element is its coordinate split.  The factor
    set is identically zero.
    """
    pair_of = tuple(itertools.product(u_part.elements(), s_part.elements()))
    dec = ExtensionDecomposition(direct_sum(u_part, s_part), u_part, s_part, pair_of)
    # The ambient elements are the product of the components' elements, so
    # the element at position index(u) * |S| + index(s) has that same index:
    # seed the cached order with the identity instead of inverting pair_of
    # (inverting it costs about 150 us, a fifth of an encoder build, at
    # |U| * |S| = 729).
    vars(dec)["_by_position"] = range(len(pair_of))
    return dec


def extension_product(
    dec: ExtensionDecomposition,
    pair1: tuple[Element, Element],
    pair2: tuple[Element, Element],
) -> tuple[Element, Element]:
    """Multiply two pairs; the second coordinate is always the state sum."""
    for u, s in (pair1, pair2):
        dec.u_part.check(u)
        dec.s_part.check(s)
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
    if len(dec.pair_of) != ambient.order or set(dec.pair_of) != set(dec.pairs()):
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
