"""Decompose a group with a chosen normal subgroup into pair coordinates.

Given an ambient abelian group ``G`` and a subgroup ``N``, the decomposition
carries an isomorphism of ``N`` onto a canonical group ``U``, an isomorphism
of ``G/N`` onto a canonical group ``S``, a lifting that picks the
lexicographically minimal representative of every coset, and the factor set
measuring how far the lifting is from a homomorphism (computed from the
lifting on first read).  Conjugation is trivial in an abelian group, so
pairs ``(u, s)`` multiply by

    (u1, s1) * (u2, s2) = (u1 + u2 + factor_set(s1, s2), s1 + s2)

and the pair map ``(u, s) -> lifting(s) + embed(u)`` is an isomorphism onto
``G``.  With the minimal-representative lifting the factor set is normalized:
its value is the identity whenever either argument is the identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

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

    The factor set is computed from the lifting the first time it is read:
    tabulating an encoder never reads it, and it has ``|S|^2`` entries.
    """

    ambient: FiniteAbelianGroup
    normal: Subgroup
    u_part: FiniteAbelianGroup
    s_part: FiniteAbelianGroup
    n_to_u: dict[Element, Element]
    u_to_n: dict[Element, Element]
    lifting: dict[Element, Element]
    to_quotient: dict[Element, Element]

    def pair_to_element(self, u: Element, s: Element) -> Element:
        return self.ambient.add(self.lifting[s], self.u_to_n[u])

    def element_to_pair(self, g: Element) -> tuple[Element, Element]:
        s = self.to_quotient[g]
        residue = self.ambient.sub(g, self.lifting[s])
        return self.n_to_u[residue], s

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

    @cached_property
    def pair_indices(self) -> tuple[tuple[tuple[Element, Element], int], ...]:
        """Every pair in ``pairs()`` order with the ambient index of its element.

        Computed once per decomposition and shared by every encoder built on
        it, so tabulating an encoder costs no pair-map arithmetic.  Lifts and
        embedded inputs are ambient members, so their sum is unchecked.
        """
        index, moduli = self.ambient._index, self.ambient.factors
        lifting, u_to_n = self.lifting, self.u_to_n
        return tuple(
            ((u, s), index[_add(moduli, lifting[s], u_to_n[u])]) for u, s in self.pairs()
        )


def decompose(ambient: FiniteAbelianGroup, normal: Subgroup) -> ExtensionDecomposition:
    """Decompose ``ambient`` over ``normal`` with deterministic labeling.

    The subgroup and quotient are recognized into canonical coordinate
    groups; the lifting sends each quotient element to the lexicographically
    minimal member of its coset, which in particular lifts the identity coset
    to the identity.  :func:`quotient` lists the projection in ``elements()``
    order, so that minimum is the first element projecting onto it.
    """
    s_part, to_quotient = quotient(ambient, normal)  # checks that normal is a subgroup
    u_part, n_to_u = recognize_with_iso(list(normal.elements), ambient.add)
    u_to_n = {u: n for n, u in n_to_u.items()}

    lifting: dict[Element, Element] = {}
    for g, s in to_quotient.items():  # elements() order: each coset's minimum comes first
        lifting.setdefault(s, g)

    return ExtensionDecomposition(
        ambient=ambient,
        normal=normal,
        u_part=u_part,
        s_part=s_part,
        n_to_u=n_to_u,
        u_to_n=u_to_n,
        lifting=lifting,
        to_quotient=to_quotient,
    )


def direct_sum_decomposition(
    u_part: FiniteAbelianGroup, s_part: FiniteAbelianGroup
) -> ExtensionDecomposition:
    """The split decomposition of ``u_part (+) s_part`` in its own coordinates.

    Unlike :func:`decompose`, the components keep the caller's coordinates
    verbatim (no recognition step), so states and inputs print exactly as
    supplied.  The factor set is identically zero.
    """
    ambient = direct_sum(u_part, s_part)
    zero_s = s_part.identity()
    zero_u = u_part.identity()
    members = tuple(u + zero_s for u in u_part.elements())
    normal = Subgroup(ambient, members)
    n_to_u = {u + zero_s: u for u in u_part.elements()}
    u_to_n = {u: u + zero_s for u in u_part.elements()}
    lifting = {s: zero_u + s for s in s_part.elements()}
    to_quotient = {g: g[len(u_part.factors):] for g in ambient.elements()}
    return ExtensionDecomposition(
        ambient=ambient,
        normal=normal,
        u_part=u_part,
        s_part=s_part,
        n_to_u=n_to_u,
        u_to_n=u_to_n,
        lifting=lifting,
        to_quotient=to_quotient,
    )


def extension_product(
    dec: ExtensionDecomposition,
    pair1: tuple[Element, Element],
    pair2: tuple[Element, Element],
) -> tuple[Element, Element]:
    """Multiply two pairs; the second coordinate is always the state sum."""
    u1, s1 = pair1
    u2, s2 = pair2
    u = dec.u_part.add(dec.u_part.add(u1, u2), dec.factor_set[(s1, s2)])
    return u, dec.s_part.add(s1, s2)


def verify_decomposition(dec: ExtensionDecomposition) -> bool:
    """Check the pair map transports the ambient operation onto the pair product."""
    ambient = dec.ambient
    pair_of = {dec.pair_to_element(u, s): (u, s) for u, s in dec.pairs()}
    if len(pair_of) != ambient.order:
        return False
    elements = list(ambient.elements())
    for g1 in elements:
        p1 = pair_of[g1]
        for g2 in elements:
            if extension_product(dec, p1, pair_of[g2]) != pair_of[ambient.add(g1, g2)]:
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
