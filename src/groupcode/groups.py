"""Exact arithmetic and structure machinery for finite abelian groups.

Groups are residue-vector groups: a group is a tuple of coordinate moduli
``(d_1, ..., d_k)`` and its elements are tuples ``(c_1, ..., c_k)`` with
``0 <= c_i < d_i``, added componentwise.  ``make_group`` normalizes the
moduli to the canonical divisibility chain; ``direct_sum`` concatenates
moduli verbatim so pair coordinates survive (used by the encoder layer).
Generated subgroups and subgroup enumeration are one coset-growing span,
:func:`_span`; on index masks one coset walk, :func:`_grown`, serves both
the span of some elements, :func:`_span_mask`, and the closure test, one
translation test :func:`_mask_generators` over :func:`_translate`.  Every
search for generator images (surjective homs, automorphisms, basis
extraction in recognition) is one prefix-span search, :func:`_image_tuples`.
A hom is tabulated once, on first read, as its images' target indices
(:attr:`GroupHom._indices`): one int of fixed-width slots per target
coordinate, grown by shifts and ORs, summed into one int and read back in
one pass (:func:`_read_slots`).
:func:`hom_table` turns those indices into elements.
Recognition checks only tables from outside (:func:`recognize_with_iso`);
the package's own tables, such as the coset table of the one coset walk
:func:`_cosets`, go straight to its core :func:`_recognize`, whose
coordinates are one linear table, :func:`_linear_table`.  Sums in index
space come from one table, :func:`_index_sum_rows`.  The order-``p``
subgroups are one walk over the ``p``-torsion coordinates,
:func:`prime_order_generators`, and the quotient by each is read from its
generator's height, :func:`prime_quotient_types`.  Every order filter reads
one torsion box, :func:`_torsion`, and a group holds only its moduli.
Labels are rendered in bulk from element indices by :func:`element_labels`;
:func:`format_element` is its checked one-element form.  Everything is immutable.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidFactor, InvalidHom, NotASubgroup, NotAbelian, WrongGroup

Element = tuple[int, ...]


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group presented by coordinate moduli.

    ``factors`` is the tuple of coordinate moduli, each at least 2; the empty
    tuple is the trivial group.  Instances produced by :func:`make_group` are
    in canonical invariant-factor form (each modulus divides the next);
    :func:`direct_sum` may produce non-canonical coordinate presentations of
    the same abstract group, which compare unequal as presentations but
    isomorphic under :func:`is_isomorphic`.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(map(_modulus, self.factors)))

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def contains(self, a: Element) -> bool:
        """Whether each coordinate of ``a`` equals an int in range, as a dict key would; never raises.

        ``(1.0, 0)`` and ``(True, False)`` name ``(1, 0)``; ``(0.5, 0)`` and ``("1", 0)`` name nothing.
        """
        try:
            return len(a) == len(self.factors) and all(
                c == int(c) and 0 <= c < d for c, d in zip(a, self.factors)
            )
        except (TypeError, ValueError, OverflowError):
            return False

    def check(self, a: Element) -> Element:
        """The element ``a`` names, in int coordinates; ``WrongGroup`` unless :meth:`contains`."""
        if not self.contains(a):
            raise WrongGroup(f"{a} is not an element of the group with moduli {self.factors}")
        return tuple(map(int, a))

    def elements(self) -> Iterator[Element]:
        """All elements in mixed-radix (lexicographic) order."""
        return itertools.product(*map(range, self.factors))

    def element_at(self, index: int) -> Element:
        if not 0 <= index < self.order:
            raise WrongGroup(f"index {index} is outside the group with moduli {self.factors}")
        coords = []
        for d in reversed(self.factors):
            index, c = divmod(index, d)
            coords.append(c)
        return tuple(reversed(coords))

    def index_of(self, a: Element) -> int:
        """Position of ``a`` in ``elements()``; not range-checked (callers pass members)."""
        idx = 0
        for c, d in zip(a, self.factors):
            idx = idx * d + c
        return idx

    def add(self, a: Element, b: Element) -> Element:
        return _add(self.factors, self.check(a), self.check(b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % d for x, d in zip(self.check(a), self.factors))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def scalar_mul(self, n: int, a: Element) -> Element:
        return tuple((n * x) % d for x, d in zip(self.check(a), self.factors))

    def element_order(self, a: Element) -> int:
        """Least n >= 1 with n*a = identity."""
        return _order(self.factors, self.check(a))

    def __str__(self) -> str:
        if not self.factors:
            return "Z1"
        return " x ".join(f"Z{d}" for d in self.factors)


def _modulus(d) -> int:
    """``d`` as a cyclic factor; ``InvalidFactor`` unless it equals an int of at least 2."""
    try:
        if int(d) == d >= 2:
            return int(d)
    except (TypeError, ValueError, OverflowError):
        pass
    kind = ">= 2" if isinstance(d, int) else "an integer >= 2"
    raise InvalidFactor(f"cyclic factor must be {kind}, got {d!r}")


def _torsion(g: FiniteAbelianGroup, n: int) -> Iterator[Element]:
    """The ``a`` with ``n a = 0`` in ``elements()`` order: in ``Z_d``, multiples of ``d / gcd(d, n)``."""
    return itertools.product(*(range(0, d, d // math.gcd(d, n)) for d in g.factors))


def _add(moduli: tuple[int, ...], a: Element, b: Element) -> Element:
    """Unchecked sum of two elements known to lie in the group with ``moduli``."""
    return tuple(map(operator.mod, map(operator.add, a, b), moduli))


def _order(moduli: tuple[int, ...], a: Element) -> int:
    """Unchecked order of an element known to lie in the group with ``moduli``."""
    return math.lcm(*(d // math.gcd(d, x) for x, d in zip(a, moduli)))


def _span(op: Callable, identity, gens: Iterable, start: set | None = None) -> set:
    """The set spanned by ``gens`` under the abelian group operation ``op``.

    Grows the span one coset at a time: for each generator ``a`` outside the
    current span ``H`` (a subgroup), the cosets ``a + H``, ``2a + H``, ... are
    added until a multiple of ``a`` falls back into ``H``.  Each span element
    is produced by one ``op``, plus one ``op`` per coset to step to the next
    multiple, so the whole span costs under ``2 |span|`` operations.  The
    generators are members of the result.  ``start``, a subgroup left
    unchanged, is the span grown from instead of ``{identity}``.
    """
    span = {identity} if start is None else set(start)
    for a in gens:
        if a in span:
            continue
        base = list(span)
        multiple = a
        while multiple not in span:
            span.update([op(multiple, b) for b in base])
            multiple = op(multiple, a)
    return span


@lru_cache(maxsize=None)
def _digit_shift(moduli: tuple[int, ...], k: int, c: int) -> tuple[int, int, int]:
    """Adding ``c`` to digit ``k`` (modulus ``d``, weight ``w``) moves the indices whose digit is below
    ``d - c`` up ``c w`` and the others down ``(d - c) w``: their mask and the two shifts."""
    d, w = moduli[k], math.prod(moduli[k + 1 :])
    period = "0" * (c * w) + "1" * ((d - c) * w)  # one period of the mask, high bits first
    return int(period * math.prod(moduli[:k]), 2), c * w, (d - c) * w


def _translate(moduli: tuple[int, ...], mask: int, a: Element) -> int:
    """The index mask of ``X + a``, ``X`` at the bits of ``mask``: per digit an AND, two shifts, an OR."""
    for k, c in enumerate(a):
        if c:
            stay, up, down = _digit_shift(moduli, k, c)
            low = mask & stay
            mask = low << up | (mask ^ low) >> down
    return mask


def _image_tuples(
    lists: Sequence[Sequence], op: Callable, identity, sizes: Sequence[int | None]
) -> Iterator[tuple]:
    """Tuples ``(a_1, ..., a_k)``, ``a_i`` from ``lists[i - 1]``, in lexicographic list order.

    The first i entries must span ``sizes[i]`` elements (i = 0..k), or any
    number where ``sizes[i]`` is None.  Each prefix span is built once, by
    one :func:`_span` from its parent's span, and shared by the prefix's
    extensions.  A candidate ``a`` after a prefix spanning ``H`` is sized
    without a span: ``|H| * n``, n the least n >= 1 with ``n a`` in ``H``.
    """

    def extend(prefix: tuple, span: set) -> Iterator[tuple]:
        i = len(prefix)
        if i == len(lists):
            yield prefix
            return
        for a in lists[i]:
            multiple, n = a, 1
            while multiple not in span:
                multiple = op(multiple, a)
                n += 1
            if sizes[i + 1] is None or len(span) * n == sizes[i + 1]:
                if i + 1 == len(lists):
                    yield prefix + (a,)
                else:
                    yield from extend(prefix + (a,), _span(op, identity, [a], span))

    if sizes[0] in (None, 1):  # the empty prefix spans {identity}
        yield from extend((), {identity})


def _linear_table(op: Callable, identity, gens: Iterable[tuple[int, object]]) -> list:
    """The sums ``c_1 a_1 + ... + c_k a_k``, ``0 <= c_i < d_i``, for ``gens = [(d_i, a_i)]``.

    The sums come in lexicographic order of ``(c_1, ..., c_k)``.  After the
    first i generators the table holds the sums of all prefixes; the next
    generator replaces each entry ``t`` by ``t, t + a, t + 2a, ...`` for its
    element ``a``.  The zero multiple is never added (``op(t, identity)`` is
    ``t``), so the table costs ``prod(d_i) - 1 + sum(d_i - 2)`` operations.
    """
    table = [identity]
    for d, a in gens:
        multiples = [a]
        for _ in range(d - 2):
            multiples.append(op(multiples[-1], a))
        extended = []
        for t in table:
            extended.append(t)
            extended += [op(t, m) for m in multiples]
        table = extended
    return table


def format_element(g: FiniteAbelianGroup, a: Element) -> str:
    """Compact rendering: digits concatenated when unambiguous, else comma-joined."""
    return element_labels(g, [g.index_of(g.check(a))])[0]


def element_labels(g: FiniteAbelianGroup, indices: Sequence[int], sep: str | None = None) -> list[str]:
    """The :func:`format_element` text of the element at each index, in the order given.

    Indices are not range-checked.  Each coordinate is read as one column of
    values over all indices and rendered with ``str``; the columns are joined
    with ``sep``, by default with no separator when every factor is at most
    10, else with commas.  The trivial group's one element is ``"()"``.
    """
    if not g.factors:
        return ["()"] * len(indices)
    if sep is None:
        sep = "" if all(d <= 10 for d in g.factors) else ","
    columns = []
    weight = g.order
    for d in g.factors:
        weight //= d
        columns.append(map(str, map(d.__rmod__, map(weight.__rfloordiv__, indices))))
    return list(map(sep.join, zip(*columns)))


def make_group(invariant_factors: Sequence[int]) -> FiniteAbelianGroup:
    """Build a group in canonical invariant-factor form.

    Arbitrary moduli are accepted and normalized, so ``make_group([2, 3])``
    and ``make_group([6])`` return the same group.
    """
    return FiniteAbelianGroup(_invariant_chain(tuple(map(_modulus, invariant_factors))))


def direct_sum(*groups: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """Concatenate coordinate moduli, preserving each summand's coordinates."""
    factors: tuple[int, ...] = ()
    for g in groups:
        factors += g.factors
    return FiniteAbelianGroup(factors)


@lru_cache(maxsize=None)
def _invariant_chain(moduli: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical divisor chain of the abelian group with the given moduli."""
    exponents: dict[int, list[int]] = {}
    for d in moduli:
        for p, e in _factorint(d).items():
            exponents.setdefault(p, []).append(e)
    for p in exponents:
        exponents[p].sort(reverse=True)
    depth = max((len(v) for v in exponents.values()), default=0)
    layers = []
    for i in range(depth):
        layers.append(math.prod(p ** v[i] for p, v in exponents.items() if i < len(v)))
    return tuple(reversed(layers))


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _factorint(n) == {n: 1}


def is_p_power(n: int, p: int) -> bool:
    """Whether ``n`` is ``p ** k`` for some ``k >= 0``."""
    while n % p == 0:
        n //= p
    return n == 1


def invariant_factors(g: FiniteAbelianGroup) -> tuple[int, ...]:
    """Canonical invariant factors of the (possibly non-canonical) presentation."""
    return _invariant_chain(g.factors)


def is_isomorphic(g1: FiniteAbelianGroup, g2: FiniteAbelianGroup) -> bool:
    return _invariant_chain(g1.factors) == _invariant_chain(g2.factors)


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class Subgroup:
    """A subgroup stored as the canonically sorted tuple of its distinct elements."""

    parent: FiniteAbelianGroup
    elements: tuple[Element, ...]
    _member_set: frozenset = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(sorted(dict.fromkeys(self.elements))))
        object.__setattr__(self, "_member_set", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Element) -> bool:
        return a in self._member_set

    def is_closed(self) -> bool:
        """Whether the members, each checked in ``parent``, form a subgroup: :func:`_mask_generators`."""
        g = self.parent
        mask = sum(1 << g.index_of(g.check(a)) for a in self.elements)
        return _mask_generators(g, mask) is not None

    def validate(self) -> "Subgroup":
        if not self.is_closed():
            raise NotASubgroup(f"element set {self.elements} is not a subgroup")
        return self


def _mask_generators(g: FiniteAbelianGroup, mask: int) -> list[Element] | None:
    """Generators of the subgroup ``X`` at the bits of ``mask``, or None when ``X`` is no subgroup.

    ``X`` must hold the identity, bit 0, and ``X + a = X`` for each least member ``a`` outside the
    span ``H`` so far, which then grows by :func:`_grown`.
    """
    if not mask & 1:
        return None
    gens, span = [], 1
    while rest := mask & ~span:
        a = g.element_at((rest & -rest).bit_length() - 1)
        if _translate(g.factors, mask, a) != mask:
            return None
        gens.append(a)
        span = _grown(g.factors, span, a)
    return gens


def _span_mask(g: FiniteAbelianGroup, gens: Iterable[int], span: int = 1) -> int:
    """The index mask of the subgroup spanned by the subgroup mask ``span`` and the elements at ``gens``.

    Each index outside the span so far grows it by :func:`_grown`; the others cost one bit test.
    """
    for i in gens:
        if not span >> i & 1:
            span = _grown(g.factors, span, g.element_at(i))
    return span


def _grown(moduli: tuple[int, ...], span: int, a: Element) -> int:
    """The subgroup mask ``span`` (``H``) grown by ``a``: its cosets ``H + a, H + 2a, ...`` back to ``H``."""
    coset = span
    while not (coset := _translate(moduli, coset, a)) & 1:
        span |= coset
    return span


def subgroup_generated(g: FiniteAbelianGroup, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup containing ``gens``, computed by :func:`_span`."""
    gens = [g.check(tuple(x)) for x in gens]
    return Subgroup(g, tuple(_span(partial(_add, g.factors), g.identity(), gens)))


def trivial_subgroup(g: FiniteAbelianGroup) -> Subgroup:
    return Subgroup(g, (g.identity(),))


def subgroup_index(g: FiniteAbelianGroup, h: Subgroup) -> int:
    """Number of cosets of ``h`` in ``g``."""
    h.validate()
    if h.parent != g:
        raise NotASubgroup(f"subgroup of {h.parent.factors} is not a subgroup of {g.factors}")
    return g.order // h.order


def quotient(g: FiniteAbelianGroup, n: Subgroup) -> tuple[FiniteAbelianGroup, dict[Element, Element]]:
    """Quotient group in canonical form plus the projection g -> quotient.

    Read from :func:`_cosets`; the dict maps every element of ``g``, in
    ``g.elements()`` order, to its coset minimum's coordinates.
    """
    q_group, coords, filed = _cosets(g, n)
    return q_group, {a: coords[filed[a][0]] for a in g.elements()}


def _cosets(g: FiniteAbelianGroup, n: Subgroup) -> tuple[FiniteAbelianGroup, dict, dict]:
    """The one coset walk: ``g / n``, its minima's coordinates, and ``{m + x: (m, x)}``.

    Checks that ``n`` is a subgroup of ``g``.  The first member met walking
    ``g.elements()`` is its coset's minimum ``m``, and the coset's members
    ``m + x``, ``x`` in ``n``, are filed then, so no coset is sorted.  The
    coset table is built inside ``g``, so :func:`_recognize` takes it unchecked.
    """
    n.validate()
    if n.parent != g:
        raise NotASubgroup("subgroup belongs to a different group")
    add = partial(_add, g.factors)
    filed: dict[Element, tuple[Element, Element]] = {}
    minima = []
    for a in g.elements():
        if a not in filed:
            minima.append(a)
            for x in n.elements:
                filed[add(a, x)] = (a, x)
    q_group, coords = _recognize(minima, lambda a, b: filed[add(a, b)][0], g.identity())
    return q_group, coords, filed


def all_subgroups(g: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup of ``g``, found by spanning element extensions."""
    op = partial(_add, g.factors)
    identity = g.identity()
    start = frozenset([identity])
    seen = {start}
    frontier = [start]
    all_elements = list(g.elements())
    while frontier:
        current = frontier.pop()
        for x in all_elements:
            if x in current:
                continue
            extended = frozenset(_span(op, identity, [x], current))
            if extended not in seen:
                seen.add(extended)
                frontier.append(extended)
    subgroups = [Subgroup(g, tuple(members)) for members in seen]
    return sorted(subgroups, key=lambda h: (h.order, h.elements))


def elements_of_order(g: FiniteAbelianGroup, n: int) -> list[Element]:
    """The elements of order ``n``: the ``n``-torsion outside each ``n / q``-torsion, ``q`` prime."""
    if n < 1:
        return []
    lower = set().union(*(_torsion(g, n // q) for q in _factorint(n)))
    return [a for a in _torsion(g, n) if a not in lower]


def prime_order_generators(g: FiniteAbelianGroup, p: int) -> Iterator[Element]:
    """The least non-identity member of each order-``p`` subgroup (``p`` prime), in lexicographic order.

    The elements ``a`` with ``p a = 0`` are the ``p``-torsion box :func:`_torsion`.
    Its ``p^rank`` tuples come in lexicographic order, which is the order of
    their coefficient tuples ``c`` over ``Z_p``; the subgroup of ``a`` is
    ``{k a}``, whose least non-identity member is the multiple whose first
    nonzero coefficient is 1, so exactly those tuples are kept.
    """
    for a in _torsion(g, p):
        if next((c * p == d for c, d in zip(a, g.factors) if c), False):
            yield a


def prime_order_subgroups(g: FiniteAbelianGroup, p: int) -> list[Subgroup]:
    """All subgroups of ``g`` of prime order ``p``, in canonical order (by least generator)."""
    return [subgroup_generated(g, [a]) for a in prime_order_generators(g, p)]


def element_height(g: FiniteAbelianGroup, a: Element, p: int) -> int:
    """Largest t such that ``a`` is a p^t-th multiple inside ``g``, for a prime ``p``.

    Read from the coordinates: in ``Z_d`` the p^t-th multiples are the
    multiples of ``gcd(p^t, d)``, so the height is the smallest p-adic
    valuation among the coordinates whose order is divisible by ``p``.  The
    height is unbounded exactly when there is no such coordinate (the order
    of ``a`` is prime to ``p``, the identity included), and then
    ``WrongGroup`` is raised.
    """
    if g.element_order(a) % p != 0:
        raise WrongGroup(f"height of {a} is unbounded: its order is prime to {p}")
    t = 0
    while all(c % math.gcd(p ** (t + 1), d) == 0 for c, d in zip(a, g.factors)):
        t += 1
    return t


def prime_quotient_types(g: FiniteAbelianGroup, p: int) -> dict[int, tuple[int, ...]]:
    """``{h: invariant factors of g / <x>}`` over the heights ``h`` of the order-``p`` elements ``x``.

    For ``x`` of prime order ``p`` and height ``h`` (Kaplansky, Infinite
    Abelian Groups, 1954), ``g / <x>`` is ``g`` with one ``Z_{p^(h+1)}``
    summand replaced by ``Z_{p^h}``: one modulus of ``p``-adic valuation
    ``h + 1`` divided by ``p``.  The heights that occur are the valuations,
    less one, of the moduli that ``p`` divides, so nothing is built.
    """
    types = {}
    for i, d in enumerate(g.factors):
        v = 0
        while d % p ** (v + 1) == 0:
            v += 1
        if v and v - 1 not in types:
            moduli = g.factors[:i] + ((d // p,) if d > p else ()) + g.factors[i + 1 :]
            types[v - 1] = _invariant_chain(moduli)
    return types


# ---------------------------------------------------------------------------
# recognition of abstract operation tables
# ---------------------------------------------------------------------------

def recognize(elements: Sequence, mul: Callable) -> FiniteAbelianGroup:
    """Canonical invariant factors of a group given by elements and operation."""
    return recognize_with_iso(elements, mul)[0]


def recognize_with_iso(elements: Sequence, mul: Callable) -> tuple[FiniteAbelianGroup, dict]:
    """Recognize an abelian operation table and return coordinates for it.

    Returns the canonical group plus a dict mapping each table element to its
    residue-vector coordinates, from :func:`_recognize`.  The table comes
    from the caller, so every table, even a one-element one, is first checked
    for an identity and commutativity.  Raises ``NotAbelian`` when the table
    is not an abelian group.
    """
    elements = list(elements)
    identity = _table_identity(elements, mul)
    for a in elements:
        for b in elements:
            if mul(a, b) != mul(b, a):
                raise NotAbelian(f"operation does not commute on {a!r}, {b!r}")
    return _recognize(elements, mul, identity)


def _recognize(elements: Sequence, mul: Callable, identity) -> tuple[FiniteAbelianGroup, dict]:
    """Basis and coordinates of a commutative table with a known identity.

    The basis is extracted deterministically (candidates scanned in table
    order, maximal orders first), so identical inputs give identical labels.
    Coordinates are read off the :func:`_linear_table` of the basis, one
    :func:`_crt` per invariant factor.
    """
    n = len(elements)
    orders = {a: _table_order(a, identity, mul, n) for a in elements}
    basis = []  # (rank within its prime, p**e, element), primes in increasing order
    for p in sorted(_factorint(n)):
        component = [a for a in elements if is_p_power(orders[a], p)]
        exps = _census_exponents(component, orders, p)
        basis += _extract_basis(component, orders, identity, mul, p, exps)

    # layer r holds the rank-r prime powers; invariant factors: layer products, smallest first
    moduli = [q for _, q, _ in basis]
    depth = max((rank + 1 for rank, _, _ in basis), default=0)
    layers = [[i for i, b in enumerate(basis) if b[0] == r] for r in reversed(range(depth))]
    group = FiniteAbelianGroup(tuple(math.prod(moduli[i] for i in layer) for layer in layers))
    table = _linear_table(mul, identity, [(q, b) for _, q, b in basis])
    coords = {
        elt: tuple(_crt([(c[i], moduli[i]) for i in layer]) for layer in layers)
        for elt, c in zip(table, itertools.product(*map(range, moduli)))
    }
    if len(coords) != n:
        raise NotAbelian("basis span does not cover the table")
    return group, coords


def _table_identity(elements: Sequence, mul: Callable):
    for a in elements:
        if all(mul(a, b) == b for b in elements):
            return a
    raise NotAbelian("operation table has no identity")


def _table_order(a, identity, mul, bound: int) -> int:
    """Least n >= 1 with a^n = identity; no such n up to ``bound`` raises ``NotAbelian``."""
    acc = a
    n = 1
    while acc != identity:
        if n == bound:
            raise NotAbelian(f"{a!r} does not reach the identity within {bound} steps")
        acc = mul(acc, a)
        n += 1
    return n


def _census_exponents(component: Sequence, orders: dict, p: int) -> list[int]:
    """Cyclic-factor exponents of a primary component from its order census."""
    if len(component) == 1:
        return []
    max_e = max(orders[a] for a in component)
    k_max = 0
    while p ** k_max < max_e:
        k_max += 1
    # m_k = log_p #{x : order(x) divides p^k}; m_k - m_{k-1} counts factors
    # with exponent >= k (conjugate partition).
    m = []
    for k in range(k_max + 1):
        count = sum(1 for a in component if p ** k % orders[a] == 0)
        e = 0
        while count > 1:
            count //= p
            e += 1
        m.append(e)
    exps: list[int] = []
    for k in range(1, k_max + 1):
        exps.extend([k] * ((m[k] - m[k - 1]) - (m[k + 1] - m[k] if k < k_max else 0)))
    exps.sort(reverse=True)
    return exps


def _extract_basis(component, orders, identity, mul, p: int, exps: list[int]) -> list:
    """Independent generators realizing the census exponents, as ``(rank, p**e, element)``."""
    lists = [[a for a in component if orders[a] == p ** e] for e in exps]
    sizes = list(itertools.accumulate([p ** e for e in exps], operator.mul, initial=1))
    basis = next(_image_tuples(lists, mul, identity, sizes), None)
    if basis is None:
        raise NotAbelian("no independent basis found for primary component")  # pragma: no cover
    return [(rank, p ** e, b) for rank, (e, b) in enumerate(zip(exps, basis))]


def _crt(residues: list[tuple[int, int]]) -> int:
    """Solve x = r (mod q) for pairwise coprime moduli."""
    x, modulus = 0, 1
    for r, q in residues:
        x += modulus * ((r - x) * pow(modulus, -1, q) % q)
        modulus *= q
    return x


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class GroupHom:
    """A homomorphism stored as one image per coordinate generator of the source."""

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    gen_images: tuple[Element, ...]

    def __post_init__(self) -> None:
        images = tuple(map(tuple, self.gen_images))
        if len(images) != len(self.source.factors):
            raise InvalidHom(
                f"expected {len(self.source.factors)} generator images, got {len(images)}"
            )
        factors = self.target.factors
        checked = []
        for d, img in zip(self.source.factors, images):
            img = self.target.check(img)  # int coordinates, or WrongGroup
            if any(d * c % m for c, m in zip(img, factors)):
                raise InvalidHom(
                    f"image {img} of an order-{d} generator has order "
                    f"{_order(factors, img)}, which does not divide {d}"
                )
            checked.append(img)
        object.__setattr__(self, "gen_images", tuple(checked))

    def __call__(self, a: Element) -> Element:
        self.source.check(a)
        out = self.target.identity()
        for c, img in zip(a, self.gen_images):
            out = self.target.add(out, self.target.scalar_mul(c, img))
        return out

    @cached_property
    def _indices(self) -> list[int]:
        """Each source element's image as an index into ``target.elements()``, built on first read.

        A SWAR kernel: each target coordinate's digits over the source
        elements are one int of fixed-width slots, slot ``i`` holding element
        ``i``'s digit.  The slots are 8, 16, 32 or 64 bits (wider past that),
        the least that hold twice the largest modulus and every target index.
        A column grows from the last source generator to the first by shifts
        and ORs: a generator of order ``n`` and coefficient ``a`` turns the
        block built so far into ``n`` blocks, block ``c`` holding the old one
        plus ``c a`` mod ``d`` in every slot.  The blocks double, each new
        half the old half plus ``h a`` for its ``h`` blocks, so a zero
        coefficient only copies and a count past ``n`` is cut off by a mask.
        Adding ``c`` mod ``d`` to every slot at once: adding ``top - d`` more,
        ``top`` the slot's top bit, sets that bit exactly where the sum reached
        ``d``, and ``d`` is taken off those slots.  The columns, weighted by
        the mixed radix, sum into one int of indices with no carry between
        slots, which :func:`_read_slots` reads back.
        """
        moduli, orders = self.target.factors, self.source.factors
        bits = 8
        while 1 << bits - 1 < max(moduli, default=1) or 1 << bits < self.target.order:
            bits *= 2
        width, top = bits // 8, 1 << bits - 1
        # a constant over many slots is one slot's bytes repeated, never a product
        high = top.to_bytes(width, "little")
        total, weight = 0, 1
        for k in reversed(range(len(moduli))):
            d = moduli[k]
            low = (top - d).to_bytes(width, "little")
            column, block = 0, bits  # one slot holding 0; ``block`` counts bits
            for n, img in zip(reversed(orders), reversed(self.gen_images)):
                h = 1
                while h < n:
                    copy = column
                    if c := h * img[k] % d:
                        slots = h * block // bits
                        copy += int.from_bytes(c.to_bytes(width, "little") * slots, "little")
                        over = copy + int.from_bytes(low * slots, "little")
                        over &= int.from_bytes(high * slots, "little")
                        copy -= (over >> bits - 1) * d
                    column |= copy << h * block
                    h *= 2
                if h > n:
                    column &= (1 << n * block) - 1
                block *= n
            total += weight * column
            weight *= d
        return _read_slots(total, self.source.order, width)


def _read_slots(total: int, count: int, width: int) -> list[int]:
    """The ``count`` slots of ``width`` bytes in ``total``, lowest first.

    Up to 8 bytes one ``to_bytes`` in native order is cast to native items,
    whose list comes out highest slot first on a big-endian machine; wider
    slots are read one by one.
    """
    if width > 8:
        raw = total.to_bytes(count * width, "little")
        return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    raw = memoryview(total.to_bytes(count * width, sys.byteorder))
    cells = raw.cast("BHIQ"[width.bit_length() - 1]).tolist()
    return cells if sys.byteorder == "little" else cells[::-1]


def _index_sum_rows(g: FiniteAbelianGroup, a: int = 1, b: int = 1) -> list[list[int]]:
    """``rows[x][y]`` is the index of ``a * g.element_at(x) + b * g.element_at(y)``.

    Built from the last coordinate to the first: prepending a ``Z_d``
    coordinate to a table of ``m`` indices puts digit ``(a c1 + b c2) mod d``
    at weight ``m`` in front of the old entry, with no element built.
    """
    rows = [[0]]
    for d in reversed(g.factors):
        m = len(rows)
        rows = [
            [(a * c1 + b * c2) % d * m + t for c2 in range(d) for t in row]
            for c1 in range(d)
            for row in rows
        ]
    return rows


def hom_table(h: GroupHom) -> list[Element]:
    """The image of every source element, in ``h.source.elements()`` order, as a new list.

    Read from the hom's cached target indices; ``h(a)`` stays the checked evaluation.
    """
    return _elements_at(h.target, h._indices)


def _elements_at(g: FiniteAbelianGroup, indices: Sequence[int]) -> list[Element]:
    """The elements at ``indices``, each distinct index converted once, with no table of the group."""
    at = {i: g.element_at(i) for i in set(indices)}
    return list(map(at.__getitem__, indices))


def identity_hom(g: FiniteAbelianGroup) -> GroupHom:
    images = []
    for i in range(len(g.factors)):
        e = [0] * len(g.factors)
        e[i] = 1
        images.append(tuple(e))
    return GroupHom(g, g, tuple(images))


def hom_image(h: GroupHom) -> Subgroup:
    return subgroup_generated(h.target, h.gen_images)


def hom_kernel(h: GroupHom) -> Subgroup:
    """The source elements at the zeros (the identity's index) of the hom's cached target indices."""
    zeros = [k for k, i in enumerate(h._indices) if i == 0]
    return Subgroup(h.source, tuple(map(h.source.element_at, zeros)))


def is_surjective(h: GroupHom) -> bool:
    return hom_image(h).order == h.target.order


def _hom_candidates(g1: FiniteAbelianGroup, g2: FiniteAbelianGroup) -> list[list[Element]]:
    """Per coordinate generator of ``g1``, of order ``d``, its possible images: ``g2``'s ``d``-torsion."""
    return [list(_torsion(g2, d)) for d in g1.factors]


def enumerate_homs(
    g1: FiniteAbelianGroup,
    g2: FiniteAbelianGroup,
    surjective_only: bool = False,
) -> list[GroupHom]:
    """All homomorphisms g1 -> g2, in lexicographic order of image indices.

    A hom is one image per coordinate generator of ``g1``, drawn from
    :func:`_hom_candidates`.  With ``surjective_only`` the image tuples come
    from :func:`_image_tuples`, which spans each prefix once and only sizes
    the last image, so a ``GroupHom`` is built for the surjections alone.
    """
    candidate_lists = _hom_candidates(g1, g2)
    if surjective_only:
        sizes = [None] * len(candidate_lists) + [g2.order]
        tuples = _image_tuples(candidate_lists, partial(_add, g2.factors), g2.identity(), sizes)
    else:
        tuples = itertools.product(*candidate_lists)
    return [GroupHom(g1, g2, images) for images in tuples]


def automorphisms(g: FiniteAbelianGroup) -> list[GroupHom]:
    """Every automorphism of ``g``, in lexicographic generator-image order.

    An automorphism sends each coordinate generator to an element of the
    same order (:func:`elements_of_order`, listed once per modulus), and its
    restriction to the first i generators is injective, so :func:`_image_tuples`
    requires prefix spans of exact size ``d_1 * ... * d_i`` (Hillar and Rhea,
    Amer. Math. Monthly 2007).
    """
    by_order = {d: elements_of_order(g, d) for d in set(g.factors)}
    lists = list(map(by_order.get, g.factors))
    sizes = list(itertools.accumulate(g.factors, operator.mul, initial=1))
    tuples = _image_tuples(lists, partial(_add, g.factors), g.identity(), sizes)
    return [GroupHom(g, g, images) for images in tuples]


# ---------------------------------------------------------------------------
# families of groups
# ---------------------------------------------------------------------------

def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order ``n`` up to isomorphism, canonical form."""
    if n < 1:
        raise InvalidFactor(f"group order must be positive, got {n}")
    if n == 1:
        return [FiniteAbelianGroup(())]
    per_prime: list[list[tuple[int, ...]]] = []
    primes = []
    for p, e in sorted(_factorint(n).items()):
        primes.append(p)
        per_prime.append([tuple(part) for part in _partitions(e)])
    groups = []
    for combo in itertools.product(*per_prime):
        moduli: list[int] = []
        for p, partition in zip(primes, combo):
            moduli.extend(p ** e for e in partition)
        groups.append(make_group(moduli))
    return sorted(set(groups), key=lambda g: g.factors)


def _partitions(n: int) -> Iterator[list[int]]:
    """Partitions of ``n`` in decreasing-part order."""
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest
