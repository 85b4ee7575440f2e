"""Exact arithmetic and structure machinery for finite abelian groups.

Groups are residue-vector groups: a group is a tuple of coordinate moduli
``(d_1, ..., d_k)`` and its elements are tuples ``(c_1, ..., c_k)`` with
``0 <= c_i < d_i``, added componentwise.  ``make_group`` normalizes the
moduli to the canonical divisibility chain; ``direct_sum`` concatenates
moduli verbatim so pair coordinates survive (used by the encoder layer).
Every subgroup closure (generated subgroups, the closure test, subgroup
enumeration, heights) is one coset-growing span, :func:`_span`.  Every search
for generator images (surjective homs, automorphisms, basis extraction in
recognition) is one prefix-span search, :func:`_image_tuples`.  Everything is
immutable and safe to share across workers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
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
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))
        for d in self.factors:
            if d < 2:
                raise InvalidFactor(f"cyclic factor must be >= 2, got {d}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def contains(self, a: Element) -> bool:
        return len(a) == len(self.factors) and all(
            0 <= c < d for c, d in zip(a, self.factors)
        )

    def check(self, a: Element) -> Element:
        if not self.contains(a):
            raise WrongGroup(f"{a} is not an element of the group with moduli {self.factors}")
        return a

    def elements(self) -> Iterator[Element]:
        """All elements in mixed-radix (lexicographic) order."""
        ranges = [range(d) for d in self.factors]
        return (tuple(c) for c in itertools.product(*ranges))

    def element_at(self, index: int) -> Element:
        coords = []
        for d in reversed(self.factors):
            index, c = divmod(index, d)
            coords.append(c)
        return tuple(reversed(coords))

    def index_of(self, a: Element) -> int:
        idx = 0
        for c, d in zip(a, self.factors):
            idx = idx * d + c
        return idx

    def add(self, a: Element, b: Element) -> Element:
        if len(a) != len(self.factors) or len(b) != len(self.factors):
            raise WrongGroup(f"coordinate length mismatch in group {self.factors}")
        return _add(self.factors, a, b)

    def neg(self, a: Element) -> Element:
        self.check(a)
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def scalar_mul(self, n: int, a: Element) -> Element:
        self.check(a)
        return tuple((n * x) % d for x, d in zip(a, self.factors))

    def element_order(self, a: Element) -> int:
        """Least n >= 1 with n*a = identity."""
        self.check(a)
        n = 1
        for x, d in zip(a, self.factors):
            n = math.lcm(n, d // math.gcd(d, x))
        return n

    def __str__(self) -> str:
        if not self.factors:
            return "Z1"
        return " x ".join(f"Z{d}" for d in self.factors)


def _add(moduli: tuple[int, ...], a: Element, b: Element) -> Element:
    """Unchecked sum of two elements known to lie in the group with ``moduli``."""
    return tuple(map(operator.mod, map(operator.add, a, b), moduli))


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


def format_element(g: FiniteAbelianGroup, a: Element) -> str:
    """Compact rendering: digits concatenated when unambiguous, else comma-joined."""
    g.check(a)
    if not a:
        return "()"
    if all(d <= 10 for d in g.factors):
        return "".join(str(c) for c in a)
    return ",".join(str(c) for c in a)


def make_group(invariant_factors: Sequence[int]) -> FiniteAbelianGroup:
    """Build a group in canonical invariant-factor form.

    Arbitrary moduli are accepted and normalized, so ``make_group([2, 3])``
    and ``make_group([6])`` return the same group.
    """
    for d in invariant_factors:
        if int(d) < 2:
            raise InvalidFactor(f"cyclic factor must be >= 2, got {d}")
    return FiniteAbelianGroup(_invariant_chain(tuple(int(d) for d in invariant_factors)))


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
    """A subgroup stored as an explicit, canonically sorted element tuple."""

    parent: FiniteAbelianGroup
    elements: tuple[Element, ...]
    _member_set: frozenset = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        object.__setattr__(self, "_member_set", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Element) -> bool:
        return a in self._member_set

    def is_closed(self) -> bool:
        """Whether the element set is a subgroup of ``parent``.

        The identity must be a member, every member an element of ``parent``,
        and the span of the members (one :func:`_span`, under ``2 |span|``
        adds instead of the ``|L|^2`` pairwise sums) no larger than the set:
        the span always holds the members, so equal sizes mean the set is
        the subgroup it spans.
        """
        g = self.parent
        identity = g.identity()
        if identity not in self._member_set:
            return False
        for a in self.elements:
            g.check(a)
        span = _span(partial(_add, g.factors), identity, self.elements)
        return len(span) == len(self._member_set)

    def validate(self) -> "Subgroup":
        if not self.is_closed():
            raise NotASubgroup(f"element set {self.elements} is not a subgroup")
        return self


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

    Cosets are labeled through their lexicographically minimal representative;
    the returned dict maps every element of ``g`` to its image coordinates.
    """
    n.validate()
    if n.parent != g:
        raise NotASubgroup("subgroup belongs to a different group")
    rep_of: dict[Element, Element] = {}
    for a in g.elements():
        if a in rep_of:
            continue
        coset = sorted(g.add(a, x) for x in n.elements)
        rep = coset[0]
        for b in coset:
            rep_of[b] = rep
    reps = sorted(set(rep_of.values()))

    def coset_mul(a: Element, b: Element) -> Element:
        return rep_of[g.add(a, b)]

    q_group, coords = recognize_with_iso(reps, coset_mul)
    projection = {a: coords[rep_of[a]] for a in g.elements()}
    return q_group, projection


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
    return [a for a in g.elements() if g.element_order(a) == n]


def prime_order_subgroups(g: FiniteAbelianGroup, p: int) -> list[Subgroup]:
    """All subgroups of ``g`` of prime order ``p``, in canonical order."""
    seen: dict[frozenset, Subgroup] = {}
    for a in elements_of_order(g, p):
        sub = subgroup_generated(g, [a])
        seen.setdefault(frozenset(sub.elements), sub)
    return sorted(seen.values(), key=lambda s: s.elements)


def element_height(g: FiniteAbelianGroup, a: Element, p: int) -> int:
    """Largest t such that ``a`` is a p^t-th multiple inside ``g``.

    ``p^t g`` is the span of the p^t-th multiples of the coordinate
    generators.  The height is unbounded exactly when the order of ``a`` is
    prime to ``p`` (the identity included), and then ``WrongGroup`` is raised.
    """
    if g.element_order(a) % p != 0:
        raise WrongGroup(f"height of {a} is unbounded: its order is prime to {p}")
    op = partial(_add, g.factors)
    gens = identity_hom(g).gen_images
    t = 0
    while True:
        gens = [g.scalar_mul(p, x) for x in gens]
        if a not in _span(op, g.identity(), gens):
            return t
        t += 1


# ---------------------------------------------------------------------------
# recognition of abstract operation tables
# ---------------------------------------------------------------------------

def recognize(elements: Sequence, mul: Callable) -> FiniteAbelianGroup:
    """Canonical invariant factors of a group given by elements and operation."""
    group, _ = recognize_with_iso(elements, mul)
    return group


def recognize_with_iso(elements: Sequence, mul: Callable) -> tuple[FiniteAbelianGroup, dict]:
    """Recognize an abelian operation table and return coordinates for it.

    Returns the canonical group plus a dict mapping each table element to its
    residue-vector coordinates.  The basis is extracted deterministically
    (candidates scanned in table order, maximal orders first), so identical
    inputs always produce identical labelings.  Raises ``NotAbelian`` when
    the table does not commute.
    """
    elements = list(elements)
    n = len(elements)
    if n == 1:
        return FiniteAbelianGroup(()), {elements[0]: ()}

    identity = _table_identity(elements, mul)
    for a in elements:
        for b in elements:
            if mul(a, b) != mul(b, a):
                raise NotAbelian(f"operation does not commute on {a!r}, {b!r}")

    orders = {a: _table_order(a, identity, mul) for a in elements}
    primes = sorted(_factorint(n))

    primary_bases: list[tuple[int, list]] = []  # (p, basis elements, exponents)
    primary_exponents: list[tuple[int, list[int]]] = []
    for p in primes:
        component = [a for a in elements if is_p_power(orders[a], p)]
        exps = _census_exponents(component, orders, p)
        basis = _extract_basis(component, orders, identity, mul, p, exps)
        primary_bases.append((p, basis))
        primary_exponents.append((p, exps))

    # Invariant factors: layer the largest exponents of each prime together.
    depth = max(len(exps) for _, exps in primary_exponents)
    layers: list[int] = []
    layer_parts: list[list[tuple[int, int]]] = []  # per layer: (p, p**e)
    for i in range(depth):
        parts = [(p, p ** exps[i]) for p, exps in primary_exponents if i < len(exps)]
        layer_parts.append(parts)
        layers.append(math.prod(q for _, q in parts))
    factors = tuple(reversed(layers))
    group = FiniteAbelianGroup(factors)

    # Enumerate the span of the combined basis to read off coordinates.
    flat_basis: list[tuple[int, int, object, int]] = []  # (layer, p, element, p**e)
    for p, basis in primary_bases:
        exps = dict(primary_exponents)[p]
        for i, b in enumerate(basis):
            flat_basis.append((i, p, b, p ** exps[i]))

    coords: dict = {identity: group.identity()}
    span: list[tuple[object, dict[tuple[int, int], int]]] = [(identity, {})]
    for layer, p, b, q in flat_basis:
        extended = []
        for base_elt, base_coeff in span:
            acc = base_elt
            for c in range(q):
                if c > 0:
                    acc = mul(acc, b)
                coeff = dict(base_coeff)
                if c:
                    coeff[(layer, p)] = c
                extended.append((acc, coeff))
        span = extended
    if len(span) != n:
        raise NotAbelian("basis span does not cover the table")  # pragma: no cover

    for elt, coeff in span:
        vector = []
        for layer_idx in range(depth - 1, -1, -1):
            parts = layer_parts[layer_idx]
            residues = [(coeff.get((layer_idx, p), 0), q) for p, q in parts]
            vector.append(_crt(residues))
        coords[elt] = tuple(vector)
    return group, coords


def _table_identity(elements: Sequence, mul: Callable):
    for a in elements:
        if all(mul(a, b) == b for b in elements):
            return a
    raise NotAbelian("operation table has no identity")


def _table_order(a, identity, mul) -> int:
    acc = a
    n = 1
    while acc != identity:
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
    """Find elements realizing the census exponents as independent generators."""
    lists = [[a for a in component if orders[a] == p ** e] for e in exps]
    sizes = list(itertools.accumulate([p ** e for e in exps], operator.mul, initial=1))
    basis = next(_image_tuples(lists, mul, identity, sizes), None)
    if basis is None:
        raise NotAbelian("no independent basis found for primary component")  # pragma: no cover
    return list(basis)


def _crt(residues: list[tuple[int, int]]) -> int:
    """Solve x = r (mod q) for pairwise coprime moduli."""
    x, modulus = 0, 1
    for r, q in residues:
        g, inv, _ = _egcd(modulus % q, q)
        x = x + modulus * ((r - x) * inv % q)
        modulus *= q
        x %= modulus
    return x


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if a == 0:
        return b, 0, 1
    g, x, y = _egcd(b % a, a)
    return g, y - (b // a) * x, x


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
        object.__setattr__(self, "gen_images", tuple(tuple(img) for img in self.gen_images))
        if len(self.gen_images) != len(self.source.factors):
            raise InvalidHom(
                f"expected {len(self.source.factors)} generator images, got {len(self.gen_images)}"
            )
        for d, img in zip(self.source.factors, self.gen_images):
            self.target.check(img)
            if any(d * c % m for c, m in zip(img, self.target.factors)):
                img_order = self.target.element_order(img)
                raise InvalidHom(
                    f"image {img} of an order-{d} generator has order "
                    f"{img_order}, which does not divide {d}"
                )

    def __call__(self, a: Element) -> Element:
        self.source.check(a)
        out = self.target.identity()
        for c, img in zip(a, self.gen_images):
            out = self.target.add(out, self.target.scalar_mul(c, img))
        return out


def hom_table(h: GroupHom) -> list[Element]:
    """The image of every source element, in ``h.source.elements()`` order.

    Built by linearity from the generator images instead of evaluating ``h``
    element by element.  After the first i source coordinates the table holds
    the images of all prefixes ``(c_1, ..., c_i)`` in lexicographic order;
    the next coordinate extends each entry by the multiples ``0, x, 2x, ...``
    of its generator image ``x``.  Each new entry is one unchecked add, so the
    whole table costs fewer than ``2 |G|`` adds, against ``|G| * rank``
    checked ``scalar_mul``/``add`` calls through ``h(a)``, which stays the
    checked evaluation.
    """
    moduli = h.target.factors
    identity = h.target.identity()
    table = [identity]
    for d, image in zip(h.source.factors, h.gen_images):
        multiples = [identity]
        for _ in range(d - 1):
            multiples.append(_add(moduli, multiples[-1], image))
        table = [_add(moduli, t, m) for t in table for m in multiples]
    return table


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
    e = h.target.identity()
    members = tuple(a for a in h.source.elements() if h(a) == e)
    return Subgroup(h.source, members)


def is_surjective(h: GroupHom) -> bool:
    return hom_image(h).order == h.target.order


def enumerate_homs(
    g1: FiniteAbelianGroup,
    g2: FiniteAbelianGroup,
    surjective_only: bool = False,
) -> list[GroupHom]:
    """All homomorphisms g1 -> g2, in lexicographic order of image indices.

    A hom is one image per coordinate generator of ``g1``, constrained to the
    elements of ``g2`` whose order divides the generator's modulus.  With
    ``surjective_only`` the image tuples come from :func:`_image_tuples`,
    which spans each prefix once and only sizes the last image, so a
    ``GroupHom`` is built for the surjections alone.
    """
    candidate_lists = []
    for d in g1.factors:
        candidates = [a for a in g2.elements() if d % g2.element_order(a) == 0]
        candidate_lists.append(candidates)
    if surjective_only:
        sizes = [None] * len(candidate_lists) + [g2.order]
        tuples = _image_tuples(candidate_lists, partial(_add, g2.factors), g2.identity(), sizes)
    else:
        tuples = itertools.product(*candidate_lists)
    return [GroupHom(g1, g2, images) for images in tuples]


def automorphisms(g: FiniteAbelianGroup) -> list[GroupHom]:
    """Every automorphism of ``g``, in lexicographic generator-image order.

    An automorphism sends each coordinate generator to an element of the
    same order, and its restriction to the first i generators is injective,
    so :func:`_image_tuples` requires prefix spans of exact size
    ``d_1 * ... * d_i`` (Hillar and Rhea, Amer. Math. Monthly 2007).
    """
    by_order: dict[int, list[Element]] = {}
    for a in g.elements():
        by_order.setdefault(g.element_order(a), []).append(a)
    lists = [by_order.get(d, []) for d in g.factors]
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
