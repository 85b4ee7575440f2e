"""Exhaustive enumeration of prime-by-abelian extensions and their encoders.

Instances are enumerated by ambient group: for a prime ``p`` and a state
group ``S``, every abelian group of order ``p * |S|`` is paired with each
orbit representative of its order-``p`` subgroups whose quotient is
isomorphic to ``S``.  Orbits of order-``p`` subgroups under the automorphism
group are classified by the divisibility height of a generator (Kaplansky,
Infinite Abelian Groups, 1954), and the height also gives the quotient type:
``G`` with one ``Z_{p^(h+1)}`` summand replaced by ``Z_{p^h}``.  So setup
takes no subgroup census: it walks the least generators over the
``p``-torsion coordinates, reads each one's quotient type from its height,
and builds and decomposes only a subgroup whose quotient is ``S``.  The
tests cross-check both facts against explicitly enumerated automorphisms and
quotients.  Each instance then yields one encoder per surjective next-state
homomorphism, with the identity output map, which keeps the branch map
injective for free and does not affect reachability.  The orbit search runs
on int codes of homs, one digit per ambient generator over indices into
``S.elements()``: it marks the non-surjective codes per maximal subgroup of
``S``, scans for the least unmarked code, and floods its orbit in chunks.
Element tuples are made only for the encoders it decides and lists.

The sweep decides one encoder per symmetry orbit.  An automorphism ``beta``
of ``G`` with ``beta(N) = N`` induces ``beta_bar`` on ``S = G/N``, and
``nu -> beta_bar . nu . beta^-1`` conjugates the machine: its chain levels
map through ``beta_bar``, so the verdict, the index and every predicate are
constant on an orbit.  ``beta_bar . nu . beta`` is not a symmetry (the F_2
generators are involutions, so only odd primes tell it apart), and neither is
an automorphism of ``S`` alone: it turns the README's shift register (chain
sizes 1, 2, 4) into one with sizes 1, 2.  The moves are the unit scalings
and transvections of the coordinates that fix ``N`` (Hillar and Rhea, Amer.
Math. Monthly 2007); any subset of the stabiliser is sound.  The flood acts
by a subset of them that generates the same group: a scaling already in the
closure of the kept scalings of its coordinate, or a transvection equal to
a commutator of two shorter ones, adds no orbit member.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator

from .control import decide_controllability, structure_report
from .encoder import Encoder, encoder_from_extension
from .errors import NotPrime, PredicateViolation, TooLarge
from .extension import ExtensionDecomposition, decompose
from .groups import (
    Element,
    FiniteAbelianGroup,
    GroupHom,
    Subgroup,
    _factorint,
    _hom_candidates,
    _index_sum_rows,
    _span,
    abelian_groups_of_order,
    element_height,
    enumerate_homs,
    identity_hom,
    invariant_factors,
    is_prime,
    prime_order_generators,
    prime_quotient_types,
    subgroup_generated,
)

EXHAUSTIVE_GUARD = 256  # bound on p * |S|: instance setup is linear in |G|
HOM_GUARD = 2**20  # bound on |Hom(G, S)|: the orbit search marks every hom


@dataclass(frozen=True, eq=False)
class ExtensionInstance:
    """One (ambient group, embedded prime subgroup) pair with quotient ``S``."""

    prime: int
    ambient: FiniteAbelianGroup
    normal: Subgroup
    normal_generator: Element  # the least non-identity member of ``normal``
    decomposition: ExtensionDecomposition

    @property
    def state_group(self) -> FiniteAbelianGroup:
        return self.decomposition.s_part


def _instance_ambients(
    p: int, state_group: FiniteAbelianGroup
) -> Iterator[tuple[FiniteAbelianGroup, set[int]]]:
    """Each abelian group of order ``p * |S|`` with an instance of ``S``, with the heights giving one.

    A height gives an instance when the quotient by an order-``p`` subgroup
    whose generator has that height, read by :func:`prime_quotient_types`,
    is isomorphic to ``S``.
    """
    wanted = invariant_factors(state_group)
    for ambient in abelian_groups_of_order(p * state_group.order):
        heights = {h for h, factors in prime_quotient_types(ambient, p).items() if factors == wanted}
        if heights:
            yield ambient, heights


def enumerate_extensions(
    p: int, state_group: FiniteAbelianGroup, dedup: bool = True
) -> list[ExtensionInstance]:
    """All extension instances of a prime-order group by ``state_group``.

    The order-``p`` subgroups of each ambient group are walked by their
    least generators (:func:`prime_order_generators`), and a subgroup is
    built and decomposed only when its generator's height gives the
    quotient type ``S``.
    With ``dedup`` (the default) one representative is kept per automorphism
    orbit: the first subgroup of each such height.  Without ``dedup`` every
    such subgroup yields an instance, which is the soundness cross-check mode.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    instances = []
    for ambient, heights in _instance_ambients(p, state_group):
        for generator in prime_order_generators(ambient, p):
            height = element_height(ambient, generator, p)
            if height not in heights:
                continue
            if dedup:
                heights.discard(height)
            normal = subgroup_generated(ambient, [generator])
            instances.append(
                ExtensionInstance(p, ambient, normal, generator, decompose(ambient, normal))
            )
    return instances


def enumerate_encoders(instance: ExtensionInstance) -> list[Encoder]:
    """One encoder per surjective next-state homomorphism of the instance.

    The output map is the identity onto the ambient group, so every branch
    carries full information and the injectivity condition holds for free;
    reachability depends only on the next-state map.
    """
    ambient = instance.ambient
    omega = identity_hom(ambient)
    encoders = []
    for nu in enumerate_homs(ambient, instance.state_group, surjective_only=True):
        encoders.append(
            encoder_from_extension(instance.decomposition, ambient, nu, omega)
        )
    return encoders


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepReport:
    """Aggregated verdicts and theorem tallies for a whole sweep.

    ``witnesses[k]`` lists the controllable encoders of ``rows[k]`` as
    (next-state generator images, index) pairs.
    """

    parameters: dict
    rows: list[dict]
    witnesses: list[list[tuple[tuple[Element, ...], int]]]
    checks: dict
    totals: dict
    elapsed_seconds: float

    @property
    def controllable_encoders(self) -> list[dict]:
        """Every controllable encoder as a dict: its row's head, images and index."""
        return [
            {**_head(row), "next_state_images": list(map(list, images)), "index": index}
            for row, witnesses in zip(self.rows, self.witnesses)
            for images, index in witnesses
        ]

    def to_json_dict(self) -> dict:
        """Canonical JSON payload; excludes timing so reruns are byte-identical."""
        return self._payload(self.controllable_encoders)

    def _payload(self, controllable_encoders) -> dict:
        return {
            "parameters": self.parameters,
            "instances": self.rows,
            "controllable_encoders": controllable_encoders,
            "checks": self.checks,
            "totals": self.totals,
        }

    @property
    def violations(self) -> int:
        return (
            self.checks["controllable_implies_elementary_state_group"]["violations"]
            + self.checks["long_cyclic_state_group_never_controllable"]["violations"]
            + self.checks["predicate_violations"]
        )

    def summary_table(self) -> str:
        """One line per (p, state group): encoder and controllability tallies."""
        header = f"{'p':>3}  {'S':<14} {'#enc':>6} {'#ctrl':>6} {'min_index':>9} {'violations':>10}"
        lines = [header, "-" * len(header)]
        grouped: dict[tuple[int, tuple[int, ...]], list[dict]] = {}
        for row in self.rows:
            grouped.setdefault((row["p"], tuple(row["state_factors"])), []).append(row)
        for (p, factors), rows in sorted(grouped.items()):
            s_text = "[" + ",".join(str(d) for d in factors) + "]"
            enc, ctrl, bad = (
                sum(row[key] for row in rows)
                for key in ("encoder_count", "controllable_count", "predicate_violations")
            )
            indices = [row["min_index"] for row in rows if row["min_index"] is not None]
            min_index = str(min(indices)) if indices else "-"
            lines.append(f"{p:>3}  {s_text:<14} {enc:>6} {ctrl:>6} {min_index:>9} {bad:>10}")
        return "\n".join(lines)


_HEAD = ("p", "state_factors", "ambient_factors", "normal_generator")
_HOLE = "\0"  # a placeholder: no rendered value holds a raw NUL, and json escapes it


def _head(row: dict) -> dict:
    return {key: row[key] for key in _HEAD}


def _nested(text: str, depth: int) -> str:
    """Standalone ``indent=2`` JSON ``text`` as a value ``depth`` levels deep.

    JSON text holds no raw newline, so every newline in it is layout.
    """
    return text.replace("\n", "\n" + "  " * depth)


def _list_glue(depth: int) -> list[str]:
    """Opening, separator and closing of a non-empty list ``depth`` levels deep."""
    two = json.dumps([_HOLE, _HOLE], indent=2)
    return [_nested(glue, depth) for glue in two.split(json.dumps(_HOLE))]


def _json_pieces(report: SweepReport) -> Iterator[str]:
    """The text of ``json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\\n"``.

    ``json`` renders every piece; this only puts them together, so the
    listed encoders are never built as dicts and the text is never held
    whole.  Each row's entries come from one template, the entry rendered
    with placeholders for its index and next-state images, and each distinct
    generator image is rendered once.
    """
    image_text = functools.cache(lambda image: _nested(json.dumps(image, indent=2), 4))
    index_text = functools.cache(json.dumps)
    # one image per ambient generator, so no next-state images list is empty
    images_open, images_sep, images_close = _list_glue(3)

    def entries() -> Iterator[str]:
        for row, witnesses in zip(report.rows, report.witnesses):
            entry = {**_head(row), "index": _HOLE + "i", "next_state_images": _HOLE + "n"}
            template = (
                _nested(json.dumps(entry, indent=2, sort_keys=True), 2)
                .replace("{", "{{")
                .replace("}", "}}")
                .replace(json.dumps(_HOLE + "i"), "{0}")
                .replace(json.dumps(_HOLE + "n"), "{1}")
            )
            for images, index in witnesses:
                images_text = images_open + images_sep.join(map(image_text, images)) + images_close
                yield template.format(index_text(index), images_text)

    before, after = json.dumps(report._payload(_HOLE), indent=2, sort_keys=True).split(
        json.dumps(_HOLE)
    )
    texts = entries()
    first = next(texts, None)
    yield before
    if first is None:
        yield json.dumps([])
    else:
        opening, separator, closing = _list_glue(1)
        yield opening + first
        yield from map(separator.__add__, texts)
        yield closing
    yield after + "\n"


# beta: e_m -> a e_m + b e_i for (a, b) = forward, the other generators fixed; inverse is
# the pair of beta^-1 (a namedtuple: no annotations to compile)
_Symmetry = namedtuple("_Symmetry", "m i forward inverse")


def _move(moduli: tuple[int, ...], m: int, i: int, coeffs: tuple[int, int], g: Element) -> Element:
    """``g`` under ``e_m -> a e_m + b e_i``; a scaling has ``i == m`` and ``b == 0``."""
    out = list(g)
    out[i] = (g[i] + coeffs[1] * g[m]) % moduli[i]
    out[m] = coeffs[0] * g[m] % moduli[m]
    return tuple(out)


def _symmetries(instance: ExtensionInstance) -> list[_Symmetry]:
    """The unit scalings and transvections of the ambient coordinates that fix ``N``.

    The scaling ``e_m -> c e_m`` (c a unit mod d_m, c != 1) has inverse
    ``c^-1``.  The transvection ``e_m -> e_m + c e_i`` takes the least c for
    which ``c e_i`` has order dividing ``d_m``, ``c = d_i / gcd(d_i, d_m)``;
    its inverse is ``-c``, and it is skipped when ``c e_i`` is zero.
    """
    moduli = instance.ambient.factors
    found = []
    for m, d_m in enumerate(moduli):
        moves = [(m, (c, 0), (pow(c, -1, d_m), 0)) for c in range(2, d_m) if math.gcd(c, d_m) == 1]
        for i, d_i in enumerate(moduli):
            if i != m and (c := d_i // math.gcd(d_i, d_m)) != d_i:
                moves.append((i, (1, c), (1, -c)))
        for i, forward, inverse in moves:
            if _move(moduli, m, i, forward, instance.normal_generator) in instance.normal:
                found.append(_Symmetry(m, i, forward, inverse))
    return found


def _bar(instance: ExtensionInstance, sym: _Symmetry) -> dict[Element, Element]:
    """``beta_bar`` on ``S``: each state's image, through its lift in the ambient group."""
    moduli, dec = instance.ambient.factors, instance.decomposition
    return {s: dec.to_quotient[_move(moduli, sym.m, sym.i, sym.forward, g)] for s, g in dec.lifting.items()}


def _moved_image(
    sym: _Symmetry, bar: dict[Element, Element], s_moduli: tuple[int, ...], x_m: Element, x_i: Element
) -> Element:
    """``beta_bar(nu(beta^-1 e_m))`` from ``x_m = nu(e_m)`` and ``x_i = nu(e_i)``.

    ``bar`` is ``beta_bar`` as :func:`_bar` gives it.  The element form of
    the entries of :func:`_orbits`' binary action table.
    """
    a, b = sym.inverse
    return bar[tuple((a * y + b * z) % d for y, z, d in zip(x_m, x_i, s_moduli))]


def _generators(instance: ExtensionInstance) -> list[_Symmetry]:
    """A subset of :func:`_symmetries` that generates the same group, so the orbits are the same.

    A unit scaling of ``e_m`` is dropped when its factor lies in the
    multiplicative closure, mod ``d_m``, of the kept scalings of ``e_m``.
    Transvections come in increasing ``|m - i|``; ``e_m -> e_m + c e_i`` is
    dropped when it equals, on every coordinate generator, the commutator
    (either order) of two transvections already met, ``e_m -> e_m + a e_k``
    and ``e_k -> e_k + b e_i``, kept or dropped.
    """
    moduli = instance.ambient.factors
    basis = [tuple(int(j == k) for j in range(len(moduli))) for k in range(len(moduli))]

    def product(*moves: tuple[int, int, tuple[int, int]]) -> list[Element]:
        """The coordinate generators' images under ``(m, i, coeffs)`` moves, the last applied first."""
        images = []
        for g in basis:
            for m, i, coeffs in reversed(moves):
                g = _move(moduli, m, i, coeffs, g)
            images.append(g)
        return images

    def commutator(x: _Symmetry, y: _Symmetry) -> list[Element]:
        return product(
            (x.m, x.i, x.forward), (y.m, y.i, y.forward), (x.m, x.i, x.inverse), (y.m, y.i, y.inverse)
        )

    kept, units, met = [], {}, {}  # units[m]: the closure of the kept scalings of e_m
    for sym in sorted(_symmetries(instance), key=lambda sym: abs(sym.m - sym.i)):
        m, i = sym.m, sym.i
        if m == i:
            closure = units.setdefault(m, {1})
            if sym.forward[0] not in closure:
                d = moduli[m]
                units[m] = _span(lambda x, y: x * y % d, 1, [sym.forward[0]], closure)
                kept.append(sym)
            continue
        images = product((m, i, sym.forward))
        if not any(
            images in (commutator(met[m, k], met[k, i]), commutator(met[k, i], met[m, k]))
            for k in range(len(moduli))
            if (m, k) in met and (k, i) in met
        ):
            kept.append(sym)
        met[m, i] = sym
    return kept


def _mark_non_surjective(
    unmarked: bytearray, s_group: FiniteAbelianGroup, candidates: list[list[int]], weights: list[int]
) -> None:
    """Clear the code of every hom whose images lie in one maximal subgroup of ``S``.

    A hom is not surjective exactly when its image lies in a maximal subgroup.
    Each maximal subgroup is the kernel of ``chi_a(s) = sum a_k s_k mod q``
    over the coordinates ``k`` with ``q | e_k``, for a prime ``q`` dividing
    ``|S|``, and ``a`` with first nonzero coefficient 1 names it once.  The
    codes of the homs into one kernel are outer sums, digit by digit, of the
    weighted positions of the candidates inside it.
    """
    elements = list(s_group.elements())
    for q in _factorint(s_group.order):
        coords = [k for k, e in enumerate(s_group.factors) if e % q == 0]
        for a in itertools.product(range(q), repeat=len(coords)):
            if next(filter(None, a), 0) != 1:
                continue
            chi = [sum(c * s[k] for c, k in zip(a, coords)) % q for s in elements]
            codes = [0]
            for c, w in zip(candidates, weights):
                inside = [w * k for k, x in enumerate(c) if not chi[x]]
                codes = [t + y for t in codes for y in inside]
            collections.deque(map(unmarked.__setitem__, codes, itertools.repeat(0)), 0)


_CHUNK = 1024  # members flooded at once: bounds the transient digit and image columns


def _orbits(
    instance: ExtensionInstance, candidates: list[list[int]], weights: list[int]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each orbit of surjective homs ``G -> S`` as (its least hom's image indices, member codes).

    ``candidates[j]`` lists, as indices into ``S.elements()``, the images the
    ``j``-th generator may take.  A hom's code is the mixed-radix number,
    digit ``j`` of weight ``weights[j]``, of its images' positions in those
    lists (:func:`enumerate_homs` order).  ``unmarked`` holds a 1 per code
    not yet met; :func:`_mark_non_surjective` clears the non-surjective
    ones, so the lowest code still set, found by ``bytearray.find``, is the
    least member of a new orbit (surjectivity is an orbit invariant).  The
    orbit is flooded under :func:`_generators`, in chunks of members: a
    symmetry maps every image but the ``m``-th through ``beta_bar``, so it
    acts on codes by one table per digit, the ``m``-th indexed by the
    ``m``-th and ``i``-th digits, and a chunk's images are summed column by
    column.  Only the least code of an orbit becomes images.
    """
    s_group = instance.state_group
    elements = list(s_group.elements())
    positions = []
    for c in candidates:
        pos = [None] * s_group.order
        for k, a in enumerate(c):
            pos[a] = k
        positions.append(pos)
    radices = list(map(len, candidates))
    moved_rows = functools.cache(functools.partial(_index_sum_rows, s_group))
    actions = []
    for sym in _generators(instance):
        m, i = sym.m, sym.i
        bar = list(map(s_group.index_of, map(_bar(instance, sym).__getitem__, elements)))
        unary = [
            (j, list(map(w.__mul__, map(pos.__getitem__, map(bar.__getitem__, c)))))
            for j, (c, pos, w) in enumerate(zip(candidates, positions, weights))
            if j != m
        ]
        moved = moved_rows(*sym.inverse)  # moved[x][y]: the index of a x + b y
        binary = [
            [weights[m] * positions[m][bar[v]] for v in map(moved[x].__getitem__, candidates[i])]
            for x in candidates[m]
        ]
        actions.append((binary, m, i, unary))

    unmarked = bytearray(b"\1") * math.prod(radices)
    _mark_non_surjective(unmarked, s_group, candidates, weights)

    def flood(code: int) -> list[int]:
        """The codes of ``code``'s orbit, each cleared in ``unmarked`` as it is met."""
        unmarked[code] = 0
        members = [code]
        done = 0
        while done < len(members):
            chunk = members[done : done + _CHUNK]
            done += len(chunk)
            digits = [
                list(map(r.__rmod__, map(w.__rfloordiv__, chunk))) for w, r in zip(weights, radices)
            ]
            images = []
            for binary, m, i, unary in actions:
                image = map(operator.getitem, map(binary.__getitem__, digits[m]), digits[i])
                for j, table in unary:
                    image = map(operator.add, image, map(table.__getitem__, digits[j]))
                images += image
            fresh = list(dict.fromkeys(itertools.compress(images, map(unmarked.__getitem__, images))))
            collections.deque(map(unmarked.__setitem__, fresh, itertools.repeat(0)), 0)
            members += fresh
        return members

    code = unmarked.find(1)
    while code >= 0:
        yield tuple(c[code // w % r] for c, w, r in zip(candidates, weights, radices)), flood(code)
        code = unmarked.find(1, code + 1)


def _evaluate_instance(instance: ExtensionInstance) -> dict:
    """Verdict row for one instance, from one decided encoder per symmetry orbit.

    Counts are orbit sizes; controllable encoders are listed member by member
    as (next-state images, index) pairs, with their orbit's index.  An orbit
    whose first encoder fails a predicate has every member evaluated alone, as
    evaluating every encoder would.
    """
    ambient, s_group, dec = instance.ambient, instance.state_group, instance.decomposition
    omega = identity_hom(ambient)

    def evaluate(images):
        enc = encoder_from_extension(dec, ambient, GroupHom(ambient, s_group, images), omega)
        verdict = decide_controllability(enc)
        try:
            structure_report(enc, verdict)
        except PredicateViolation as exc:
            return verdict, {"predicate": exc.name, "counterexample": repr(exc.counterexample)}
        return verdict, None

    elements = list(s_group.elements())
    images_of = _hom_candidates(ambient, s_group)
    candidates = [list(map(s_group.index_of, c)) for c in images_of]
    weights = [math.prod(map(len, candidates[j + 1 :])) for j in range(len(candidates))]
    encoder_count = 0
    listed: dict[int, int | None] = {}  # code -> its orbit's index, or None: evaluate it alone
    for images, members in _orbits(instance, candidates, weights):
        encoder_count += len(members)
        verdict, violation = evaluate(tuple(map(elements.__getitem__, images)))
        if violation is not None or verdict.controllable:
            listed.update(dict.fromkeys(members, None if violation else verdict.index))

    controllable, violations = [], []
    codes = sorted(listed)
    columns = [
        map(c.__getitem__, map(len(c).__rmod__, map(w.__rfloordiv__, codes)))
        for c, w in zip(images_of, weights)
    ]
    for code, images in zip(codes, zip(*columns)):
        index = listed[code]
        if index is None:
            verdict, violation = evaluate(images)
            violations += [violation] if violation else []
            index = verdict.index
        if index is not None:
            controllable.append((images, index))
    return {
        "p": instance.prime,
        "state_factors": list(s_group.factors),
        "ambient_factors": list(ambient.factors),
        "normal_generator": list(instance.normal_generator),
        "encoder_count": encoder_count,
        "controllable_count": len(controllable),
        "min_index": min((index for _, index in controllable), default=None),
        "predicate_violations": len(violations),
        "violation_details": violations,
        "controllable": controllable,
    }


def _check_hom_guard(grid: list[tuple[int, FiniteAbelianGroup]]) -> None:
    """Refuse the grid when some instance's ``|Hom(G, S)|`` exceeds ``HOM_GUARD``.

    Only the ambient groups that have an instance of ``S`` are counted
    (:func:`_instance_ambients`), so the guard bounds the homs the orbit
    search will mark; nothing is enumerated.
    """
    for p, state_group in grid:
        for ambient, _ in _instance_ambients(p, state_group):
            homs = math.prod(math.gcd(d, e) for d in ambient.factors for e in state_group.factors)
            if homs > HOM_GUARD:
                raise TooLarge(
                    f"p = {p}, S = {state_group}, G = {ambient}: {homs} homomorphisms "
                    f"G -> S exceed the exhaustive guard {HOM_GUARD}"
                )


def sweep_theorems(p_list: list[int], max_s_order: int, dedup: bool = True) -> SweepReport:
    """Analyze every encoder over every instance with ``|S| <= max_s_order``.

    Asserts, across the whole family: every controllable encoder has a state
    group with all invariant factors equal to ``p``; every cyclic state group
    larger than ``p`` admits no controllable encoder; and every structural
    predicate holds on every encoder.  The tallies in ``checks`` report the
    number of cases inspected and must show zero violations.
    """
    start = time.perf_counter()
    if max_s_order < 1:
        raise TooLarge("max_s_order must be at least 1")
    primes = sorted(set(p_list))
    for p in primes:
        if p * max_s_order > EXHAUSTIVE_GUARD:  # first: is_prime trial-divides up to sqrt(p)
            raise TooLarge(
                f"p * max_s_order = {p * max_s_order} exceeds the exhaustive guard "
                f"{EXHAUSTIVE_GUARD}"
            )
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    grid = [(p, s) for p in primes for n in range(1, max_s_order + 1) for s in abelian_groups_of_order(n)]
    _check_hom_guard(grid)
    rows = [
        _evaluate_instance(instance)
        for p, state_group in grid
        for instance in enumerate_extensions(p, state_group, dedup=dedup)
    ]
    rows.sort(
        key=lambda r: (r["p"], r["state_factors"], r["ambient_factors"], r["normal_generator"])
    )

    def total(key: str, kept: list[dict] = rows) -> int:
        return sum(row[key] for row in kept)

    non_elementary = [r for r in rows if any(d != r["p"] for d in r["state_factors"])]
    long_cyclic = [
        r for r in rows if len(r["state_factors"]) <= 1 and math.prod(r["state_factors"]) > r["p"]
    ]
    boundary = [
        {"p": r["p"], **{k: r[k] for k in ("ambient_factors", "encoder_count", "controllable_count")}}
        for r in rows
        if r["state_factors"] == [r["p"]]
    ]
    checks = {
        "controllable_implies_elementary_state_group": {
            "checked": total("controllable_count"),
            "violations": total("controllable_count", non_elementary),
        },
        "long_cyclic_state_group_never_controllable": {
            "checked": total("encoder_count", long_cyclic),
            "violations": total("controllable_count", long_cyclic),
        },
        "predicate_violations": total("predicate_violations"),
    }
    return SweepReport(
        parameters={
            "primes": primes,
            "max_state_order": max_s_order,
            "deduplicated": dedup,
        },
        rows=[{key: value for key, value in row.items() if key != "controllable"} for row in rows],
        witnesses=[row["controllable"] for row in rows],
        checks=checks,
        totals={
            "instances": len(rows),
            "encoders": total("encoder_count"),
            "controllable": total("controllable_count"),
            "prime_cyclic_boundary": boundary,
        },
        elapsed_seconds=time.perf_counter() - start,
    )
