"""Homomorphic finite-state encoders over group extensions.

An encoder is a machine ``(U, S, Y, next_state, output)`` whose transition
and output maps are group homomorphisms on an ambient extension group in
pair coordinates ``(u, s)``.  Construction validates the three defining
conditions: the next-state map is surjective, the output map is a
homomorphism, and the branch map ``(u, s) -> (s, output, next state)`` is
injective.  Encoded sequences are bi-infinite with identity tails and are
represented as finite windows.  Each encoder is tabulated once, from each
hom's cached target indices, as two flat int columns over the pair positions
``p = j * |S| + i`` of input index ``j`` and state index ``i``: ``_next[p]``
(next-state index) and ``_out[p]`` (output index), which every reader walks
and which are all it holds; elements and indices trade places only at the API
boundary, where a foreign element raises ``WrongGroup``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from operator import ne, or_
from typing import Iterable, Iterator, Sequence

from .errors import (
    InvalidHom,
    NotApplicable,
    NuNotSurjective,
    OmegaNotHom,
    PsiNotInjective,
    TooLarge,
    WrongGroup,
)
from .extension import ExtensionDecomposition, direct_sum_decomposition
from .groups import Element, FiniteAbelianGroup, GroupHom, _elements_at, direct_sum

PAIR_GUARD = 2**20  # bound on |U| * |S|: every table is built over all (u, s) pairs


@dataclass(frozen=True, eq=False)
class Encoder:
    """A validated homomorphic encoder over an extension decomposition.

    ``next_state`` and ``output`` are homomorphisms on the ambient group,
    tabulated at construction into the int columns ``_next`` and ``_out``:
    each hom's cached target indices read in the order of the decomposition's
    pair-position column, so entry ``p = j * |S| + i`` belongs to input index
    ``j`` at state index ``i``.
    """

    decomposition: ExtensionDecomposition
    output_group: FiniteAbelianGroup
    next_state: GroupHom
    output: GroupHom

    def __post_init__(self) -> None:
        dec = self.decomposition
        if self.next_state.source != dec.ambient or self.next_state.target != dec.s_part:
            raise WrongGroup("next-state map is not defined from the ambient group onto states")
        if self.output.source != dec.ambient or self.output.target != self.output_group:
            raise WrongGroup("output map is not defined from the ambient group onto outputs")
        vars(self).update(
            _next=list(map(self.next_state._indices.__getitem__, dec.column)),
            _out=list(map(self.output._indices.__getitem__, dec.column)),
        )

    @property
    def input_group(self) -> FiniteAbelianGroup:
        return self.decomposition.u_part

    @property
    def state_group(self) -> FiniteAbelianGroup:
        return self.decomposition.s_part

    @property
    def ambient(self) -> FiniteAbelianGroup:
        return self.decomposition.ambient

    def step(self, u: Element, s: Element) -> tuple[Element, Element]:
        """Next state and output symbol for input ``u`` at state ``s``."""
        j, i = _position(self.input_group, u), _position(self.state_group, s)
        p = j * self.state_group.order + i
        y = self.output_group.element_at(self._out[p])
        return self.state_group.element_at(self._next[p]), y

    def next_state_pair(self, u: Element, s: Element) -> Element:
        return self.step(u, s)[0]

    def output_pair(self, u: Element, s: Element) -> Element:
        return self.step(u, s)[1]


def _position(group: FiniteAbelianGroup, a: Sequence[int]) -> int:
    """Index of the coordinate sequence ``a`` in ``group.elements()``, in O(rank); WrongGroup if foreign.

    ``a`` names the element whose coordinates it equals, as a dict key would
    (``1.0`` is ``1``, ``1.5`` is foreign): ``FiniteAbelianGroup.contains``.
    """
    return group.index_of(group.check(a))


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits as ``compress`` selectors


def _picked(items: Iterable, mask: int) -> Iterator:
    """The items at the set bits of ``mask``, in order, picked by one ``compress``."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BITS))


def _step(enc: Encoder, mask: int) -> int:
    """One-step image of the state set ``mask``, read off the next-state column.

    Its bits are the distinct ``enc._next[p]`` at the positions ``p = j * |S| + i``
    with bit ``i`` set, picked by one ``compress`` whose selectors are the mask's
    bits padded to |S| and repeated once per input.
    """
    selectors = bin(mask)[:1:-1].encode().translate(_BITS).ljust(enc.state_group.order, b"\0")
    picked = compress(enc._next, selectors * enc.input_group.order)
    return reduce(or_, map((1).__lshift__, set(picked)), 0)


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def validate_encoder(enc: Encoder) -> Encoder:
    """Check the defining encoder conditions, raising a named error per clause.

    Both conditions are read off the columns: surjectivity from their union,
    injectivity from every nonzero input at the identity state (the pair
    ``(u, e_S)`` is the embedded input ``u``; every identity has index 0).
    """
    dec = enc.decomposition
    n_states = dec.s_part.order
    missing = set(range(n_states)).difference(enc._next)
    if missing:
        raise NuNotSurjective(dec.s_part.element_at(min(missing)))
    for j in range(1, dec.u_part.order):
        if enc._next[j * n_states] == 0 and enc._out[j * n_states] == 0:
            raise PsiNotInjective((dec.u_part.element_at(j), dec.s_part.identity()))
    return enc


def encoder_from_extension(
    dec: ExtensionDecomposition,
    output_group: FiniteAbelianGroup,
    next_state: GroupHom,
    output: GroupHom,
) -> Encoder:
    return validate_encoder(Encoder(dec, output_group, next_state, output))


def make_encoder(
    u_part: FiniteAbelianGroup,
    s_part: FiniteAbelianGroup,
    output_group: FiniteAbelianGroup,
    next_state: GroupHom | Sequence[Sequence[int]],
    output: GroupHom | Sequence[Sequence[int]],
) -> Encoder:
    """Build and validate an encoder on the split extension of ``u_part`` by ``s_part``.

    The maps may be given as ``GroupHom`` objects on
    ``direct_sum(u_part, s_part)`` or as raw generator-image tables
    (input-group coordinates first, then states).  ``TooLarge`` is raised
    before any table is built when ``|U| * |S|`` exceeds ``PAIR_GUARD``.
    """
    if u_part.order * s_part.order > PAIR_GUARD:
        raise TooLarge(
            f"|U| * |S| = {u_part.order * s_part.order} exceeds the encoder guard {PAIR_GUARD}"
        )
    dec = direct_sum_decomposition(u_part, s_part)
    ambient = dec.ambient
    if not isinstance(next_state, GroupHom):
        try:
            next_state = GroupHom(ambient, s_part, tuple(tuple(i) for i in next_state))
        except InvalidHom as exc:
            raise InvalidHom(f"next-state map is not a homomorphism: {exc}") from exc
    if not isinstance(output, GroupHom):
        try:
            output = GroupHom(ambient, output_group, tuple(tuple(i) for i in output))
        except InvalidHom as exc:
            raise OmegaNotHom(f"output map is not a homomorphism: {exc}") from exc
    return encoder_from_extension(dec, output_group, next_state, output)


# ---------------------------------------------------------------------------
# running the machine
# ---------------------------------------------------------------------------

def encode_forward(
    enc: Encoder, s0: Element, inputs: Iterable[Element]
) -> tuple[list[Element], list[Element]]:
    """Drive the recurrence forward from ``s0``; returns (states, outputs).

    ``states[i]`` is the state after consuming ``inputs[i]`` and
    ``outputs[i]`` the symbol emitted while consuming it.  The symbols become
    input indices first; :func:`_walk` then visits one pair per symbol.
    """
    i = _position(enc.state_group, s0)
    positions = _walk(enc._next, enc.state_group.order, i, _input_indices(enc, inputs))
    return (
        _elements_at(enc.state_group, list(map(enc._next.__getitem__, positions))),
        _elements_at(enc.output_group, list(map(enc._out.__getitem__, positions))),
    )


def _input_indices(enc: Encoder, inputs: Iterable[Element]) -> list[int]:
    """Input index of each symbol, from a dict over the input group's elements built per call.

    The first foreign symbol raises ``WrongGroup``.
    """
    index = {a: j for j, a in enumerate(enc.input_group.elements())}
    try:
        return list(map(index.__getitem__, map(tuple, inputs)))
    except KeyError as exc:
        raise WrongGroup(f"input symbol {exc.args[0]} is not in the input group") from None


def _walk(next_column: list[int], n_states: int, i: int, inputs: Iterable[int]) -> list[int]:
    """Pair positions ``j * n_states + i`` visited from state index ``i`` by input indices.

    ``next_column`` is an encoder's ``_next``, so the state index after
    position ``p`` is ``next_column[p]``.
    """
    positions = []
    for j in inputs:
        p = j * n_states + i
        positions.append(p)
        i = next_column[p]
    return positions


def state_preimages(enc: Encoder, s: Element) -> list[tuple[Element, Element]]:
    """All pairs (u, r) stepping onto ``s``, in lexicographic pair order.

    There are always exactly ``|ambient| / |S|`` of them: the preimage of a
    state under a surjective homomorphism is a kernel coset.
    """
    i, n_states = _position(enc.state_group, s), enc.state_group.order
    positions = [p for p, nxt in enumerate(enc._next) if nxt == i]
    inputs = _elements_at(enc.input_group, [p // n_states for p in positions])
    return list(zip(inputs, _elements_at(enc.state_group, [p % n_states for p in positions])))


def extend_past(
    enc: Encoder, s0: Element, depth: int
) -> tuple[list[Element], list[Element], list[Element]]:
    """Extend a run backwards from ``s0`` for ``depth`` steps.

    Returns (past_states, past_inputs, past_outputs) where ``past_states[i]``
    is the state ``i + 1`` steps in the past, and ``past_inputs[i]`` /
    ``past_outputs[i]`` belong to the transition out of it.  Each step picks
    the lexicographically minimal preimage pair, the first position in the
    next-state column that holds the target; existence is guaranteed by
    surjectivity of the next-state map.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    past_states, past_inputs, past_outputs = [], [], []
    target, n_states = _position(enc.state_group, s0), enc.state_group.order
    for _ in range(depth):
        p = enc._next.index(target)
        j, target = divmod(p, n_states)
        past_states.append(target)
        past_inputs.append(j)
        past_outputs.append(enc._out[p])
    return (
        _elements_at(enc.state_group, past_states),
        _elements_at(enc.input_group, past_inputs),
        _elements_at(enc.output_group, past_outputs),
    )


def connected(enc: Encoder, s: Element, r: Element, max_len: int) -> list[Element] | None:
    """Shortest input word driving ``s`` to ``r``, or None within ``max_len``.

    A state is connected to itself by the empty word.  Breadth-first search
    with inputs in canonical order resolves ties lexicographically; each
    visited state keeps one parent pointer, and the word is read back from
    the goal's.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    start, goal = _position(enc.state_group, s), _position(enc.state_group, r)
    if start == goal:
        return []
    n_states = enc.state_group.order
    previous, via = [-1] * n_states, [0] * n_states
    previous[start] = start  # each visited state's parent pointer: the state and input reaching it
    frontier = [start]
    for _ in range(max_len):
        reached = []
        for state in frontier:
            for j, nxt in enumerate(enc._next[state::n_states]):
                if previous[nxt] >= 0:
                    continue
                previous[nxt], via[nxt] = state, j
                if nxt == goal:
                    word = []
                    while nxt != start:
                        word.append(enc.input_group.element_at(via[nxt]))
                        nxt = previous[nxt]
                    return word[::-1]
                reached.append(nxt)
        frontier = reached
    return None


def zero_tail(enc: Encoder, s: Element, max_len: int) -> list[Element] | None:
    """Shortest input word driving ``s`` to the identity state, or None.

    ``None`` means the identity state is unreachable within ``max_len``
    steps, which is itself a witness that the code is not controllable.
    """
    return connected(enc, s, enc.state_group.identity(), max_len)


# ---------------------------------------------------------------------------
# bi-infinite sequences as finite windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """A bi-infinite sequence with identity tails, stored as a finite window.

    ``symbols[i]`` is the symbol at time ``start + i``; every symbol outside
    the stored window is the identity of ``group``.  Each distinct symbol is
    checked once, in order of first appearance, so the first foreign symbol
    is the one named.
    """

    group: FiniteAbelianGroup
    start: int
    symbols: tuple[Element, ...]

    def __post_init__(self) -> None:
        symbols = tuple(map(tuple, self.symbols))
        object.__setattr__(self, "symbols", symbols)
        for a in dict.fromkeys(symbols):
            self.group.check(a)

    @property
    def end(self) -> int:
        """Exclusive end index of the stored window."""
        return self.start + len(self.symbols)

    def symbol_at(self, i: int) -> Element:
        if self.start <= i < self.end:
            return self.symbols[i - self.start]
        return self.group.identity()

    def trimmed(self) -> "Window":
        """Canonical form with identity padding stripped from both ends."""
        e = self.group.identity()
        lo, hi = 0, len(self.symbols)
        while lo < hi and self.symbols[lo] == e:
            lo += 1
        while hi > lo and self.symbols[hi - 1] == e:
            hi -= 1
        return Window(self.group, self.start + lo, self.symbols[lo:hi])

    def shifted(self, offset: int) -> "Window":
        return Window(self.group, self.start + offset, self.symbols)

    def same_sequence(self, other: "Window") -> bool:
        a, b = self.trimmed(), other.trimmed()
        return self.group == other.group and (a.start, a.symbols) == (b.start, b.symbols)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def encoder_to_spec(enc: Encoder) -> dict:
    """Serialize a split-extension encoder to its wire dictionary.

    Generator order is the coordinate order of the pair group: input-group
    coordinates first, then state coordinates.  The encoder is split in those
    coordinates exactly when its ambient group is ``direct_sum(U, S)`` and
    its pair-position column is the identity order.  Encoders over nonsplit
    extensions have no pair-coordinate generator table and cannot be
    serialized in this format: they raise ``NotApplicable``.
    """
    dec = enc.decomposition
    if dec.ambient != direct_sum(dec.u_part, dec.s_part) or any(map(ne, dec.column, count())):
        raise NotApplicable("only split pair-coordinate encoders have a wire format")
    return {
        "U": {"factors": list(dec.u_part.factors)},
        "S": {"factors": list(dec.s_part.factors)},
        "Y": {"factors": list(enc.output_group.factors)},
        "nu": {"gen_images": [list(img) for img in enc.next_state.gen_images]},
        "omega": {"gen_images": [list(img) for img in enc.output.gen_images]},
    }


def _wire_ints(value) -> tuple[int, ...]:
    """A JSON array of integers; floats, booleans and strings are rejected."""
    if not isinstance(value, list) or any(type(c) is not int for c in value):
        raise WrongGroup(f"malformed encoder spec: {value!r} is not a list of integers")
    return tuple(value)


def encoder_from_spec(data: dict) -> Encoder:
    """Build a validated encoder from its wire dictionary."""
    try:
        u_part = FiniteAbelianGroup(_wire_ints(data["U"]["factors"]))
        s_part = FiniteAbelianGroup(_wire_ints(data["S"]["factors"]))
        output_group = FiniteAbelianGroup(_wire_ints(data["Y"]["factors"]))
        nu_images = [_wire_ints(img) for img in data["nu"]["gen_images"]]
        omega_images = [_wire_ints(img) for img in data["omega"]["gen_images"]]
    except (KeyError, TypeError) as exc:
        raise WrongGroup(f"malformed encoder spec: {exc}") from exc
    return make_encoder(u_part, s_part, output_group, nu_images, omega_images)
