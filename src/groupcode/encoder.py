"""Homomorphic finite-state encoders over group extensions.

An encoder is a machine ``(U, S, Y, next_state, output)`` whose transition
and output maps are group homomorphisms on an ambient extension group in
pair coordinates ``(u, s)``.  Construction validates the three defining
conditions: the next-state map is surjective, the output map is a
homomorphism, and the branch map ``(u, s) -> (s, output, next state)`` is
injective.  Encoded sequences are bi-infinite with identity tails and are
represented as finite windows.  Encoders read each hom's cached table and
the state group's one element index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import InvalidHom, NuNotSurjective, OmegaNotHom, PsiNotInjective, WrongGroup
from .extension import ExtensionDecomposition, direct_sum_decomposition
from .groups import Element, FiniteAbelianGroup, GroupHom


@dataclass(frozen=True, eq=False)
class Encoder:
    """A validated homomorphic encoder over an extension decomposition.

    ``next_state`` and ``output`` are homomorphisms on the ambient group;
    their pair-coordinate views are read at construction from each hom's
    table, built once per hom object (see :func:`hom_table`).
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
        table = dict(zip(dec.pair_of, zip(self.next_state._table, self.output._table)))
        object.__setattr__(self, "_table", table)

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
        try:
            return self._table[(u, s)]
        except KeyError:
            raise WrongGroup(f"({u}, {s}) is not an input/state pair of this encoder")

    def next_state_pair(self, u: Element, s: Element) -> Element:
        return self.step(u, s)[0]

    def output_pair(self, u: Element, s: Element) -> Element:
        return self.step(u, s)[1]

    @cached_property
    def _successors(self) -> list[int]:
        """Union table of each state's one-step successor mask, built on first read."""
        index = self.state_group._index
        rows = [0] * len(index)
        for (_, s), (nxt, _) in self._table.items():
            rows[index[s]] |= 1 << index[nxt]
        return _union_table(rows)


def _union_table(rows: list[int]) -> list[int]:
    """Unions of ``rows`` four at a time, for reading one-step images of masks.

    Entry ``16 * c + b`` is the union of the rows ``4 * c + j`` over the bits
    ``j`` set in the nibble ``b``; the table holds 4 masks per row.
    """
    rows = rows + [0] * (-len(rows) % 4)
    table: list[int] = []
    for first in range(0, len(rows), 4):
        entries = [0]
        for row in rows[first : first + 4]:
            entries += [e | row for e in entries]
        table += entries
    return table


def _image(mask: int, table: list[int]) -> int:
    """Union of the table's rows at the set bits of ``mask``."""
    out = 0
    base = 0
    while mask:
        out |= table[base + (mask & 15)]
        mask >>= 4
        base += 16
    return out


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def validate_encoder(enc: Encoder) -> Encoder:
    """Check the defining encoder conditions, raising a named error per clause.

    Both conditions are read off the tabulated machine: surjectivity from the
    set of next states, injectivity from the step of every nonzero input at
    the identity state (the pair ``(u, e_S)`` is the embedded input ``u``).
    """
    dec = enc.decomposition
    reached = {next_state for next_state, _ in enc._table.values()}
    if len(reached) != dec.s_part.order:
        missing = min(s for s in dec.s_part.elements() if s not in reached)
        raise NuNotSurjective(missing)
    e_s = dec.s_part.identity()
    silent = (e_s, enc.output_group.identity())
    for u in dec.u_part.elements():
        if u != dec.u_part.identity() and enc.step(u, e_s) == silent:
            raise PsiNotInjective((u, e_s))
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
    (input-group coordinates first, then states).
    """
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
    enc: Encoder, s0: Element, inputs: Sequence[Element]
) -> tuple[list[Element], list[Element]]:
    """Drive the recurrence forward from ``s0``; returns (states, outputs).

    ``states[i]`` is the state after consuming ``inputs[i]`` and
    ``outputs[i]`` the symbol emitted while consuming it.  Each step is one
    lookup in the encoder's table, whose keys are exactly the input/state
    pairs: from a checked state, a missing key means a foreign input symbol.
    """
    s = enc.state_group.check(tuple(s0))
    table = enc._table
    states: list[Element] = []
    outputs: list[Element] = []
    for u in inputs:
        u = tuple(u)
        try:
            s, y = table[(u, s)]
        except KeyError:
            raise WrongGroup(f"input symbol {u} is not in the input group") from None
        states.append(s)
        outputs.append(y)
    return states, outputs


def _preimages(enc: Encoder, s: Element) -> Iterator[tuple[Element, Element]]:
    """Pairs (u, r) stepping onto ``s``, u-major and r-minor: lexicographic pair order."""
    table, states = enc._table, list(enc.state_group.elements())
    for u in enc.input_group.elements():
        for r in states:
            if table[(u, r)][0] == s:
                yield u, r


def state_preimages(enc: Encoder, s: Element) -> list[tuple[Element, Element]]:
    """All pairs (u, r) stepping onto ``s``, in lexicographic pair order.

    There are always exactly ``|ambient| / |S|`` of them: the preimage of a
    state under a surjective homomorphism is a kernel coset.
    """
    return list(_preimages(enc, enc.state_group.check(s)))


def extend_past(
    enc: Encoder, s0: Element, depth: int
) -> tuple[list[Element], list[Element], list[Element]]:
    """Extend a run backwards from ``s0`` for ``depth`` steps.

    Returns (past_states, past_inputs, past_outputs) where ``past_states[i]``
    is the state ``i + 1`` steps in the past, and ``past_inputs[i]`` /
    ``past_outputs[i]`` belong to the transition out of it.  Each step picks
    the lexicographically minimal preimage pair; existence is guaranteed by
    surjectivity of the next-state map.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    past_states: list[Element] = []
    past_inputs: list[Element] = []
    past_outputs: list[Element] = []
    target = enc.state_group.check(s0)
    for _ in range(depth):
        u, prev = next(_preimages(enc, target))
        past_states.append(prev)
        past_inputs.append(u)
        past_outputs.append(enc.output_pair(u, prev))
        target = prev
    return past_states, past_inputs, past_outputs


def connected(enc: Encoder, s: Element, r: Element, max_len: int) -> list[Element] | None:
    """Shortest input word driving ``s`` to ``r``, or None within ``max_len``.

    A state is connected to itself by the empty word.  Breadth-first search
    with inputs in canonical order resolves ties lexicographically.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    enc.state_group.check(s)
    enc.state_group.check(r)
    if s == r:
        return []
    inputs = list(enc.input_group.elements())
    queue: deque[tuple[Element, tuple[Element, ...]]] = deque([(s, ())])
    visited = {s}
    while queue:
        state, word = queue.popleft()
        if len(word) >= max_len:
            continue
        for u in inputs:
            nxt = enc.next_state_pair(u, state)
            if nxt in visited:
                continue
            extended = word + (u,)
            if nxt == r:
                return list(extended)
            visited.add(nxt)
            queue.append((nxt, extended))
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
        symbols = tuple(tuple(a) for a in self.symbols)
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
        return (
            self.group == other.group
            and self.trimmed().start == other.trimmed().start
            and self.trimmed().symbols == other.trimmed().symbols
        )


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def encoder_to_spec(enc: Encoder) -> dict:
    """Serialize a split-extension encoder to its wire dictionary.

    Generator order is the coordinate order of the pair group: input-group
    coordinates first, then state coordinates.  Encoders over nonsplit
    extensions have no pair-coordinate generator table and cannot be
    serialized in this format.
    """
    dec = enc.decomposition
    expected = direct_sum_decomposition(dec.u_part, dec.s_part)
    if dec.ambient != expected.ambient or dec.pair_of != expected.pair_of:
        raise ValueError("only split pair-coordinate encoders have a wire format")
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
