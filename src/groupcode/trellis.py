"""State diagrams, trellis paths, splices, and codeword membership; diagrams
and membership read the encoder's int columns ``enc._next`` (state indices)
and ``enc._out`` (output indices), whose entry ``p = j * |S| + i`` belongs to
input index ``j`` at state index ``i``.

Membership runs on indices: states are bits of a mask and the window's
symbols become output indices, so a witness becomes elements only when it is
returned.  Rows are built only for the identity output and the outputs the
window reads.  One backward pass images the future identity core through
the window's predecessor rows; a greedy walk then picks the least state at
each time along single successor rows.  The walk needs no forward state sets:
each of its states is reached from the one before.  DOT export
renders its labels in bulk from indices (every state, every input and each
distinct output, one :func:`groupcode.groups.element_labels` call each) and
fills the pre-cut node and edge blocks of every time step with ``str.join``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator

from .encoder import Encoder, Window, _lowest, _picked
from .encoder import connected  # noqa: F401 - re-exported
from .groups import Element, _elements_at, element_labels


@dataclass(frozen=True)
class Branch:
    """One transition: reading ``input`` at ``source`` emits ``label`` and moves to ``target``."""

    source: Element
    label: Element
    target: Element
    input: Element


def branches(enc: Encoder) -> list[Branch]:
    """All transitions of the state diagram, state-major then input-minor."""
    inputs, states = list(enc.input_group.elements()), list(enc.state_group.elements())
    labels = _elements_at(enc.output_group, enc._out)
    return [
        Branch(source=s, label=labels[p], target=states[enc._next[p]], input=u)
        for i, s in enumerate(states)
        for p, u in zip(range(i, len(enc._next), len(states)), inputs)
    ]


def concatenate(y1: Window, y2: Window, j: int) -> Window:
    """Symbolwise splice: ``y1`` strictly before time ``j``, ``y2`` from ``j`` on.

    The result is a plain sequence; whether it is again a codeword is exactly
    what membership testing decides.
    """
    if y1.group != y2.group:
        raise ValueError("cannot splice windows over different symbol groups")
    start = min(y1.start, y2.start, j)
    end = max(y1.end, y2.end, j)
    symbols = tuple(
        y1.symbol_at(i) if i < j else y2.symbol_at(i) for i in range(start, end)
    )
    return Window(y1.group, start, symbols).trimmed()


def _image(mask: int, rows: list[int]) -> int:
    """Union of ``rows`` at the set bits of ``mask``: the set's image under one label's rows."""
    return reduce(or_, _picked(rows, mask), 0)


def _identity_core(rows: list[int], full: int) -> int:
    """Largest state mask contained in its own one-step identity-labeled image.

    With the successor rows these are the states admitting arbitrarily long
    identity-labeled histories; with the predecessor rows, futures.
    """
    current = full
    while True:
        kept = current & _image(current, rows)
        if kept == current:
            return current
        current = kept


def codeword_witness(enc: Encoder, window: Window) -> list[Element] | None:
    """State-sequence witness that ``window`` is generated by ``enc``, or None.

    The witness lists the states at times ``start-1 .. end`` of the window;
    identity tails force the boundary states into the sets that can absorb an
    infinite identity-labeled past or future.  Among all witnesses the
    lexicographically smallest state sequence is returned.

    State sets are bitmasks over state indices, which are lexicographic, so
    the lowest set bit is the least state.  The window is read as output
    indices, which label the branches: ``succ[k][i]`` and ``pred[k][i]`` are
    the masks of the states one branch labelled ``k`` leads to from, or comes
    from into, state ``i``, built only for the identity label 0 and the
    window's labels.  A label no branch carries keeps all-zero rows, so its
    image is empty.

    One backward pass builds ``B_t``, the states at time ``t`` from which the
    rest of the window leads into the future identity core: ``B_T`` is that
    core and ``B_t`` is the predecessor image of ``B_{t+1}`` under the
    symbol read at ``t``.  The walk starts at the least state of ``B_0`` in
    the past identity core and then takes the least successor in
    ``B_{t+1}``, which exists because its state lies in ``B_t``.  Each state
    of the walk is reached from the one before, so it lies in the forward
    feasible set anyway: the walk needs no forward pass, and the window is
    rejected exactly when some ``B_t`` is empty or ``B_0`` misses the past
    core.
    """
    if window.group != enc.output_group:
        raise ValueError("window symbols are not in the encoder output group")
    n_states = enc.state_group.order
    symbol_ids = {y: enc.output_group.index_of(y) for y in dict.fromkeys(window.symbols)}
    ids = list(map(symbol_ids.__getitem__, window.symbols))
    succ = {k: [0] * n_states for k in (0, *symbol_ids.values())}
    pred = {k: [0] * n_states for k in succ}
    for source, target, k in zip(itertools.cycle(range(n_states)), enc._next, enc._out):
        if k in succ:
            succ[k][source] |= 1 << target
            pred[k][target] |= 1 << source
    full = (1 << n_states) - 1

    # a window revisits few state sets: each label keeps its images by mask
    images: dict[int, dict[int, int]] = {k: {} for k in pred}
    allowed = [_identity_core(pred[0], full)]  # B_T, then B_{T-1} .. B_0
    for k in reversed(ids):
        mask = allowed[-1]
        seen = images[k]
        image = seen.get(mask)
        if image is None:
            image = seen[mask] = _image(mask, pred[k])
        if not image:
            return None
        allowed.append(image)
    allowed.reverse()
    start = allowed[0] & _identity_core(succ[0], full)  # 0 labels (e_U, e_S) -> e_S
    if not start:
        return None

    path = [_lowest(start)]
    for k, mask in zip(ids, itertools.islice(allowed, 1, None)):
        mask &= succ[k][path[-1]]
        path.append((mask & -mask).bit_length() - 1)
    return _elements_at(enc.state_group, path)


def is_codeword(enc: Encoder, window: Window) -> bool:
    return codeword_witness(enc, window) is not None


_SLOT = "\0"  # marks a time slot while a DOT block is cut into pieces


def export_dot(enc: Encoder, unrolled_sections: int) -> str:
    """Render the state diagram (0 sections) or a k-section trellis as DOT.

    Nodes are named ``t{time}_s{state index}``; edge labels read
    ``input/output``.  Output is byte-deterministic.
    """
    return "".join(_dot_lines(enc, unrolled_sections))


def _dot_lines(enc: Encoder, unrolled_sections: int) -> Iterator[str]:
    """The text of :func:`export_dot`, one chunk per time step.

    The node block and the edge block are each built once and cut at their
    time slots.  A time step's nodes are the node pieces joined by the time;
    a section's edges are one ``str.join`` of the edge pieces, with their
    slots, which alternate ``t`` and ``t + 1``, filled by slice assignment.
    """
    if unrolled_sections < 0:
        raise ValueError("unrolled_sections must be >= 0")
    n_states = enc.state_group.order
    node_pieces = "".join(
        f'  "t{_SLOT}_s{i}" [label="{s}"];\n'
        for i, s in enumerate(element_labels(enc.state_group, range(n_states)))
    ).split(_SLOT)
    input_labels = element_labels(enc.input_group, range(enc.input_group.order))
    y_ids = list(set(enc._out))
    y_labels = dict(zip(y_ids, element_labels(enc.output_group, y_ids)))
    edge_pieces = "".join(
        f'  "t{_SLOT}_s{i}" -> "t{_SLOT}_s{enc._next[p]}" '
        f'[label="{u}/{y_labels[enc._out[p]]}"];\n'
        for i in range(n_states)
        for p, u in zip(range(i, len(enc._next), n_states), input_labels)
    ).split(_SLOT)
    edges = len(edge_pieces) // 2
    edge_parts = [""] * (2 * len(edge_pieces) - 1)
    edge_parts[::2] = edge_pieces

    def section(t: int, t_next: int) -> str:
        edge_parts[1::4] = [str(t)] * edges
        edge_parts[3::4] = [str(t_next)] * edges
        return "".join(edge_parts)

    yield "digraph trellis {\n"
    yield "  rankdir=LR;\n"
    yield "  node [shape=circle];\n"
    for t in range(unrolled_sections + 1):
        yield str(t).join(node_pieces)
    if unrolled_sections == 0:
        yield section(0, 0)  # the state diagram: every edge stays at time 0
    for t in range(unrolled_sections):
        yield section(t, t + 1)
    yield "}\n"
