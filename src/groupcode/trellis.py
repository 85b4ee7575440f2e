"""State diagrams, trellis paths, splices, and codeword membership; diagrams
and membership read the encoder's columns ``enc._next`` and ``enc._out``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .encoder import Encoder, Window, _image, _lowest, _union_table
from .encoder import connected  # noqa: F401 - re-exported
from .groups import Element, format_element


@dataclass(frozen=True)
class Branch:
    """One transition: reading ``input`` at ``source`` emits ``label`` and moves to ``target``."""

    source: Element
    label: Element
    target: Element
    input: Element


def branches(enc: Encoder) -> list[Branch]:
    """All transitions of the state diagram, state-major then input-minor."""
    inputs, states = list(enc.input_group._index), list(enc.state_group._index)
    return [
        Branch(source=s, label=enc._out[j][i], target=states[enc._next[j][i]], input=u)
        for i, s in enumerate(states)
        for j, u in enumerate(inputs)
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


def _identity_core(table: list[int], full: int) -> int:
    """Largest state mask contained in its own one-step identity-labeled image.

    With the successor table these are the states admitting arbitrarily long
    identity-labeled histories; with the predecessor table, futures.
    """
    current = full
    while True:
        kept = current & _image(current, table)
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
    the lowest set bit is the least state.
    """
    if window.group != enc.output_group:
        raise ValueError("window symbols are not in the encoder output group")
    states = list(enc.state_group._index)
    succ: dict[Element, list[int]] = {}
    pred: dict[Element, list[int]] = {}
    for column, outs in zip(enc._next, enc._out):
        for source, (target, y) in enumerate(zip(column, outs)):
            if y not in succ:
                succ[y] = [0] * len(states)
                pred[y] = [0] * len(states)
            succ[y][source] |= 1 << target
            pred[y][target] |= 1 << source

    symbols = window.symbols
    e_y = enc.output_group.identity()  # labels the branch (e_U, e_S) -> e_S
    labels = set(symbols) | {e_y}
    if not labels <= succ.keys():
        return None
    forward = {y: _union_table(succ[y]) for y in labels}
    backward = {y: _union_table(pred[y]) for y in labels}
    full = (1 << len(states)) - 1

    # a window revisits few state sets: each (set, symbol) image is taken once
    forward_image = cache(lambda mask, y: _image(mask, forward[y]))
    backward_image = cache(lambda mask, y: _image(mask, backward[y]))

    feasible = [_identity_core(forward[e_y], full)]
    for symbol in symbols:
        nxt = forward_image(feasible[-1], symbol)
        if not nxt:
            return None
        feasible.append(nxt)
    feasible[-1] &= _identity_core(backward[e_y], full)
    if not feasible[-1]:
        return None
    for i in range(len(symbols) - 1, -1, -1):
        feasible[i] &= backward_image(feasible[i + 1], symbols[i])
        if not feasible[i]:
            return None

    current = _lowest(feasible[0])
    witness = [states[current]]
    for i, symbol in enumerate(symbols):
        current = _lowest(succ[symbol][current] & feasible[i + 1])
        witness.append(states[current])
    return witness


def is_codeword(enc: Encoder, window: Window) -> bool:
    return codeword_witness(enc, window) is not None


def export_dot(enc: Encoder, unrolled_sections: int) -> str:
    """Render the state diagram (0 sections) or a k-section trellis as DOT.

    Nodes are named ``t{time}_s{state index}``; edge labels read
    ``input/output``.  Output is byte-deterministic.
    """
    return "".join(_dot_lines(enc, unrolled_sections))


def _dot_lines(enc: Encoder, unrolled_sections: int) -> Iterator[str]:
    """The text of :func:`export_dot`, one chunk per time step.

    The node block and the edge block are each built once as a format
    template; every time step's nodes and every section's edges are then one
    ``str.format`` call that substitutes only the times.
    """
    if unrolled_sections < 0:
        raise ValueError("unrolled_sections must be >= 0")
    s_group = enc.state_group

    def label(group, a) -> str:  # braces doubled: the label is literal template text
        return format_element(group, a).replace("{", "{{").replace("}", "}}")

    node_block = "".join(
        f'  "t{{0}}_s{i}" [label="{label(s_group, s)}"];\n'
        for i, s in enumerate(s_group.elements())
    )
    input_labels = [label(enc.input_group, u) for u in enc.input_group.elements()]
    edge_block = "".join(
        f'  "t{{0}}_s{i}" -> "t{{1}}_s{enc._next[j][i]}" '
        f'[label="{u}/{label(enc.output_group, enc._out[j][i])}"];\n'
        for i in range(s_group.order)
        for j, u in enumerate(input_labels)
    )
    yield "digraph trellis {\n"
    yield "  rankdir=LR;\n"
    yield "  node [shape=circle];\n"
    for t in range(unrolled_sections + 1):
        yield node_block.format(t)
    if unrolled_sections == 0:
        yield edge_block.format(0, 0)  # the state diagram: every edge stays at time 0
    for t in range(unrolled_sections):
        yield edge_block.format(t, t + 1)
    yield "}\n"

