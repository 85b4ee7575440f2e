"""State diagrams, trellis paths, splices, and codeword membership."""

from __future__ import annotations

from dataclasses import dataclass

from .encoder import Encoder, Window, connected  # noqa: F401 - re-exported
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
    out = []
    for s in enc.state_group.elements():
        for u in enc.input_group.elements():
            nxt, y = enc.step(u, s)
            out.append(Branch(source=s, label=y, target=nxt, input=u))
    return out


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


def _identity_core(enc: Encoder, diagram: list[Branch], backwards: bool) -> set[Element]:
    """States admitting arbitrarily long identity-labeled histories or futures."""
    e_y = enc.output_group.identity()
    edges: dict[Element, set[Element]] = {s: set() for s in enc.state_group.elements()}
    for b in diagram:
        if b.label == e_y:
            if backwards:
                edges[b.target].add(b.source)  # predecessors
            else:
                edges[b.source].add(b.target)  # successors
    current = set(edges)
    while True:
        kept = {s for s in current if edges[s] & current}
        if kept == current:
            return current
        current = kept


def codeword_witness(enc: Encoder, window: Window) -> list[Element] | None:
    """State-sequence witness that ``window`` is generated by ``enc``, or None.

    The witness lists the states at times ``start-1 .. end`` of the window;
    identity tails force the boundary states into the sets that can absorb an
    infinite identity-labeled past or future.  Among all witnesses the
    lexicographically smallest state sequence is returned.
    """
    if window.group != enc.output_group:
        raise ValueError("window symbols are not in the encoder output group")
    diagram = branches(enc)
    past_core = _identity_core(enc, diagram, backwards=True)
    future_core = _identity_core(enc, diagram, backwards=False)

    by_label: dict[tuple[Element, Element], set[Element]] = {}
    for b in diagram:
        by_label.setdefault((b.source, b.label), set()).add(b.target)

    feasible: list[set[Element]] = [set(past_core)]
    for symbol in window.symbols:
        nxt: set[Element] = set()
        for s in feasible[-1]:
            nxt |= by_label.get((s, symbol), set())
        if not nxt:
            return None
        feasible.append(nxt)
    feasible[-1] &= future_core
    if not feasible[-1]:
        return None
    for i in range(len(window.symbols) - 1, -1, -1):
        symbol = window.symbols[i]
        feasible[i] = {
            s for s in feasible[i] if by_label.get((s, symbol), set()) & feasible[i + 1]
        }
        if not feasible[i]:
            return None

    witness = [min(feasible[0])]
    for i, symbol in enumerate(window.symbols):
        options = by_label.get((witness[-1], symbol), set()) & feasible[i + 1]
        witness.append(min(options))
    return witness


def is_codeword(enc: Encoder, window: Window) -> bool:
    return codeword_witness(enc, window) is not None


def export_dot(enc: Encoder, unrolled_sections: int) -> str:
    """Render the state diagram (0 sections) or a k-section trellis as DOT.

    Nodes are named ``t{time}_s{state index}``; edge labels read
    ``input/output``.  Output is byte-deterministic.
    """
    if unrolled_sections < 0:
        raise ValueError("unrolled_sections must be >= 0")
    s_group = enc.state_group
    nodes = [
        (s_group.index_of(s), format_element(s_group, s)) for s in s_group.elements()
    ]
    edges = [
        (
            s_group.index_of(b.source),
            s_group.index_of(b.target),
            f"{format_element(enc.input_group, b.input)}/"
            f"{format_element(enc.output_group, b.label)}",
        )
        for b in branches(enc)
    ]
    lines = ["digraph trellis {", "  rankdir=LR;", "  node [shape=circle];"]
    times = max(unrolled_sections + 1, 1)
    for t in range(times):
        for i, name in nodes:
            lines.append(f'  "t{t}_s{i}" [label="{name}"];')
    sections = unrolled_sections if unrolled_sections > 0 else 1
    for t in range(sections):
        dst_t = t + 1 if unrolled_sections > 0 else t
        for src, dst, label in edges:
            lines.append(f'  "t{t}_s{src}" -> "t{dst_t}_s{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
