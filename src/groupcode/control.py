"""Reachability analysis and controllability of the generated group code.

The forward chain starts at the identity state and repeatedly applies every
input; each level is a subgroup of the state group, the chain is nested, and
it stabilizes permanently at its first repetition.  The code is controllable
exactly when the chain reaches the whole state group, and the controllability
index is the first level where it does.  ``structure_report`` re-checks the
whole family of structural facts this package is built to verify on a
concrete encoder and raises on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoder import Encoder
from .errors import NotApplicable, PredicateViolation
from .groups import (
    Element,
    Subgroup,
    invariant_factors,
    is_p_power,
    is_prime,
)


@dataclass(frozen=True, eq=False)
class ReachabilityChain:
    """Levels reachable from the identity state in exactly 0, 1, 2, ... steps.

    ``levels`` stops before the first repetition; ``level(i)`` extends it as
    a constant sequence beyond the stabilization point.
    """

    levels: tuple[Subgroup, ...]
    stabilized_at: int
    reaches_all: bool

    def level(self, i: int) -> Subgroup:
        return self.levels[min(i, self.stabilized_at)]

    def sizes(self) -> tuple[int, ...]:
        return tuple(level.order for level in self.levels)


@dataclass(frozen=True, eq=False)
class ControlVerdict:
    controllable: bool
    index: int | None
    chain: ReachabilityChain
    stuck_level: Subgroup | None
    window_below_two: bool


def _one_step_image(enc: Encoder, states) -> set[Element]:
    return {
        enc.next_state_pair(u, s)
        for u in enc.input_group.elements()
        for s in states
    }


def forward_chain(enc: Encoder) -> ReachabilityChain:
    """Compute the reachability levels until the first repetition."""
    s_group = enc.state_group
    levels = [Subgroup(s_group, (s_group.identity(),))]
    while True:
        image = _one_step_image(enc, levels[-1].elements)
        if image == set(levels[-1].elements):
            break
        level = Subgroup(s_group, tuple(sorted(image)))
        levels.append(level)
        if len(levels) > s_group.order:  # pragma: no cover - nesting bounds growth
            raise PredicateViolation(
                "chain_stabilizes", tuple(level.order for level in levels)
            )
    stabilized_at = len(levels) - 1
    return ReachabilityChain(
        levels=tuple(levels),
        stabilized_at=stabilized_at,
        reaches_all=levels[-1].order == s_group.order,
    )


def past_kernel(enc: Encoder) -> Subgroup:
    """States with some input stepping them onto the identity state.

    Always a subgroup, of the same size as the one-step-reachable level; the
    size equals the input-group order exactly when distinct inputs at the
    identity state lead to distinct states.  Closure is not checked here:
    ``structure_report`` checks it once, as ``past_kernel_is_subgroup``.
    """
    e = enc.state_group.identity()
    members = tuple(
        s
        for s in enc.state_group.elements()
        if any(enc.next_state_pair(u, s) == e for u in enc.input_group.elements())
    )
    return Subgroup(enc.state_group, members)


def exact_reach(enc: Encoder, max_len: int) -> list[dict[Element, frozenset[Element]]]:
    """``result[L][s]`` is the set of states reachable from ``s`` in exactly L steps.

    A brute-force oracle over every start state: each state's one-step
    successor set is computed once, and a start state's level L + 1 is the
    union of the successor sets of its level-L states.
    """
    states = list(enc.state_group.elements())
    successors = {s: frozenset(_one_step_image(enc, (s,))) for s in states}
    current = {s: frozenset([s]) for s in states}
    table = [current]
    for _ in range(max_len):
        current = {
            s: frozenset().union(*(successors[r] for r in current[s])) for s in states
        }
        table.append(current)
    return table


def decide_controllability(enc: Encoder) -> ControlVerdict:
    """Controllability verdict, cross-validated against brute-force reachability.

    The chain criterion (reaching the full state group) is checked against
    exact L-step reachability from every state: at the claimed index every
    state reaches everything, one step earlier none does.  A disagreement
    raises ``PredicateViolation`` with the step count and a witness state.
    """
    chain = forward_chain(enc)
    controllable = chain.reaches_all
    index = chain.stabilized_at if controllable else None

    reach = exact_reach(enc, chain.stabilized_at + 1)
    full = frozenset(enc.state_group.elements())
    e = enc.state_group.identity()
    for L in range(chain.stabilized_at + 1):
        if reach[L][e] != frozenset(chain.level(L).elements):
            raise PredicateViolation("chain_matches_exact_reach", (L, sorted(reach[L][e])))
    if controllable:
        short = [s for s in reach[index] if reach[index][s] != full]
        if short:
            raise PredicateViolation("index_reaches_every_state", (index, short[0]))
        if index >= 1:
            early = [s for s in reach[index - 1] if reach[index - 1][s] == full]
            if early:
                raise PredicateViolation("index_is_minimal", (index - 1, early[0]))

    return ControlVerdict(
        controllable=controllable,
        index=index,
        chain=chain,
        stuck_level=None if controllable else chain.levels[-1],
        window_below_two=controllable and index < 2,
    )


# ---------------------------------------------------------------------------
# structural predicate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructureReport:
    """Outcome of every structural predicate checked on one encoder.

    All values are True when the report is returned; a failing predicate
    raises ``PredicateViolation`` instead.  ``degenerate_inputs`` flags
    encoders whose inputs at the identity state all collapse onto it (their
    one-step level is trivial rather than of input-group size).
    ``past_kernel`` is the past kernel the predicates were checked on.
    """

    prime: int
    state_factors: tuple[int, ...]
    predicates: dict[str, bool]
    degenerate_inputs: bool
    past_kernel: Subgroup
    notes: dict[str, str] = field(default_factory=dict)


def _subgroup_is_cyclic(sub: Subgroup) -> bool:
    """A finite group is cyclic exactly when some element has the group's order."""
    return any(sub.parent.element_order(a) == sub.order for a in sub.elements)


def structure_report(enc: Encoder, verdict: ControlVerdict) -> StructureReport:
    """Check the reachability-chain structure theory on a concrete encoder.

    ``verdict`` is ``decide_controllability(enc)``; the predicates are checked
    on its chain.  Requires a prime-order input group over an abelian
    extension.  Raises ``PredicateViolation`` naming the failed predicate
    with a counterexample tuple; any violation falsifies the implementation,
    not the theory.
    """
    p = enc.input_group.order
    if not is_prime(p):
        raise NotApplicable(f"input group order {p} is not prime")

    chain = verdict.chain
    kernel = past_kernel(enc)
    s_group = enc.state_group
    u_group = enc.input_group
    dec = enc.decomposition
    e_s = s_group.identity()

    predicates: dict[str, bool] = {}
    notes: dict[str, str] = {}

    def check(name: str, ok: bool, counterexample=None) -> None:
        predicates[name] = bool(ok)
        if not ok:
            raise PredicateViolation(name, counterexample)

    check(
        "chain_levels_are_subgroups",
        all(level.is_closed() for level in chain.levels),
        chain.sizes(),
    )
    nested = all(
        set(chain.levels[i - 1].elements) <= set(chain.levels[i].elements)
        for i in range(1, len(chain.levels))
    )
    check("chain_is_nested", nested, chain.sizes())
    repeated = _one_step_image(enc, chain.levels[-1].elements)
    check(
        "chain_stabilizes_permanently",
        repeated == set(chain.levels[-1].elements),
        (chain.stabilized_at, sorted(repeated)),
    )
    check(
        "chain_levels_are_p_groups",
        all(is_p_power(level.order, p) for level in chain.levels),
        chain.sizes(),
    )

    # the pair map is a bijection onto the ambient group, and the pair (u, e_S)
    # is the embedded input u, so both counts read the tabulated machine
    kernel_in_ambient = sum(
        1 for u, s in dec.pairs() if enc.next_state_pair(u, s) == e_s
    )
    check("ambient_kernel_size_is_input_order", kernel_in_ambient == p, kernel_in_ambient)

    collapsing = sum(1 for u in u_group.elements() if enc.next_state_pair(u, e_s) == e_s)
    degenerate = collapsing == p
    one_step = chain.level(1)
    check(
        "one_step_levels_share_size",
        kernel.order == one_step.order == p // collapsing,
        (kernel.order, one_step.order, collapsing),
    )
    if degenerate:
        notes["degenerate_inputs"] = (
            "all inputs fix the identity state; one-step levels are trivial"
        )

    check("past_kernel_is_subgroup", kernel.is_closed(), kernel.elements)

    overlap_ok = True
    overlap_witness = None
    for i, level in enumerate(chain.levels):
        shared = [s for s in kernel.elements if s != e_s and s in level]
        if shared and not all(s in level for s in kernel.elements):
            overlap_ok = False
            overlap_witness = (i, shared[0])
            break
    check("past_kernel_overlap_implies_containment", overlap_ok, overlap_witness)

    absorbed_ok = True
    absorbed_witness = None
    for i, level in enumerate(chain.levels):
        if not all(s in level for s in kernel.elements):
            continue
        for s in kernel.elements:
            for u in u_group.elements():
                image = enc.next_state_pair(u, s)
                if image not in level:
                    absorbed_ok = False
                    absorbed_witness = (i, u, s, image)
                    break
    check("past_kernel_images_absorbed", absorbed_ok, absorbed_witness)

    trapped_ok = True
    trapped_witness = None
    for i, level in enumerate(chain.levels):
        if level.order == s_group.order:
            continue
        if any(s != e_s and s in level for s in kernel.elements):
            if verdict.controllable:
                trapped_ok = False
                trapped_witness = (i, sorted(kernel.elements))
            break
    check("past_kernel_overlap_traps_chain", trapped_ok, trapped_witness)

    fresh_ok = True
    fresh_witness = None
    for k in range(1, len(chain.levels)):
        if chain.levels[k].order != p * chain.levels[k - 1].order:
            continue
        if k < 2:
            continue  # the fresh layer below level 1 is empty
        fresh = [
            s
            for s in chain.levels[k - 1].elements
            if s != e_s and s not in chain.levels[k - 2]
        ]
        for s in fresh:
            for u in u_group.elements():
                image = enc.next_state_pair(u, s)
                if image in chain.levels[k - 1] or image not in chain.levels[k]:
                    fresh_ok = False
                    fresh_witness = (k, s, u, image)
    check("fresh_level_inputs_escape", fresh_ok, fresh_witness)

    if verdict.controllable:
        sizes_ok = all(
            chain.levels[i].order == p ** i for i in range(verdict.index + 1)
        )
        check("controllable_level_sizes_are_p_powers", sizes_ok, chain.sizes())
    else:
        predicates["controllable_level_sizes_are_p_powers"] = True

    cyclic_ok = True
    cyclic_witness = None
    for i in range(2, len(chain.levels) - 1):
        if _subgroup_is_cyclic(chain.levels[i]) and not _subgroup_is_cyclic(chain.levels[i + 1]):
            cyclic_ok = False
            cyclic_witness = (i, chain.levels[i].elements, chain.levels[i + 1].elements)
    check("cyclic_levels_stay_cyclic", cyclic_ok, cyclic_witness)

    s_factors = invariant_factors(s_group)
    s_cyclic = len(s_factors) <= 1
    if s_cyclic and s_group.order > 1 and s_factors != (p,):
        check("cyclic_state_group_blocks_control", not verdict.controllable, s_factors)
    else:
        predicates["cyclic_state_group_blocks_control"] = True
    if s_factors == (p,):
        notes["prime_cyclic_boundary"] = (
            f"state group of prime order {p}: controllable={verdict.controllable}"
        )

    if verdict.controllable:
        check(
            "controllable_state_group_is_elementary",
            all(d == p for d in s_factors),
            s_factors,
        )
    else:
        predicates["controllable_state_group_is_elementary"] = True

    return StructureReport(
        prime=p,
        state_factors=s_factors,
        predicates=predicates,
        degenerate_inputs=degenerate,
        past_kernel=kernel,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _element_str(a: Element) -> str:
    return ",".join(str(c) for c in a)


def analysis_json(enc: Encoder) -> dict:
    """JSON-ready analysis payload: verdict, chain, past kernel, predicates."""
    verdict = decide_controllability(enc)
    report = structure_report(enc, verdict)
    return {
        "controllable": verdict.controllable,
        "index": verdict.index,
        "window_below_two": verdict.window_below_two,
        "chain": [
            [_element_str(s) for s in level.elements] for level in verdict.chain.levels
        ],
        "chain_sizes": list(verdict.chain.sizes()),
        "past_kernel": [_element_str(s) for s in report.past_kernel.elements],
        "predicates": dict(sorted(report.predicates.items())),
        "degenerate_inputs": report.degenerate_inputs,
        "input_factors": list(enc.input_group.factors),
        "state_factors": list(enc.state_group.factors),
        "output_factors": list(enc.output_group.factors),
    }
