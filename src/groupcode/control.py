"""Reachability analysis and controllability of the generated group code.

The forward chain starts at the identity state and repeatedly applies every
input; each level is a subgroup of the state group, the chain is nested, and
it stabilizes permanently at its first repetition.  The code is controllable
exactly when the chain reaches the whole state group, and the controllability
index is the first level where it does.  ``structure_report`` re-checks the
whole family of structural facts this package is built to verify on a
concrete encoder and raises on any violation.

State sets are bitmasks over ``state_group.index_of`` (the identity state is
bit 0), and one-step images read the encoder's successor union table.  Masks
and states convert through the state group's one element index.  Chain
levels, the past kernel and counterexamples are element tuples; the
``exact_reach`` oracle returns masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .encoder import Encoder, _image, _lowest
from .errors import NotApplicable, PredicateViolation
from .groups import (
    Element,
    Subgroup,
    _order,
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
    _masks: tuple[int, ...] = field(repr=False)  # the levels over state indices

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


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits as ``compress`` selectors


def _members(enc: Encoder, mask: int) -> tuple[Element, ...]:
    """The states at the set bits of ``mask``, in index order, picked by one ``compress``."""
    return tuple(compress(enc.state_group._index, bin(mask)[:1:-1].encode().translate(_BITS)))


def forward_chain(enc: Encoder) -> ReachabilityChain:
    """Compute the reachability levels until the first repetition."""
    s_group = enc.state_group
    table = enc._successors
    masks = [1]  # the identity state has index 0
    while True:
        image = _image(masks[-1], table)
        if image == masks[-1]:
            break
        masks.append(image)
        if len(masks) > s_group.order:  # pragma: no cover - nesting bounds growth
            raise PredicateViolation(
                "chain_stabilizes", tuple(m.bit_count() for m in masks)
            )
    return ReachabilityChain(
        levels=tuple(Subgroup(s_group, _members(enc, m)) for m in masks),
        stabilized_at=len(masks) - 1,
        reaches_all=masks[-1].bit_count() == s_group.order,
        _masks=tuple(masks),
    )


def past_kernel(enc: Encoder) -> Subgroup:
    """States with some input stepping them onto the identity state.

    Always a subgroup, of the same size as the one-step-reachable level; the
    size equals the input-group order exactly when distinct inputs at the
    identity state lead to distinct states.  Closure is not checked here:
    ``structure_report`` checks it once, as ``past_kernel_is_subgroup``.
    """
    identity = enc.state_group.identity()
    members = [s for (_, s), (nxt, _) in enc._table.items() if nxt == identity]
    return Subgroup(enc.state_group, tuple(members))


def exact_reach(enc: Encoder, max_len: int) -> list[list[int]]:
    """``result[L][i]`` is the mask of states reachable from state ``i`` in exactly L steps.

    A brute-force oracle over every start state, on bitmasks over
    ``state_group.index_of``: a start state's level L + 1 is the one-step
    image of its level L.
    """
    table = enc._successors
    result = [[1 << i for i in range(enc.state_group.order)]]
    for _ in range(max_len):
        result.append([_image(mask, table) for mask in result[-1]])
    return result


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
    s_group = enc.state_group
    full = (1 << s_group.order) - 1
    for L in range(chain.stabilized_at + 1):
        if reach[L][0] != chain._masks[L]:
            raise PredicateViolation(
                "chain_matches_exact_reach", (L, list(_members(enc, reach[L][0])))
            )
    if controllable:
        short = [i for i, mask in enumerate(reach[index]) if mask != full]
        if short:
            witness = s_group.element_at(short[0])
            raise PredicateViolation("index_reaches_every_state", (index, witness))
        if index >= 1 and full in reach[index - 1]:
            early = s_group.element_at(reach[index - 1].index(full))
            raise PredicateViolation("index_is_minimal", (index - 1, early))

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
    """Cyclic iff some element has the group's order (unchecked: levels are validated)."""
    return any(_order(sub.parent.factors, a) == sub.order for a in sub.elements)


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
    e_s = s_group.identity()

    masks = chain._masks
    table = enc._successors
    full = (1 << s_group.order) - 1
    kmask = sum(1 << s_group._index[s] for s in kernel.elements)

    predicates: dict[str, bool] = {}
    notes: dict[str, str] = {}

    def check(name: str, ok: bool, witness) -> None:
        """Record ``ok``; on failure raise with ``witness()`` as the counterexample."""
        predicates[name] = bool(ok)
        if not ok:
            raise PredicateViolation(name, witness())

    check(
        "chain_levels_are_subgroups",
        all(level.is_closed() for level in chain.levels),
        chain.sizes,
    )
    nested = all(not masks[i - 1] & ~masks[i] for i in range(1, len(masks)))
    check("chain_is_nested", nested, chain.sizes)
    repeated = _image(masks[-1], table)
    check(
        "chain_stabilizes_permanently",
        repeated == masks[-1],
        lambda: (chain.stabilized_at, list(_members(enc, repeated))),
    )
    check(
        "chain_levels_are_p_groups",
        all(is_p_power(level.order, p) for level in chain.levels),
        chain.sizes,
    )

    # the pair map is a bijection onto the ambient group, and the pair (u, e_S)
    # is the embedded input u, so both counts read the tabulated machine
    kernel_in_ambient = sum(nxt == e_s for nxt, _ in enc._table.values())
    check("ambient_kernel_size_is_input_order", kernel_in_ambient == p, lambda: kernel_in_ambient)

    collapsing = sum(1 for u in enc.input_group.elements() if enc.next_state_pair(u, e_s) == e_s)
    degenerate = collapsing == p
    one_step = chain.level(1)
    check(
        "one_step_levels_share_size",
        kernel.order == one_step.order == p // collapsing,
        lambda: (kernel.order, one_step.order, collapsing),
    )
    if degenerate:
        notes["degenerate_inputs"] = (
            "all inputs fix the identity state; one-step levels are trivial"
        )

    check("past_kernel_is_subgroup", kernel.is_closed(), lambda: kernel.elements)

    # bit 0 is the identity state; a level "overlaps" the kernel when they
    # share a state other than the identity
    overlap = next((i for i, m in enumerate(masks) if kmask & m & ~1 and kmask & ~m), None)
    check(
        "past_kernel_overlap_implies_containment",
        overlap is None,
        lambda: (overlap, s_group.element_at(_lowest(kmask & masks[overlap] & ~1))),
    )

    escaped = _image(kmask, table)
    absorbed = next((i for i, m in enumerate(masks) if not kmask & ~m and escaped & ~m), None)
    check(
        "past_kernel_images_absorbed",
        absorbed is None,
        lambda: (absorbed, list(_members(enc, escaped & ~masks[absorbed]))),
    )

    trap = next((i for i, m in enumerate(masks) if m != full and kmask & m & ~1), None)
    check(
        "past_kernel_overlap_traps_chain",
        trap is None or not verdict.controllable,
        lambda: (trap, list(kernel.elements)),
    )

    # states first reached at level k - 1 step into level k and nowhere lower
    # when level k is p times level k - 1 (the layer below level 1 is empty)
    fresh = None
    for k in range(2, len(masks)):
        if chain.levels[k].order == p * chain.levels[k - 1].order:
            layer, above = masks[k - 1] & ~masks[k - 2], masks[k] & ~masks[k - 1]
            if stray := _image(layer, table) & ~above:
                fresh = (k, stray)
                break
    check(
        "fresh_level_inputs_escape",
        fresh is None,
        lambda: (fresh[0], list(_members(enc, fresh[1]))),
    )

    if verdict.controllable:
        sizes_ok = all(
            chain.levels[i].order == p ** i for i in range(verdict.index + 1)
        )
        check("controllable_level_sizes_are_p_powers", sizes_ok, chain.sizes)
    else:
        predicates["controllable_level_sizes_are_p_powers"] = True

    cyclic_ok = True
    cyclic_witness = None
    for i in range(2, len(chain.levels) - 1):
        if _subgroup_is_cyclic(chain.levels[i]) and not _subgroup_is_cyclic(chain.levels[i + 1]):
            cyclic_ok = False
            cyclic_witness = (i, chain.levels[i].elements, chain.levels[i + 1].elements)
    check("cyclic_levels_stay_cyclic", cyclic_ok, lambda: cyclic_witness)

    s_factors = invariant_factors(s_group)
    s_cyclic = len(s_factors) <= 1
    if s_cyclic and s_group.order > 1 and s_factors != (p,):
        check("cyclic_state_group_blocks_control", not verdict.controllable, lambda: s_factors)
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
            lambda: s_factors,
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
