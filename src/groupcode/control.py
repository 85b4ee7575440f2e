"""Reachability analysis and controllability of the generated group code.

The forward chain starts at the identity state and repeatedly applies every
input; each level is a subgroup of the state group, the chain is nested, and
it stabilizes permanently at its first repetition.  The code is controllable
exactly when the chain reaches the whole state group, and the controllability
index is the first level where it does.  ``structure_report`` re-checks the
whole family of structural facts this package is built to verify on a
concrete encoder and raises on any violation.

State sets are bitmasks over ``state_group.index_of`` (the identity state is
bit 0).  Everything reads the encoder's next-state column ``enc._next``, by
pair position ``j * |S| + i``.  Each chain level is the span of the entries
at a few positions (:func:`groupcode.groups._span_mask`): the inputs at the
identity state and input 0 at the generators of the level before.  The
report's predicates take a set's one-step image, the entries at its states'
positions (:func:`groupcode.encoder._step`), and the past kernel and kernel
counts are the positions holding 0.  The brute-force ``exact_reach`` oracle
shares no code with the chain: it yields every start state's masks level by
level, each pulled from the one before.  State sets stay masks, closed
by :func:`groupcode.groups._mask_generators`, cyclic when the lcm of their
generators' orders is their size; element tuples are built for counterexamples,
the JSON and the ``Subgroup`` views ``levels``, ``stuck_level``, ``past_kernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from operator import not_, or_
from typing import Iterator

from .encoder import Encoder, _lowest, _picked, _step
from .errors import NotApplicable, PredicateViolation, TooLarge
from .groups import (
    Element,
    FiniteAbelianGroup,
    Subgroup,
    _mask_generators,
    _order,
    _span_mask,
    element_labels,
    invariant_factors,
    is_p_power,
    is_prime,
)

STATE_GUARD = 2**14  # bound on |S|: each oracle level holds |S|^2 bits


@dataclass(frozen=True, eq=False)
class ReachabilityChain:
    """Levels reachable from the identity state in exactly 0, 1, 2, ... steps.

    ``masks`` stops before the first repetition; ``levels`` are its element
    views, built on first read, and ``level(i)`` extends them as a constant
    sequence beyond the stabilization point.
    """

    state_group: FiniteAbelianGroup
    masks: tuple[int, ...] = field(repr=False)
    stabilized_at: int
    reaches_all: bool

    @cached_property
    def levels(self) -> tuple[Subgroup, ...]:
        return tuple(Subgroup(self.state_group, _members(self.state_group, m)) for m in self.masks)

    def level(self, i: int) -> Subgroup:
        if i < 0:
            raise ValueError(f"no level is reached in {i} steps")
        return self.levels[min(i, self.stabilized_at)]

    def sizes(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)


@dataclass(frozen=True, eq=False)
class ControlVerdict:
    controllable: bool
    index: int | None
    chain: ReachabilityChain
    window_below_two: bool

    @property
    def stuck_level(self) -> Subgroup | None:
        return None if self.controllable else self.chain.levels[-1]


def _members(g: FiniteAbelianGroup, mask: int) -> tuple[Element, ...]:
    """The elements at the set bits of ``mask``, picked from ``g.elements()`` in index order."""
    return tuple(_picked(g.elements(), mask))


def forward_chain(enc: Encoder) -> ReachabilityChain:
    """Compute the reachability levels until the first repetition.

    Level k + 1 is the image of the pairs over level k, a subgroup of the
    ambient group: the span of nu(N), whose generators are the embedded input
    generators, each the pair ``(u, e_S)`` at position ``index(u) * |S|``, and
    of nu(l(g)) for each generator ``g`` of level k, the pair ``(e_U, g)`` at
    position ``index(g)``.  Level k's generators are nu(N)'s and their images
    under (nu l)^j, j < k, so level k + 1 is level k grown by the newest
    images, (nu l)^k, in one :func:`_span_mask`.
    """
    s_group, nxt = enc.state_group, enc._next
    u = enc.input_group.factors
    newest = [nxt[math.prod(u[k + 1 :]) * s_group.order] for k in range(len(u))]
    masks = [1]  # the identity state has index 0
    while (level := _span_mask(s_group, newest, masks[-1])) != masks[-1]:
        masks.append(level)
        newest = [nxt[i] for i in newest]
        if len(masks) > s_group.order:  # pragma: no cover - nesting bounds growth
            raise PredicateViolation(
                "chain_stabilizes", tuple(m.bit_count() for m in masks)
            )
    return ReachabilityChain(
        state_group=s_group,
        masks=tuple(masks),
        stabilized_at=len(masks) - 1,
        reaches_all=masks[-1].bit_count() == s_group.order,
    )


def _kernel_mask(enc: Encoder) -> int:
    """The past kernel over state indices: the states at the positions holding 0."""
    n_states = enc.state_group.order
    return sum({1 << p % n_states for p in compress(count(), map(not_, enc._next))})


def past_kernel(enc: Encoder) -> Subgroup:
    """States with some input stepping them onto the identity state.

    Always a subgroup, of the same size as the one-step-reachable level; the
    size equals the input-group order exactly when distinct inputs at the
    identity state lead to distinct states.  Closure is not checked here:
    ``structure_report`` checks it once, as ``past_kernel_is_subgroup``.
    """
    return Subgroup(enc.state_group, _members(enc.state_group, _kernel_mask(enc)))


def exact_reach(enc: Encoder, max_len: int) -> Iterator[list[int]]:
    """Yield levels L = 0..max_len: ``level[i]`` masks the states reachable from ``i`` in L steps.

    A brute-force oracle over every start state, on bitmasks over state
    indices.  It pulls each level from the one before over the encoder's
    next-state column, cut here into one slice per input,
    ``level_{L+1}[i] = OR over u of level_L[next(u, i)]``, and holds only that
    one; it shares no code with the chain.
    """
    n_states = enc.state_group.order
    first, *rest = (enc._next[k : k + n_states] for k in range(0, len(enc._next), n_states))
    level = [1 << i for i in range(n_states)]
    yield level
    for _ in range(max_len):
        prev = level
        level = list(map(prev.__getitem__, first))
        for column in rest:
            level = list(map(or_, level, map(prev.__getitem__, column)))
        yield level


def decide_controllability(enc: Encoder) -> ControlVerdict:
    """Controllability verdict, cross-validated against brute-force reachability.

    The chain criterion (reaching the full state group) is checked against
    exact L-step reachability from every state: the identity state's reach
    follows the chain one step past its stop, at the claimed index every
    state reaches everything, one step earlier none does.  Each oracle level
    is checked as it arrives and none is kept, only the first failing state
    at the index and one step earlier.  A disagreement raises
    ``PredicateViolation`` with the step count and a witness.  More than
    ``STATE_GUARD`` states raise ``TooLarge`` before either is built.
    """
    if enc.state_group.order > STATE_GUARD:
        raise TooLarge(
            f"|S| = {enc.state_group.order} exceeds the controllability guard {STATE_GUARD}"
        )
    chain = forward_chain(enc)
    controllable = chain.reaches_all
    index = chain.stabilized_at if controllable else None

    s_group = enc.state_group
    full = (1 << s_group.order) - 1
    short = early = None  # the first state index failing each index check
    for L, level in enumerate(exact_reach(enc, chain.stabilized_at + 1)):
        if level[0] != chain.masks[min(L, chain.stabilized_at)]:
            raise PredicateViolation(
                "chain_matches_exact_reach", (L, list(_members(s_group, level[0])))
            )
        if L == index:
            short = next((i for i, mask in enumerate(level) if mask != full), None)
        if L + 1 == index and full in level:
            early = level.index(full)
    if short is not None:
        raise PredicateViolation("index_reaches_every_state", (index, s_group.element_at(short)))
    if early is not None:
        raise PredicateViolation("index_is_minimal", (index - 1, s_group.element_at(early)))

    return ControlVerdict(
        controllable=controllable,
        index=index,
        chain=chain,
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
    ``kernel_mask`` is the past kernel the predicates were checked on, over
    state indices; ``past_kernel`` is its element view, built on first read.
    """

    prime: int
    state_group: FiniteAbelianGroup
    state_factors: tuple[int, ...]
    predicates: dict[str, bool]
    degenerate_inputs: bool
    kernel_mask: int = field(repr=False)
    notes: dict[str, str] = field(default_factory=dict)

    @cached_property
    def past_kernel(self) -> Subgroup:
        return Subgroup(self.state_group, _members(self.state_group, self.kernel_mask))


def _is_cyclic(g: FiniteAbelianGroup, gens: list[Element], size: int) -> bool:
    """Whether the subgroup spanned by ``gens`` is cyclic: the lcm of their orders is its ``size``."""
    return math.lcm(*(_order(g.factors, a) for a in gens)) == size


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

    chain, s_group = verdict.chain, enc.state_group
    masks, sizes, kmask = chain.masks, chain.sizes(), _kernel_mask(enc)
    full = (1 << s_group.order) - 1

    predicates: dict[str, bool] = {}
    notes: dict[str, str] = {}

    def check(name: str, ok: bool, witness) -> None:
        """Record ``ok``; on failure raise with ``witness()`` as the counterexample."""
        predicates[name] = bool(ok)
        if not ok:
            raise PredicateViolation(name, witness())

    gens = [_mask_generators(s_group, m) for m in masks]
    check("chain_levels_are_subgroups", None not in gens, chain.sizes)
    nested = all(not masks[i - 1] & ~masks[i] for i in range(1, len(masks)))
    check("chain_is_nested", nested, chain.sizes)
    repeated = _step(enc, masks[-1])
    check(
        "chain_stabilizes_permanently",
        repeated == masks[-1],
        lambda: (chain.stabilized_at, list(_members(s_group, repeated))),
    )
    check("chain_levels_are_p_groups", all(is_p_power(n, p) for n in sizes), chain.sizes)

    # the pair map is a bijection onto the ambient group, and the pair (u, e_S)
    # is the embedded input u, at every |S|-th position, so both counts read
    # the next-state column
    kernel_in_ambient = enc._next.count(0)
    check("ambient_kernel_size_is_input_order", kernel_in_ambient == p, lambda: kernel_in_ambient)

    collapsing = enc._next[:: s_group.order].count(0)
    degenerate = collapsing == p
    kernel_size, one_step = kmask.bit_count(), sizes[min(1, chain.stabilized_at)]
    check(
        "one_step_levels_share_size",
        kernel_size == one_step == p // collapsing,
        lambda: (kernel_size, one_step, collapsing),
    )
    if degenerate:
        notes["degenerate_inputs"] = (
            "all inputs fix the identity state; one-step levels are trivial"
        )

    kernel_closed = _mask_generators(s_group, kmask) is not None
    check("past_kernel_is_subgroup", kernel_closed, lambda: _members(s_group, kmask))

    # bit 0 is the identity state; a level "overlaps" the kernel when they
    # share a state other than the identity
    overlap = next((i for i, m in enumerate(masks) if kmask & m & ~1 and kmask & ~m), None)
    check(
        "past_kernel_overlap_implies_containment",
        overlap is None,
        lambda: (overlap, s_group.element_at(_lowest(kmask & masks[overlap] & ~1))),
    )

    escaped = _step(enc, kmask)
    absorbed = next((i for i, m in enumerate(masks) if not kmask & ~m and escaped & ~m), None)
    check(
        "past_kernel_images_absorbed",
        absorbed is None,
        lambda: (absorbed, list(_members(s_group, escaped & ~masks[absorbed]))),
    )

    trap = next((i for i, m in enumerate(masks) if m != full and kmask & m & ~1), None)
    check(
        "past_kernel_overlap_traps_chain",
        trap is None or not verdict.controllable,
        lambda: (trap, list(_members(s_group, kmask))),
    )

    # states first reached at level k - 1 step into level k and nowhere lower
    # when level k is p times level k - 1 (the layer below level 1 is empty)
    fresh = None
    for k in range(2, len(masks)):
        if sizes[k] == p * sizes[k - 1]:
            layer, above = masks[k - 1] & ~masks[k - 2], masks[k] & ~masks[k - 1]
            if stray := _step(enc, layer) & ~above:
                fresh = (k, stray)
                break
    check(
        "fresh_level_inputs_escape",
        fresh is None,
        lambda: (fresh[0], list(_members(s_group, fresh[1]))),
    )

    check(
        "controllable_level_sizes_are_p_powers",
        not verdict.controllable
        or all(sizes[i] == p ** i for i in range(verdict.index + 1)),
        chain.sizes,
    )

    cyclic = [_is_cyclic(s_group, g, n) for g, n in zip(gens, sizes)]
    uncyclic = next(
        (i for i in range(2, chain.stabilized_at) if cyclic[i] and not cyclic[i + 1]), None
    )
    check(
        "cyclic_levels_stay_cyclic",
        uncyclic is None,
        lambda: (uncyclic, *(_members(s_group, m) for m in masks[uncyclic : uncyclic + 2])),
    )

    s_factors = invariant_factors(s_group)
    long_cyclic = len(s_factors) == 1 and s_factors != (p,)
    check(
        "cyclic_state_group_blocks_control",
        not (long_cyclic and verdict.controllable),
        lambda: s_factors,
    )
    if s_factors == (p,):
        notes["prime_cyclic_boundary"] = (
            f"state group of prime order {p}: controllable={verdict.controllable}"
        )

    check(
        "controllable_state_group_is_elementary",
        not verdict.controllable or all(d == p for d in s_factors),
        lambda: s_factors,
    )

    return StructureReport(
        prime=p,
        state_group=s_group,
        state_factors=s_factors,
        predicates=predicates,
        degenerate_inputs=degenerate,
        kernel_mask=kmask,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def analysis_json(enc: Encoder) -> dict:
    """JSON-ready analysis payload: verdict, chain, past kernel, predicates."""
    verdict = decide_controllability(enc)
    report = structure_report(enc, verdict)
    s_group, masks, kmask = enc.state_group, verdict.chain.masks, report.kernel_mask
    # nested levels repeat states: label every index up to the last one named, once
    top = (masks[-1] | kmask).bit_length()
    labels = element_labels(s_group, range(top), ",") if s_group.factors else [""]
    return {
        "controllable": verdict.controllable,
        "index": verdict.index,
        "window_below_two": verdict.window_below_two,
        "chain": [list(_picked(labels, m)) for m in masks],
        "chain_sizes": list(verdict.chain.sizes()),
        "past_kernel": list(_picked(labels, kmask)),
        "predicates": dict(sorted(report.predicates.items())),
        "degenerate_inputs": report.degenerate_inputs,
        "input_factors": list(enc.input_group.factors),
        "state_factors": list(enc.state_group.factors),
        "output_factors": list(enc.output_group.factors),
    }
