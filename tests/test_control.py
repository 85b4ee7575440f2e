from __future__ import annotations

import itertools
import sys
import tracemalloc

import pytest

from groupcode import (
    NotApplicable,
    PredicateViolation,
    TooLarge,
    control,
    decide_controllability,
    decompose,
    direct_sum,
    encoder,
    enumerate_homs,
    forward_chain,
    make_encoder,
    make_group,
    past_kernel,
    structure_report,
    subgroup_generated,
)
from groupcode.control import _is_cyclic, _kernel_mask, analysis_json, exact_reach
from groupcode.encoder import encoder_from_extension, encoder_from_spec
from groupcode.groups import (
    _mask_generators,
    abelian_groups_of_order,
    all_subgroups,
    identity_hom,
    recognize,
)
from groupcode.sweep import enumerate_encoders, enumerate_extensions
from specs import observed_shift_register


def reach_sets(enc, table):
    """``exact_reach`` masks read back as ``{start state: set of reached states}`` per L."""
    states = list(enc.state_group.elements())
    return [
        {s: {r for j, r in enumerate(states) if masks[i] >> j & 1} for i, s in enumerate(states)}
        for masks in table
    ]


def brute_exact_reach(enc, start, length):
    """Oracle: enumerate every input word of the exact length."""
    inputs = list(enc.input_group.elements())
    reached = set()
    for word in itertools.product(inputs, repeat=length):
        state = start
        for u in word:
            state = enc.next_state_pair(u, state)
        reached.add(state)
    return reached


@pytest.fixture(scope="module")
def one_step_encoder():
    # next state u + s on a two-element state group: everything is one step away
    u, s = make_group([2]), make_group([2])
    return make_encoder(u, s, make_group([2, 2]), [[1], [1]], [[1, 0], [0, 1]])


@pytest.fixture(scope="module")
def stateless_encoder():
    u, s, y = make_group([2]), make_group([]), make_group([2])
    return make_encoder(u, s, y, [[]], [[1]])


class TestForwardChain:
    def test_systematic_chain_levels(self, systematic_encoder):
        chain = forward_chain(systematic_encoder)
        assert [level.elements for level in chain.levels] == [
            ((0, 0),),
            ((0, 0), (0, 1)),
            ((0, 0), (0, 1), (1, 0), (1, 1)),
        ]
        assert chain.stabilized_at == 2
        assert chain.reaches_all
        assert chain.sizes() == (1, 2, 4)

    def test_frozen_chain_is_stuck_at_identity(self, frozen_state_encoder):
        chain = forward_chain(frozen_state_encoder)
        assert chain.sizes() == (1,)
        assert chain.stabilized_at == 0
        assert not chain.reaches_all

    def test_trivial_state_group(self, stateless_encoder):
        chain = forward_chain(stateless_encoder)
        assert chain.sizes() == (1,)
        assert chain.reaches_all

    def test_levels_match_direct_recomputation(self, systematic_encoder):
        enc = systematic_encoder
        chain = forward_chain(enc)
        current = {enc.state_group.identity()}
        for level in chain.levels[1:]:
            current = {
                enc.next_state_pair(u, s)
                for u in enc.input_group.elements()
                for s in current
            }
            assert set(level.elements) == current

    def test_negative_level_is_rejected(self):
        # no level is reached in a negative number of steps
        chain = forward_chain(encoder_from_spec(observed_shift_register(2, 3)))
        assert chain.sizes() == (1, 2, 4, 8)
        assert chain.level(9).order == 8
        for i in (-1, -2):
            with pytest.raises(ValueError):
                chain.level(i)

    def test_levels_are_nested_subgroups(self, systematic_encoder):
        chain = forward_chain(systematic_encoder)
        for i, level in enumerate(chain.levels):
            assert level.is_closed()
            if i:
                assert set(chain.levels[i - 1].elements) <= set(level.elements)


class TestPastKernel:
    def test_systematic_past_kernel(self, systematic_encoder):
        assert past_kernel(systematic_encoder).elements == ((0, 0), (1, 0))

    def test_frozen_past_kernel_is_trivial(self, frozen_state_encoder):
        assert past_kernel(frozen_state_encoder).elements == ((0,),)

    def test_matches_definition(self, systematic_encoder):
        enc = systematic_encoder
        expected = {
            s
            for s in enc.state_group.elements()
            if any(
                enc.next_state_pair(u, s) == enc.state_group.identity()
                for u in enc.input_group.elements()
            )
        }
        assert set(past_kernel(enc).elements) == expected

    def test_size_matches_one_step_level_everywhere(self):
        for p, s_factors in [(2, [2]), (2, [4]), (2, [2, 2]), (3, [3]), (3, [9])]:
            state_group = make_group(s_factors)
            for instance in enumerate_extensions(p, state_group):
                for enc in enumerate_encoders(instance):
                    chain = forward_chain(enc)
                    assert past_kernel(enc).order == chain.level(1).order


class TestDecide:
    def test_systematic_verdict(self, systematic_encoder):
        verdict = decide_controllability(systematic_encoder)
        assert verdict.controllable
        assert verdict.index == 2
        assert not verdict.window_below_two
        assert verdict.stuck_level is None

    def test_frozen_verdict(self, frozen_state_encoder):
        verdict = decide_controllability(frozen_state_encoder)
        assert not verdict.controllable
        assert verdict.index is None
        assert verdict.stuck_level.elements == ((0,),)

    def test_one_step_index(self, one_step_encoder):
        verdict = decide_controllability(one_step_encoder)
        assert verdict.controllable
        assert verdict.index == 1
        assert verdict.window_below_two

    def test_trivial_state_group_index_zero(self, stateless_encoder):
        verdict = decide_controllability(stateless_encoder)
        assert verdict.controllable
        assert verdict.index == 0
        assert verdict.window_below_two

    def test_oversized_state_group_refused(self, monkeypatch):
        # 2^15 states: the union table and each oracle level would hold 2^30 bits
        u, s, y = make_group([]), make_group([2] * 15), make_group([2])
        unit = [[int(i == j) for j in range(15)] for i in range(15)]
        enc = make_encoder(u, s, y, unit, [[0]] * 15)
        monkeypatch.setattr(control, "forward_chain", None)
        with pytest.raises(TooLarge, match="exceeds the controllability guard"):
            decide_controllability(enc)


class TestExactReach:
    def test_against_word_enumeration(self, systematic_encoder, frozen_state_encoder):
        for enc in (systematic_encoder, frozen_state_encoder):
            table = reach_sets(enc, exact_reach(enc, 4))
            for length in range(5):
                for s in enc.state_group.elements():
                    assert table[length][s] == brute_exact_reach(enc, s, length)

    def test_reach_sets_are_chain_level_cosets(self, systematic_encoder):
        enc = systematic_encoder
        chain = forward_chain(enc)
        table = reach_sets(enc, exact_reach(enc, enc.state_group.order))
        for length in range(len(table)):
            level = set(chain.level(length).elements)
            for s, reached in table[length].items():
                anchor = min(reached)
                coset = {enc.state_group.add(anchor, x) for x in level}
                assert set(reached) == coset

    def test_index_is_least_all_pairs_window(self, systematic_encoder):
        enc = systematic_encoder
        full = set(enc.state_group.elements())
        table = reach_sets(enc, exact_reach(enc, enc.state_group.order))
        all_pairs = [
            length
            for length in range(len(table))
            if all(set(table[length][s]) == full for s in full)
        ]
        assert min(all_pairs) == decide_controllability(enc).index

    def test_frozen_encoder_has_no_bridge_at_any_window(self, frozen_state_encoder):
        enc = frozen_state_encoder
        for length in range(enc.state_group.order + 1):
            assert (1,) not in brute_exact_reach(enc, (0,), length)

    def test_decision_holds_a_bounded_number_of_levels(self):
        # the m = 10 register's chain stops at 10, so holding every oracle
        # level would hold twelve levels of 1,024 masks of 1,024 bits
        enc = encoder_from_spec(observed_shift_register(2, 10))
        n = enc.state_group.order
        level = n * sys.getsizeof((1 << n) - 1) + sys.getsizeof([0] * n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            verdict = decide_controllability(enc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert verdict.index == 10
        assert peak < 6 * level


def _ref_one_step_image(enc, states):
    return {
        enc.next_state_pair(u, s)
        for u in enc.input_group.elements()
        for s in states
    }


def _ref_chain(enc):
    """Tuple-set reference: levels from the identity state up to the first repetition."""
    levels = [{enc.state_group.identity()}]
    while True:
        image = _ref_one_step_image(enc, levels[-1])
        if image == levels[-1]:
            return levels
        levels.append(image)


def _ref_past_kernel(enc):
    e = enc.state_group.identity()
    return {
        s
        for s in enc.state_group.elements()
        if any(enc.next_state_pair(u, s) == e for u in enc.input_group.elements())
    }


def _ref_exact_reach(enc, max_len):
    """Tuple-set reference: ``result[L][s]``, the states ``s`` reaches in exactly L steps."""
    states = list(enc.state_group.elements())
    successors = {s: frozenset(_ref_one_step_image(enc, (s,))) for s in states}
    current = {s: frozenset([s]) for s in states}
    table = [current]
    for _ in range(max_len):
        current = {
            s: frozenset().union(*(successors[r] for r in current[s])) for s in states
        }
        table.append(current)
    return table


def _ref_closure_and_cyclicity(g, members) -> tuple[bool, bool]:
    """Element brute force: whether ``members`` is a subgroup, and whether one member generates it."""
    members = set(members)
    closed = (
        g.identity() in members
        and all(g.neg(a) in members for a in members)
        and all(g.add(a, b) in members for a in members for b in members)
    )
    return closed, closed and any(g.element_order(a) == len(members) for a in members)


class TestBitmasksAgainstTupleSets:
    def test_level_and_kernel_verdicts_on_the_no_dedup_family(self):
        # every encoder with p in {2, 3} and |S| <= 9 over every normal subgroup;
        # each distinct state set is brute-forced once
        checked, verdicts = 0, {}
        for p in (2, 3):
            for order in range(1, 10):
                for state_group in abelian_groups_of_order(order):
                    for instance in enumerate_extensions(p, state_group, dedup=False):
                        for enc in enumerate_encoders(instance):
                            g = enc.state_group
                            for mask in forward_chain(enc).masks + (_kernel_mask(enc),):
                                key = (g.factors, mask)
                                if key not in verdicts:
                                    gens = _mask_generators(g, mask)
                                    closed = gens is not None
                                    cyclic = closed and _is_cyclic(g, gens, mask.bit_count())
                                    members = control._members(g, mask)
                                    assert (closed, cyclic) == _ref_closure_and_cyclicity(g, members)
                                    verdicts[key] = (closed, cyclic)
                            checked += 1
        assert checked == 47251
        # 48 distinct sets, every one a subgroup, cyclic and non-cyclic ones both met
        assert len(verdicts) == 48
        assert {closed for closed, _ in verdicts.values()} == {True}
        assert {cyclic for _, cyclic in verdicts.values()} == {True, False}

    def test_complete_family(self, family_p23):
        # every encoder with p in {2, 3} and |S| <= 9
        assert len(family_p23) == 3829
        for _, _, enc in family_p23:
            chain = forward_chain(enc)
            levels = _ref_chain(enc)
            assert [level.elements for level in chain.levels] == [
                tuple(sorted(level)) for level in levels
            ]
            assert chain.stabilized_at == len(levels) - 1
            assert chain.reaches_all == (len(levels[-1]) == enc.state_group.order)
            assert set(past_kernel(enc).elements) == _ref_past_kernel(enc)
            length = chain.stabilized_at + 1
            assert reach_sets(enc, exact_reach(enc, length)) == _ref_exact_reach(enc, length)


def _step_chain(enc) -> tuple[int, ...]:
    """Oracle: the chain with each level the one-step image ``encoder._step`` of the one before."""
    masks = [1]
    while (image := encoder._step(enc, masks[-1])) != masks[-1]:
        masks.append(image)
    return tuple(masks)


def _input_entering_s1(p: int, m: int) -> dict:
    """``(s1..sm) -> (u + sm, s1..s(m-1))``: the observed register with its coordinates reversed."""
    unit = [[int(i == j) for j in range(m)] for i in range(m)]
    spec = observed_shift_register(p, m)
    spec["nu"] = {"gen_images": [unit[0]] + [unit[(i + 1) % m] for i in range(m)]}
    return spec


class TestSpanChain:
    def test_matches_the_step_chain_on_the_no_dedup_family(self):
        # every encoder with p in {2, 3} and |S| <= 9 over every normal subgroup
        checked = 0
        for p in (2, 3):
            for order in range(1, 10):
                for state_group in abelian_groups_of_order(order):
                    for instance in enumerate_extensions(p, state_group, dedup=False):
                        for enc in enumerate_encoders(instance):
                            assert forward_chain(enc).masks == _step_chain(enc)
                            checked += 1
        assert checked == 47251

    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("build", [observed_shift_register, _input_entering_s1], ids=["into-sm", "into-s1"])
    def test_matches_the_step_chain_on_shift_registers(self, build, m):
        enc = encoder_from_spec(build(2, m))
        chain = forward_chain(enc)
        assert chain.masks == _step_chain(enc)
        assert chain.sizes() == tuple(2**i for i in range(m + 1))

    def test_reads_no_step(self, systematic_encoder, monkeypatch):
        # the chain is spanned from generators; only the report reads one-step images
        def refuse(enc, mask):
            raise AssertionError("forward_chain read _step")

        monkeypatch.setattr(control, "_step", refuse)
        monkeypatch.setattr(encoder, "_step", refuse)
        assert forward_chain(systematic_encoder).sizes() == (1, 2, 4)


def _split_encoders(u_factors, s_factors):
    """Every encoder on U + S whose next-state map is onto S, with the identity output."""
    u, s = make_group(u_factors), make_group(s_factors)
    ambient = direct_sum(u, s)
    omega = identity_hom(ambient)
    return [
        make_encoder(u, s, ambient, nu, omega)
        for nu in enumerate_homs(ambient, s, surjective_only=True)
    ]


def _nonsplit_encoders(factors, generator):
    """Every encoder over the ambient group's decomposition by ``<generator>``."""
    g = make_group(factors)
    dec = decompose(g, subgroup_generated(g, [generator]))
    return [
        encoder_from_extension(dec, g, nu, identity_hom(g))
        for nu in enumerate_homs(g, dec.s_part, surjective_only=True)
    ]


class TestOracleBeyondPrimeInputs:
    @pytest.mark.parametrize(
        "encoders",
        [
            pytest.param(lambda: _split_encoders([2, 2], [2, 2]), id="U=Z2xZ2"),
            pytest.param(lambda: _split_encoders([4], [4]), id="U=Z4,S=Z4"),
            pytest.param(lambda: _split_encoders([4], [2, 2]), id="U=Z4,S=Z2xZ2"),
            pytest.param(lambda: _split_encoders([], [2, 2]), id="trivial-U"),
            pytest.param(lambda: _split_encoders([], [3]), id="trivial-U,S=Z3"),
            pytest.param(lambda: _split_encoders([3], []), id="trivial-S"),
            pytest.param(lambda: _split_encoders([], []), id="trivial-U-and-S"),
            pytest.param(lambda: _nonsplit_encoders([8], (4,)), id="Z8-over-4"),
            pytest.param(lambda: _nonsplit_encoders([2, 2, 2], (1, 1, 0)), id="Z2^3-over-110"),
        ],
    )
    def test_matches_tuple_set_reference(self, encoders):
        encs = encoders()
        assert encs
        for enc in encs:
            length = enc.state_group.order + 1
            assert reach_sets(enc, exact_reach(enc, length)) == _ref_exact_reach(enc, length)

    def test_never_reads_the_chain_images(self, systematic_encoder, monkeypatch):
        def refuse(enc, mask):
            raise AssertionError("exact_reach read _step")

        monkeypatch.setattr(control, "_step", refuse)
        monkeypatch.setattr(encoder, "_step", refuse)
        for enc in [systematic_encoder, *_split_encoders([4], [2, 2])]:
            length = enc.state_group.order + 1
            assert reach_sets(enc, exact_reach(enc, length)) == _ref_exact_reach(enc, length)


class TestImageOfEveryStateSet:
    """``_step`` on every state set, not only on the chain's levels, which are subgroups."""

    @pytest.mark.parametrize(
        "u_factors, s_factors",
        [([2], [2, 2, 2]), ([2], [2, 4]), ([2], [8]), ([3], [3, 3])],
        ids=["S=Z2^3", "S=Z2xZ4", "S=Z8", "S=Z3^2"],
    )
    def test_matches_the_tuple_set_image(self, u_factors, s_factors):
        for enc in _split_encoders(u_factors, s_factors):
            states = list(enc.state_group.elements())
            # a set's one-step image is the union of its states' images
            after = [_ref_one_step_image(enc, (s,)) for s in states]
            for mask in range(1 << len(states)):
                image = encoder._step(enc, mask)
                expected = set().union(*(a for i, a in enumerate(after) if mask >> i & 1))
                assert {s for i, s in enumerate(states) if image >> i & 1} == expected, mask


class TestStructureReport:
    def test_systematic_report_passes(self, systematic_encoder):
        report = structure_report(systematic_encoder, decide_controllability(systematic_encoder))
        assert all(report.predicates.values())
        assert not report.degenerate_inputs
        assert report.prime == 2
        assert len(report.predicates) == 15

    def test_frozen_report_flags_degenerate_inputs(self, frozen_state_encoder):
        report = structure_report(frozen_state_encoder, decide_controllability(frozen_state_encoder))
        assert all(report.predicates.values())
        assert report.degenerate_inputs

    def test_prime_cyclic_boundary_note(self, one_step_encoder):
        report = structure_report(one_step_encoder, decide_controllability(one_step_encoder))
        assert "prime_cyclic_boundary" in report.notes

    def test_fresh_level_witness_is_the_stray_states(self, systematic_encoder, monkeypatch):
        # the level-1 layer is {01} (mask 0b10); once the chain is decided its
        # image gains the identity state, which no single step reaches, so the
        # counterexample lists the stray states instead of a step
        verdict = decide_controllability(systematic_encoder)
        original = control._step
        monkeypatch.setattr(
            control, "_step", lambda enc, mask: original(enc, mask) | (1 if mask == 0b10 else 0)
        )
        with pytest.raises(PredicateViolation) as caught:
            structure_report(systematic_encoder, verdict)
        assert caught.value.name == "fresh_level_inputs_escape"
        assert caught.value.counterexample == (2, [(0, 0)])

    def test_composite_input_group_rejected(self):
        u, s = make_group([4]), make_group([4])
        enc = make_encoder(
            u, s, make_group([4, 4]), [[1], [1]], [[1, 0], [0, 1]]
        )
        with pytest.raises(NotApplicable):
            structure_report(enc, decide_controllability(enc))

    def test_cyclicity_check_matches_recognition(self):
        # every subgroup of every abelian group of order <= 32
        checked = 0
        for order in range(1, 33):
            for g in abelian_groups_of_order(order):
                for sub in all_subgroups(g):
                    recognized = recognize(list(sub.elements), g.add)
                    mask = sum(1 << g.index_of(a) for a in sub.elements)
                    cyclic = _is_cyclic(g, _mask_generators(g, mask), sub.order)
                    assert cyclic == (len(recognized.factors) <= 1)
                    checked += 1
        assert checked == 1030

    def test_reports_pass_across_small_families(self):
        checked = 0
        for p, s_factors in [(2, [2]), (2, [4]), (2, [2, 2]), (3, [3]), (2, [6])]:
            state_group = make_group(s_factors)
            for instance in enumerate_extensions(p, state_group):
                for enc in enumerate_encoders(instance):
                    report = structure_report(enc, decide_controllability(enc))
                    assert all(report.predicates.values())
                    checked += 1
        assert checked > 50


class TestAnalysisJson:
    def test_payload_shape_and_determinism(self, systematic_encoder):
        payload = analysis_json(systematic_encoder)
        assert payload["controllable"] is True
        assert payload["index"] == 2
        assert payload["chain"] == [
            ["0,0"],
            ["0,0", "0,1"],
            ["0,0", "0,1", "1,0", "1,1"],
        ]
        assert payload["past_kernel"] == ["0,0", "1,0"]
        assert payload["chain_sizes"] == [1, 2, 4]
        assert all(payload["predicates"].values())
        assert payload == analysis_json(systematic_encoder)

    def test_trivial_state_group_renders_empty_labels(self, stateless_encoder):
        payload = analysis_json(stateless_encoder)
        assert (payload["chain"], payload["past_kernel"]) == ([[""]], [""])

    def test_frozen_payload(self, frozen_state_encoder):
        payload = analysis_json(frozen_state_encoder)
        assert payload["controllable"] is False
        assert payload["index"] is None
        assert payload["degenerate_inputs"] is True
