from __future__ import annotations

import itertools

import pytest

from groupcode import (
    NotApplicable,
    PredicateViolation,
    control,
    decide_controllability,
    forward_chain,
    make_encoder,
    make_group,
    past_kernel,
    structure_report,
)
from groupcode.control import _subgroup_is_cyclic, analysis_json, exact_reach
from groupcode.groups import abelian_groups_of_order, all_subgroups, recognize
from groupcode.sweep import enumerate_encoders, enumerate_extensions


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


class TestBitmasksAgainstTupleSets:
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
        original = control._image
        monkeypatch.setattr(
            control, "_image", lambda mask, table: original(mask, table) | (1 if mask == 0b10 else 0)
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
                    assert _subgroup_is_cyclic(sub) == (len(recognized.factors) <= 1)
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

    def test_frozen_payload(self, frozen_state_encoder):
        payload = analysis_json(frozen_state_encoder)
        assert payload["controllable"] is False
        assert payload["index"] is None
        assert payload["degenerate_inputs"] is True
