from __future__ import annotations

import itertools

import pytest

from groupcode import (
    GroupHom,
    InvalidHom,
    NuNotSurjective,
    OmegaNotHom,
    PsiNotInjective,
    Window,
    WrongGroup,
    decompose,
    direct_sum,
    direct_sum_decomposition,
    encode_forward,
    encoder_from_spec,
    encoder_to_spec,
    enumerate_homs,
    extend_past,
    make_encoder,
    make_group,
    state_preimages,
    subgroup_generated,
    zero_tail,
)
from groupcode.encoder import encoder_from_extension
from groupcode.groups import abelian_groups_of_order, identity_hom
from groupcode.sweep import enumerate_encoders, enumerate_extensions


def shift_register_reference(inputs):
    """Independent evaluation of the systematic encoder's recurrences."""
    s1, s2 = 0, 0
    states, outputs = [], []
    for (u,) in inputs:
        out = (u, s2)
        s1, s2 = s2, (u + s1) % 2
        states.append((s1, s2))
        outputs.append(out)
    return states, outputs


INPUT_WORD = [(0,), (1,), (1,), (1,), (0,), (1,), (0,)]


class TestMakeEncoder:
    def test_systematic_encoder_is_valid(self, systematic_encoder):
        enc = systematic_encoder
        assert enc.input_group.factors == (2,)
        assert enc.state_group.factors == (2, 2)
        assert enc.next_state_pair((1,), (0, 0)) == (0, 1)
        assert enc.output_pair((1,), (0, 0)) == (1, 0)

    def test_constant_next_state_not_surjective(self):
        u, s, y = make_group([2]), make_group([2, 2]), make_group([2, 2])
        zero = [[0, 0], [0, 0], [0, 0]]
        identity_like = [[1, 0], [0, 0], [0, 1]]
        with pytest.raises(NuNotSurjective):
            make_encoder(u, s, y, zero, identity_like)

    @pytest.mark.parametrize(
        "nu, missing",
        [([[0, 0], [0, 0], [0, 0]], (0, 1)), ([[0, 1], [0, 1], [0, 0]], (1, 0))],
    )
    def test_non_surjective_witness_is_least_missing_state(self, nu, missing):
        u, s, y = make_group([2]), make_group([2, 2]), make_group([2, 2])
        with pytest.raises(NuNotSurjective) as info:
            make_encoder(u, s, y, nu, [[1, 0], [0, 0], [0, 1]])
        assert info.value.missing == missing

    def test_maps_off_the_ambient_group_rejected(self):
        dec = direct_sum_decomposition(make_group([2]), make_group([2, 2]))
        wrong = make_group([4, 2])
        nu = GroupHom(wrong, dec.s_part, ((0, 1), (1, 0)))
        with pytest.raises(WrongGroup):
            encoder_from_extension(dec, dec.ambient, nu, identity_hom(dec.ambient))

    def test_state_swap_with_blind_output_collides(self):
        u, s, y = make_group([2]), make_group([2, 2]), make_group([2, 2])
        swap = [[0, 0], [0, 1], [1, 0]]  # (u, s1, s2) -> (s2, s1), input invisible
        blind = [[0, 0], [0, 0], [0, 0]]
        with pytest.raises(PsiNotInjective) as info:
            make_encoder(u, s, y, swap, blind)
        assert info.value.witness == ((1,), (0, 0))

    def test_visible_output_rescues_state_swap(self):
        u, s, y = make_group([2]), make_group([2, 2]), make_group([2, 2])
        swap = [[0, 0], [0, 1], [1, 0]]
        seeing_u = [[1, 0], [0, 0], [0, 1]]
        enc = make_encoder(u, s, y, swap, seeing_u)
        assert enc.next_state_pair((1,), (0, 1)) == (1, 0)

    def test_bad_output_images_raise_omega_error(self):
        u, s, y = make_group([2]), make_group([2, 2]), make_group([4])
        nu = [[0, 1], [0, 1], [1, 0]]
        with pytest.raises(OmegaNotHom):
            make_encoder(u, s, y, nu, [[1], [0], [0]])  # order-4 image of order-2 generator

    def test_bad_next_state_images_raise(self):
        u, s, y = make_group([2]), make_group([4]), make_group([4])
        with pytest.raises(InvalidHom):
            make_encoder(u, s, y, [[1], [1]], [[0], [1]])

    def test_step_rejects_foreign_pairs(self, systematic_encoder):
        with pytest.raises(WrongGroup):
            systematic_encoder.step((1,), (2, 0))


class TestEncodeForward:
    def test_reference_state_sequence(self, systematic_encoder):
        states, _ = encode_forward(systematic_encoder, (0, 0), INPUT_WORD)
        assert states == [(0, 0), (0, 1), (1, 1), (1, 0), (0, 1), (1, 1), (1, 1)]

    def test_against_independent_reference(self, systematic_encoder):
        states, outputs = encode_forward(systematic_encoder, (0, 0), INPUT_WORD)
        ref_states, ref_outputs = shift_register_reference(INPUT_WORD)
        assert states == ref_states
        assert outputs == ref_outputs

    def test_exhaustive_against_reference(self, systematic_encoder):
        for n in range(5):
            for word in itertools.product([(0,), (1,)], repeat=n):
                got = encode_forward(systematic_encoder, (0, 0), list(word))
                assert got == shift_register_reference(list(word))

    def test_identity_inputs_stay_at_identity(self, systematic_encoder):
        states, outputs = encode_forward(systematic_encoder, (0, 0), [(0,)] * 6)
        assert set(states) == {(0, 0)}
        assert set(outputs) == {(0, 0)}

    def test_empty_input_word(self, systematic_encoder):
        assert encode_forward(systematic_encoder, (1, 0), []) == ([], [])

    def test_empty_input_word_still_checks_the_start_state(self, systematic_encoder):
        with pytest.raises(WrongGroup):
            encode_forward(systematic_encoder, (2, 0), [])

    @pytest.mark.parametrize("foreign", [[2], [1, 0], []])
    def test_foreign_symbol_mid_word_is_named(self, systematic_encoder, foreign):
        word = [[0], [1], foreign, [1], [3]]  # list-typed symbols
        message = f"input symbol {tuple(foreign)} is not in the input group"
        with pytest.raises(WrongGroup) as info:
            encode_forward(systematic_encoder, (0, 0), word)
        assert str(info.value) == message

    def test_list_typed_inputs(self, systematic_encoder):
        as_lists = encode_forward(systematic_encoder, (1, 0), [[1], [0], [1]])
        assert as_lists == encode_forward(systematic_encoder, (1, 0), [(1,), (0,), (1,)])

    def test_list_typed_start_state(self, systematic_encoder):
        as_list = encode_forward(systematic_encoder, [0, 1], [(1,), (0,)])
        assert as_list == encode_forward(systematic_encoder, (0, 1), [(1,), (0,)])

    def test_linearity_of_the_encoding_map(self, systematic_encoder):
        # on a split extension the (initial state, input word) -> run map is
        # a homomorphism of direct products
        enc = systematic_encoder
        s_group, u_group = enc.state_group, enc.input_group
        words = list(itertools.product(u_group.elements(), repeat=3))
        starts = list(s_group.elements())
        cases = [(s, w) for s in starts for w in words]
        for (s1, w1) in cases[::5]:
            for (s2, w2) in cases[::7]:
                s_sum = s_group.add(s1, s2)
                w_sum = [u_group.add(a, b) for a, b in zip(w1, w2)]
                st1, out1 = encode_forward(enc, s1, list(w1))
                st2, out2 = encode_forward(enc, s2, list(w2))
                st_sum, out_sum = encode_forward(enc, s_sum, w_sum)
                assert st_sum == [s_group.add(a, b) for a, b in zip(st1, st2)]
                assert out_sum == [
                    enc.output_group.add(a, b) for a, b in zip(out1, out2)
                ]


class TestExtendPast:
    def test_identity_state_extends_by_identities(self, systematic_encoder):
        past_states, past_inputs, past_outputs = extend_past(
            systematic_encoder, (0, 0), depth=4
        )
        assert past_states == [(0, 0)] * 4
        assert past_inputs == [(0,)] * 4
        assert past_outputs == [(0, 0)] * 4

    def test_minimal_preimage_choice(self, systematic_encoder):
        preimages = state_preimages(systematic_encoder, (0, 1))
        assert preimages == [((0,), (1, 0)), ((1,), (0, 0))]
        past_states, past_inputs, _ = extend_past(systematic_encoder, (0, 1), depth=1)
        assert past_inputs[0] == (0,)
        assert past_states[0] == (1, 0)

    def test_preimage_count_is_kernel_size(self, systematic_encoder, frozen_state_encoder):
        for enc in (systematic_encoder, frozen_state_encoder):
            expected = enc.ambient.order // enc.state_group.order
            for s in enc.state_group.elements():
                assert len(state_preimages(enc, s)) == expected

    def test_seam_recurrence_holds(self, systematic_encoder):
        enc = systematic_encoder
        s0 = (1, 1)
        past_states, past_inputs, past_outputs = extend_past(enc, s0, depth=3)
        timeline = [past_states[2], past_states[1], past_states[0], s0]
        words = [past_inputs[2], past_inputs[1], past_inputs[0]]
        for i, u in enumerate(words):
            nxt, emitted = enc.step(u, timeline[i])
            assert nxt == timeline[i + 1]
        assert past_outputs[0] == enc.output_pair(past_inputs[0], past_states[0])

    def test_depth_must_be_positive(self, systematic_encoder):
        with pytest.raises(ValueError):
            extend_past(systematic_encoder, (0, 0), depth=0)


class TestZeroTail:
    def test_two_step_padding_word(self, systematic_encoder):
        assert zero_tail(systematic_encoder, (1, 1), max_len=10) == [(1,), (1,)]
        states, _ = encode_forward(systematic_encoder, (1, 1), [(1,), (1,)])
        assert states == [(1, 0), (0, 0)]

    def test_identity_needs_no_padding(self, systematic_encoder):
        assert zero_tail(systematic_encoder, (0, 0), max_len=3) == []

    def test_every_state_returns_within_state_count(self, systematic_encoder):
        bound = systematic_encoder.state_group.order
        for s in systematic_encoder.state_group.elements():
            tail = zero_tail(systematic_encoder, s, max_len=bound)
            assert tail is not None
            if s != (0, 0):
                states, _ = encode_forward(systematic_encoder, s, tail)
                assert states[-1] == (0, 0)

    def test_frozen_states_never_return(self, frozen_state_encoder):
        for max_len in (1, 4, 16):
            assert zero_tail(frozen_state_encoder, (1,), max_len=max_len) is None

    def test_shortest_and_lexicographically_first(self, systematic_encoder):
        # brute-force oracle over all input words by increasing length
        enc = systematic_encoder
        for s in enc.state_group.elements():
            best = None
            for n in range(0, 5):
                for word in itertools.product([(0,), (1,)], repeat=n):
                    state = s
                    for u in word:
                        state = enc.next_state_pair(u, state)
                    if state == (0, 0):
                        best = list(word)
                        break
                if best is not None:
                    break
            assert zero_tail(enc, s, max_len=8) == best


class TestTimeInvariance:
    def test_shifted_inputs_shift_outputs(self, systematic_encoder):
        enc = systematic_encoder
        _, outputs = encode_forward(enc, (0, 0), INPUT_WORD)
        base = Window(enc.output_group, 1, tuple(outputs))
        for offset in (-3, 2, 7):
            shifted = base.shifted(offset)
            assert shifted.symbol_at(4 + offset) == base.symbol_at(4)
            assert shifted.trimmed().symbols == base.trimmed().symbols


class TestBranchInjectivityCriterion:
    def test_enumerated_family_branch_tables_injective(self):
        from groupcode import enumerate_encoders, enumerate_extensions

        for p, s_factors in [(2, [2]), (2, [4]), (2, [2, 2]), (3, [3]), (3, [9])]:
            state_group = make_group(s_factors)
            for instance in enumerate_extensions(p, state_group):
                for enc in enumerate_encoders(instance):
                    triples = set()
                    for u, s in enc.decomposition.pairs():
                        nxt, out = enc.step(u, s)
                        triples.add((s, out, nxt))
                    assert len(triples) == enc.ambient.order

    def test_kernel_criterion_matches_brute_force(self):
        # over every output map on two small split extensions, the embedded
        # kernel test must agree with brute-force injectivity of the full
        # branch table
        shapes = [([2], [2]), ([2], [4]), ([3], [3])]
        for u_factors, s_factors in shapes:
            u, s = make_group(u_factors), make_group(s_factors)
            g = direct_sum(u, s)
            for nu in enumerate_homs(g, s, surjective_only=True):
                for omega in enumerate_homs(g, u):
                    dec_triples = set()
                    collision = False
                    for a in g.elements():
                        state = a[len(u.factors):]
                        triple = (state, omega(a), nu(a))
                        if triple in dec_triples:
                            collision = True
                        dec_triples.add(triple)
                    try:
                        make_encoder(u, s, u, nu, omega)
                        accepted = True
                    except PsiNotInjective:
                        accepted = False
                    assert accepted == (not collision)


class TestLinearTabulation:
    def test_tables_match_checked_evaluation_on_the_sweep_family(self):
        # every encoder of sweep_theorems([2, 3], 9), nonsplit decompositions included
        encoders = nonsplit = 0
        for p in (2, 3):
            for order in range(1, 10):
                for state_group in abelian_groups_of_order(order):
                    for instance in enumerate_extensions(p, state_group):
                        dec = instance.decomposition
                        zero = dec.u_part.identity()
                        nonsplit += any(v != zero for v in dec.factor_set.values())
                        for enc in enumerate_encoders(instance):
                            encoders += 1
                            for u, s in dec.pairs():
                                g = dec.pair_to_element(u, s)
                                assert enc.step(u, s) == (enc.next_state(g), enc.output(g))
        assert encoders == 3829
        assert nonsplit > 0


class TestWireFormat:
    def test_round_trip(self, systematic_encoder):
        data = encoder_to_spec(systematic_encoder)
        again = encoder_from_spec(data)
        assert encoder_to_spec(again) == data
        for u, s in systematic_encoder.decomposition.pairs():
            assert again.step(u, s) == systematic_encoder.step(u, s)

    def test_nonsplit_extension_has_no_wire_form(self):
        g = make_group([8])
        dec = decompose(g, subgroup_generated(g, [(4,)]))
        nu = enumerate_homs(g, dec.s_part, surjective_only=True)[0]
        enc = encoder_from_extension(dec, g, nu, identity_hom(g))
        with pytest.raises(ValueError):
            encoder_to_spec(enc)

    def test_non_coordinate_normal_subgroup_has_no_wire_form(self):
        # Z2^3 over <(1, 1, 0)> has the split group's ambient and lifting, but
        # (1, 0, 0) is the pair (1, 10), not the coordinate split (1, 00)
        g = make_group([2, 2, 2])
        dec = decompose(g, subgroup_generated(g, [(1, 1, 0)]))
        split = direct_sum_decomposition(dec.u_part, dec.s_part)
        assert dec.ambient == split.ambient and dec.lifting == split.lifting
        assert dec.element_to_pair((1, 0, 0)) == ((1,), (1, 0))
        nu = enumerate_homs(g, dec.s_part, surjective_only=True)[0]
        enc = encoder_from_extension(dec, g, nu, identity_hom(g))
        with pytest.raises(ValueError):
            encoder_to_spec(enc)

    def test_malformed_spec_rejected(self):
        with pytest.raises(WrongGroup):
            encoder_from_spec({"U": {"factors": [2]}})


class TestWindow:
    def test_identity_tails(self, systematic_encoder):
        w = Window(systematic_encoder.output_group, 3, ((1, 0), (0, 1)))
        assert w.symbol_at(2) == (0, 0)
        assert w.symbol_at(3) == (1, 0)
        assert w.symbol_at(4) == (0, 1)
        assert w.symbol_at(5) == (0, 0)

    def test_trimmed_strips_padding(self, systematic_encoder):
        y = systematic_encoder.output_group
        w = Window(y, 0, ((0, 0), (1, 1), (0, 0), (0, 0)))
        assert w.trimmed() == Window(y, 1, ((1, 1),))

    def test_first_foreign_symbol_is_named(self, systematic_encoder):
        y = systematic_encoder.output_group
        symbols = [[1, 0], [0, 1]] * 40 + [[0, 3], [2, 0], [0, 3]]
        with pytest.raises(WrongGroup) as info:
            Window(y, 0, symbols)
        assert str(info.value).startswith("(0, 3) is not an element")

    def test_list_typed_symbols_are_stored_as_tuples(self, systematic_encoder):
        w = Window(systematic_encoder.output_group, 0, [[1, 0], [1, 0], [0, 1]])
        assert w.symbols == ((1, 0), (1, 0), (0, 1))

    def test_same_sequence_ignores_padding(self, systematic_encoder):
        y = systematic_encoder.output_group
        a = Window(y, 0, ((0, 0), (1, 1)))
        b = Window(y, 1, ((1, 1), (0, 0)))
        assert a.same_sequence(b)
        assert not a.same_sequence(b.shifted(1))
