from __future__ import annotations

import itertools

from groupcode import (
    Window,
    branches,
    codeword_witness,
    concatenate,
    connected,
    encode_forward,
    export_dot,
    is_codeword,
    make_encoder,
    make_group,
    zero_tail,
)
from groupcode.encoder import encoder_from_extension
from groupcode.errors import PsiNotInjective
from groupcode.groups import abelian_groups_of_order, enumerate_homs
from groupcode.sweep import enumerate_extensions


def _reference_identity_core(enc, diagram, backwards):
    """States admitting arbitrarily long identity-labeled histories or futures."""
    e_y = enc.output_group.identity()
    edges = {s: set() for s in enc.state_group.elements()}
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


def reference_witness(enc, window):
    """Membership on tuple state sets: the reference for ``codeword_witness``."""
    diagram = branches(enc)
    past_core = _reference_identity_core(enc, diagram, backwards=True)
    future_core = _reference_identity_core(enc, diagram, backwards=False)

    by_label = {}
    for b in diagram:
        by_label.setdefault((b.source, b.label), set()).add(b.target)

    feasible = [set(past_core)]
    for symbol in window.symbols:
        nxt = set()
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


def node_lines(dot):
    return [line for line in dot.splitlines() if "[label=" in line and "->" not in line]


def edge_lines(dot):
    return [line for line in dot.splitlines() if "->" in line]


class TestBranches:
    def test_count_and_order(self, systematic_encoder):
        all_branches = branches(systematic_encoder)
        assert len(all_branches) == 8
        expected_order = [
            (s, u)
            for s in systematic_encoder.state_group.elements()
            for u in systematic_encoder.input_group.elements()
        ]
        assert [(b.source, b.input) for b in all_branches] == expected_order

    def test_identity_self_loop(self, systematic_encoder):
        b = branches(systematic_encoder)[0]
        assert b.source == b.target == (0, 0)
        assert b.label == (0, 0)
        assert b.input == (0,)

    def test_branch_at_input_one_identity_state(self, systematic_encoder):
        b = next(
            b for b in branches(systematic_encoder)
            if b.source == (0, 0) and b.input == (1,)
        )
        assert b.label == (1, 0)
        assert b.target == (0, 1)

    def test_triples_are_distinct(self, systematic_encoder, frozen_state_encoder):
        for enc in (systematic_encoder, frozen_state_encoder):
            triples = {(b.source, b.label, b.target) for b in branches(enc)}
            assert len(triples) == enc.input_group.order * enc.state_group.order

    def test_in_degree_equals_input_count(self, systematic_encoder):
        incoming = {s: 0 for s in systematic_encoder.state_group.elements()}
        for b in branches(systematic_encoder):
            incoming[b.target] += 1
        assert set(incoming.values()) == {systematic_encoder.input_group.order}


class TestConnected:
    def test_self_connection_is_empty_word(self, systematic_encoder):
        assert connected(systematic_encoder, (1, 0), (1, 0), max_len=1) == []

    def test_two_step_connection(self, systematic_encoder):
        word = connected(systematic_encoder, (0, 0), (1, 1), max_len=8)
        assert word == [(1,), (1,)]
        states, _ = encode_forward(systematic_encoder, (0, 0), word)
        assert states == [(0, 1), (1, 1)]

    def test_frozen_states_are_disconnected(self, frozen_state_encoder):
        for max_len in (1, 4, 16):
            assert connected(frozen_state_encoder, (0,), (1,), max_len=max_len) is None

    def test_shortest_and_lex_minimal_against_oracle(self, systematic_encoder):
        enc = systematic_encoder
        inputs = list(enc.input_group.elements())
        for s in enc.state_group.elements():
            for r in enc.state_group.elements():
                oracle = None
                for n in range(0, 5):
                    for word in itertools.product(inputs, repeat=n):
                        state = s
                        for u in word:
                            state = enc.next_state_pair(u, state)
                        if state == r:
                            oracle = list(word)
                            break
                    if oracle is not None:
                        break
                assert connected(enc, s, r, max_len=8) == oracle

    def test_transitivity_on_reachable_states(self, systematic_encoder):
        enc = systematic_encoder
        for s in enc.state_group.elements():
            for r in enc.state_group.elements():
                first = connected(enc, s, r, max_len=8)
                for t in enc.state_group.elements():
                    second = connected(enc, r, t, max_len=8)
                    if first is not None and second is not None:
                        assert connected(enc, s, t, max_len=16) is not None


class TestConcatenate:
    def test_splicing_with_itself_is_identity(self, systematic_encoder):
        y = systematic_encoder.output_group
        w = Window(y, 2, ((1, 0), (0, 1), (1, 1)))
        for j in (0, 3, 10):
            assert concatenate(w, w, j).same_sequence(w)

    def test_zero_with_zero(self, systematic_encoder):
        y = systematic_encoder.output_group
        zero = Window(y, 0, ())
        spliced = concatenate(zero, zero, 0)
        assert spliced.symbols == ()

    def test_zero_then_padded_run_reproduces_the_run(self, systematic_encoder):
        enc = systematic_encoder
        word = [(0,), (1,), (1,), (1,), (0,), (1,), (0,)]
        tail = zero_tail(enc, (1, 1), max_len=8)
        _, outputs = encode_forward(enc, (0, 0), word + tail)
        padded = Window(enc.output_group, 1, tuple(outputs))
        zero = Window(enc.output_group, 0, ())
        assert concatenate(zero, padded, 1).same_sequence(padded)


class TestIsCodeword:
    def test_all_identity_sequence(self, systematic_encoder):
        w = Window(systematic_encoder.output_group, 0, ())
        witness = codeword_witness(systematic_encoder, w)
        assert witness == [(0, 0)]
        assert is_codeword(systematic_encoder, w)

    def test_zero_tailed_run_is_accepted_with_its_own_states(self, systematic_encoder):
        enc = systematic_encoder
        word = [(0,), (1,), (1,), (1,), (0,), (1,), (0,)]
        tail = zero_tail(enc, (1, 1), max_len=8)
        states, outputs = encode_forward(enc, (0, 0), word + tail)
        w = Window(enc.output_group, 1, tuple(outputs))
        witness = codeword_witness(enc, w)
        assert witness == [(0, 0)] + states

    def test_every_short_run_round_trips(self, systematic_encoder):
        enc = systematic_encoder
        for n in range(4):
            for word in itertools.product(list(enc.input_group.elements()), repeat=n):
                states, outputs = encode_forward(enc, (0, 0), list(word))
                final = states[-1] if states else (0, 0)
                tail = zero_tail(enc, final, max_len=8)
                run_states, run_outputs = encode_forward(
                    enc, (0, 0), list(word) + tail
                )
                w = Window(enc.output_group, 1, tuple(run_outputs))
                assert codeword_witness(enc, w) == [(0, 0)] + run_states

    def test_dangling_run_is_rejected(self, systematic_encoder):
        # output of a run that never returns to the identity state cannot be
        # completed by identity tails
        w = Window(systematic_encoder.output_group, 1, ((1, 0),))
        assert not is_codeword(systematic_encoder, w)

    def test_unreachable_symbol_is_rejected(self, frozen_state_encoder):
        # the frozen encoder emits (u, s) pairs; from an identity-tailed past
        # only states reachable from the core are available
        y = frozen_state_encoder.output_group
        w = Window(y, 0, ((0, 1),))
        assert not is_codeword(frozen_state_encoder, w)

    def test_frozen_encoder_accepts_identity_only_windows(self, frozen_state_encoder):
        y = frozen_state_encoder.output_group
        assert is_codeword(frozen_state_encoder, Window(y, 0, ((0, 0),)))

    def test_membership_is_shift_invariant(self, systematic_encoder):
        enc = systematic_encoder
        word = [(1,), (0,), (1,)]
        tail = zero_tail(enc, encode_forward(enc, (0, 0), word)[0][-1], max_len=8)
        _, outputs = encode_forward(enc, (0, 0), word + tail)
        w = Window(enc.output_group, 5, tuple(outputs))
        assert is_codeword(enc, w)
        for offset in (-9, -1, 4, 40):
            assert is_codeword(enc, w.shifted(offset))
        broken = Window(enc.output_group, 5, tuple(outputs[:-1]))
        assert not is_codeword(enc, broken)
        for offset in (-9, 4):
            assert not is_codeword(enc, broken.shifted(offset))


    def test_matches_reference_on_complete_small_family(self):
        # every sweep next-state map for p=2 with |S| in {2, 4} and p=3 with
        # |S| = 3, paired with every output hom onto Z_p that gives a valid
        # encoder, against every window over Z_p of length <= 4
        encoders = []
        for p, orders in ((2, (2, 4)), (3, (3,))):
            symbols = make_group([p])
            for order in orders:
                for state_group in abelian_groups_of_order(order):
                    for inst in enumerate_extensions(p, state_group):
                        ambient = inst.ambient
                        for nu in enumerate_homs(ambient, state_group, surjective_only=True):
                            for omega in enumerate_homs(ambient, symbols):
                                try:
                                    encoders.append(
                                        encoder_from_extension(
                                            inst.decomposition, symbols, nu, omega
                                        )
                                    )
                                except PsiNotInjective:
                                    pass
        windows = rejected = 0
        for enc in encoders:
            y = enc.output_group
            for n in range(5):
                for word in itertools.product(list(y.elements()), repeat=n):
                    window = Window(y, 0, word)
                    expected = reference_witness(enc, window)
                    assert codeword_witness(enc, window) == expected, (enc, word)
                    windows += 1
                    rejected += expected is None
        assert (len(encoders), windows, rejected) == (400, 18340, 2100)


class TestExportDot:
    def test_state_diagram_shape(self, systematic_encoder):
        dot = export_dot(systematic_encoder, 0)
        assert dot.startswith("digraph trellis {\n  rankdir=LR;\n  node [shape=circle];\n")
        assert dot.rstrip().endswith("}")
        assert len(node_lines(dot)) == 4
        assert len(edge_lines(dot)) == 8
        assert '"t0_s0" -> "t0_s1" [label="1/10"];' in dot

    def test_three_section_trellis(self, systematic_encoder):
        dot = export_dot(systematic_encoder, 3)
        assert len(node_lines(dot)) == 16
        assert len(edge_lines(dot)) == 24
        assert '"t2_s0" -> "t3_s1" [label="1/10"];' in dot

    def test_trivial_state_group(self):
        u = make_group([2])
        s = make_group([])
        y = make_group([2])
        enc = make_encoder(u, s, y, [[]], [[1]])
        dot = export_dot(enc, 0)
        assert len(node_lines(dot)) == 1
        assert len(edge_lines(dot)) == 2

    def test_deterministic(self, systematic_encoder):
        assert export_dot(systematic_encoder, 2) == export_dot(systematic_encoder, 2)
