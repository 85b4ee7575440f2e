from __future__ import annotations

import itertools
import random

import pytest

from groupcode import (
    Branch,
    Window,
    branches,
    codeword_witness,
    concatenate,
    connected,
    decompose,
    encode_forward,
    export_dot,
    extend_past,
    is_codeword,
    make_encoder,
    make_group,
    state_preimages,
    subgroup_generated,
    zero_tail,
)
from groupcode.encoder import encoder_from_extension, encoder_from_spec
from groupcode.errors import PsiNotInjective
from groupcode.groups import (
    abelian_groups_of_order,
    enumerate_homs,
    format_element,
    hom_table,
    identity_hom,
)
from groupcode.sweep import enumerate_extensions
from specs import HUGE_OUTPUT, INPUTLESS, SILENT, STATELESS, STREAM_SHAPES, observed_shift_register


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

    def test_huge_output_group_converts_only_the_labels_in_use(self):
        # Y = Z_{10^12}: a list of the output group's elements could not be built
        enc = encoder_from_spec(HUGE_OUTPUT)
        half = (5 * 10**11,)
        assert branches(enc) == [
            Branch(source=(s,), label=half if u else (0,), target=(u,), input=(u,))
            for s in (0, 1)
            for u in (0, 1)
        ]
        assert hom_table(enc.output) == [(0,), (0,), half, half]


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


def _zero_tailed_outputs(enc, s0, length, seed):
    """Outputs of a random ``length``-symbol word from ``s0`` and its zero tail."""
    rng = random.Random(seed)
    inputs = list(enc.input_group.elements())
    word = [rng.choice(inputs) for _ in range(length)]
    states, outputs = encode_forward(enc, s0, word)
    tail = zero_tail(enc, states[-1], max_len=enc.state_group.order + 1)
    return outputs + encode_forward(enc, states[-1], tail)[1]


def _rate_half_shift_register(p: int, m: int) -> dict:
    """The observed shift register with output ``(u, s_m)``: not every word is a codeword."""
    spec = observed_shift_register(p, m)
    spec["Y"] = {"factors": [p, p]}
    spec["omega"] = {"gen_images": [[1, 0]] + [[0, 0]] * (m - 1) + [[0, 1]]}
    return spec


class TestWitnessOnStreamShapes:
    """Label-id witness against the tuple-set reference on the stream workload shapes."""

    @pytest.mark.parametrize("p, m", STREAM_SHAPES)
    def test_zero_tailed_word_and_its_corruptions(self, p, m):
        enc = encoder_from_spec(observed_shift_register(p, m))
        s0 = tuple((i + 1) % p for i in range(m))
        outputs = _zero_tailed_outputs(enc, s0, 2048, seed=p * 10 + m)
        window = Window(enc.output_group, 0, outputs)
        witness = codeword_witness(enc, window)
        assert witness is not None and witness[0] == s0
        assert witness == reference_witness(enc, window)
        # y_t = u_{t-m}, so every finite word over Z_p is a codeword: a
        # corruption is accepted with another witness, never rejected
        rng = random.Random(m)
        for _ in range(4):
            t = rng.randrange(len(outputs))
            corrupted = list(outputs)
            corrupted[t] = ((corrupted[t][0] + rng.randrange(1, p)) % p,)
            window = Window(enc.output_group, 0, corrupted)
            expected = reference_witness(enc, window)
            assert codeword_witness(enc, window) == expected != witness

    @pytest.mark.parametrize("p, m", STREAM_SHAPES)
    def test_rejected_corruptions_of_the_rate_half_register(self, p, m):
        # the outputs fix the state sequence (s_m is the last input plus the
        # state's first coordinate), so a corruption of either coordinate of
        # any symbol is caught: eight random ones, then both coordinates of
        # the first symbol and of the last one before the zero tail
        enc = encoder_from_spec(_rate_half_shift_register(p, m))
        outputs = _zero_tailed_outputs(enc, (0,) * m, 256, seed=p * 10 + m)
        window = Window(enc.output_group, 0, outputs)
        assert codeword_witness(enc, window) == reference_witness(enc, window) is not None
        rng = random.Random(m)
        spots = [(rng.randrange(len(outputs)), rng.randrange(2)) for _ in range(8)]
        spots += [(t, c) for t in (0, 255) for c in range(2)]
        rejected = 0
        for t, c in spots:
            symbol = list(outputs[t])
            symbol[c] = (symbol[c] + rng.randrange(1, p)) % p
            corrupted = outputs[:t] + [tuple(symbol)] + outputs[t + 1 :]
            window = Window(enc.output_group, 0, corrupted)
            expected = reference_witness(enc, window)
            assert codeword_witness(enc, window) == expected
            rejected += expected is None
        assert rejected == 12

    def test_window_rejected_only_at_the_past_core(self):
        # On the rate-1/2 register the identity label (0, 0) leaves only the
        # zero state with an identity past, so the past core is {0}.  The
        # outputs of a word started at a nonzero state s0 name s0 (s_m reads
        # s_{m-1}, ..., s_1 over the next m steps), and each later state set
        # of the window is nonempty: the window is rejected only because its
        # first state set misses the past core.  Once the word that leads 0
        # to s0 is put in front, it is a codeword.  No encoder of the small
        # family (Y = Z_p) has such a window of up to eight symbols.
        enc = encoder_from_spec(_rate_half_shift_register(2, 4))
        past_core = _reference_identity_core(enc, branches(enc), backwards=True)
        assert past_core == {(0, 0, 0, 0)}
        s0 = (1, 0, 1, 1)
        outputs = _zero_tailed_outputs(enc, s0, 12, seed=3)
        window = Window(enc.output_group, 0, outputs)
        assert reference_witness(enc, window) is None
        assert codeword_witness(enc, window) is None
        lead = connected(enc, (0, 0, 0, 0), s0, max_len=16)
        prefix = encode_forward(enc, (0, 0, 0, 0), lead)[1]
        window = Window(enc.output_group, -len(prefix), prefix + outputs)
        witness = codeword_witness(enc, window)
        assert witness == reference_witness(enc, window) is not None
        assert witness[len(prefix)] == s0

    def test_symbol_that_labels_no_branch(self):
        # Y = Z2 x Z2 with output (s1, 0): (0, 1) is in the output group but
        # is emitted by no branch
        spec = observed_shift_register(2, 4)
        spec["Y"] = {"factors": [2, 2]}
        spec["omega"] = {"gen_images": [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0]]}
        enc = encoder_from_spec(spec)
        outputs = _zero_tailed_outputs(enc, (1, 0, 0, 1), 64, seed=5)
        window = Window(enc.output_group, 0, outputs)
        assert codeword_witness(enc, window) == reference_witness(enc, window) is not None
        outputs[30] = (0, 1)
        window = Window(enc.output_group, 0, outputs)
        assert reference_witness(enc, window) is None
        assert codeword_witness(enc, window) is None


    def test_injective_output_map_and_labels_the_window_does_not_read(self):
        # U = Z2, S = Z2^10 with the output (u, s, 0) in Z2^12: 2,048 labels
        # label a branch each, and the 2,048 with last coordinate 1 label none
        spec = observed_shift_register(2, 10)
        spec["Y"] = {"factors": [2] * 12}
        spec["omega"] = {"gen_images": [[int(j == i) for j in range(12)] for i in range(11)]}
        enc = encoder_from_spec(spec)
        outputs = _zero_tailed_outputs(enc, (0,) * 10, 4, seed=7)
        window = Window(enc.output_group, 0, outputs)
        assert codeword_witness(enc, window) == reference_witness(enc, window) is not None
        absent = outputs[:1] + [outputs[1][:11] + (1,)] + outputs[2:]
        # the output names the state, so a flipped state coordinate breaks the path
        flipped = list(outputs[2])
        flipped[3] ^= 1
        corrupted = outputs[:2] + [tuple(flipped)] + outputs[3:]
        for symbols in (absent, corrupted):
            window = Window(enc.output_group, 0, symbols)
            assert reference_witness(enc, window) is None
            assert codeword_witness(enc, window) is None


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


def reference_dot(enc, unrolled_sections):
    """``export_dot`` as one ``str.format`` template per block, filled per time step."""

    def label(group, a):
        return format_element(group, a).replace("{", "{{").replace("}", "}}")

    s_group = enc.state_group
    node_block = "".join(
        f'  "t{{0}}_s{i}" [label="{label(s_group, s)}"];\n'
        for i, s in enumerate(s_group.elements())
    )
    inputs = list(enc.input_group.elements())
    edge_block = "".join(
        f'  "t{{0}}_s{i}" -> "t{{1}}_s{s_group.index_of(nxt)}" '
        f'[label="{label(enc.input_group, u)}/{label(enc.output_group, y)}"];\n'
        for i, s in enumerate(s_group.elements())
        for u in inputs
        for nxt, y in [enc.step(u, s)]
    )
    parts = ["digraph trellis {\n  rankdir=LR;\n  node [shape=circle];\n"]
    parts += [node_block.format(t) for t in range(unrolled_sections + 1)]
    if unrolled_sections == 0:
        parts.append(edge_block.format(0, 0))
    parts += [edge_block.format(t, t + 1) for t in range(unrolled_sections)]
    return "".join(parts) + "}\n"


@pytest.mark.parametrize("sections", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "spec",
    [STATELESS, INPUTLESS, observed_shift_register(12, 2)],
    ids=["stateless", "inputless", "Z12-comma-joined"],
)
def test_export_dot_equals_format_reference(spec, sections):
    enc = encoder_from_spec(spec)
    assert export_dot(enc, sections) == reference_dot(enc, sections)


def _nonsplit_encoders(factors, generator):
    """Every encoder over the ambient group's decomposition by ``<generator>``, with output G."""
    g = make_group(factors)
    dec = decompose(g, subgroup_generated(g, [generator]))
    return [
        encoder_from_extension(dec, g, nu, identity_hom(g))
        for nu in enumerate_homs(g, dec.s_part, surjective_only=True)
    ]


def _checked_step(enc, u, s):
    """Next state and output by checked hom evaluation at the pair's ambient element."""
    g = enc.decomposition.pair_to_element(u, s)
    return enc.next_state(g), enc.output(g)


def _checked_run(enc, s, word):
    states, outputs = [], []
    for u in word:
        s, y = _checked_step(enc, u, s)
        states.append(s)
        outputs.append(y)
    return states, outputs


@pytest.mark.parametrize(
    "factors, generator", [([8], (4,)), ([2, 2, 2], (1, 1, 0))], ids=["Z8-over-4", "Z2^3-over-110"]
)
class TestNonsplitColumnsAgainstCheckedEvaluation:
    def test_encode_forward(self, factors, generator):
        rng = random.Random(15)
        for enc in _nonsplit_encoders(factors, generator):
            inputs = list(enc.input_group.elements())
            word = [rng.choice(inputs) for _ in range(12)]
            for s in enc.state_group.elements():
                assert encode_forward(enc, s, word) == _checked_run(enc, s, word)

    def test_state_preimages(self, factors, generator):
        for enc in _nonsplit_encoders(factors, generator):
            pairs = list(enc.decomposition.pairs())
            for s in enc.state_group.elements():
                expected = [(u, r) for u, r in pairs if _checked_step(enc, u, r)[0] == s]
                assert state_preimages(enc, s) == expected

    def test_extend_past(self, factors, generator):
        # each step back is the lexicographically least pair whose checked step lands on the state
        for enc in _nonsplit_encoders(factors, generator):
            pairs = sorted(enc.decomposition.pairs())
            for s in enc.state_group.elements():
                current = s
                for r, u, y in zip(*extend_past(enc, s, 4)):
                    least = next((a, b) for a, b in pairs if _checked_step(enc, a, b)[0] == current)
                    assert (u, r) == least
                    assert y == _checked_step(enc, u, r)[1]
                    current = r

    def test_dot_edge_lines(self, factors, generator):
        for enc in _nonsplit_encoders(factors, generator):
            s_group = enc.state_group
            expected = []
            for s in s_group.elements():
                for u in enc.input_group.elements():
                    nxt, y = _checked_step(enc, u, s)
                    u_label = format_element(enc.input_group, u)
                    y_label = format_element(enc.output_group, y)
                    expected.append(
                        f'  "t0_s{s_group.index_of(s)}" -> "t0_s{s_group.index_of(nxt)}" '
                        f'[label="{u_label}/{y_label}"];'
                    )
            assert edge_lines(export_dot(enc, 0)) == expected

    def test_codeword_witness_on_a_zero_tailed_word(self, factors, generator):
        rng = random.Random(15)
        checked = 0
        for enc in _nonsplit_encoders(factors, generator):
            diagram = []
            for s in enc.state_group.elements():
                for u in enc.input_group.elements():
                    nxt, y = _checked_step(enc, u, s)
                    diagram.append(Branch(source=s, label=y, target=nxt, input=u))
            assert branches(enc) == diagram  # the reference witness reads branches()
            inputs = list(enc.input_group.elements())
            e_s = enc.state_group.identity()
            states, outputs = _checked_run(enc, e_s, [rng.choice(inputs) for _ in range(10)])
            tail = zero_tail(enc, states[-1], max_len=enc.state_group.order + 1)
            if tail is None:
                continue
            outputs += _checked_run(enc, states[-1], tail)[1]
            window = Window(enc.output_group, 0, tuple(outputs))
            witness = codeword_witness(enc, window)
            assert witness is not None
            assert witness == reference_witness(enc, window)
            checked += 1
        assert checked


class TestTrivialOutputGroup:
    """Y = Z1: every branch emits the one empty symbol, so the columns hold output index 0."""

    @pytest.fixture
    def enc(self):
        return encoder_from_spec(SILENT)

    def test_columns_hold_only_the_identity_index(self, enc):
        assert enc._out == [0, 0, 0, 0]

    def test_witness_of_the_empty_window(self, enc):
        assert codeword_witness(enc, Window(enc.output_group, 0, ())) == [(0,)]

    def test_witness_of_identity_symbols(self, enc):
        window = Window(enc.output_group, 4, ((),) * 3)
        assert codeword_witness(enc, window) == [(0,)] * 4

    def test_branches(self, enc):
        assert branches(enc) == [
            Branch(source=(s,), label=(), target=(u,), input=(u,)) for s in (0, 1) for u in (0, 1)
        ]

    def test_step(self, enc):
        for u, s in itertools.product([(0,), (1,)], repeat=2):
            assert enc.step(u, s) == (u, ())

    def test_encode_forward(self, enc):
        assert encode_forward(enc, (1,), [(1,), (0,), (1,)]) == ([(1,), (0,), (1,)], [()] * 3)

    def test_extend_past(self, enc):
        assert extend_past(enc, (1,), 3) == ([(0,)] * 3, [(1,), (0,), (0,)], [()] * 3)
