from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys

import pytest

from groupcode import PredicateViolation, cli, control
from groupcode.cli import main
from groupcode.control import analysis_json
from groupcode.encoder import encode_forward, encoder_from_spec, zero_tail
from groupcode.errors import WrongGroup
from groupcode.groups import FiniteAbelianGroup, format_element
from groupcode.trellis import export_dot
from specs import HUGE_OUTPUT, INPUTLESS, RANK2_ACCUMULATOR, STATELESS, observed_shift_register

EX_SPEC = {
    "U": {"factors": [2]},
    "S": {"factors": [2, 2]},
    "Y": {"factors": [2, 2]},
    "nu": {"gen_images": [[0, 1], [0, 1], [1, 0]]},
    "omega": {"gen_images": [[1, 0], [0, 0], [0, 1]]},
}

FROZEN_SPEC = {
    "U": {"factors": [2]},
    "S": {"factors": [4]},
    "Y": {"factors": [2, 4]},
    "nu": {"gen_images": [[0], [1]]},
    "omega": {"gen_images": [[1, 0], [0, 1]]},
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "encoder.json"
    path.write_text(json.dumps(EX_SPEC))
    return str(path)


@pytest.fixture
def frozen_path(tmp_path):
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps(FROZEN_SPEC))
    return str(path)


class TestAnalyze:
    def test_controllable_verdict(self, spec_path, capsys):
        assert main(["analyze", spec_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["controllable"] is True
        assert payload["index"] == 2
        assert payload["chain_sizes"] == [1, 2, 4]

    def test_frozen_verdict(self, frozen_path, capsys):
        assert main(["analyze", frozen_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["controllable"] is False
        assert payload["index"] is None

    def test_round_trips_in_memory_verdict(self, spec_path, capsys, systematic_encoder):
        main(["analyze", spec_path])
        assert json.loads(capsys.readouterr().out) == analysis_json(systematic_encoder)

    def test_byte_identical_across_runs(self, spec_path, capsys):
        main(["analyze", spec_path])
        first = capsys.readouterr().out
        main(["analyze", spec_path])
        assert capsys.readouterr().out == first

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        # bad JSON, bytes that are not UTF-8, and nesting past the recursion limit
        for content in (b"{not json", b"\xff\xfe{}", b"[" * 200_000):
            path = tmp_path / "broken.json"
            path.write_bytes(content)
            assert main(["analyze", str(path)]) == 2
            assert f"groupcode: cannot read encoder spec {str(path)!r}: " in capsys.readouterr().err

    def test_invalid_encoder_exits_2(self, tmp_path, capsys):
        bad = dict(EX_SPEC)
        bad["nu"] = {"gen_images": [[0, 0], [0, 0], [0, 0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["analyze", str(path)]) == 2
        assert "invalid encoder spec" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("S", {"factors": [2.7, 2]}),
            ("S", {"factors": "22"}),
            ("U", {"factors": [2.0]}),
            ("nu", {"gen_images": [[True, 1], [0, 1], [1, 0]]}),
            ("omega", {"gen_images": [[0.5, 0], [0, 0], [0, 1]]}),
            ("omega", {"gen_images": [[1.0, 0], [0, 0], [0, 1]]}),
        ],
    )
    def test_non_integer_wire_values_exit_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(EX_SPEC, **{key: value})))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid encoder spec" in err
        assert "Traceback" not in err


def _rate_half_shift_register(m: int) -> dict:
    """``(s1..sm) -> (s2..sm, u + s1)`` over Z2^m with output ``(u, sm)``."""
    unit = [[int(i == j) for j in range(m)] for i in range(m)]
    return {
        "U": {"factors": [2]},
        "S": {"factors": [2] * m},
        "Y": {"factors": [2, 2]},
        "nu": {"gen_images": [unit[m - 1]] + [unit[(i - 1) % m] for i in range(m)]},
        "omega": {"gen_images": [[1, 0]] + [[0, 0]] * (m - 1) + [[0, 1]]},
    }


def _limit_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "argv", [["analyze"], ["encode", "--inputs", "1"]], ids=["analyze", "encode"]
)
def test_oversized_spec_exits_2_at_once(tmp_path, argv):
    # 2^25 (u, s) pairs: refused before any table is built; under a 1 GB
    # address-space limit a build would die of MemoryError and exit 1
    path = tmp_path / "shift-2^24.json"
    path.write_text(json.dumps(_rate_half_shift_register(24)))
    proc = subprocess.run(
        [sys.executable, "-m", "groupcode", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"groupcode: invalid encoder spec {str(path)!r}: "
        "|U| * |S| = 33554432 exceeds the encoder guard 1048576\n"
    )


def _corrupt_reach(monkeypatch, level, state, value):
    """Make the brute-force oracle report the mask ``value`` for ``state`` at ``level``."""
    original = control.exact_reach

    def corrupted(enc, max_len):
        table = list(original(enc, max_len))
        table[level][enc.state_group.index_of(state)] = value(enc)
        return table

    monkeypatch.setattr(control, "exact_reach", corrupted)


def _drop_state_11(monkeypatch):
    """Drop state 11 (bit 3) from every span the chain builds, so its level 2 is {00, 01, 10}."""
    original = control._span_mask
    monkeypatch.setattr(control, "_span_mask", lambda *args: original(*args) & ~(1 << 3))


def _dropping_reach(enc, max_len):
    """An oracle that pushes every start state's mask through ``control._step``, dropping state 11."""
    result = [[1 << i for i in range(enc.state_group.order)]]
    for _ in range(max_len):
        result.append([control._step(enc, mask) & ~(1 << 3) for mask in result[-1]])
    return result


class TestOracleDisagreement:
    @pytest.mark.parametrize(
        "level, state, value, name",
        [
            (1, (0, 0), lambda enc: 0, "chain_matches_exact_reach"),
            (2, (1, 1), lambda enc: 1, "index_reaches_every_state"),
            (
                1,
                (1, 1),
                lambda enc: (1 << enc.state_group.order) - 1,
                "index_is_minimal",
            ),
            # one step past the chain's stop at level 2
            (3, (0, 0), lambda enc: 1, "chain_matches_exact_reach"),
        ],
    )
    def test_analyze_exits_1(self, spec_path, capsys, monkeypatch, level, state, value, name):
        _corrupt_reach(monkeypatch, level, state, value)
        assert main(["analyze", spec_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err
        assert "counterexample" in captured.err

    def test_sweep_exits_1(self, capsys, monkeypatch):
        _corrupt_reach(monkeypatch, 0, (), lambda enc: 0)
        assert main(["sweep", "--p", "2", "--max-s-order", "1"]) == 1
        assert "chain_matches_exact_reach" in capsys.readouterr().err

    def test_level_that_is_not_a_subgroup_exits_1(self, spec_path, capsys, monkeypatch):
        # dropping state 11 (bit 3) from every span leaves the level
        # {00, 01, 10}; an oracle whose one-step images drop the same state
        # agrees with it, so the closure predicate is what fails
        _drop_state_11(monkeypatch)
        monkeypatch.setattr(control, "exact_reach", _dropping_reach)
        assert main(["analyze", spec_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chain_levels_are_subgroups" in captured.err
        assert "Traceback" not in captured.err

    def test_corrupted_image_alone_is_caught_by_the_oracle(self, spec_path, capsys, monkeypatch):
        # the oracle pulls levels over the transition graph without a span,
        # so the level {00, 01, 10} disagrees with its exact two-step reach
        _drop_state_11(monkeypatch)
        assert main(["analyze", spec_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "groupcode: structural predicate violated: predicate "
            "'chain_matches_exact_reach' violated, counterexample: "
            "(2, [(0, 0), (0, 1), (1, 0), (1, 1)])\n"
        )

    def test_absorbed_kernel_witness_is_the_stray_states(self, tmp_path, capsys, monkeypatch):
        # next state (s1, s2, s3) -> (s3, s2, u): the past kernel is {000, 100}
        # (mask 0b10001) inside the stable level {000, 001, 100, 101}; adding
        # state 010 (bit 2) to the kernel's image, which no single step
        # reaches, fails the predicate with the stray states as counterexample
        path = tmp_path / "forgetful.json"
        path.write_text(json.dumps({
            "U": {"factors": [2]},
            "S": {"factors": [2, 2, 2]},
            "Y": {"factors": [2, 2, 2, 2]},
            "nu": {"gen_images": [[0, 0, 1], [0, 0, 0], [0, 1, 0], [1, 0, 0]]},
            "omega": {"gen_images": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        }))
        original = control._step
        monkeypatch.setattr(
            control,
            "_step",
            lambda enc, mask: original(enc, mask) | (1 << 2 if mask == 0b10001 else 0),
        )
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "groupcode: structural predicate violated: predicate "
            "'past_kernel_images_absorbed' violated, counterexample: (2, [(0, 1, 0)])\n"
        )

    def test_violation_survives_pickling(self):
        # a caller's own process pool returns exceptions to its parent by pickling
        exc = pickle.loads(pickle.dumps(PredicateViolation("index_is_minimal", (1, (1, 1)))))
        assert (exc.name, exc.counterexample) == ("index_is_minimal", (1, (1, 1)))
        assert "index_is_minimal" in str(exc)


class TestEncode:
    def test_state_column_matches_reference_run(self, spec_path, capsys):
        assert main(
            ["encode", spec_path, "--state", "0,0", "--inputs", "0,1,1,1,0,1,0"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        states = [line.split()[2] for line in lines[1:]]
        assert states == ["00", "01", "11", "10", "01", "11", "11"]

    def test_zero_tail_appends_padding(self, spec_path, capsys):
        assert main(
            [
                "encode",
                spec_path,
                "--state",
                "0,0",
                "--inputs",
                "0,1,1,1,0,1,0",
                "--zero-tail",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[1:]]
        assert len(rows) == 9
        assert [r[1] for r in rows[-2:]] == ["1", "1"]
        assert rows[-1][2] == "00"

    def test_empty_inputs(self, spec_path, capsys):
        assert main(["encode", spec_path, "--state", "0,0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # header only

    def test_renders_only_the_rows_it_visits(self, tmp_path, capsys, monkeypatch):
        # each label call gets at most one index per row: no table of all 2^16 states
        path = tmp_path / "register.json"
        path.write_text(json.dumps(observed_shift_register(2, 16)))
        original = cli.element_labels
        sizes = []

        def counted(group, indices):
            sizes.append(len(indices))
            return original(group, indices)

        monkeypatch.setattr(cli, "element_labels", counted)
        assert main(["encode", str(path), "--inputs", "1,0,1", "--zero-tail"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[1] for r in rows[:3]] == ["1", "0", "1"]
        assert rows[-1][2] == "0" * 16
        assert len(sizes) == 3
        assert max(sizes) <= len(rows)

    def test_builds_no_state_index(self, tmp_path, capsys, monkeypatch):
        # the start state and the zero-tail search index S in O(rank) each,
        # so the 2^16 states are never listed and nothing is left on S
        path = tmp_path / "register.json"
        path.write_text(json.dumps(observed_shift_register(2, 16)))
        listed = []
        original = FiniteAbelianGroup.elements

        def counted(self):
            listed.append(self)
            return original(self)

        monkeypatch.setattr(FiniteAbelianGroup, "elements", counted)
        assert main(["encode", str(path), "--inputs", "1,0,1", "--zero-tail"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows[-1][2] == "0" * 16
        assert 2**16 not in [g.order for g in listed]

    def test_bad_symbol_exits_2(self, spec_path, capsys):
        assert main(["encode", spec_path, "--state", "0,0", "--inputs", "0,7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input symbol (7,) is not in the input group" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_state_exits_2(self, spec_path):
        assert main(["encode", spec_path, "--state", "5,0", "--inputs", "0"]) == 2

    def test_input_list_must_fill_the_input_rank(self, tmp_path, capsys):
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps({
            "U": {"factors": [2, 2]},
            "S": {"factors": [2]},
            "Y": {"factors": [2, 2]},
            "nu": {"gen_images": [[1], [0], [1]]},
            "omega": {"gen_images": [[1, 0], [0, 1], [0, 0]]},
        }))
        assert main(["encode", str(path), "--inputs", "1,0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "groupcode: input list length 3 is not a multiple of the input rank 2\n"
        )

    def test_start_state_defaults_to_identity(self, spec_path, capsys):
        assert main(["encode", spec_path, "--inputs", "0,1,1"]) == 0
        default = capsys.readouterr().out
        assert main(["encode", spec_path, "--state", "0,0", "--inputs", "0,1,1"]) == 0
        assert capsys.readouterr().out == default

    def test_zero_tail_reports_an_unreachable_identity(self, frozen_path, capsys):
        assert main(["encode", frozen_path, "--state", "1", "--zero-tail"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "zero tail: identity state unreachable within 5 steps"
        assert len(lines) == 2  # the header follows, with no rows

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--inputs", "1,,0"),
            ("--inputs", ",1"),
            ("--inputs", "1,"),
            ("--state", "0,0,"),
            ("--state", ",0,0"),
        ],
    )
    def test_empty_coordinate_field_exits_2(self, spec_path, capsys, flag, value):
        argv = ["encode", spec_path, "--state", "0,0", "--inputs", "0,1"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot parse coordinates {value!r}" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--inputs", "1_0"),
            ("--inputs", "٣"),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
            ("--inputs", "0,1_1"),
            ("--inputs", "1_0, ٣"),
            ("--state", "5,1_1"),
        ],
    )
    def test_underscores_and_non_ascii_digits_exit_2(self, tmp_path, capsys, flag, value):
        path = tmp_path / "z12.json"
        path.write_text(json.dumps(observed_shift_register(12, 2)))
        argv = ["encode", str(path), "--state", "5,11", "--inputs", "1,3"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot parse coordinates {value!r}" in captured.err

    def test_spaces_and_signs_around_fields_are_read(self, tmp_path, capsys):
        path = tmp_path / "z12.json"
        path.write_text(json.dumps(observed_shift_register(12, 2)))
        assert main(["encode", str(path), "--state", "5,11", "--inputs", "10,3"]) == 0
        plain = capsys.readouterr().out
        assert main(["encode", str(path), "--state", " +5,11 ", "--inputs", " 10 ,+3"]) == 0
        assert capsys.readouterr().out == plain

    def test_trivial_input_group_reads_only_zeros(self, tmp_path, capsys):
        # each listed coordinate is one empty symbol, written 0
        path = tmp_path / "inputless.json"
        path.write_text(json.dumps(INPUTLESS))
        assert main(["encode", str(path), "--state", "1", "--inputs", "0,0,0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4  # the header and three steps
        assert main(["encode", str(path), "--state", "1", "--inputs", "5,5,5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "groupcode: input coordinate 5 is not 0, the trivial input group's one symbol\n"
        )

    def test_empty_strings_mean_no_coordinates(self, tmp_path, capsys):
        # a trivial state group has the empty coordinate tuple as its one state
        path = tmp_path / "stateless.json"
        path.write_text(json.dumps(STATELESS))
        assert main(["encode", str(path), "--state", "", "--inputs", ""]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == []
        assert main(["encode", str(path), "--state", "", "--inputs", "1,0"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["1", "1", "()", "1"], ["2", "0", "()", "0"]]


def reference_encode_table(enc, s0, word, with_zero_tail):
    """The ``encode`` table on elements: ``encode_forward``, then one format per row."""
    states, outputs = encode_forward(enc, s0, word)
    rows = list(zip(word, states, outputs))
    lines = []
    if with_zero_tail:
        final = states[-1] if states else s0
        limit = enc.state_group.order + 1
        padding = zero_tail(enc, final, max_len=limit)
        if padding is None:
            lines.append(f"zero tail: identity state unreachable within {limit} steps\n")
        else:
            rows += zip(padding, *encode_forward(enc, final, padding))
    lines.append(f"{'i':>4}  {'u':<8} {'s':<10} {'y':<10}\n")
    u_group, s_group, y_group = enc.input_group, enc.state_group, enc.output_group
    for i, (u, s, y) in enumerate(rows, start=1):
        lines.append(
            f"{i:>4}  {format_element(u_group, u):<8} {format_element(s_group, s):<10} "
            f"{format_element(y_group, y):<10}\n"
        )
    return "".join(lines)


def _random_word(group, length, seed):
    elements = list(group.elements())
    rng = random.Random(seed)
    return [rng.choice(elements) for _ in range(length)]


class TestEncodeMatchesElementReference:
    """``encode`` runs on pair indices; its bytes equal the element-path renderer."""

    @pytest.mark.parametrize(
        "spec, s0, length, with_zero_tail",
        [
            (RANK2_ACCUMULATOR, (1, 2), 40, True),
            (RANK2_ACCUMULATOR, (0, 1), 40, False),
            (INPUTLESS, (1,), 5, True),  # 1 -> 2 -> 1 never reaches 0
            (INPUTLESS, (0,), 5, True),  # already at 0: the padding is empty
            (STATELESS, (), 12, True),
            (observed_shift_register(12, 2), (5, 11), 64, True),
            (observed_shift_register(2, 4), (1, 0, 1, 1), 10_050, True),
            (FROZEN_SPEC, (1,), 7, True),  # unreachable identity after a word
        ],
        ids=[
            "rank2-zero-tail",
            "rank2",
            "inputless-unreachable",
            "inputless-reachable",
            "stateless",
            "Z12-comma-joined",
            "row-numbers-past-four-digits",
            "frozen-unreachable",
        ],
    )
    def test_bytes_equal_reference(self, tmp_path, capsys, spec, s0, length, with_zero_tail):
        enc = encoder_from_spec(spec)
        word = _random_word(enc.input_group, length, seed=length)
        path = tmp_path / "encoder.json"
        path.write_text(json.dumps(spec))
        if enc.input_group.factors:
            inputs = ",".join(str(c) for u in word for c in u)
        else:  # a trivial input group reads one empty symbol per listed coordinate
            inputs = ",".join("0" for _ in word)
        argv = ["encode", str(path), "--state", ",".join(map(str, s0)), "--inputs", inputs]
        assert main(argv + ["--zero-tail"] * with_zero_tail) == 0
        assert capsys.readouterr().out == reference_encode_table(enc, s0, word, with_zero_tail)

    def test_foreign_symbol_mid_word(self, tmp_path, capsys):
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps(RANK2_ACCUMULATOR))
        assert main(["encode", str(path), "--inputs", "0,1,1,3,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "groupcode: input symbol (1, 3) is not in the input group\n"
        enc = encoder_from_spec(RANK2_ACCUMULATOR)
        with pytest.raises(WrongGroup) as raised:
            encode_forward(enc, (0, 0), [(0, 1), (1, 3), (0, 0)])
        assert str(raised.value) == "input symbol (1, 3) is not in the input group"


class TestTrellis:
    def test_write_state_diagram(self, spec_path, tmp_path, capsys):
        out = tmp_path / "diagram.dot"
        assert main(["trellis", spec_path, "--sections", "0", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("->") == 8
        assert 'label="1/10"' in text

    def test_three_sections_to_stdout(self, spec_path, capsys):
        assert main(["trellis", spec_path, "--sections", "3"]) == 0
        text = capsys.readouterr().out
        assert text.count("->") == 24
        assert '"t3_s3"' in text

    @pytest.mark.parametrize("sections", [0, 1, 2, 3, 7])
    def test_streamed_bytes_equal_export_dot(
        self, spec_path, tmp_path, capsys, systematic_encoder, sections
    ):
        expected = export_dot(systematic_encoder, sections)
        out = tmp_path / "trellis.dot"
        argv = ["trellis", spec_path, "--sections", str(sections)]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_closed_stdout_pipe_exits_3(self, spec_path):
        # about 9 MB of DOT: far more than a pipe buffers, so the writer must
        # still be writing when the reader closes the pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "groupcode", "trellis", spec_path, "--sections", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"digraph trellis {\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 3
        assert "groupcode: cannot write stdout: [Errno 32] Broken pipe" in err
        assert "Traceback" not in err

    def test_negative_sections_exit_2(self, spec_path):
        assert main(["trellis", spec_path, "--sections", "-1"]) == 2

    def test_unwritable_path_exits_3(self, spec_path):
        assert (
            main(
                [
                    "trellis",
                    spec_path,
                    "--sections",
                    "0",
                    "--out",
                    "/nonexistent-dir-for-test/out.dot",
                ]
            )
            == 3
        )


class TestHugeOutputGroup:
    """Y = Z_{10^12}: labels are rendered from the output indices in use, never from a table."""

    @pytest.fixture
    def huge_path(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(HUGE_OUTPUT))
        return str(path)

    def test_encode(self, huge_path, capsys):
        assert main(["encode", huge_path, "--inputs", "1,0"]) == 0
        assert capsys.readouterr().out == (
            "   i  u        s          y         \n"
            "   1  1        1          500000000000\n"
            "   2  0        0          0         \n"
        )

    def test_trellis(self, huge_path, capsys):
        assert main(["trellis", huge_path, "--sections", "1"]) == 0
        assert capsys.readouterr().out == (
            "digraph trellis {\n"
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  "t0_s0" [label="0"];\n'
            '  "t0_s1" [label="1"];\n'
            '  "t1_s0" [label="0"];\n'
            '  "t1_s1" [label="1"];\n'
            '  "t0_s0" -> "t1_s0" [label="0/0"];\n'
            '  "t0_s0" -> "t1_s1" [label="1/500000000000"];\n'
            '  "t0_s1" -> "t1_s0" [label="0/0"];\n'
            '  "t0_s1" -> "t1_s1" [label="1/500000000000"];\n'
            "}\n"
        )


class TestSweep:
    def test_summary_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["sweep", "--p", "2", "--max-s-order", "4", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "[2,2]" in summary
        report = json.loads(out.read_text())
        assert report["checks"]["predicate_violations"] == 0
        assert report["parameters"] == {
            "deduplicated": True,
            "max_state_order": 4,
            "primes": [2],
        }

    def test_byte_identical_report(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["sweep", "--p", "2,3", "--max-s-order", "3", "--out", str(out1)])
        first_stdout = capsys.readouterr().out
        main(["sweep", "--p", "2,3", "--max-s-order", "3", "--out", str(out2)])
        assert capsys.readouterr().out == first_stdout
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "primes, max_s_order, message",
        [
            (",", "2", "no primes given"),
            ("2,x", "2", "cannot parse prime list '2,x'"),
            ("2", "0", "max_s_order must be at least 1"),
        ],
    )
    def test_bad_grid_exits_2(self, capsys, primes, max_s_order, message):
        assert main(["sweep", "--p", primes, "--max-s-order", max_s_order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"groupcode: {message}\n"

    def test_not_prime_exits_2(self, capsys):
        assert main(["sweep", "--p", "4", "--max-s-order", "2"]) == 2
        assert "not prime" in capsys.readouterr().err

    def test_guard_exits_2(self):
        assert main(["sweep", "--p", "2", "--max-s-order", "129"]) == 2

    def test_guard_precedes_primality_test(self):
        # trial division of this prime would take minutes; the guard refuses
        # it first (in a child process, so a hang fails the test)
        proc = subprocess.run(
            [sys.executable, "-m", "groupcode", "sweep", "--p", "1000000000000000003",
             "--max-s-order", "1"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "groupcode: p * max_s_order = 1000000000000000003 exceeds the exhaustive guard 256\n"
        )

    def test_unwritable_out_exits_3(self, capsys):
        out = "/nonexistent-dir-for-test/r.json"
        assert main(["sweep", "--p", "2", "--max-s-order", "2", "--out", out]) == 3
        assert "groupcode: cannot write" in capsys.readouterr().err

    def test_hom_count_guard_exits_2(self, capsys):
        # p * |S| = 64 passes the ambient guard; Z2^6 -> Z2^5 has 2^30 homs
        assert main(["sweep", "--p", "2", "--max-s-order", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "G = Z2 x Z2 x Z2 x Z2 x Z2 x Z2: 1073741824 homomorphisms" in captured.err


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "SPEC"],
            ["encode", "SPEC", "--inputs", "0,1,1"],
            ["trellis", "SPEC", "--sections", "2"],
            ["sweep", "--p", "2", "--max-s-order", "2"],
        ],
        ids=["analyze", "encode", "trellis", "sweep"],
    )
    def test_exits_3(self, spec_path, argv):
        # the read end is closed before the command starts, so even the
        # smallest output meets a broken pipe
        argv = [spec_path if arg == "SPEC" else arg for arg in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "groupcode", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 3
        assert err == "groupcode: cannot write stdout: [Errno 32] Broken pipe\n"


class TestEntryPoint:
    def test_module_invocation(self, spec_path):
        result = subprocess.run(
            [sys.executable, "-m", "groupcode", "analyze", spec_path],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["controllable"] is True
