from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import pytest

from groupcode import PredicateViolation, control
from groupcode.cli import main
from groupcode.control import analysis_json
from groupcode.trellis import export_dot

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


def _corrupt_reach(monkeypatch, level, state, value):
    """Make the brute-force oracle report the mask ``value`` for ``state`` at ``level``."""
    original = control.exact_reach

    def corrupted(enc, max_len):
        table = original(enc, max_len)
        table[level][enc.state_group.index_of(state)] = value(enc)
        return table

    monkeypatch.setattr(control, "exact_reach", corrupted)


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
        # dropping state 11 (bit 3) from every image leaves the level
        # {00, 01, 10}, which the oracle (built from the same one-step images)
        # agrees with
        original = control._image
        monkeypatch.setattr(
            control, "_image", lambda mask, table: original(mask, table) & ~(1 << 3)
        )
        assert main(["analyze", spec_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chain_levels_are_subgroups" in captured.err
        assert "Traceback" not in captured.err

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
        original = control._image
        monkeypatch.setattr(
            control,
            "_image",
            lambda mask, table: original(mask, table) | (1 << 2 if mask == 0b10001 else 0),
        )
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "groupcode: structural predicate violated: predicate "
            "'past_kernel_images_absorbed' violated, counterexample: (2, [(0, 1, 0)])\n"
        )

    def test_violation_survives_pickling(self):
        # sweep workers return exceptions to the parent process by pickling
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

    def test_empty_strings_mean_no_coordinates(self, tmp_path, capsys):
        # a trivial state group has the empty coordinate tuple as its one state
        path = tmp_path / "stateless.json"
        path.write_text(json.dumps({
            "U": {"factors": [2]},
            "S": {"factors": []},
            "Y": {"factors": [2]},
            "nu": {"gen_images": [[]]},
            "omega": {"gen_images": [[1]]},
        }))
        assert main(["encode", str(path), "--state", "", "--inputs", ""]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == []
        assert main(["encode", str(path), "--state", "", "--inputs", "1,0"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["1", "1", "()", "1"], ["2", "0", "()", "0"]]


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
