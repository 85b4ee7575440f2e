"""Golden output bytes and call counts: each fact is computed once per encoder."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from groupcode import (
    Window,
    control,
    encode_forward,
    encoder,
    extension,
    groups,
    sweep,
    trellis,
    zero_tail,
)
from groupcode.control import analysis_json, decide_controllability, exact_reach, structure_report
from groupcode.groups import (
    GroupHom,
    Subgroup,
    abelian_groups_of_order,
    all_subgroups,
    enumerate_homs,
    make_group,
    prime_order_subgroups,
    recognize_with_iso,
)
from groupcode.cli import main
from groupcode.encoder import Encoder, encoder_from_spec, encoder_to_spec
from groupcode.sweep import _json_pieces, enumerate_encoders, enumerate_extensions, sweep_theorems
from groupcode.trellis import codeword_witness, export_dot
from coordinate_records import RECORDS
from specs import SILENT, observed_shift_register


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _count_calls(monkeypatch, modules, name: str) -> list:
    """Wrap ``name`` in every listed module namespace; returns the call log."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _count_builds(monkeypatch, cls, name: str) -> list:
    """Wrap the cached property ``cls.name``; returns the log of instances it was built for."""
    built = []
    original = vars(cls)[name].func

    def counted(self):
        built.append(self)
        return original(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return built


def test_sweep_report_bytes():
    report = sweep_theorems([2, 3], 6)
    assert (
        _sha256(_canonical(report.to_json_dict()))
        == "33a78e4962662e8bf32570067a726e7be3dae9569241290efa23f918dbb4aaa8"
    )


def test_sweep_report_bytes_up_to_order_nine():
    # the grid the benchmark's sweep workload runs
    report = sweep_theorems([2, 3], 9)
    assert (
        _sha256(_canonical(report.to_json_dict()))
        == "f62d30b989cfdcdd782e083c6a4a4498af3b212b8c9d3f78971e0f50be7e1766"
    )


def test_sweep_report_bytes_without_dedup():
    # every qualifying subgroup N, most of them not a coordinate subgroup
    report = sweep_theorems([2, 3], 9, dedup=False)
    assert report.totals["instances"] == 91
    assert report.totals["encoders"] == 47251
    assert (
        _sha256(_canonical(report.to_json_dict()))
        == "ddb82189b918d1277c62c2809dbe773fbc5c66e3ba276ac6830fd95244a7927d"
    )
    # several instances per (p, S) row of the table
    assert (
        _sha256(report.summary_table())
        == "bad0365cf0db9bdefae12b5235b1942d9837f5fc3f9c41b4df4e806ccc4aa04d"
    )


@pytest.mark.parametrize(
    "dedup, digest",
    [
        (True, "a45609fb46082a6cc66efe0005c16d0741983afd4a8d89b4c464aadd970822ed"),
        (False, "2e76e307bebb7947e629e766dac6e2b094f6e24a38277f49ed36c5bc1b663f24"),
    ],
)
def test_sweep_report_bytes_odd_primes(dedup, digest):
    # p in {5, 7}: unit scalings of order greater than two among the symmetries
    report = sweep_theorems([5, 7], 16, dedup=dedup)
    assert _sha256("".join(_json_pieces(report))) == digest


def test_readme_analysis_bytes(systematic_encoder):
    assert (
        _sha256(_canonical(analysis_json(systematic_encoder)))
        == "a4e736641330af4f365e60cc5eab5d66ee64be68dae6ce5cc16d15d615fecb54"
    )


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(language: str) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(_readme_block("python"), str(README), "exec"), {})
    assert capsys.readouterr().out == "True 2\n"


@pytest.mark.parametrize(
    "max_s_order, dedup, digest",
    [
        (6, True, "33a78e4962662e8bf32570067a726e7be3dae9569241290efa23f918dbb4aaa8"),
        (9, True, "f62d30b989cfdcdd782e083c6a4a4498af3b212b8c9d3f78971e0f50be7e1766"),
        (9, False, "ddb82189b918d1277c62c2809dbe773fbc5c66e3ba276ac6830fd95244a7927d"),
    ],
)
def test_streamed_sweep_report_bytes(max_s_order, dedup, digest):
    # the pieces the CLI writes hash to the pinned digests of the indented dump
    report = sweep_theorems([2, 3], max_s_order, dedup=dedup)
    assert _sha256("".join(_json_pieces(report))) == digest


def test_readme_wire_format_round_trips():
    spec = json.loads(_readme_block("json"))
    assert encoder_to_spec(encoder_from_spec(spec)) == spec


# (s1, s2, s3) -> (s2, s3, s1 + 2u) over Z4^3: the chain stops at the 8 states
# of order at most 2
STUCK_Z4_CUBE = {
    "U": {"factors": [2]},
    "S": {"factors": [4, 4, 4]},
    "Y": {"factors": [4]},
    "nu": {"gen_images": [[0, 0, 2], [0, 0, 1], [1, 0, 0], [0, 1, 0]]},
    "omega": {"gen_images": [[2], [1], [0], [0]]},
}


# a state group of mixed moduli Z2 x Z4 x Z8: translations cross digits of
# three different strides; the chain stops at 8 states
MIXED_MODULI = {
    "U": {"factors": [2]},
    "S": {"factors": [2, 4, 8]},
    "Y": {"factors": [2, 2, 4, 8]},
    "nu": {"gen_images": [[1, 0, 0], [0, 2, 4], [1, 3, 6], [0, 2, 1]]},
    "omega": {"gen_images": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
}


@pytest.mark.parametrize(
    "spec, chain_sizes, digest",
    [
        (
            observed_shift_register(2, 8),
            [2**i for i in range(9)],
            "3d7937b92a9b4b65a99052283b0685cdb998200bf49604f74b3199630e7657aa",
        ),
        (
            STUCK_Z4_CUBE,
            [1, 2, 4, 8],
            "7466909bdc2c7bb0f26db05a0c1cbb17698c4c806f84ec0deb8a9b6323919fbd",
        ),
        (
            MIXED_MODULI,
            [1, 2, 4, 8],
            "50bafc418f7b83b7e9762871de3d5fc60761e9dfb0d856ec673d29bf0bc396e2",
        ),
    ],
    ids=["controllable-Z2^8", "stuck-Z4^3", "stuck-Z2xZ4xZ8"],
)
def test_analysis_bytes_at_scale(spec, chain_sizes, digest):
    payload = analysis_json(encoder_from_spec(spec))
    assert payload["chain_sizes"] == chain_sizes
    assert _sha256(_canonical(payload)) == digest


# sha256 of each encoder column, its entries in decimal and comma-joined,
# recorded from the per-coordinate list tabulation the slot columns replaced
COLUMN_DIGESTS = {
    (2, 16): {
        "_next": "823f9f425910aa9cabed9fca7445b1025515938a5d6a74595e2a4d4976162093",
        "_out": "cc30d25cdc4ac47ab45ae14c1a4d02fdb4f87424221e98d323779004587a09fb",
    },
    (3, 9): {
        "_next": "923b8c997754b9fc49d1431737959c5fcb9904aa04b8093717b4e9d452ef3093",
        "_out": "b8e8bb9d39f6a58b3a1cad3835c5dfebb9ed5e7e11aca31eef40f7582fb40cfc",
    },
}


@pytest.mark.parametrize("p, m", sorted(COLUMN_DIGESTS))
def test_encoder_column_bytes(p, m):
    enc = encoder_from_spec(observed_shift_register(p, m))
    digests = {name: _sha256(",".join(map(str, getattr(enc, name)))) for name in ("_next", "_out")}
    assert digests == COLUMN_DIGESTS[(p, m)]


def test_analyze_rate_half_shift_register_with_4096_states(tmp_path):
    # (s1..s12) -> (s2..s12, u + s1) with output (u, s12): the brute-force
    # oracle over all 4,096 start states has to finish well inside the timeout
    m = 12
    spec = observed_shift_register(2, m)
    spec["Y"] = {"factors": [2, 2]}
    spec["omega"] = {"gen_images": [[1, 0]] + [[0, 0]] * (m - 1) + [[0, 1]]}
    path = tmp_path / "shift-2^12.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "groupcode", "analyze", str(path)],
        capture_output=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["controllable"]
    assert payload["index"] == m
    assert payload["chain_sizes"] == [2**i for i in range(m + 1)]


STREAM_CASES = {
    (2, 5): {
        "encode": "c3b2b47528c004eb455975be59c5e86738993c0f461f7dc86cf2eae18b3cd344",
        "trellis": "68cb3faca32c8c2a0b10f01fd4a15bb3e04791401075f5c00193fd67d9a33582",
    },
    (3, 3): {
        "encode": "72a64816691014f3e6f01d5c344d4afc58631b9095aec58d3eeaa0e609be0253",
        "trellis": "ad85ce64e355aec103a8810d7315059d77831b44899ed54849e42445cbe5d967",
    },
}


@pytest.mark.parametrize("p, m", sorted(STREAM_CASES))
def test_stream_output_bytes(tmp_path, capsys, p, m):
    spec = tmp_path / "encoder.json"
    spec.write_text(json.dumps(observed_shift_register(p, m)))
    state = ",".join(str((i + 1) % p) for i in range(m))
    word = ",".join(str((i * i + 3 * i + 1) % p) for i in range(64))
    argv = ["encode", str(spec), "--state", state, "--inputs", word, "--zero-tail"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    dot = tmp_path / "trellis.dot"
    assert main(["trellis", str(spec), "--sections", "32", "--out", str(dot)]) == 0
    digests = {"encode": _sha256(table), "trellis": _sha256(dot.read_text())}
    assert digests == STREAM_CASES[(p, m)]


# Z_12 coordinates: moduli above 10 print comma-joined, so this pins the
# second branch of format_element in every label of the stream outputs
WIDE_STREAM_DIGESTS = {
    "encode": "6a3d14d6b44b4652af8b6e6e25a00b743bb425a656d5bdddc7f6a03e9729e2e5",
    "trellis-k0": "2fa8108ed5317dbd14c7a1cf747eab95851aed815f049ce9545ae3ba690604c3",
    "trellis-k3": "167c4a7386380eadeda4cb3f836d5ee0c248b678faedf66c51f004607e99c7b6",
}


def test_stream_output_bytes_with_comma_joined_labels(tmp_path, capsys):
    spec = tmp_path / "encoder.json"
    spec.write_text(json.dumps(observed_shift_register(12, 2)))
    word = ",".join(str((i * i + 3 * i + 1) % 12) for i in range(64))
    argv = ["encode", str(spec), "--state", "5,11", "--inputs", word, "--zero-tail"]
    assert main(argv) == 0
    digests = {"encode": _sha256(capsys.readouterr().out)}
    for k in (0, 3):
        assert main(["trellis", str(spec), "--sections", str(k)]) == 0
        digests[f"trellis-k{k}"] = _sha256(capsys.readouterr().out)
    assert digests == WIDE_STREAM_DIGESTS


# the empty output symbol renders as "()" in every label of the trivial output group
SILENT_DIGESTS = {
    "analyze": "33e4abffce4e6b5bc965d2636a485ee75473c0e7b35feeb0143b3099462a590a",
    "encode": "c33db8acc4eb762b29f09c3a72626000a5a41b4ca8d4f6b43cd33cde5e1ac586",
    "trellis": "abe78c9554b10fa3879aa4ad422721b2a6c34eb6a4b1f86cabaff47211d171e4",
}


def test_trivial_output_group_bytes(tmp_path, capsys):
    spec = tmp_path / "encoder.json"
    spec.write_text(json.dumps(SILENT))
    runs = {
        "analyze": ["analyze", str(spec)],
        "encode": ["encode", str(spec), "--inputs", "1,0,1", "--zero-tail"],
        "trellis": ["trellis", str(spec), "--sections", "2"],
    }
    digests = {}
    for name, argv in runs.items():
        assert main(argv) == 0
        digests[name] = _sha256(capsys.readouterr().out)
    assert digests == SILENT_DIGESTS


def test_sweep_decides_each_encoder_once(monkeypatch):
    decided = _count_calls(monkeypatch, [sweep, control], "decide_controllability")
    oracle = _count_calls(monkeypatch, [control], "exact_reach")
    report = sweep_theorems([2], 4)
    # one decided encoder per symmetry orbit: 20 orbits of the 61 encoders
    assert report.totals["encoders"] == 61
    assert len(decided) == len(oracle) == 20


def test_sweep_decides_one_encoder_per_orbit(monkeypatch):
    decided = _count_calls(monkeypatch, [sweep, control], "decide_controllability")
    listed = [
        _count_calls(monkeypatch, [m for m in (groups, sweep) if hasattr(m, name)], name)
        for name in ("enumerate_homs", "enumerate_encoders")
    ]
    report = sweep_theorems([2, 3], 9)
    assert report.totals["encoders"] == 3829
    assert len(decided) == 186
    assert listed == [[], []]


def test_analysis_json_computes_each_fact_once(monkeypatch, systematic_encoder):
    counters = {
        name: _count_calls(monkeypatch, [control], name)
        for name in ("decide_controllability", "exact_reach", "_kernel_mask")
    }
    analysis_json(systematic_encoder)
    assert {name: len(calls) for name, calls in counters.items()} == {
        "decide_controllability": 1,
        "exact_reach": 1,
        "_kernel_mask": 1,
    }


def test_encoder_caches_nothing_beyond_its_columns():
    # the chain, the predicates, the walk, the witness and the diagram all
    # read the two int columns, so no reader leaves a table on the encoder
    enc = encoder_from_spec(observed_shift_register(2, 3))
    analysis_json(enc)
    encode_forward(enc, (0, 0, 0), [(1,), (0,), (1,)])
    assert codeword_witness(enc, Window(enc.output_group, 0, ((1,), (0,), (1,))))
    export_dot(enc, 2)
    assert set(vars(enc)) == {
        "decomposition", "output_group", "next_state", "output", "_next", "_out"
    }


def _enumerated(monkeypatch) -> list:
    """Wrap ``FiniteAbelianGroup.elements``; returns the log of groups it listed."""
    return _count_calls(monkeypatch, [groups.FiniteAbelianGroup], "elements")


def test_encoder_build_hashes_no_element(monkeypatch):
    # the columns are read from each hom's target indices: no group is listed, no element table
    enumerated = _enumerated(monkeypatch)
    tabled = _count_calls(monkeypatch, [groups], "hom_table")
    enc = encoder_from_spec(observed_shift_register(2, 8))
    assert enc.state_group.order == 256
    assert enumerated == []
    assert tabled == []


def _instance(p, state_factors, ambient_factors):
    instances = enumerate_extensions(p, make_group(state_factors))
    return next(i for i in instances if i.ambient.factors == ambient_factors)


@pytest.mark.parametrize(
    "ambient_factors, count", [((2, 2, 2), 42), ((2, 4), 6)], ids=["Z2^3", "Z2xZ4"]
)
def test_enumerate_encoders_tabulates_each_map_once(monkeypatch, ambient_factors, count):
    # one table per next-state map, plus one for the identity output map they share
    instance = _instance(2, [2, 2], ambient_factors)
    tabulated = _count_builds(monkeypatch, GroupHom, "_indices")
    encoders = enumerate_encoders(instance)
    assert len(encoders) == count
    assert len(tabulated) == count + 1


class _RecordedColumn(list):
    """A pair-position column that logs itself each time it is read through."""

    def __init__(self, column, reads):
        super().__init__(column)
        self.reads = reads

    def __iter__(self):
        self.reads.append(self)
        return super().__iter__()


@pytest.mark.parametrize("ambient_factors", [(2, 2, 2), (2, 4)], ids=["Z2^3", "Z2xZ4"])
def test_encoders_of_an_instance_read_one_column(ambient_factors):
    # every encoder of an instance reads its columns in the one stored order
    instance = _instance(2, [2, 2], ambient_factors)
    dec = instance.decomposition
    reads = []
    column = _RecordedColumn(dec.column, reads)
    object.__setattr__(dec, "column", column)
    encoders = enumerate_encoders(instance)
    assert len(encoders) > 1
    assert len(reads) == 2 * len(encoders)  # once for the next-state map, once for the output
    assert all(read is column for read in reads)
    assert all(enc.decomposition.column is column for enc in encoders)


def test_split_encoder_analysis_builds_no_pair_map(monkeypatch):
    # a split encoder is built and analysed from its identity column alone
    built = _count_builds(monkeypatch, extension.ExtensionDecomposition, "pair_of")
    enc = encoder_from_spec(observed_shift_register(2, 8))
    analysis_json(enc)
    assert enc.state_group.order == 256
    assert built == []


def test_split_element_to_pair_builds_no_pair_map(monkeypatch):
    # one pair is read off the column's position, not out of an inverted column
    built = _count_builds(monkeypatch, extension.ExtensionDecomposition, "pair_of")
    dec = encoder_from_spec(observed_shift_register(2, 16)).decomposition
    state = (1, 0) * 8
    assert dec.element_to_pair((1,) + state) == ((1,), state)
    assert built == []


def test_index_to_element_reads_build_no_state_index(monkeypatch):
    # only the visited indices become elements; branches lists every state in order
    enumerated = _enumerated(monkeypatch)
    enc = encoder_from_spec(observed_shift_register(2, 16))
    state = (1, 0) * 8
    before = (0,) + state[:-1]  # (s1..sm) -> (s2..sm, u + s1), least input first
    assert encoder.extend_past(enc, state, 3) == ([before, state, before], [(0,)] * 3, [(0,), (1,), (0,)])
    assert encoder.state_preimages(enc, state) == [((0,), (0,) + state[:-1]), ((1,), (1,) + state[:-1])]
    assert enumerated == []
    listed = trellis.branches(enc)
    assert len(listed) == 2 * 2**16
    assert listed[-1] == trellis.Branch((1,) * 16, (1,), (1,) * 15 + (0,), (1,))
    assert [args[0] for args in enumerated].count(enc.state_group) == 1
    enumerated.clear()
    # a witness builds O(|S|^2)-bit mask rows, so it reads the 2^10-state register
    small = encoder_from_spec(observed_shift_register(2, 10))
    states, outputs = encode_forward(small, (0,) * 10, [(1,), (0,), (1,)] + [(0,)] * 10)
    witness = codeword_witness(small, Window(small.output_group, 0, tuple(outputs)))
    # the input word's states until its last output, then the least path into the zero tail
    assert witness[1:11] == states[:10] and witness[-1] == (0,) * 10
    assert small.state_group not in [args[0] for args in enumerated]


def test_groups_cache_nothing(monkeypatch):
    # group facts are read from the moduli, so no reader leaves a table on a group
    used = _count_calls(monkeypatch, [groups.FiniteAbelianGroup], "__post_init__")
    enc = encoder_from_spec(observed_shift_register(2, 3))
    analysis_json(enc)
    encode_forward(enc, (0, 0, 0), [(1,), (0,), (1,)])
    assert codeword_witness(enc, Window(enc.output_group, 0, ((1,), (0,), (1,))))
    export_dot(enc, 2)
    sweep_theorems([2, 3], 6)
    touched = [args[0] for args in used]
    assert enc.state_group in touched and len(touched) > 50
    assert all(vars(g) == {"factors": g.factors} for g in touched)


def test_analysis_json_checks_each_closure_once(monkeypatch, systematic_encoder):
    tested = _count_calls(monkeypatch, [groups, control], "_mask_generators")
    checked = _count_calls(monkeypatch, [Subgroup], "is_closed")
    payload = analysis_json(systematic_encoder)
    # one mask test per chain level plus one for the past kernel, no element set checked
    assert len(tested) == len(payload["chain"]) + 1 == 4
    assert checked == []


def test_control_layer_builds_no_subgroup(monkeypatch):
    # verdicts and reports read state sets as masks; element views are built on request
    encoders = [encoder_from_spec(observed_shift_register(2, 8))] + [
        enc
        for p in (2, 3)
        for order in range(1, 7)
        for state_group in abelian_groups_of_order(order)
        for instance in enumerate_extensions(p, state_group)
        for enc in enumerate_encoders(instance)
    ]
    built = _count_calls(monkeypatch, [Subgroup], "__post_init__")
    for enc in encoders:
        structure_report(enc, decide_controllability(enc))
    assert len(encoders) > 100
    assert built == []


def test_control_recognizes_no_operation_table(monkeypatch, systematic_encoder):
    # state groups of order 8 give chains long enough for the cyclicity predicate
    encoders = [
        enc
        for state_group in abelian_groups_of_order(8)
        for instance in enumerate_extensions(2, state_group)
        for enc in enumerate_encoders(instance)
    ]
    recognized = [
        _count_calls(monkeypatch, [m for m in (groups, control) if hasattr(m, name)], name)
        for name in ("recognize", "recognize_with_iso")
    ]
    analysis_json(systematic_encoder)
    for enc in encoders:
        structure_report(enc, decide_controllability(enc))
    assert encoders
    assert [len(calls) for calls in recognized] == [0, 0]


def test_sweep_walks_cosets_once_per_instance(monkeypatch):
    # decompose reads one coset walk per instance; it calls no quotient and
    # recognizes no table, since both tables it reads are built in the group
    walks = _count_calls(monkeypatch, [groups, extension], "_cosets")
    avoided = [
        _count_calls(monkeypatch, [m for m in (groups, extension) if hasattr(m, name)], name)
        for name in ("quotient", "recognize_with_iso")
    ]
    report = sweep_theorems([2, 3], 6)
    assert len(walks) == report.totals["instances"] > 0
    assert avoided == [[], []]


def test_decompose_walks_the_ambient_once(monkeypatch):
    walked = _count_calls(monkeypatch, [groups.FiniteAbelianGroup], "elements")
    for g in abelian_groups_of_order(24):
        for h in all_subgroups(g):
            walked.clear()
            extension.decompose(g, h)
            assert len(walked) == 1 and walked[0][0] is g


@pytest.mark.parametrize("dedup, count", [(True, 38), (False, 91)], ids=["dedup", "no-dedup"])
def test_sweep_decomposition_count(monkeypatch, dedup, count):
    # every decomposed subgroup yields an instance, with or without dedup
    decomposed = _count_calls(monkeypatch, [sweep], "decompose")
    report = sweep_theorems([2, 3], 9, dedup=dedup)
    assert len(decomposed) == report.totals["instances"] == count


def test_decompose_checks_closure_once(monkeypatch):
    g = make_group([2, 4])
    normal = prime_order_subgroups(g, 2)[0]
    checked = _count_calls(monkeypatch, [Subgroup], "is_closed")
    extension.decompose(g, normal)
    assert len(checked) == 1


def test_surjective_enumeration_builds_only_kept_homs(monkeypatch):
    subgroups = _count_calls(monkeypatch, [Subgroup], "__post_init__")
    homs = _count_calls(monkeypatch, [GroupHom], "__post_init__")
    kept = enumerate_homs(make_group([2, 4]), make_group([2, 2]), surjective_only=True)
    assert len(kept) == len(homs) > 0
    assert subgroups == []


def test_surjective_enumeration_spans_each_prefix_once(monkeypatch):
    spanned = _count_calls(monkeypatch, [groups], "_span")
    kept = enumerate_homs(make_group([2] * 4), make_group([2] * 3), surjective_only=True)
    assert len(kept) == 15 * 14 * 12
    # one span per prefix of 1, 2 or 3 images; the fourth image is only sized
    assert len(spanned) == 8 + 64 + 512


def _coordinate_digest(kind: str) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for record in RECORDS[kind]():
        digest.update(record)
        count += 1
    return count, digest.hexdigest()


def test_quotient_coordinates_bytes():
    # recognition picks the quotient basis; this pins the coordinates it gives
    assert _coordinate_digest("quotients") == (
        1030,
        "a13cee59125893d2aa166c299184d4112927baa4fd68fbe6b3ec60edbc205a48",
    )


def test_decomposition_coordinates_bytes():
    # U's coordinates and the pair column, which the quotient digest does not cover
    assert _coordinate_digest("decompositions") == (
        1030,
        "fea9cc1d1543f0b8b530bd41730433bd82c96fb3f96c1e1ef85287bef9987641",
    )


def test_unit_group_coordinates_bytes():
    # recognition on tables that are not residue vectors: the units mod n
    records = []
    for n in range(2, 201):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        g, coords = recognize_with_iso(units, lambda a, b, n=n: a * b % n)
        records.append((n, g.factors, sorted(coords.items())))
    assert _sha256(repr(records)) == "f639e8f0ff38dae6ea6e6a490e7a18f7545547ef0a7c83bb78895e8dd9212ee4"


def test_sweep_never_evaluates_a_hom_element_by_element(monkeypatch):
    # covers encoder_from_extension, decide_controllability and structure_report
    evaluated = _count_calls(monkeypatch, [GroupHom], "__call__")
    report = sweep_theorems([2], 4)
    assert report.totals["encoders"] > 0
    assert evaluated == []


def _refuse(monkeypatch, *targets) -> None:
    """Make every ``(owner, name)`` raise when called: the columns must be read instead."""

    def refuse(*args, **kwargs):
        raise AssertionError("read the encoder's state-index columns instead")

    for owner, name in targets:
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("sections", [0, 1, 7])
def test_export_dot_builds_the_diagram_once(monkeypatch, systematic_encoder, sections):
    # the diagram is the encoder's columns, built at construction: the export
    # builds no branch list and steps no element pair
    expected = export_dot(systematic_encoder, sections)
    _refuse(monkeypatch, (trellis, "branches"), (Encoder, "step"))
    assert export_dot(systematic_encoder, sections) == expected


def test_codeword_witness_images_each_state_set_once_per_symbol(monkeypatch):
    # a window revisits few state sets, so images are memoised per (set, symbol)
    enc = encoder_from_spec(observed_shift_register(2, 6))
    start = (1, 0, 1, 1, 0, 1)
    rng = random.Random(6)
    word = [(rng.randrange(2),) for _ in range(2048)]
    states, outputs = encode_forward(enc, start, word)
    tail = zero_tail(enc, states[-1], max_len=65)
    outputs += encode_forward(enc, states[-1], tail)[1]
    images = _count_calls(monkeypatch, [trellis], "_image")
    witness = codeword_witness(enc, Window(enc.output_group, 0, outputs))
    assert witness is not None and witness[0] == start
    assert len(images) <= 300  # one call per symbol and direction is over 4,000


def test_codeword_witness_images_only_predecessor_rows(monkeypatch):
    # the walk steps along single successor rows, so outside the two identity
    # cores every image is one of the backward pass, on predecessor rows
    enc = encoder_from_spec(observed_shift_register(2, 6))
    states, outputs = encode_forward(enc, (1, 0, 1, 1, 0, 1), [(1,), (0,), (1,), (1,)])
    outputs += encode_forward(enc, states[-1], zero_tail(enc, states[-1], max_len=65))[1]
    s_group, pred = enc.state_group, {}
    for source in s_group.elements():
        for u in enc.input_group.elements():
            target, y = enc.step(u, source)
            rows = pred.setdefault(enc.output_group.index_of(y), [0] * s_group.order)
            rows[s_group.index_of(target)] |= 1 << s_group.index_of(source)
    images = _count_calls(monkeypatch, [trellis], "_image")
    core_images = []
    identity_core = trellis._identity_core

    def core(rows, full):
        before = len(images)
        mask = identity_core(rows, full)
        core_images.extend(images[before:])
        del images[before:]
        return mask

    monkeypatch.setattr(trellis, "_identity_core", core)
    assert codeword_witness(enc, Window(enc.output_group, 0, outputs)) is not None
    assert core_images and images
    assert all(rows in pred.values() for _, rows in images)


def test_codeword_witness_builds_the_diagram_once(monkeypatch, systematic_encoder):
    enc = systematic_encoder
    word = [(1,), (0,), (1,)]
    states, outputs = encode_forward(enc, (0, 0), word)
    tail = zero_tail(enc, states[-1], max_len=8)
    outputs += encode_forward(enc, states[-1], tail)[1]
    window = Window(enc.output_group, 0, outputs)
    expected = codeword_witness(enc, window)
    _refuse(monkeypatch, (trellis, "branches"), (Encoder, "step"))
    assert expected is not None
    assert codeword_witness(enc, window) == expected


@pytest.mark.parametrize("spec", [None, observed_shift_register(2, 4)], ids=["README", "obs-2^4"])
def test_control_reads_the_columns(monkeypatch, systematic_encoder, spec):
    enc = systematic_encoder if spec is None else encoder_from_spec(spec)
    verdict = decide_controllability(enc)
    length = enc.state_group.order + 1
    reach, payload = list(exact_reach(enc, length)), analysis_json(enc)
    report = structure_report(enc, verdict)
    _refuse(monkeypatch, (trellis, "branches"), (Encoder, "step"))
    assert list(exact_reach(enc, length)) == reach
    assert structure_report(enc, verdict).predicates == report.predicates
    assert analysis_json(enc) == payload


def test_analysis_json_formats_each_state_once(monkeypatch):
    # the chain is nested, so the m = 6 levels list 127 states, 64 distinct,
    # all labelled by one bulk call
    enc = encoder_from_spec(observed_shift_register(2, 6))
    formatted = _count_calls(monkeypatch, [control], "element_labels")
    payload = analysis_json(enc)
    listed = [s for level in payload["chain"] for s in level] + payload["past_kernel"]
    assert len(listed) == 129
    [(_, indices, _)] = formatted
    assert len(indices) == len(set(listed)) == 64
