"""Golden output bytes and call counts: each fact is computed once per encoder."""

from __future__ import annotations

import hashlib
import json

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
from groupcode.control import analysis_json, decide_controllability, structure_report
from groupcode.groups import (
    GroupHom,
    Subgroup,
    abelian_groups_of_order,
    all_subgroups,
    enumerate_homs,
    make_group,
    prime_order_subgroups,
    quotient,
)
from groupcode.cli import main
from groupcode.encoder import encoder_from_spec
from groupcode.sweep import enumerate_encoders, enumerate_extensions, sweep_theorems
from groupcode.trellis import codeword_witness, export_dot


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


def test_sweep_report_bytes():
    report = sweep_theorems([2, 3], 6, jobs=1)
    assert (
        _sha256(_canonical(report.to_json_dict()))
        == "33a78e4962662e8bf32570067a726e7be3dae9569241290efa23f918dbb4aaa8"
    )


def test_readme_analysis_bytes(systematic_encoder):
    assert (
        _sha256(_canonical(analysis_json(systematic_encoder)))
        == "a4e736641330af4f365e60cc5eab5d66ee64be68dae6ce5cc16d15d615fecb54"
    )


def _observed_shift_register(p: int, m: int) -> dict:
    """``(s1..sm) -> (s2..sm, u + s1)`` over Z_p^m with output ``s1`` alone."""
    unit = [[int(i == j) for j in range(m)] for i in range(m)]
    return {
        "U": {"factors": [p]},
        "S": {"factors": [p] * m},
        "Y": {"factors": [p]},
        "nu": {"gen_images": [unit[m - 1]] + [unit[(i - 1) % m] for i in range(m)]},
        "omega": {"gen_images": [[0], [1]] + [[0]] * (m - 1)},
    }


# (s1, s2, s3) -> (s2, s3, s1 + 2u) over Z4^3: the chain stops at the 8 states
# of order at most 2
STUCK_Z4_CUBE = {
    "U": {"factors": [2]},
    "S": {"factors": [4, 4, 4]},
    "Y": {"factors": [4]},
    "nu": {"gen_images": [[0, 0, 2], [0, 0, 1], [1, 0, 0], [0, 1, 0]]},
    "omega": {"gen_images": [[2], [1], [0], [0]]},
}


@pytest.mark.parametrize(
    "spec, chain_sizes, digest",
    [
        (
            _observed_shift_register(2, 8),
            [2**i for i in range(9)],
            "3d7937b92a9b4b65a99052283b0685cdb998200bf49604f74b3199630e7657aa",
        ),
        (
            STUCK_Z4_CUBE,
            [1, 2, 4, 8],
            "7466909bdc2c7bb0f26db05a0c1cbb17698c4c806f84ec0deb8a9b6323919fbd",
        ),
    ],
    ids=["controllable-Z2^8", "stuck-Z4^3"],
)
def test_analysis_bytes_at_scale(spec, chain_sizes, digest):
    payload = analysis_json(encoder_from_spec(spec))
    assert payload["chain_sizes"] == chain_sizes
    assert _sha256(_canonical(payload)) == digest


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
    spec.write_text(json.dumps(_observed_shift_register(p, m)))
    state = ",".join(str((i + 1) % p) for i in range(m))
    word = ",".join(str((i * i + 3 * i + 1) % p) for i in range(64))
    argv = ["encode", str(spec), "--state", state, "--inputs", word, "--zero-tail"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    dot = tmp_path / "trellis.dot"
    assert main(["trellis", str(spec), "--sections", "32", "--out", str(dot)]) == 0
    digests = {"encode": _sha256(table), "trellis": _sha256(dot.read_text())}
    assert digests == STREAM_CASES[(p, m)]


def test_sweep_decides_each_encoder_once(monkeypatch):
    decided = _count_calls(monkeypatch, [sweep, control], "decide_controllability")
    oracle = _count_calls(monkeypatch, [control], "exact_reach")
    report = sweep_theorems([2], 4, jobs=1)
    assert report.totals["encoders"] > 0
    assert len(decided) == len(oracle) == report.totals["encoders"]


def test_analysis_json_computes_each_fact_once(monkeypatch, systematic_encoder):
    counters = {
        name: _count_calls(monkeypatch, [control], name)
        for name in ("decide_controllability", "exact_reach", "past_kernel")
    }
    analysis_json(systematic_encoder)
    assert {name: len(calls) for name, calls in counters.items()} == {
        "decide_controllability": 1,
        "exact_reach": 1,
        "past_kernel": 1,
    }


def test_analysis_json_builds_the_successor_table_once(monkeypatch):
    # the chain, the oracle, the past kernel and the predicates share one table
    enc = encoder_from_spec(_observed_shift_register(2, 3))
    built = _count_calls(monkeypatch, [encoder], "_union_table")
    analysis_json(enc)
    assert len(built) == 1


def test_analysis_json_checks_each_closure_once(monkeypatch, systematic_encoder):
    checked = _count_calls(monkeypatch, [Subgroup], "is_closed")
    payload = analysis_json(systematic_encoder)
    # one check per chain level plus one for the past kernel
    assert len(checked) == len(payload["chain"]) + 1 == 4


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


def test_sweep_computes_each_quotient_once(monkeypatch):
    modules = [m for m in (groups, extension, sweep) if hasattr(m, "quotient")]
    quotients = _count_calls(monkeypatch, modules, "quotient")
    sweep_theorems([2, 3], 6, jobs=1)
    examined = sum(
        len(prime_order_subgroups(ambient, p))
        for p in (2, 3)
        for order in range(1, 7)
        for _ in abelian_groups_of_order(order)
        for ambient in abelian_groups_of_order(p * order)
    )
    assert len(quotients) == examined


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


def test_quotient_coordinates_bytes():
    # recognition picks the quotient basis; this pins the coordinates it gives
    digest = hashlib.sha256()
    pairs = 0
    for order in range(1, 33):
        for g in abelian_groups_of_order(order):
            for h in all_subgroups(g):
                q, projection = quotient(g, h)
                record = (g.factors, h.elements, q.factors, sorted(projection.items()))
                digest.update(repr(record).encode("utf-8"))
                pairs += 1
    assert pairs == 1030
    assert digest.hexdigest() == "a13cee59125893d2aa166c299184d4112927baa4fd68fbe6b3ec60edbc205a48"


def test_sweep_never_evaluates_a_hom_element_by_element(monkeypatch):
    # covers encoder_from_extension, decide_controllability and structure_report
    evaluated = _count_calls(monkeypatch, [GroupHom], "__call__")
    report = sweep_theorems([2], 4, jobs=1)
    assert report.totals["encoders"] > 0
    assert evaluated == []


@pytest.mark.parametrize("sections", [0, 1, 7])
def test_export_dot_builds_the_diagram_once(monkeypatch, systematic_encoder, sections):
    built = _count_calls(monkeypatch, [trellis], "branches")
    export_dot(systematic_encoder, sections)
    assert len(built) == 1


def test_codeword_witness_builds_the_diagram_once(monkeypatch, systematic_encoder):
    enc = systematic_encoder
    word = [(1,), (0,), (1,)]
    states, outputs = encode_forward(enc, (0, 0), word)
    tail = zero_tail(enc, states[-1], max_len=8)
    outputs += encode_forward(enc, states[-1], tail)[1]
    built = _count_calls(monkeypatch, [trellis], "branches")
    assert codeword_witness(enc, Window(enc.output_group, 0, outputs)) is not None
    assert len(built) == 1
