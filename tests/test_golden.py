"""Golden output bytes and call counts: each fact is computed once per encoder."""

from __future__ import annotations

import hashlib
import json

import pytest

from groupcode import Window, control, encode_forward, sweep, trellis, zero_tail
from groupcode.control import analysis_json
from groupcode.sweep import sweep_theorems
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
