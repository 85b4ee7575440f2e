"""Tests of the benchmark itself (they take about a minute):

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.import_groupcode()


@pytest.fixture
def workdir():
    path = run.ROOT / ".bench_out" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


def traced_pass(pkg, wl, reference):
    tracer = tracing.Tracer(pkg).install()
    try:
        result = run.Pass(wl, reference, DEFAULT_SEED)
    finally:
        tracer.uninstall()
    return result, tracer


def test_traced_sweep_counts_repeat_exactly(pkg, workdir, reference):
    wl = WORKLOADS["sweep-p23-s9"](pkg, DEFAULT_SEED, workdir)
    first, t1 = traced_pass(pkg, wl, reference)
    second, t2 = traced_pass(pkg, wl, reference)
    assert first.failed == second.failed == 0
    assert first.digests == second.digests
    assert t1.trace.calls == t2.trace.calls
    assert t1.trace.counts == t2.trace.counts
    assert t1.absent == [] and t1.hook_failures == []
    assert t1.trace.counts["sweep.instances"] == 38
    assert t1.trace.counts["sweep.encoders"] == 3829
    # at this commit every sweep encoder is decided twice (once inside structure_report)
    assert t1.trace.calls["control.decide"] == 2 * t1.trace.counts["sweep.encoders"]


def test_traced_outputs_equal_untraced_outputs(pkg, workdir, reference):
    wl = WORKLOADS["stream-frames"](pkg, DEFAULT_SEED, workdir)
    wl.items = wl.items[:3]
    plain = run.Pass(wl, reference, DEFAULT_SEED)
    traced, tracer = traced_pass(pkg, wl, reference)
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    calls = tracer.trace.calls
    assert calls["encoder.build"] == 3 * 3  # encode, witness and trellis each build once
    assert calls["trellis.branches"] == 3 * (wl.SECTIONS + 3)
    assert tracer.trace.counts["trellis.export_dot.bytes"] > 0


def test_corrupted_reference_digest_counts_as_failure(pkg, workdir, reference):
    wl = WORKLOADS["analyze-deck"](pkg, DEFAULT_SEED, workdir)
    wl.items = [item for item in wl.items if item[0] in ("readme", "frozen", "shift-2^4")]
    clean = run.Pass(wl, reference, DEFAULT_SEED)
    assert run.tally([clean])[:2] == (3, 0)
    corrupted = dict(reference, **{"analyze/frozen": "0" * 64})
    attempted, failed, problems = run.tally([run.Pass(wl, corrupted, DEFAULT_SEED)])
    assert (attempted, failed) == (3, 1)
    assert failed / attempted > 0
    assert problems == ["analyze/frozen: output differs from the reference digest"]


def test_absent_target_is_reported_and_the_run_continues(pkg, workdir, reference, monkeypatch):
    missing = ("encoder", "zero_tail_renamed", "encoder.zero_tail_renamed", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [missing])
    wl = WORKLOADS["stream-frames"](pkg, DEFAULT_SEED, workdir)
    wl.items = wl.items[:1]
    result, tracer = traced_pass(pkg, wl, reference)
    assert tracer.absent == ["encoder.zero_tail_renamed"]
    assert result.failed == 0
    metrics, detail = run.per_layer([result], [result], [tracer.trace], tracer)
    assert detail["absent"] == ["encoder.zero_tail_renamed"]
    assert set(metrics) == set(run.metric_units("per_layer"))


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "sweep-p23-s9", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_probe_samples_while_a_pass_runs():
    with speed.SpeedProbe() as probe:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.5:
            pass
    count = len(probe.durations)
    whole = probe.factor_around(0, count)
    # a span that holds no probe is scaled by the nearest ones
    short = probe.factor_around(count, count)
    assert count >= speed.NEAREST
    speeds = [speed.REFERENCE_S / d for d in probe.durations]
    assert whole == pytest.approx(statistics.fmean(speeds))
    assert short == pytest.approx(statistics.fmean(speeds[-speed.NEAREST:]))


def test_reference_latencies_scale_each_operation(pkg, workdir, reference):
    wl = WORKLOADS["analyze-deck"](pkg, DEFAULT_SEED, workdir)
    wl.items = [item for item in wl.items if item[0] in ("readme", "shift-2^7")]
    with speed.SpeedProbe() as probe:
        result = run.Pass(wl, reference, DEFAULT_SEED, probe)
        result.scale(probe)
    assert result.failed == 0
    assert len(result.ref_latencies) == len(result.latencies) == 2
    assert result.wall_ref_s == pytest.approx(sum(result.ref_latencies))
    assert all(ref > 0 for ref in result.ref_latencies)
