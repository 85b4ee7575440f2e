"""groupcode benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run one workload (the form the metric contract in ``BENCHMARK.json`` uses):

    python3 perfbench/run.py --workload sweep-p23-s9 --seed 1 --seconds 40 --trace 0

Run all three serially, each in its own process, and print a table:

    python3 perfbench/run.py --workload all --seconds 40 [--trace 1]

Re-record the output digests of the default seed after an intended output
change:

    python3 perfbench/run.py --record-reference

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2 and prints no
result.  Each run forces ``GROUPCODE_JOBS=1`` and sets up its inputs
``SETUPS`` times; ``setup_s`` is the median set-up time, each scaled like
the other timings by the machine speed probed just before and after it (its
unit stays ``s``, as the metric contract asks).

With ``--trace 0`` it times whole passes over the workload's deck and prints
the end-to-end metrics.  Their timings are in reference seconds (see
``speed.py``): each operation's raw time scaled by the machine speed a probe
loop measured during it, so that two runs on a shared machine agree.  The raw
timings (``wall_s``, ``encoders_per_s``, ``op_p50_ms``, ``op_tail_ms``) are in
the run record.  With ``--trace 1`` it alternates untraced and traced passes
and prints the per-layer metrics plus the tracing overhead.

The line before the result holds the run record: metadata, raw timings,
sample counts, the tail percentile used, ``failed_ratio``, absent trace
targets and the problems found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUPS = 21
TIME_CAP_S = 120.0  # stop adding passes after this, whatever min_passes asks

sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, SpeedProbe, factor, probe_now  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, OpResult  # noqa: E402


# Raw (unscaled) timings, kept in the run record and the --workload all table.
RAW_UNITS = {
    "wall_s": "s",
    "encoders_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op_samples": "count",
    "op_tail_percentile": "",
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_groupcode():
    """Import ``groupcode`` afresh from ``src/`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "groupcode" or n.startswith("groupcode.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("groupcode")
    importlib.import_module("groupcode.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "groupcode":
        raise SystemExit(f"groupcode imported from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program and build the workload's inputs several times; keep the last.

    Returns the package, the workload and the set-up times, raw and in
    reference seconds."""
    raw, ref = [], []
    before = probe_now()
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        started = time.perf_counter()
        workdir.mkdir(parents=True)
        pkg = import_groupcode()
        wl = WORKLOADS[workload](pkg, seed, workdir)
        elapsed = time.perf_counter() - started
        after = probe_now()
        raw.append(elapsed)
        ref.append(elapsed * factor(before + after))
        before = after
    return pkg, wl, (raw, ref)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """Every operation of one deck, run once, with its outputs checked.

    With a running ``probe``, ``scale`` turns each latency into reference
    seconds by the machine speed probed during (or, for a short operation,
    around) that operation; without one the reference latencies are the raw
    ones."""

    def __init__(
        self, wl, reference: dict | None, seed: int, probe: SpeedProbe | None = None
    ) -> None:
        self.latencies: list[float] = []
        self.marks: list[tuple[int, int]] = []  # probe count at each operation's start and end
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.failed = 0
        self.encoders = 0
        self.output_bytes = 0
        for item in wl.items:
            gc.collect()  # every operation starts from the same heap state
            start = len(probe.durations) if probe else 0
            try:
                op = wl.run(item)
            except Exception as exc:  # a crash in a check is a failed operation
                op = OpResult(0.0, problems=[f"{type(exc).__name__}: {exc}"])
            self.marks.append((start, len(probe.durations) if probe else 0))
            if reference is not None:
                for key, digest in op.digests.items():
                    if key in op.seeded_keys and seed != DEFAULT_SEED:
                        continue
                    expected = reference.get(key)
                    if expected is None:
                        op.problems.append(f"{key}: no reference digest")
                    elif expected != digest:
                        op.problems.append(f"{key}: output differs from the reference digest")
            self.latencies.append(op.latency_s)
            self.digests.update(op.digests)
            self.problems.extend(op.problems)
            self.failed += bool(op.problems)
            self.encoders += op.encoders
            self.output_bytes += op.output_bytes
        self.wall_s = sum(self.latencies)
        self.ref_latencies = list(self.latencies)
        self.wall_ref_s = self.wall_s
        self.probe_s = None

    def scale(self, probe: SpeedProbe) -> None:
        """Set the reference latencies, once the probes after the pass have fired."""
        self.ref_latencies = [
            lat * probe.factor_around(start, end)
            for lat, (start, end) in zip(self.latencies, self.marks)
        ]
        self.wall_ref_s = sum(self.ref_latencies)
        # the probe time at the pass's mean speed, for the run record
        self.probe_s = REFERENCE_S / probe.factor_around(self.marks[0][0], self.marks[-1][1])


def keep_going(wl, passes: list[Pass], started: float, seconds: float) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed >= TIME_CAP_S:
        return False
    if len(passes) < wl.min_passes:
        return True
    return elapsed + passes[-1].wall_s <= seconds


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the q-quantile among n samples."""
    return max(1, math.ceil(q * n))


def measure(wl, reference, seed: int, seconds: float, probe: SpeedProbe) -> list[Pass]:
    """Untraced passes of whole decks for about ``seconds``, at least ``min_passes``."""
    passes: list[Pass] = []
    started = time.perf_counter()
    while not passes or keep_going(wl, passes, started, seconds):
        passes.append(Pass(wl, reference, seed, probe))
    for run in passes:
        run.scale(probe)
    return passes


def measure_traced(pkg, wl, reference, seed: int, seconds: float, probe: SpeedProbe):
    """Alternate untraced and traced passes; returns both kinds and the traces."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    traces = []
    started = time.perf_counter()
    tracer = Tracer(pkg)
    while True:
        order = [(plain, False), (traced, True)]
        if len(traces) % 2:  # alternate which kind runs first
            order.reverse()
        for runs, tracing in order:
            if tracing:
                tracer.reset()
                tracer.install()
            try:
                runs.append(Pass(wl, reference, seed, probe))
            finally:
                tracer.uninstall()
        tracer.trace.counts["cli.output_bytes"] = traced[-1].output_bytes
        traces.append(tracer.trace)
        elapsed = time.perf_counter() - started
        pair = plain[-1].wall_s + traced[-1].wall_s
        if elapsed >= TIME_CAP_S or elapsed + pair > seconds:
            break
    for run in plain + traced:
        run.scale(probe)
    return plain, traced, traces, tracer


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "groupcode").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_stats(wl, passes: list[Pass], factored: bool) -> dict:
    """Pass time, throughput and nearest-rank op percentiles, raw or in reference seconds."""
    samples = sorted(
        lat for run in passes for lat in (run.ref_latencies if factored else run.latencies)
    )
    n = len(samples)
    wall = statistics.median(run.wall_ref_s if factored else run.wall_s for run in passes)
    return {
        "wall": wall,
        "encoders_per": passes[0].encoders / wall,
        "op_p50_ms": samples[rank(0.5, n) - 1] * 1000,
        "op_tail_ms": samples[rank(wl.tail_q, n) - 1] * 1000,
    }


def end_to_end(
    wl, passes: list[Pass], setups: tuple[list[float], list[float]]
) -> tuple[dict, dict]:
    ref = op_stats(wl, passes, factored=True)
    raw = op_stats(wl, passes, factored=False)
    values = {
        "setup_s": statistics.median(setups[1]),
        "wall_ref_s": ref["wall"],
        "encoders_per_ref_s": ref["encoders_per"],
        "op_p50_ref_ms": ref["op_p50_ms"],
        "op_tail_ref_ms": ref["op_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = sum(len(run.latencies) for run in passes)
    detail = {
        "wall_s": raw["wall"],
        "encoders_per_s": raw["encoders_per"],
        "op_p50_ms": raw["op_p50_ms"],
        "op_tail_ms": raw["op_tail_ms"],
        "passes": len(passes),
        "pass_wall_s": [run.wall_s for run in passes],
        "pass_probe_ms": [run.probe_s * 1000 for run in passes],
        "op_samples": n,
        "op_tail_percentile": f"p{wl.tail_q * 100:g}",
        "op_tail_samples_beyond": n - rank(wl.tail_q, n),
        "encoders_per_pass": passes[0].encoders,
        "setup_samples_s": setups[0],
        "setup_samples_ref_s": setups[1],
    }
    units = metric_units("end_to_end")
    return {k: metric(values[k], unit) for k, unit in units.items()}, detail


def per_layer(plain: list[Pass], traced: list[Pass], traces, tracer) -> tuple[dict, dict]:
    """Per-layer metrics: calls and counts of the first traced pass (they repeat
    exactly), self times as medians over the traced passes."""
    first = traces[0]
    candidates = first.counts.get("groups.hom_candidates", 0)
    special = {
        "groups.surjective_yield": (
            first.counts.get("groups.surjections", 0) / candidates if candidates else 0.0
        ),
        "tracing_overhead": statistics.median(r.wall_ref_s for r in traced)
        / statistics.median(r.wall_ref_s for r in plain),
    }
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        stem, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif field == "calls":
            value = first.calls.get(stem, 0)
        elif field == "self_s":
            value = statistics.median(t.self_s.get(stem, 0.0) for t in traces)
        elif field == "errors":
            value = first.errors.get(stem, 0)
        else:
            value = first.counts.get(name, 0)
        metrics[name] = metric(value, unit)
    detail = {
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "counts_repeat": all(t.calls == first.calls and t.counts == first.counts for t in traces),
        "absent": tracer.absent,
        "hook_failures": tracer.hook_failures,
        "hom_candidates": candidates,
    }
    return metrics, detail


def tally(passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed; a pass whose outputs differ from the
    first pass's (traced against untraced, or run to run) adds one failure."""
    attempted = sum(len(run.latencies) for run in passes)
    failed = sum(run.failed for run in passes)
    problems = [p for run in passes for p in run.problems]
    mismatched = sum(run.digests != passes[0].digests for run in passes)
    if mismatched:
        failed += mismatched
        problems.append(f"{mismatched} passes gave outputs that differ from the first pass")
    return attempted, failed, problems


def run_one(args) -> int:
    os.environ["GROUPCODE_JOBS"] = "1"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }
    reference = json.loads(REFERENCE.read_text())
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        with SpeedProbe() as probe:
            pkg, wl, setups = set_up(args.workload, args.seed, workdir)
            if args.trace:
                plain, traced, traces, tracer = measure_traced(
                    pkg, wl, reference, args.seed, args.seconds, probe
                )
                metrics, detail = per_layer(plain, traced, traces, tracer)
                passes = plain + traced
            else:
                passes = measure(wl, reference, args.seed, args.seconds, probe)
                metrics, detail = end_to_end(wl, passes, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems = tally(passes)
    record.update(detail)
    record["failed_ratio"] = failed / attempted
    record["problems"] = problems[:20]
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, serially; prints one table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        status |= result["failed"] > 0
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed_ratio", record["failed_ratio"], "ratio"))
        if not args.trace:
            for name, unit in RAW_UNITS.items():
                rows.append((workload, name, record[name], unit))
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<14} {name:<34} {shown:>14} {unit}")
    return status


def record_reference(args) -> int:
    """Write the output digests of one pass of every workload at the default seed."""
    os.environ["GROUPCODE_JOBS"] = "1"
    digests = {}
    for workload in WORKLOADS:
        workdir = ROOT / ".bench_out" / f"reference-{workload}-{os.getpid()}"
        try:
            _, wl, _ = set_up(workload, DEFAULT_SEED, workdir)
            run = Pass(wl, None, DEFAULT_SEED)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if run.problems:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        digests.update(run.digests)
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "groupcode" / "__init__.py").is_file():
        print(f"perfbench: no groupcode sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
