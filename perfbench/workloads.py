"""The three gated workloads: their inputs, operations and output checks.

Every program call goes in-process through ``groupcode.cli.main`` with stdout
and stderr captured, so the CLI layer is part of what is measured.  Inputs
are generated from the seed during set-up; the program only sees the spec
files and argument strings.  An operation fails when it raises, exits
non-zero, breaks an invariant, or produces bytes that differ from the digest
recorded for them (see ``reference.json``).

Why each workload:

* ``sweep-p23-s9`` -- many tiny encoders (3,829 with |S| <= 9): the time goes
  to hom enumeration, encoder construction and predicates on tiny levels.
* ``analyze-deck`` -- one large encoder per operation (16 <= |S| <= 256, no
  hom enumeration): the time goes to per-state work that grows
  quadratically with |S| (the exact-reach oracle, closure checks,
  recognition), which a per-encoder speed-up can trade against.
* ``stream-frames`` -- long encode / membership / DOT export frames on
  controllable encoders with 16 <= |S| <= 64: thousands of ``step``
  lookups and k*|U|*|S| DOT lines per frame, no ``control`` layer at all.

Percentiles are nearest-rank over every operation of every pass.  Each pass
replays the same operations, so the pooled samples hold ``passes`` copies of
one deck.  Deck sizes are odd (25), which puts p50 and p90 in the middle of
one deck item's cluster of repeats instead of on the edge between two items.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1


@dataclass
class OpResult:
    """One operation: its latency, output digests and any failed check."""

    latency_s: float
    digests: dict[str, str] = field(default_factory=dict)
    seeded_keys: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    encoders: int = 0
    output_bytes: int = 0


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_cli(pkg, argv: list[str]) -> tuple[int | str, str, str, float]:
    """Call ``groupcode.cli.main`` in-process; returns (code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


# ---------------------------------------------------------------------------
# encoder specs (wire format: input coordinates first, then state coordinates)
# ---------------------------------------------------------------------------

def _unit(m: int, i: int) -> list[int]:
    v = [0] * m
    v[i] = 1
    return v


def shift_register(p: int, m: int) -> dict:
    """``(s1..sm) -> (s2..sm, u + s1)`` over Z_p^m with output ``(u, s_m)``."""
    nu = [_unit(m, m - 1)] + [_unit(m, (i - 1) % m) for i in range(m)]
    omega = [[1, 0]] + [[0, 0]] * (m - 1) + [[0, 1]]
    return _spec([p], [p] * m, [p, p], nu, omega)


def observed_shift_register(p: int, m: int) -> dict:
    """The same shift with output ``s1`` alone.

    Every state has an arbitrarily long identity-labelled past (shift zeros
    in), and only the identity state has an identity-labelled future, so a
    frame started anywhere and closed with its zero tail is a codeword.
    """
    nu = [_unit(m, m - 1)] + [_unit(m, (i - 1) % m) for i in range(m)]
    omega = [[0]] + [[1]] + [[0]] * (m - 1)
    return _spec([p], [p] * m, [p], nu, omega)


def cyclic_register(p: int, k: int) -> dict:
    """``s -> s + u * p^(k-1)`` on Z_(p^k): the chain stops at order p."""
    q = p ** k
    return _spec([p], [q], [p, q], [[p ** (k - 1)], [1]], [[1, 0], [0, 1]])


def _spec(u, s, y, nu, omega) -> dict:
    return {
        "U": {"factors": list(u)},
        "S": {"factors": list(s)},
        "Y": {"factors": list(y)},
        "nu": {"gen_images": [list(v) for v in nu]},
        "omega": {"gen_images": [list(v) for v in omega]},
    }


README_SPEC = _spec([2], [2, 2], [2, 2], [[0, 1], [0, 1], [1, 0]], [[1, 0], [0, 0], [0, 1]])
FROZEN_SPEC = _spec([2], [4], [2, 4], [[0], [1]], [[1, 0], [0, 1]])


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kalman_controllable(spec: dict, p: int) -> bool:
    """Rank test on ``[b, Ab, ..., A^(m-1) b]`` over GF(p), independent of groupcode."""
    images = spec["nu"]["gen_images"]
    b, columns = images[0], images[1:]
    m = len(b)
    krylov, v = [], b
    for _ in range(m):
        krylov.append(v)
        v = [sum(v[j] * columns[j][i] for j in range(m)) % p for i in range(m)]
    return _rank_mod_p(krylov, p) == m


def random_controllable(pkg, rng: random.Random, p: int, m: int) -> dict:
    """A uniformly drawn valid encoder over Z_p^m whose chain reaches every state.

    Draws that are not controllable, and draws that groupcode rejects, are
    redrawn; only controllable draws are kept so that every seed gives the
    deck the same chain lengths and comparable per-state work.  The rank test
    comes first so that set-up validates about one draw per deck slot.
    """
    while True:
        nu = [[rng.randrange(p) for _ in range(m)] for _ in range(m + 1)]
        omega = [[rng.randrange(p) for _ in range(2)] for _ in range(m + 1)]
        spec = _spec([p], [p] * m, [p, p], nu, omega)
        if not kalman_controllable(spec, p):
            continue
        try:
            pkg.encoder_from_spec(spec)
        except pkg.GroupCodeError:
            continue
        return spec


def _write_spec(workdir: Path, name: str, spec: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    return str(path)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SweepWorkload:
    """``groupcode sweep --p 2,3 --max-s-order 9``; ignores the seed."""

    name = "sweep-p23-s9"
    tail_q = 0.5  # one sweep per operation: a run holds too few for a higher percentile
    min_passes = 3

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        self.out = workdir / "sweep-report.json"
        self.items = ["sweep"]

    def run(self, item: str) -> OpResult:
        self.out.unlink(missing_ok=True)
        argv = ["sweep", "--p", "2,3", "--max-s-order", "9", "--out", str(self.out)]
        code, stdout, stderr, seconds = run_cli(self.pkg, argv)
        result = OpResult(seconds)
        if code != 0:
            result.problems.append(f"sweep exited {code}: {stderr.strip()[-200:]}")
            return result
        report = self.out.read_bytes()
        result.output_bytes = len(stdout) + len(stderr) + len(report)
        result.digests["sweep/report"] = sha256(report)
        result.digests["sweep/table"] = sha256(stdout)
        payload = json.loads(report)
        checks = payload["checks"]
        violations = checks["predicate_violations"] + sum(
            c["violations"] for c in checks.values() if isinstance(c, dict)
        )
        if violations:
            result.problems.append(f"sweep reports {violations} violations")
        result.encoders = payload["totals"]["encoders"]
        return result


class AnalyzeDeckWorkload:
    """``groupcode analyze`` on a deck of 25 encoders, all but the README and
    frozen-state encoders with 16 <= |S| <= 256."""

    name = "analyze-deck"
    tail_q = 0.9
    min_passes = 4  # 4 * 25 operations leave 10 beyond p90
    RANDOM_SHAPES = [(2, 4), (2, 4), (2, 5), (2, 5), (3, 3), (3, 3), (2, 6)]

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        deck: list[tuple[str, dict, bool]] = [
            ("readme", README_SPEC, False),
            ("frozen", FROZEN_SPEC, False),
        ]
        for p, ms in ((2, range(4, 9)), (3, range(3, 6))):
            for m in ms:
                deck.append((f"shift-{p}^{m}", shift_register(p, m), False))
                deck.append((f"cyclic-{p}^{m}", cyclic_register(p, m), False))
        rng = random.Random(f"analyze-deck:{seed}")
        for i, (p, m) in enumerate(self.RANDOM_SHAPES):
            spec = random_controllable(pkg, rng, p, m)
            deck.append((f"seed{seed}/random{i}-{p}^{m}", spec, True))
        self.items = [
            (key, _write_spec(workdir, key.replace("/", "-"), spec), spec, seeded)
            for key, spec, seeded in deck
        ]

    def run(self, item) -> OpResult:
        key, path, spec, seeded = item
        code, stdout, stderr, seconds = run_cli(self.pkg, ["analyze", path])
        result = OpResult(seconds, encoders=1, output_bytes=len(stdout) + len(stderr))
        if code != 0:
            result.problems.append(f"{key}: analyze exited {code}: {stderr.strip()[-200:]}")
            return result
        result.digests[f"analyze/{key}"] = sha256(stdout)
        if seeded:
            result.seeded_keys.add(f"analyze/{key}")
        payload = json.loads(stdout)
        order = 1
        for d in spec["S"]["factors"]:
            order *= d
        if not all(payload["predicates"].values()):
            result.problems.append(f"{key}: a predicate is false")
        if payload["controllable"] != (payload["chain_sizes"][-1] == order):
            result.problems.append(f"{key}: verdict disagrees with the last chain size")
        if seeded and not payload["controllable"]:
            result.problems.append(f"{key}: a rank-tested controllable encoder is reported not controllable")
        return result


class StreamFramesWorkload:
    """Encode / membership / trellis frames on controllable encoders, 16 <= |S| <= 64."""

    name = "stream-frames"
    tail_q = 0.9
    min_passes = 4  # 4 * 25 frames leave 10 beyond p90
    SHAPES = [(2, 4), (2, 5), (2, 6), (3, 3), (5, 2)]
    FRAMES_PER_ENCODER = 5
    WORD = 2048
    SECTIONS = 32

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        rng = random.Random(f"stream-frames:{seed}")
        encoders = []
        for p, m in self.SHAPES:
            spec = observed_shift_register(p, m)
            name = f"obs-{p}^{m}"
            encoders.append((name, p, m, spec, _write_spec(workdir, name, spec)))
        order = [e for e in encoders for _ in range(self.FRAMES_PER_ENCODER)]
        rng.shuffle(order)
        self.items = []
        for i, (name, p, m, spec, path) in enumerate(order):
            state = [rng.randrange(p) for _ in range(m)]
            word = [rng.randrange(p) for _ in range(self.WORD)]
            self.items.append(
                {
                    "key": f"seed{seed}/frame{i:02d}-{name}",
                    "name": name,
                    "spec": spec,
                    "path": path,
                    "state": state,
                    "state_arg": ",".join(map(str, state)),
                    "word": word,
                    "inputs_arg": ",".join(map(str, word)),
                    "dot": str(workdir / f"frame{i:02d}.dot"),
                }
            )

    def run(self, item) -> OpResult:
        pkg = self.pkg
        key = item["key"]
        result = OpResult(0.0, encoders=1)
        argv = ["encode", item["path"], "--state", item["state_arg"],
                "--inputs", item["inputs_arg"], "--zero-tail"]
        code, table, stderr, seconds = run_cli(pkg, argv)
        result.latency_s += seconds
        result.output_bytes += len(table) + len(stderr)
        if code != 0:
            result.problems.append(f"{key}: encode exited {code}: {stderr.strip()[-200:]}")
            return result
        result.digests[f"encode/{key}"] = sha256(table)
        result.seeded_keys.add(f"encode/{key}")
        if "unreachable" in table:
            result.problems.append(f"{key}: the zero tail does not reach the identity state")
            return result
        rows = [line.split() for line in table.splitlines()[1:]]
        states = [tuple(int(c) for c in row[2]) for row in rows]
        outputs = [tuple(int(c) for c in row[3]) for row in rows]
        if [int(row[1]) for row in rows[: len(item["word"])]] != item["word"]:
            result.problems.append(f"{key}: the table does not replay the input word")
        if not rows or any(c != 0 for c in states[-1]):
            result.problems.append(f"{key}: the zero tail does not end at the identity state")
            return result

        started = time.perf_counter()
        enc = pkg.encoder_from_spec(item["spec"])
        window = pkg.Window(enc.output_group, 0, outputs)
        witness = pkg.trellis.codeword_witness(enc, window)
        result.latency_s += time.perf_counter() - started
        if witness is None:
            result.problems.append(f"{key}: codeword_witness found no witness")
        elif witness != [tuple(item["state"])] + states:
            result.problems.append(f"{key}: the witness is not the encoded state sequence")

        dot_path = Path(item["dot"])
        dot_path.unlink(missing_ok=True)
        argv = ["trellis", item["path"], "--sections", str(self.SECTIONS), "--out", item["dot"]]
        code, stdout, stderr, seconds = run_cli(pkg, argv)
        result.latency_s += seconds
        if code != 0:
            result.problems.append(f"{key}: trellis exited {code}: {stderr.strip()[-200:]}")
            return result
        dot = dot_path.read_bytes()
        result.output_bytes += len(stdout) + len(stderr) + len(dot)
        result.digests[f"trellis/{item['name']}-k{self.SECTIONS}"] = sha256(dot)
        p, m = item["spec"]["U"]["factors"][0], len(item["state"])
        edges = self.SECTIONS * p * p ** m
        nodes = (self.SECTIONS + 1) * p ** m
        lines = dot.count(b"\n")
        if lines != 4 + nodes + edges:
            result.problems.append(f"{key}: DOT has {lines} lines, expected {4 + nodes + edges}")
        return result


WORKLOADS = {
    cls.name: cls for cls in (SweepWorkload, AnalyzeDeckWorkload, StreamFramesWorkload)
}
