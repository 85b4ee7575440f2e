"""Frontier probe: the largest p=2 sweep grid that finishes within a fixed budget.

Not a gated workload; run it on demand:

    python3 perfbench/frontier.py --budget 60 [--stop 16]

One child process runs ``groupcode sweep --p 2 --max-s-order k`` for
k = 1, 2, ... in turn and reports each grid as it starts and finishes.  Each
grid gets ``--budget`` seconds; when a grid overruns it, the child is killed
and the grid is recorded as the first timeout.  When the child dies instead
(an exception that is not a ``GroupCodeError``), the grid it was running and
its exit code are recorded as the crash.  The result is one JSON line with
every finished grid, the largest one, the first timeout and the crash (both
null when every grid up to ``--stop`` finished), plus the run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
P = 2


def child(stop: int, workdir: Path) -> int:
    """Run the grids in order, one line per event on stdout."""
    sys.path.insert(0, str(SRC))
    from groupcode.cli import main

    out = workdir / "report.json"
    for k in range(1, stop + 1):
        print(json.dumps({"event": "start", "max_s_order": k}), flush=True)
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["sweep", "--p", str(P), "--max-s-order", str(k), "--out", str(out)])
        seconds = time.perf_counter() - started
        totals = json.loads(out.read_text())["totals"] if code == 0 else {}
        print(json.dumps({"event": "done", "max_s_order": k, "exit_code": code,
                          "seconds": seconds, "instances": totals.get("instances"),
                          "encoders": totals.get("encoders")}), flush=True)
    return 0


def probe(stop: int, budget: float) -> dict:
    loadavg = os.getloadavg()[0]
    workdir = ROOT / ".bench_out" / f"frontier-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, GROUPCODE_JOBS="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--stop", str(stop), "--workdir", str(workdir)]
    finished, timeout, crash, current = [], None, None, None
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, bufsize=0, env=env)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            deadline, pending, eof = None, b"", False
            while not eof:
                wait = None if deadline is None else max(0.0, deadline - time.monotonic())
                if not sel.select(wait):
                    timeout = {"max_s_order": current, "budget_s": budget}
                    break
                data = os.read(proc.stdout.fileno(), 65536)
                eof = not data
                pending += data
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    event = json.loads(line)
                    if event.pop("event") == "start":
                        current = event["max_s_order"]
                        deadline = time.monotonic() + budget
                    else:
                        finished.append(event)
                        current, deadline = None, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if timeout is None and (current is not None or proc.returncode != 0):
        crash = {"max_s_order": current, "exit_code": proc.returncode}
    ok = [g["max_s_order"] for g in finished if g["exit_code"] == 0]
    return {
        "p": P,
        "budget_s": budget,
        "finished": finished,
        "largest_finished": max(ok, default=None),
        "first_timeout": timeout,
        "crash": crash,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m_at_start": loadavg,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stop", type=int, default=16)
    parser.add_argument("--budget", type=float, default=60.0, help="seconds per grid")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "groupcode" / "__init__.py").is_file():
        print(f"frontier: no groupcode sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child(args.stop, Path(args.workdir))
    print(json.dumps(probe(args.stop, args.budget)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
