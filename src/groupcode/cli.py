"""Command-line interface: analyze, encode, trellis, and sweep.

Exit codes: 0 success, 1 structural-predicate violation or a disagreement
between the reachability chain and the brute-force oracle in ``analyze`` or
``sweep`` (an implementation bug signal), 2 user error (bad flags, malformed
or invalid encoder spec), 3 output I/O error.  All outputs are
byte-deterministic for identical inputs; sweep parallelism is bounded by the
GROUPCODE_JOBS environment variable (default 1, at most the CPU count) and
does not affect the output bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable

from .control import analysis_json
from .encoder import encode_forward, encoder_from_spec, zero_tail
from .errors import GroupCodeError, NotPrime, PredicateViolation, TooLarge
from .groups import format_element
from .sweep import sweep_theorems
from .trellis import _dot_lines

_EPILOG = (
    "Encoder spec files are JSON objects with keys U, S, Y (each "
    '{"factors": [...]}) and nu, omega (each {"gen_images": [[...], ...]}). '
    "Generator images are listed for the pair coordinates of the machine: "
    "input-group coordinates first, then state coordinates."
)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_encoder(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_fail(f"cannot read encoder spec {path!r}: {exc}", 2))
    try:
        return encoder_from_spec(data)
    except GroupCodeError as exc:
        raise SystemExit(_fail(f"invalid encoder spec {path!r}: {exc}", 2))


def _fail(message: str, code: int) -> int:
    print(f"groupcode: {message}", file=sys.stderr)
    return code


def _emit(lines: Iterable[str], path: str | None = None) -> None:
    """Write ``lines`` to ``path``, or to stdout when None; a failed write exits 3."""
    try:
        if path is None:
            sys.stdout.writelines(lines)
            sys.stdout.flush()  # a reader that closed the pipe fails here, not at exit
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
    except OSError as exc:
        target = "stdout" if path is None else repr(path)
        raise SystemExit(_fail(f"cannot write {target}: {exc}", 3))


def _parse_coords(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise SystemExit(_fail(f"cannot parse coordinates {text!r}: {exc}", 2))


def _cmd_analyze(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.spec)
    try:
        payload = analysis_json(enc)
    except PredicateViolation as exc:
        return _fail(f"structural predicate violated: {exc}", 1)
    _emit([_json_text(payload)])
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.spec)
    u_rank = len(enc.input_group.factors)
    if args.state is None:
        s0_coords = enc.state_group.identity()
    else:
        s0_coords = tuple(_parse_coords(args.state))
    if not enc.state_group.contains(s0_coords):
        return _fail(f"state {args.state!r} is not in the state group", 2)
    flat = _parse_coords(args.inputs) if args.inputs else []
    if u_rank == 0:
        inputs = [() for _ in flat]
    else:
        if len(flat) % u_rank != 0:
            return _fail(
                f"input list length {len(flat)} is not a multiple of the "
                f"input rank {u_rank}",
                2,
            )
        inputs = [tuple(flat[i : i + u_rank]) for i in range(0, len(flat), u_rank)]
    states, outputs = encode_forward(enc, s0_coords, inputs)
    rows = list(zip(inputs, states, outputs))
    lines = []
    if args.zero_tail:
        final = states[-1] if states else s0_coords
        padding = zero_tail(enc, final, max_len=enc.state_group.order + 1)
        if padding is None:
            lines.append(
                "zero tail: identity state unreachable "
                f"within {enc.state_group.order + 1} steps\n"
            )
        else:
            pad_states, pad_outputs = encode_forward(enc, final, padding)
            rows.extend(zip(padding, pad_states, pad_outputs))
    # each distinct element is rendered once, on first sight
    u_name = functools.cache(functools.partial(format_element, enc.input_group))
    s_name = functools.cache(functools.partial(format_element, enc.state_group))
    y_name = functools.cache(functools.partial(format_element, enc.output_group))
    lines.append(f"{'i':>4}  {'u':<8} {'s':<10} {'y':<10}\n")
    lines.extend(
        f"{i:>4}  {u_name(u):<8} {s_name(s):<10} {y_name(y):<10}\n"
        for i, (u, s, y) in enumerate(rows, start=1)
    )
    _emit(lines)
    return 0


def _cmd_trellis(args: argparse.Namespace) -> int:
    if args.sections < 0:
        return _fail("--sections must be >= 0", 2)
    enc = _load_encoder(args.spec)
    _emit(_dot_lines(enc, args.sections), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    primes = []
    for chunk in args.p.split(","):
        chunk = chunk.strip()
        if chunk:
            try:
                primes.append(int(chunk))
            except ValueError:
                return _fail(f"cannot parse prime list {args.p!r}", 2)
    if not primes:
        return _fail("no primes given", 2)
    try:
        report = sweep_theorems(primes, args.max_s_order, dedup=not args.no_dedup)
    except (NotPrime, TooLarge) as exc:
        return _fail(str(exc), 2)
    except PredicateViolation as exc:
        return _fail(f"structural predicate violated: {exc}", 1)
    _emit([report.summary_table(), "\n"])
    payload = _json_text(report.to_json_dict())
    _emit(["\n", payload] if args.out is None else [payload], args.out)
    print(f"sweep time: {report.elapsed_seconds:.2f}s", file=sys.stderr)
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcode",
        description="Group extension encoders, trellises, and controllability.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="controllability verdict and predicate report")
    analyze.add_argument("spec", help="encoder spec JSON file")
    analyze.set_defaults(func=_cmd_analyze)

    encode = sub.add_parser("encode", help="run the forward encoding recurrence")
    encode.add_argument("spec", help="encoder spec JSON file")
    encode.add_argument(
        "--state",
        default=None,
        help="initial state coordinates, comma separated (default: identity)",
    )
    encode.add_argument(
        "--inputs",
        default="",
        help="input coordinates, comma separated, consumed in input-rank blocks",
    )
    encode.add_argument(
        "--zero-tail",
        action="store_true",
        help="append the shortest padding word returning to the identity state",
    )
    encode.set_defaults(func=_cmd_encode)

    trellis = sub.add_parser("trellis", help="export the state diagram or trellis as DOT")
    trellis.add_argument("spec", help="encoder spec JSON file")
    trellis.add_argument("--sections", type=int, default=0, help="0 = state diagram, k = k sections")
    trellis.add_argument("--out", default=None, help="output path (default: stdout)")
    trellis.set_defaults(func=_cmd_trellis)

    sweep = sub.add_parser("sweep", help="exhaustively verify the family theorems")
    sweep.add_argument("--p", required=True, help="comma-separated list of primes")
    sweep.add_argument("--max-s-order", type=int, required=True, help="state-group order bound")
    sweep.add_argument("--out", default=None, help="write the JSON report here")
    sweep.add_argument(
        "--no-dedup",
        action="store_true",
        help="keep every embedded subgroup instead of one orbit representative",
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except GroupCodeError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    raise SystemExit(main())
