"""Command-line interface: analyze, encode, trellis, and sweep.

Exit codes: 0 success, 1 structural-predicate violation or a disagreement
between the reachability chain and the brute-force oracle in ``analyze`` or
``sweep`` (an implementation bug signal), 2 user error (bad flags, malformed
or invalid encoder spec), 3 output I/O error.  All outputs are
byte-deterministic for identical inputs; the sweep runs in one process.

``encode`` runs on indices: the parsed input symbols become input indices,
the encoder's shared forward walk turns them into pair positions
``j * |S| + i``, and each distinct position's row tail is rendered once.
Labels are rendered in bulk from indices, one
:func:`groupcode.groups.element_labels` call each for the distinct
positions' inputs, next states and outputs; no label is built from a tuple.
``trellis`` streams the chunks of :func:`groupcode.trellis._dot_lines`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Iterable

from .control import analysis_json
from .encoder import _input_indices, _walk, encoder_from_spec, zero_tail
from .errors import GroupCodeError, NotPrime, PredicateViolation, TooLarge
from .groups import element_labels
from .sweep import _json_pieces, sweep_theorems
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
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
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
    """Comma-separated integers; the empty string is no coordinates.

    A field is ASCII digits with an optional sign and surrounding spaces;
    an empty field, a non-ASCII digit or an ``_`` (which ``int`` would
    read) exits 2.
    """
    if text == "":
        return []
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("only ASCII digits, signs and spaces are read")
        return list(map(int, text.split(",")))
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
    u_group, s_group, y_group = enc.input_group, enc.state_group, enc.output_group
    u_rank, n_states = len(u_group.factors), s_group.order
    if args.state is None:
        s0_coords = s_group.identity()
    else:
        s0_coords = tuple(_parse_coords(args.state))
    if not s_group.contains(s0_coords):
        return _fail(f"state {args.state!r} is not in the state group", 2)
    flat = _parse_coords(args.inputs) if args.inputs else []
    if u_rank == 0:  # each listed coordinate is one empty symbol, written 0
        foreign = next((c for c in flat if c != 0), None)
        if foreign is not None:
            return _fail(
                f"input coordinate {foreign} is not 0, the trivial input group's one symbol", 2
            )
        symbols = [()] * len(flat)
    else:
        if len(flat) % u_rank != 0:
            return _fail(
                f"input list length {len(flat)} is not a multiple of the "
                f"input rank {u_rank}",
                2,
            )
        symbols = zip(*[iter(flat)] * u_rank)
    # the frame stays in pair positions j * |S| + i until each row is rendered
    final = s_group.index_of(s0_coords)  # checked above; no element index of S is built
    positions = _walk(enc._next, n_states, final, _input_indices(enc, symbols))
    lines = []
    if args.zero_tail:
        if positions:
            final = enc._next[positions[-1]]
        padding = zero_tail(enc, s_group.element_at(final), max_len=n_states + 1)
        if padding is None:
            lines.append(
                "zero tail: identity state unreachable "
                f"within {n_states + 1} steps\n"
            )
        else:
            positions += _walk(enc._next, n_states, final, _input_indices(enc, padding))

    # each distinct position's row tail (input, next state, output) is rendered once
    distinct = list(set(positions))
    rendered = map(
        "  {:<8} {:<10} {:<10}\n".format,
        element_labels(u_group, list(map(n_states.__rfloordiv__, distinct))),
        element_labels(s_group, list(map(enc._next.__getitem__, distinct))),
        element_labels(y_group, list(map(enc._out.__getitem__, distinct))),
    )
    tails = dict(zip(distinct, rendered))
    lines.append(f"{'i':>4}  {'u':<8} {'s':<10} {'y':<10}\n")
    rows = zip(itertools.count(1), map(tails.__getitem__, positions))
    lines.append("%4d%s" * len(positions) % tuple(itertools.chain.from_iterable(rows)))
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
    pieces = _json_pieces(report)
    _emit(itertools.chain(["\n"], pieces) if args.out is None else pieces, args.out)
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
