"""Outside-in layer trace: wrap groupcode's public functions at module boundaries.

The tracer replaces each target function with a timing wrapper in every
``groupcode`` namespace that holds it (the defining module and every module
that imported the name with ``from ... import``), so nested calls between
modules are captured.  Nothing under ``src/`` changes; ``uninstall`` puts the
original objects back.

Spans are aggregated as they close: per span name the number of calls and the
self time (the span's duration minus the time covered by wrapped child spans).
A call into a span name that is already open on the stack is passed through
unrecorded, so ``encoder_from_spec`` calling ``encoder_from_extension`` counts
as one ``encoder.build`` and recursion is not double counted.  Time spent in
the tracer's own count hooks is charged to no span.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute path, span name, count hook name).  A target without a
# span runs only its hook, so the time stays with the caller's span.
TARGETS = [
    ("groups", "enumerate_homs", "groups.enumerate_homs", "homs"),
    ("groups", "Subgroup.is_closed", "groups.Subgroup.is_closed", None),
    ("groups", "recognize", "groups.recognize", None),
    ("groups", "recognize_with_iso", "groups.recognize", None),
    ("groups", "quotient", "groups.quotient", None),
    ("extension", "decompose", "extension.decompose", None),
    ("encoder", "encoder_from_extension", "encoder.build", None),
    ("encoder", "encoder_from_spec", "encoder.build", None),
    ("encoder", "encode_forward", "encoder.encode_forward", None),
    ("encoder", "zero_tail", "encoder.zero_tail", None),
    ("control", "decide_controllability", "control.decide", None),
    ("control", "forward_chain", "control.forward_chain", None),
    ("control", "exact_reach", "control.exact_reach", None),
    ("control", "past_kernel", "control.past_kernel", None),
    ("control", "structure_report", "control.structure_report", None),
    ("control", "analysis_json", "control.analysis_json", None),
    ("trellis", "export_dot", "trellis.export_dot", "dot"),
    ("trellis", "branches", "trellis.branches", None),
    ("trellis", "codeword_witness", "trellis.codeword_witness", None),
    ("sweep", "sweep_theorems", "sweep.sweep_theorems", None),
    ("sweep", "enumerate_extensions", "sweep.enumerate_extensions", "instances"),
    ("sweep", "enumerate_encoders", None, "encoders"),
    ("cli", "main", "cli.main", None),
]

@dataclass
class _Open:
    start: float
    child: float = 0.0


@dataclass
class Trace:
    """Aggregated spans and counters of one traced pass."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Installs span wrappers on an imported ``groupcode`` package."""

    def __init__(self, package) -> None:
        self.package = package
        self.trace = Trace()
        self.absent: list[str] = []
        self.hook_failures: list[str] = []
        self._stack: list[_Open] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _namespaces(self):
        prefix = self.package.__name__
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _resolve(self, module: str, path: str):
        mod = sys.modules.get(f"{self.package.__name__}.{module}")
        if mod is None:
            return None, None, None
        owner = mod
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        original = getattr(owner, parts[-1], None)
        if original is None:
            return None, None, None
        return owner, parts[-1], original

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in self._namespaces():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self) -> "Tracer":
        self.absent = []
        for module, path, span, hook in TARGETS:
            owner, attr, original = self._resolve(module, path)
            if original is None:
                self.absent.append(f"{module}.{path}")
                continue
            if span is None:
                wrapper = self._count_wrapper(original, hook)
            else:
                wrapper = self._span_wrapper(original, span, hook)
            self._patch(owner, attr, original, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self) -> None:
        self.trace = Trace()

    # -- wrappers ---------------------------------------------------------

    def _run_hook(self, hook: str | None, args, kwargs, result) -> None:
        if hook is None:
            return
        started = time.perf_counter()
        try:
            _HOOKS[hook](self.trace.counts, args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.hook_failures.append(f"{hook}: {type(exc).__name__}: {exc}")
        if self._stack:
            self._stack[-1].child += time.perf_counter() - started

    def _span_wrapper(self, original: Callable, span: str, hook: str | None) -> Callable:
        tracer = self
        module = span.split(".", 1)[0]

        def traced(*args, **kwargs):
            if span in tracer._open:
                return original(*args, **kwargs)
            frame = _Open(time.perf_counter())
            tracer._stack.append(frame)
            tracer._open.add(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                errors = tracer.trace.errors
                errors[module] = errors.get(module, 0) + 1
                raise
            finally:
                duration = time.perf_counter() - frame.start
                tracer._stack.pop()
                tracer._open.discard(span)
                trace = tracer.trace
                trace.calls[span] = trace.calls.get(span, 0) + 1
                trace.self_s[span] = trace.self_s.get(span, 0.0) + duration - frame.child
                if tracer._stack:
                    tracer._stack[-1].child += duration
            tracer._run_hook(hook, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _count_wrapper(self, original: Callable, hook: str) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer._run_hook(hook, args, kwargs, result)
            return result

        counted.__wrapped__ = original
        return counted


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def _hook_homs(counts, args, kwargs, result) -> None:
    """Candidate image tuples, counted through the public group API."""
    surjective = kwargs.get("surjective_only", args[2] if len(args) > 2 else False)
    if not surjective:
        return
    source, target = args[0], args[1]
    candidates = 1
    for d in source.factors:
        candidates *= sum(1 for a in target.elements() if d % target.element_order(a) == 0)
    _add(counts, "groups.hom_candidates", candidates)
    _add(counts, "groups.surjections", len(result))


def _hook_dot(counts, args, kwargs, result) -> None:
    _add(counts, "trellis.export_dot.bytes", len(result.encode("utf-8")))


def _hook_instances(counts, args, kwargs, result) -> None:
    _add(counts, "sweep.instances", len(result))


def _hook_encoders(counts, args, kwargs, result) -> None:
    _add(counts, "sweep.encoders", len(result))


_HOOKS = {
    "homs": _hook_homs,
    "dot": _hook_dot,
    "instances": _hook_instances,
    "encoders": _hook_encoders,
}
