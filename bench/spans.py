"""Span recording around the public functions of wvsagnac, from outside.

`Tracer.install()` replaces every traced function with a wrapper wherever
the function object is bound in a loaded `wvsagnac` module: its defining
module, the names other modules imported from it (`wvsagnac.sweep.fit_center`,
`wvsagnac.design.output_spectrum`, `wvsagnac.cli.run_sweep`, ...) and the
package namespace. The click subcommand callbacks of `wvsagnac.cli` are
wrapped when that module is loaded. `restore()` puts every original back.

A span holds its name, start and end (perf_counter ns), the index of its
parent span, the job id and, for some functions, facts read off the call
(fit iterations, spectrum digest, emitted bytes, sweep rows, design paths).
Spans stay in memory until the run ends. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Functions traced in each module: the names other modules import, so every
# layer boundary the package crosses gets a span.
TRACED = {
    "classical": ("fringe_shift", "classical_intensity"),
    "weak": ("sagnac_phase", "weak_value", "weak_value_direct",
             "analytic_wavelength_shift"),
    "spectral": ("default_grid", "output_spectrum", "fit_center"),
    "sweep": ("run_sweep", "sensitivity"),
    "design": ("min_area", "feasible"),
    "geometry": ("multipass_design",),
}
# serialize is traced by suffix: one emitter per result type and format.
SERIALIZE_SUFFIXES = ("_to_csv", "_to_json")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info", "error",
                 "hidden_ns")

    def __init__(self, name, start, end=0, parent=None, job=None, info=None,
                 error=None, hidden_ns=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.info = info
        self.error = error
        self.hidden_ns = hidden_ns  # time the tracer itself spent inside

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.job,
                self.info, self.error, self.hidden_ns]


def _fit_info(args, kwargs, result):
    """Iterations, plus a digest of the spectrum and fit options. The digest
    is Python's 64-bit hash: digests are compared only within one job in
    one process, and it costs a quarter of a cryptographic hash."""
    spec = args[0] if args else kwargs["spec"]
    digest = hash((spec.intensities.tobytes(), spec.wavelengths.tobytes(),
                   spec.form_tag, repr((args[1:], sorted(kwargs.items())))))
    return {"iterations": result.iterations, "digest": digest}


def _sweep_info(args, kwargs, result):
    return {"rows": len(result.rows),
            "rows_failed": sum(1 for r in result.rows if r.failed)}


def _design_info(args, kwargs, result):
    beta_grid = args[1] if len(args) > 1 else kwargs["beta_grid"]
    return {"betas": len(beta_grid),
            "fallbacks": sum(1 for w in result.warnings if "falling back" in w),
            "feasible": bool(result.feasible)}


def _serialize_info(args, kwargs, result):
    return {"bytes": len(result.encode())}


HOOKS = {
    "spectral.fit_center": _fit_info,
    "sweep.run_sweep": _sweep_info,
    "design.min_area": _design_info,
}


class Tracer:
    """Records spans while `recording` is true; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = None
        self.recording = False
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            span = Span(name, clock(), parent=stack[-1] if stack else None,
                        job=tracer.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    t = clock()
                    span.info = hook(args, kwargs, result)
                    span.hidden_ns += clock() - t
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every traced function everywhere it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, names in TRACED.items():
            mod = importlib.import_module(f"wvsagnac.{short}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn,
                                                   HOOKS.get(f"{short}.{fname}")))
        ser = importlib.import_module("wvsagnac.serialize")
        for fname, fn in vars(ser).items():
            if callable(fn) and fname.endswith(SERIALIZE_SUFFIXES):
                wrappers[id(fn)] = (fn, self._wrap("serialize." + fname, fn,
                                                   _serialize_info))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "wvsagnac"
                                   or modname.startswith("wvsagnac.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        cli = sys.modules.get("wvsagnac.cli")
        if cli is not None:
            for cname, cmd in cli.main.commands.items():
                self._patched.append((cmd, "callback", cmd.callback))
                cmd.callback = self._wrap(f"cli.command.{cname}",
                                          cmd.callback, None)

    def restore(self):
        """Put back every original function install() replaced."""
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def dump(self, path, **extra):
        """Write the spans (and extra facts) as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": [s.to_list() for s in self.spans], **extra}, fh)

    def merge(self, path, job):
        """Append spans a child process dumped, under this process's job id."""
        with open(path) as fh:
            doc = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _, info, error, hidden in doc["spans"]:
            self.spans.append(Span(name, start, end,
                                   None if parent is None else parent + base,
                                   job, info, error, hidden))


def covered_ns(intervals, start, end):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans):
    """Each span's duration minus the part its children cover and the
    tracer's own time inside it."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [max(s.end - s.start - covered_ns(children.get(i, ()), s.start, s.end)
                - s.hidden_ns, 0)
            for i, s in enumerate(spans)]


def has_ancestor(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
