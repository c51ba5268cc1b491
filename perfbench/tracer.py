"""Span tracer that wraps the package's callables from outside the package.

Every traced callable is replaced in every ``quasikin`` module namespace
(and class) that holds it, found by identity rather than from a list of
call sites, so an alias cannot keep calling the untraced original.  The
namespaces the benchmark relies on are listed in ``REQUIRED_SITES``;
``install`` fails if any of them was not found, and ``unpatched`` rescans
after the run for references that appeared later.

Importing this module must not import numpy: the job process imports it
before the package whose import time it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute, span name)
TRACED = (
    ("quasikin.cli", "main", "cli.main"),
    ("quasikin.config", "load_config", "config.load_config"),
    ("quasikin.vlasov", "run", "vlasov.run"),
    ("quasikin.vlasov", "advect_x", "vlasov.advect_x"),
    ("quasikin.vlasov", "advect_v", "vlasov.advect_v"),
    ("quasikin.vlasov", "observe", "vlasov.observe"),
    ("quasikin.grids", "moments", "grids.moments"),
    ("quasikin.grids", "stress_moments", "grids.stress_moments"),
    ("quasikin.grids", "write_snapshot", "grids.write_snapshot"),
    ("quasikin.monge_ampere", "solve_field", "monge_ampere.solve_field"),
    ("quasikin.collision", "bgk_collide", "collision.bgk_collide"),
    ("quasikin.collision", "match_discrete_maxwellian", "collision.match_discrete_maxwellian"),
    ("quasikin.diagnostics", "build_record", "diagnostics.build_record"),
    ("quasikin.diagnostics", "modulated_energy", "diagnostics.modulated_energy"),
    ("quasikin.euler", "euler_step", "euler.euler_step"),
    ("quasikin.euler", "EulerReference.advance_to", "euler.advance_to"),
)

# Namespaces where the simulate path looks the traced callables up.
REQUIRED_SITES = frozenset(
    [f"quasikin.vlasov.{n}" for n in (
        "advect_x", "advect_v", "moments", "solve_field", "bgk_collide",
        "build_record", "stress_moments", "observe")]
    + ["quasikin.collision.moments", "quasikin.collision.match_discrete_maxwellian",
       "quasikin.diagnostics.moments", "quasikin.diagnostics.modulated_energy",
       "quasikin.euler.euler_step", "quasikin.euler.EulerReference.advance_to",
       "quasikin.cli.load_config", "quasikin.cli.run", "quasikin.cli.write_snapshot"]
)


class TracerError(RuntimeError):
    """The tracer could not cover every call site."""


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quasikin" or name.startswith("quasikin."))]


def _namespaces():
    """(site prefix, namespace dict, owner) for every package module and class."""
    seen = set()
    for mod in _package_modules():
        yield mod.__name__, vars(mod), mod
        for value in list(vars(mod).values()):
            if (isinstance(value, type) and value.__module__.startswith("quasikin")
                    and id(value) not in seen):
                seen.add(id(value))
                yield f"{value.__module__}.{value.__qualname__}", vars(value), value


def replace_everywhere(pairs: list[tuple]) -> list[str]:
    """Replace each (original, replacement) in every package namespace.

    Originals are matched by identity.  Returns the sites replaced, as
    ``module.attr`` or ``module.Class.attr``.
    """
    by_id = {id(old): (old, new) for old, new in pairs}
    sites = []
    for prefix, namespace, owner in _namespaces():
        for attr, value in list(namespace.items()):
            old, new = by_id.get(id(value), (None, None))
            if old is not None and value is old:
                setattr(owner, attr, new)
                sites.append(f"{prefix}.{attr}")
    return sites


class Tracer:
    """Records one span per traced call and aggregates self time per name.

    A span's self time is its duration minus the durations of the spans it
    directly caused.  Spans stay in memory as (id, parent id, name, start,
    end) and are written out by ``write_spans`` after the run.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.solves: list[tuple[int, int]] = []  # (newton iterations, damping steps)
        self.sites: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._originals: list = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        keep_report = name == "monge_ampere.solve_field"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.spans[span_id] = (span_id, parent, name, start, end)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            if keep_report:
                report = result[1]
                self.solves.append((report.iterations, report.damping_steps))
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each traced callable; check coverage."""
        pairs = []
        for module, path, name in TRACED:
            fn = _resolve(module, path)
            self._originals.append(fn)
            pairs.append((fn, self._wrap(name, fn)))
        self.sites = replace_everywhere(pairs)
        missing = REQUIRED_SITES - set(self.sites)
        if missing:
            raise TracerError(f"call sites not found: {sorted(missing)}")

    def unpatched(self) -> list[str]:
        """Namespaces that still hold an untraced original."""
        return [
            f"{prefix}.{attr}"
            for prefix, namespace, _ in _namespaces()
            for attr, value in namespace.items()
            if any(value is fn for fn in self._originals)
        ]

    def summary(self) -> dict:
        observe_starts = [s[3] for s in self.spans if s[2] == "vlasov.observe"]
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "solves": self.solves,
            "step_s": [b - a for a, b in zip(observe_starts, observe_starts[1:])],
            "sites": sorted(self.sites),
            "unpatched": self.unpatched(),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)
