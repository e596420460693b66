"""Spans and counters around shpulse's module-boundary calls.

The benchmark installs these wrappers from outside the package: each hook
replaces one function binding in a loaded ``shpulse`` module (or one method
of a class) by a wrapper that times the call, so nothing under ``src/``
changes.  Spans nest, and a span's self time is its duration minus the time
its child spans cover.  Spans are kept in memory and written out once, at
the end of the run.

High-frequency leaf calls (the transport's right-hand side evaluates the
potential some 21k times per pulse) are aggregated into per-name totals
only; every other span is also recorded individually with its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (span name, module, attribute, patch every shpulse binding of the object).
# With the flag off only the named module's binding is wrapped: the
# transport's calls to ``potential``, ``plucker`` and ``is_lagrangian`` go
# through the ``shooting`` bindings, and the CLI formats through its own.
HOOKS = (
    ("pulse.seed", "pulse", "seed_from_normal_form", True),
    ("pulse.newton", "pulse", "newton_solve", True),
    ("pulse.jacobian", "pulse", "jacobian", True),
    ("pulse.save", "pulse", "save", True),
    ("pulse.load", "pulse", "load", True),
    ("spectrum.count", "spectrum", "count_unstable", True),
    ("shooting.transport", "shooting", "integrate_frame", True),
    ("shooting.potential", "shooting", "potential", False),
    ("shooting.frame_at", "shooting", "FrameTrajectory.frame_at", False),
    ("shooting.csv", "shooting", "write_trajectory", True),
    ("model.coefficient_matrix", "model", "coefficient_matrix", True),
    ("lagrangian.plucker", "shooting", "plucker", False),
    ("lagrangian.is_lagrangian", "shooting", "is_lagrangian", False),
    ("conjugate.scan", "conjugate", "scan_and_refine", True),
    ("conjugate.classify", "conjugate", "classify", True),
    ("conjugate.report", "conjugate", "stability_report", True),
    ("cli.format", "cli", "format_report", False),
    ("verify.bundle", "verify", "bundle_from", True),
    ("verify.run_all", "verify", "run_all", True),
    ("verify.robustness", "verify", "check_robustness", True),
    ("verify.invariants", "verify", "check_invariants", True),
    ("verify.oracle", "verify", "check_constant_coefficient_oracle", True),
    ("lagrangian.fixtures", "verify", "check_fixtures", True),
)

MODULES = ("pulse", "spectrum", "shooting", "model", "lagrangian", "conjugate",
           "cli", "verify")

# hot leaf calls, aggregated only; none of them makes a wrapped call
HOT = frozenset({"shooting.potential", "model.coefficient_matrix",
                 "lagrangian.plucker", "lagrangian.is_lagrangian"})


def _samples(args, kwargs, result):
    return {"shooting.samples": len(result.samples)}


def _dimension(args, kwargs, result):
    pulse = args[0] if args else kwargs["pulse"]
    return {"spectrum.dim": 2 * pulse.N + 1}


def _crossings(args, kwargs, result):
    return {"conjugate.crossings": len(result.locations)}


# counters read off a call's arguments or result
NOTES = {"shooting.transport": _samples, "spectrum.count": _dimension,
         "conjugate.scan": _crossings}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Untraced:
    """Stand-in used by untraced runs: regions and counters cost nothing."""

    @contextmanager
    def region(self, name: str):
        yield

    def count(self, name: str, n: float) -> None:
        pass


class Tracer:
    """Collects spans and counters for the calls made while it is installed."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.absent: list[str] = []
        self._stack: list[list] = []  # [child time, span index] of open spans
        self._patches: list[tuple[object, str, object]] = []

    # --- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> tuple:
        parent = self._stack[-1][1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        frame = [0.0, index]
        self._stack.append(frame)
        return name, frame, time.perf_counter()

    def _close(self, token: tuple) -> None:
        end = time.perf_counter()
        name, frame, start = token
        duration = end - start
        self._stack.pop()
        stat = self.stats.setdefault(name, Stat())
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        span = self.spans[frame[1]]
        span[1], span[2] = start, end

    @contextmanager
    def region(self, name: str):
        """A span around benchmark code that is not a wrapped call."""
        token = self._open(name)
        try:
            yield
        finally:
            self._close(token)

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # --- installing the hooks --------------------------------------------

    def _wrap(self, name: str, fn):
        if name in HOT:
            return self._wrap_leaf(name, fn)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(token)
            if note is not None:
                try:
                    for key, n in note(args, kwargs, result).items():
                        self.count(key, n)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # the call's shape changed; the counter stays absent
            return result

        return traced

    def _wrap_leaf(self, name: str, fn):
        """Lean wrapper for a hot call that makes no wrapped call itself."""
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration
                if stack:
                    stack[-1][0] += duration

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every hook; a hook whose target no longer exists is absent."""
        loaded = {}
        for module in MODULES:
            try:
                loaded[module] = importlib.import_module(f"shpulse.{module}")
            except ImportError:
                pass
        for name, module, attr, everywhere in HOOKS:
            *path, leaf = attr.split(".")
            try:
                owner = loaded[module]
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (KeyError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            if isinstance(owner, type) or not everywhere:
                self._patch(owner, leaf, wrapped)
                continue
            for mod in loaded.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
                    elif isinstance(value, tuple) and any(v is original for v in value):
                        # e.g. verify.QUICK_CHECKS holds the check functions
                        self._patch(mod, key, tuple(wrapped if v is original else v
                                                    for v in value))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # --- results ----------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def self_time(self, *names: str) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def module_self_times(self) -> dict[str, float]:
        """Self time summed by the module prefix of each span name."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + stat.self_time
        return out

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["absent"] = self.absent
        doc["stats"] = {n: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                        for n, s in sorted(self.stats.items())}
        doc["counters"] = self.counters
        doc["spans"] = [{"name": n, "start": a, "end": b, "parent": p}
                        for n, a, b, p in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
