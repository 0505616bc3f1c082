"""Spans around the public functions of each inls_lab module.

The tracer rebinds module attributes from outside the library: for each
target it finds the original function, then replaces every attribute of
every loaded ``inls_lab`` module (and the target's own module) that is
bound to that same object.  Calls made through ``from x import f``
names are therefore caught too.  Spans are kept in memory as flat
lists and written once, at the end of a run.

Untraced runs never construct a Tracer, so they run the library as is.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

# (metric prefix, module, attribute).  Only names the library keeps as
# public API are listed; a name that disappears reports null with the
# reason instead of breaking the run.
TARGETS = (
    ("grid.build_grid", "inls_lab.grid", "build_grid"),
    ("grid.solve_shifted", "inls_lab.grid", "solve_shifted"),
    ("grid.solve_tridiagonal", "inls_lab.grid", "solve_tridiagonal"),
    ("grid.gradient_norm_sq", "inls_lab.grid", "gradient_norm_sq"),
    ("groundstate.petviashvili", "inls_lab.groundstate", "petviashvili_solve"),
    ("groundstate.shooting", "inls_lab.groundstate", "shooting_solve"),
    ("groundstate.derive_thresholds", "inls_lab.groundstate", "derive_thresholds"),
    ("groundstate.solve_ivp", "scipy.integrate", "solve_ivp"),
    ("functionals.evaluate_all", "inls_lab.functionals", "evaluate_all"),
    ("functionals.k_functional", "inls_lab.functionals", "k_functional"),
    ("evolve.evolve", "inls_lab.evolve", "evolve"),
    ("classify.classify_all", "inls_lab.classify", "classify_all"),
    ("classify.optimal_frequency", "inls_lab.classify", "optimal_frequency"),
    ("potential.check_assumptions", "inls_lab.potential", "check_assumptions"),
    ("potential.eval_potential", "inls_lab.potential", "eval_potential"),
)

# Span record layout: [label, parent index, start, end, phase, tag].
LABEL, PARENT, START, END, PHASE, TAG = range(6)


def _tag_grid_n(args, kwargs):
    grid = kwargs.get("grid")
    return None if grid is None else grid.N


def _tag_first_len(args, kwargs):
    return len(args[0]) if args else None


TAGGERS = {
    "groundstate.petviashvili": _tag_grid_n,
    "grid.solve_tridiagonal": _tag_first_len,
}


class Tracer:
    """Installs wrappers, records spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Matrix repeat bookkeeping for the solves issued from evolve().
        self.evolve_solves = 0
        self.evolve_repeats = 0
        self._prev_key: tuple[int, object] | None = None

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for label, modname, attr in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError as exc:
                self.missing[label] = f"module {modname} not importable: {exc}"
                continue
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.missing[label] = f"{modname}.{attr} no longer exists"
                continue
            wrapper = self._wrap(label, original)
            owners = [module] + [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == "inls_lab" or name.startswith("inls_lab."))
            ]
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, name, value))
                        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def _wrap(self, label, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tagger = TAGGERS.get(label)
        track_repeat = label == "grid.solve_tridiagonal"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if track_repeat and parent >= 0 and spans[parent][LABEL] == "evolve.evolve":
                self._note_evolve_solve(parent, args, kwargs)
            tag = tagger(args, kwargs) if tagger is not None else None
            rec = [label, parent, 0.0, 0.0, self.phase, tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def _note_evolve_solve(self, parent, args, kwargs) -> None:
        """Count solves whose matrix equals the previous one of the same march."""
        import numpy as np

        diag = args[0] if args else kwargs["diag"]
        off = args[1] if len(args) > 1 else kwargs["off"]
        self.evolve_solves += 1
        prev = self._prev_key
        if (
            prev is not None
            and prev[0] == parent
            and np.array_equal(prev[1], diag)
            and np.array_equal(prev[2], off)
        ):
            self.evolve_repeats += 1
        # evolve() builds both bands afresh for every solve and never writes
        # to them afterwards, so holding references is enough.
        self._prev_key = (parent, diag, off)

    # -- aggregation --------------------------------------------------

    def summarize(self, phase: str = "measure") -> dict[str, dict]:
        """Per label: calls, total and self seconds, and child counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = {}
        for i, rec in enumerate(spans):
            if rec[PHASE] != phase:
                continue
            s = out.setdefault(
                rec[LABEL], {"calls": 0, "total": 0.0, "self": 0.0, "by_tag": {}}
            )
            dur = rec[END] - rec[START]
            s["calls"] += 1
            s["total"] += dur
            s["self"] += dur - child_time[i]
            if rec[TAG] is not None:
                t = s["by_tag"].setdefault(rec[TAG], [0, 0.0])
                t[0] += 1
                t[1] += dur
        return out

    def children_of(self, parent_label: str, child_label: str, phase: str = "measure"):
        """(parent calls, child calls, child seconds) over direct children."""
        spans = self.spans
        parents = 0
        count = 0
        seconds = 0.0
        for rec in spans:
            if rec[PHASE] != phase:
                continue
            if rec[LABEL] == parent_label:
                parents += 1
            elif (
                rec[LABEL] == child_label
                and rec[PARENT] >= 0
                and spans[rec[PARENT]][LABEL] == parent_label
            ):
                count += 1
                seconds += rec[END] - rec[START]
        return parents, count, seconds

    def write(self, path) -> None:
        """Dump every span as one JSON document (gzip)."""
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "fields": ["label", "parent", "start", "end", "phase", "tag"],
                    "spans": self.spans,
                    "missing": self.missing,
                },
                fh,
                separators=(",", ":"),
            )
