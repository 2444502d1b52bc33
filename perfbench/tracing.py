"""The traced run: spans around each layer's public entry point.

The wrappers are installed from outside, at the names the pipeline looks
the entry points up by, and removed again after the traced round.  Each
call inside a job records a span ``[name, start, end, parent, job]``;
calls outside a job (set-up, the benchmark's own checks) pass straight
through.  An entry point that no longer exists is skipped, so its time
shows up as unattributed rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, layer) for every wrapped entry point.  A layer's
#: metric is ``<layer>_s``; the same layer may be looked up in two places.
ENTRY_POINTS = [
    ("repro.core.pipeline", "ingest_binary", "loader.ingest"),
    ("repro.core.pipeline", "compile_to_lir", "minicc.frontend"),
    ("repro.core.pipeline", "lift_program", "lifter.lift"),
    ("repro.core.pipeline", "run_refinement", "refine.refine"),
    ("repro.core.pipeline", "place_fences", "fences.place"),
    ("repro.core.pipeline", "merge_fences", "fences.merge"),
    ("repro.core.pipeline", "compile_lir_to_arm", "codegen.codegen"),
    ("repro.core.pipeline", "verify_module", "lir.verify"),
    ("repro.opt.pass_manager", "verify_module", "lir.verify"),
    ("repro.opt.pass_manager", "clone_module", "lir.clone"),
    ("repro.analysis.summaries", "analyze_module", "analysis.escape"),
    ("repro.analysis.delayset", "analyze_module", "analysis.escape"),
    ("repro.analysis.delayset", "elide_redundant_fences", "analysis.delayset"),
    ("repro.analysis.sync", "compute_locksets", "analysis.locksets"),
    ("repro.analysis.tv.checker", "TVChecker.check_pass", "analysis.tv"),
    ("repro.arm.emulator", "ArmEmulator.run", "arm.run"),
]

#: Job phases: the benchmark's own root spans around the timed calls.
ROOTS = ("translate", "emulate")


class Tracer:
    """Spans of one traced round, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job = ""
        self.counts: dict[str, int] = {}

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if layer == "lifter.lift":
                self.count("lifter.lir_instructions",
                           result.instruction_count())
            return result
        return traced

    # ---- results ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Layer (or root) name -> summed self time: duration minus the
        time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child[i])
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def job_seconds(self) -> float:
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0)

    def write(self, directory: Path, workload: str, table: str) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{workload}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
        (directory / f"{workload}-layers.txt").write_text(table)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point for the extent of the block."""
    undo: list = []

    def patch(owner, attr: str, layer: str, getter, setter) -> None:
        original = getter(owner, attr)
        setter(owner, attr, tracer.wrap(layer, original))
        undo.append((owner, attr, original, setter))

    for module_name, attr, layer in ENTRY_POINTS:
        try:
            owner = importlib.import_module(module_name)
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        patch(owner, attr, layer, getattr, setattr)
    try:
        from repro.opt import pass_manager
    except ImportError:
        pass
    else:
        for table in (pass_manager.FUNCTION_PASSES,
                      pass_manager.MODULE_PASSES):
            for name in list(table):
                patch(table, name, f"opt.{name}", dict.__getitem__,
                      dict.__setitem__)
    try:
        yield
    finally:
        for owner, attr, original, setter in reversed(undo):
            setter(owner, attr, original)


def layer_table(workload: str, selfs: dict[str, float],
                calls: dict[str, int], job_s: float) -> str:
    """A plain-text per-layer table: self time, share of job time, calls."""
    lines = [f"# {workload}: self time per layer over one traced round "
             f"({job_s:.3f} s of job time)",
             f"{'layer':<24} {'self_s':>10} {'share':>7} {'calls':>8}"]
    rows = sorted(((n, s) for n, s in selfs.items() if n not in ROOTS),
                  key=lambda r: -r[1])
    unattributed = sum(selfs.get(r, 0.0) for r in ROOTS)
    for name, seconds in rows + [("(unattributed)", unattributed)]:
        share = seconds / job_s if job_s else 0.0
        lines.append(f"{name:<24} {seconds:>10.4f} {share:>7.1%} "
                     f"{calls.get(name, 0):>8}")
    return "\n".join(lines) + "\n"
