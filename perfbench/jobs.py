"""Workloads, their inputs, and the checked job the benchmark repeats.

A job hands one input to the public ``Lasagne`` API (after
``ingest_binary`` for an ELF input), runs the result on ``ArmEmulator``
and checks it.  Nothing here reaches below the calls a user makes.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import models

#: Kernel sizes: a quarter of ``repro.phoenix.SIZE_TINY`` (an eighth of its
#: work for matrix_multiply), so that a round of every workload takes a few
#: seconds and a run holds several rounds.  The translator's cost does not
#: depend on them; emulation time does.  Fixed here because the reference
#: models depend on them.
SIZES = {
    "histogram": {"N": 64},
    "kmeans": {"N": 8},
    "linear_regression": {"N": 16},
    "matrix_multiply": {"DIM": 4, "NELEM": 16},
    "string_match": {"N": 64},
}
KERNELS = tuple(SIZES)
MINIC = KERNELS + ("demo", "locked")
ELF = ("elf:memgrid", "elf:strings", "elf:sum")
TRANSLATED = ("lifted", "opt", "popt", "ppopt")
CONFIGS = ("native",) + TRANSLATED


@dataclass(frozen=True)
class Workload:
    options: dict           # keyword arguments of Lasagne(...)
    jobs: tuple             # (program, config) pairs, grouped by program


def _jobs(programs, configs, skip=()) -> tuple:
    return tuple((p, c) for p in programs for c in configs
                 if (p, c) not in skip)


#: Kernels whose unrefined (popt) translation under sync takes from 9 s to
#: minutes (README, Workloads): longer than a round may last.
SLOW_UNDER_SYNC = ("kmeans", "linear_regression", "string_match")

WORKLOADS = {
    # Lasagne() as `repro translate` runs it: escape tier, verifier on.
    "default": Workload({}, _jobs(MINIC, CONFIGS) + _jobs(ELF, TRANSLATED)),
    # The delay-set + lockset tier on the refined conflict graphs (ppopt)
    # and on the unrefined ones (popt).
    "sync": Workload({"fence_analysis": "sync"},
                     _jobs(MINIC, ("popt", "ppopt"),
                           skip={(p, "popt") for p in SLOW_UNDER_SYNC})),
    # Per-pass translation validation on the optimizer's two kinds of
    # input: compiled mini-C (native) and lifted, refined x86 (ppopt).
    "tv": Workload({"tv": True}, _jobs(MINIC, ("native", "ppopt"))),
}

#: Checks that fail on every run because of a known fault in the program
#: under test: the job still counts as failed, but the run stays correct.
#: The loader truncates the ``"%ld\n"`` format string of examples/elf/strings
#: to ``"%l"``, so both emulators print ``11`` where the C program prints
#: ``11\n``.
KNOWN_FAULTS = {("elf:strings", "model")}

#: Arm steps allowed per x86 step of the reference run, so a miscompiled
#: loop fails the job instead of running to the emulator's own budget.
STEP_BUDGET_FACTOR = 40


def load_api(root: Path) -> SimpleNamespace:
    """Import the translator from ``root/src``: the calls a user makes."""
    sys.path.insert(0, str(root / "src"))
    from repro import Lasagne
    from repro.analysis import check_module
    from repro.arm.emulator import ArmEmulator
    from repro.core import pipeline
    from repro.lir import AtomicRMW, CmpXchg
    from repro.minicc.codegen_x86 import compile_to_x86
    from repro.phoenix import scale
    from repro.x86.emulator import X86Emulator

    return SimpleNamespace(
        Lasagne=Lasagne, check_module=check_module, ArmEmulator=ArmEmulator,
        pipeline=pipeline, atomics=(AtomicRMW, CmpXchg),
        compile_to_x86=compile_to_x86, scale=scale, X86Emulator=X86Emulator)


# ---- inputs -------------------------------------------------------------


@dataclass
class Program:
    name: str
    source: Optional[str]    # mini-C text, or None for an ELF binary
    elf: Optional[bytes]
    obj: object              # X86Object of a mini-C program (ELF: per job)
    model: models.Expected   # the benchmark's own reference model
    x86: models.Expected     # the original binary run on X86Emulator
    x86_steps: int


def _model(name: str) -> models.Expected:
    if name in SIZES:
        return getattr(models, name)(**SIZES[name])
    return getattr(models, name.replace(":", "_"))()


def stream(name: str, output: list[str]) -> tuple[str, ...]:
    """An emulator's output in the form the reference models use."""
    return ("".join(output),) if name in ELF else tuple(output)


def load_program(api, root: Path, name: str) -> tuple[Program, float]:
    """Read or compile one input and compute its references.  Returns the
    program and the seconds its x86 reference run took."""
    source = elf = obj = None
    if name in SIZES:
        source = api.scale(name, SIZES[name]).source
    elif name in ELF:
        elf = (root / "examples" / "elf" / name[4:]).read_bytes()
    else:
        source = (root / "examples" / f"{name}.c").read_text()
    if source is not None:
        obj = api.compile_to_x86(source)
        image = obj
    else:
        image, _report = api.pipeline.ingest_binary(elf)
    start = time.perf_counter()
    emu = api.X86Emulator(image)
    result = emu.run()
    seconds = time.perf_counter() - start
    x86 = models.Expected(result, stream(name, emu.output))
    return Program(name, source, elf, obj, _model(name), x86,
                   emu.steps), seconds


# ---- one job ------------------------------------------------------------


@dataclass
class JobResult:
    program: str
    config: str
    translate_s: float = 0.0
    emulate_s: float = 0.0
    arm_cycles: int = 0
    fence_cycles: int = 0
    arm_instructions: int = 0
    fences: int = 0
    counts: dict = field(default_factory=dict)  # from the public results
    probe_s: float = 0.0  # host probe around the job (hostspeed.py)
    failures: list = field(default_factory=list)
    completed: bool = False  # translated and emulated without raising

    @property
    def unexpected(self) -> list[str]:
        return [f for f in self.failures
                if (self.program, f.split(":")[0]) not in KNOWN_FAULTS]


def result_counts(built) -> dict[str, int]:
    """Per-layer counts read off a TranslationResult: its PlacementStats,
    PassStats, DelaySetStats and TVReport."""
    counts = {
        "fences.naive": built.fences_naive,
        "fences.elided_escape": (built.fences_elided_beyond_walk
                                 - built.fences_elided_interproc),
        "fences.elided_interproc": built.fences_elided_interproc,
        "refine.casts_removed": (built.pointer_casts_before
                                 - built.pointer_casts_after
                                 if built.config == "ppopt" else 0),
    }
    ds = built.delayset
    if ds is not None:
        counts["analysis.delayset.elided"] = ds.elided
        counts["analysis.delayset.elided_sync"] = ds.elided_sync
        counts["analysis.delayset.kept_all"] = int(ds.kept_all)
    ps = built.pass_stats
    if ps is not None:
        counts["opt.pass_runs"] = len(ps.records)
        counts["opt.pass_changed"] = sum(r.changed for r in ps.records)
        counts["opt.instructions_removed"] = sum(r.before - r.after
                                                 for r in ps.records)
        counts["opt.iterations"] = ps.iterations
    report = built.tv_report
    if report is not None:
        counts["analysis.tv.checks"] = len(report.verdicts)
        counts["analysis.tv.proved"] = report.proved
        counts["analysis.tv.unknown"] = report.unknown
        for v in report.verdicts:
            if v.verdict == "unknown":
                key = "analysis.tv.unknown." + v.reason.split(":")[0]
                counts[key] = counts.get(key, 0) + 1
    return counts


def _untraced(_name: str):
    return nullcontext()


def run_job(api, lasagne, program: Program, config: str,
            tracer=None) -> JobResult:
    """Translate, emulate and check one (program, configuration) job.

    ``translate_s`` covers ``ingest_binary`` (ELF inputs) plus
    ``Lasagne.translate``/``Lasagne.native``; ``emulate_s`` covers
    ``ArmEmulator.run``.  With a tracer, both phases become root spans of
    the job.  No reference to the emulator outlives the run."""
    job = JobResult(program.name, config)
    phase = _untraced
    if tracer is not None:
        tracer.job = f"{program.name}/{config}"
        phase = tracer.root
    with phase("translate"):
        start = time.perf_counter()
        if config == "native":
            built = lasagne.native(program.source)
        else:
            obj = program.obj
            if obj is None:
                obj, _report = api.pipeline.ingest_binary(program.elf)
            built = lasagne.translate(obj, config)
        job.translate_s = time.perf_counter() - start

    emu = api.ArmEmulator(built.program)
    emu.max_steps = STEP_BUDGET_FACTOR * program.x86_steps + 100_000
    with phase("emulate"):
        start = time.perf_counter()
        value = emu.run()
        job.emulate_s = time.perf_counter() - start
    job.completed = True
    output = stream(program.name, emu.output)
    job.arm_cycles = sum(t.cycles for t in emu.threads)
    job.fence_cycles = sum(t.fence_cycles for t in emu.threads)
    instret = sum(t.instret for t in emu.threads)
    del emu

    job.arm_instructions = built.program.instruction_count()
    job.fences = built.fences
    job.counts = result_counts(built)
    job.counts["arm.instructions_retired"] = instret
    _check(api, job, program, built, value, output)
    return job


def _check(api, job: JobResult, program: Program, built, value: int,
           output: tuple[str, ...]) -> None:
    got = models.Expected(value, output)
    if got != program.model:
        job.failures.append(f"model: got {got}, expected {program.model}")
    if got != program.x86:
        job.failures.append(f"x86: got {got}, x86 run gave {program.x86}")
    # Fig. 8b: each LIR fence is one dmb; each RMW/CAS is bracketed by two.
    dmbs = sum(1 for f in built.program.functions.values()
               for i in f.instructions() if i.mnemonic.startswith("dmb"))
    atomics = sum(1 for f in built.module.functions.values()
                  if not f.is_declaration
                  for i in f.instructions() if isinstance(i, api.atomics))
    if dmbs != built.fences + 2 * atomics:
        job.failures.append(f"dmb: {dmbs} dmb instructions for "
                            f"{built.fences} fences and {atomics} atomics")
    if job.config == "native":
        if built.fences:
            job.failures.append(f"native: {built.fences} fences")
    else:
        diags = api.check_module(built.module)
        if diags:
            job.failures.append(f"fencecheck: {len(diags)} violations, "
                                f"first {diags[0]}")
    if built.tv_report is not None and built.tv_report.refuted:
        job.failures.append(f"tv: {built.tv_report.refuted} refuted")


def check_merge_monotone(jobs: list[JobResult]) -> None:
    """Fence merging only removes fences: popt has no more than opt."""
    opt = {j.program: j.fences for j in jobs
           if j.config == "opt" and j.completed}
    for j in jobs:
        if j.completed and j.config == "popt" and j.program in opt \
                and j.fences > opt[j.program]:
            j.failures.append(f"merge: popt has {j.fences} fences, "
                              f"opt {opt[j.program]}")
