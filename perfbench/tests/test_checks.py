"""The benchmark's checks can fail: sabotaged translations fail their jobs.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return jobs.load_api(ROOT)


@pytest.fixture(scope="module")
def programs(api):
    return {name: jobs.load_program(api, ROOT, name)[0]
            for name in ("linear_regression", "demo")}


def _reasons(job) -> list[str]:
    return [f.split(":")[0] for f in job.failures]


def test_untouched_jobs_pass(api, programs):
    lasagne = api.Lasagne()
    for config in jobs.CONFIGS:
        job = run.attempt(api, lasagne, programs["linear_regression"], config)
        assert job.completed and job.failures == [], (config, job.failures)


def test_add_turned_into_sub_fails_optimized_jobs(api, programs, monkeypatch):
    """The last add in ``main`` (part of the checksum) becomes a sub after
    the first instcombine run; every configuration that runs the optimizer
    must fail, lifted not."""
    from repro.lir import BinOp
    from repro.opt import pass_manager

    original = pass_manager.FUNCTION_PASSES["instcombine"]
    state = {"done": False}

    def sabotaged(func):
        changed = original(func)
        if state["done"] or func.name != "main":
            return changed
        for inst in reversed(list(func.instructions())):
            if isinstance(inst, BinOp) and inst.op == "add":
                inst.op = "sub"
                state["done"] = True
                return True
        return changed

    monkeypatch.setitem(pass_manager.FUNCTION_PASSES, "instcombine",
                        sabotaged)
    lasagne = api.Lasagne()
    for config in jobs.CONFIGS:
        state["done"] = False
        job = run.attempt(api, lasagne, programs["linear_regression"], config)
        if config == "lifted":
            assert job.failures == [], job.failures
        else:
            assert state["done"], config
            assert {"model", "x86"} <= set(_reasons(job)), (config, job.failures)


def test_dropped_dmb_fails_the_job(api, programs, monkeypatch):
    """The emulator treats barriers as cost only, so the outputs still
    match; only the Fig. 8b dmb count catches the lost barrier."""
    from repro.core import pipeline

    original = pipeline.compile_lir_to_arm

    def drop_one_dmb(module, entry="main"):
        program = original(module, entry)
        for func in program.functions.values():
            for i, item in enumerate(func.items):
                if getattr(item, "mnemonic", "").startswith("dmb"):
                    del func.items[i]
                    return program
        return program

    monkeypatch.setattr(pipeline, "compile_lir_to_arm", drop_one_dmb)
    lasagne = api.Lasagne()
    for name in ("linear_regression", "demo"):
        job = run.attempt(api, lasagne, programs[name], "popt")
        assert job.completed
        assert _reasons(job) == ["dmb"], job.failures


_DETERMINISTIC_SUBSET = """
import json, sys
sys.path.insert(0, {bench!r})
from pathlib import Path
import jobs, run
api = jobs.load_api(Path({root!r}))
out = {{}}
for workload, names in (("default", ("linear_regression", "demo", "locked",
                                     "elf:sum")),
                        ("sync", ("demo", "locked"))):
    lasagne = api.Lasagne(**jobs.WORKLOADS[workload].options)
    programs = {{n: jobs.load_program(api, Path({root!r}), n)[0]
                for n in names}}
    order = [job for job in jobs.WORKLOADS[workload].jobs if job[0] in names]
    out[workload] = run.run_round(api, lasagne, programs,
                                  order).deterministic()
print(json.dumps(out, sort_keys=True))
"""


def test_deterministic_metrics_ignore_hash_seed():
    script = _DETERMINISTIC_SUBSET.format(bench=str(BENCH), root=str(ROOT))
    results = []
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=600,
                              check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0] == results[1]
    for metric in run.DETERMINISTIC:
        assert results[0]["default"][metric] > 0


def _bench_copy(tmp_path: Path) -> Path:
    """A directory holding only BENCHMARK.json and the benchmark."""
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH, checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    return checkout


def _run(checkout: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=120)


def test_no_program_no_result(tmp_path):
    proc = _run(_bench_copy(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_broken_program_still_prints_result(tmp_path):
    checkout = _bench_copy(tmp_path)
    (checkout / "src" / "repro").mkdir(parents=True)
    (checkout / "src" / "repro" / "__init__.py").write_text(
        "raise ImportError('broken on purpose')\n")
    proc = _run(checkout)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == len(
        jobs.WORKLOADS["default"].jobs)
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))
