"""End-to-end loader tests over real ``gcc -static`` ELF64 binaries.

The fixtures in ``examples/elf/`` were compiled from the ``.c`` files
next to them with::

    gcc -static -O1 -fno-stack-protector -fcf-protection=none -fno-builtin

Each test ingests the genuine glibc-linked binary — ifunc PLTs,
decorated symbol names, real .rodata/.bss layout — and the oracle tests
run the translation through both emulators and demand identical results
and output streams (the paper's co-simulation validation, on a binary
no part of this repo produced).
"""

import json

import pytest

from repro.core import Lasagne, ingest_binary
from repro.x86.emulator import X86Emulator

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "examples" / "elf"

#: fixture name -> (exit code, full concatenated output)
EXPECTED = {
    "sum": (36, "9864136\n"),
    "strings": (11, "match\nhello world\n11\n"),
    "memgrid": (104, "2664\n"),
}


def _load(name: str):
    path = FIXTURES / name
    if not path.exists():
        pytest.skip(f"fixture {name} not checked in")
    return ingest_binary(path.read_bytes())


class TestIngestFixtures:
    def test_sum_discovery(self):
        obj, report = _load("sum")
        assert report.ok and not report.remarks
        assert "main" in obj.functions
        assert set(report.externals_resolved) == {"free", "malloc", "printf"}
        assert report.externals_opaque == {}
        assert all(f.decodable_pct == 100.0 for f in report.functions)

    def test_strings_discovery(self):
        obj, report = _load("strings")
        assert report.ok
        # putchar's PLT resolves through glibc's _IO_putc, so it files
        # under the two-argument putc entry (the stream arg is opaque).
        assert set(report.externals_resolved) == {
            "strcpy", "strlen", "strcmp", "puts", "putc", "printf"}
        # buf is a named .bss global; the literals are anonymous rodata.
        assert "buf" in obj.data_symbols
        assert any(n.startswith("data_") for n in obj.data_symbols)

    def test_memgrid_discovery(self):
        obj, report = _load("memgrid")
        assert report.ok
        assert {"calloc", "memcpy", "memset", "free", "printf"} \
            <= set(report.externals_resolved)
        assert {"main", "rowsum"} <= set(obj.functions)
        assert "cells" in obj.data_symbols

    def test_extern_sigs_reach_the_lifter(self):
        obj, _ = _load("memgrid")
        assert obj.extern_sigs["memcpy"] == (3, 0, "i64")
        assert obj.extern_sigs["calloc"] == (2, 0, "i64")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cosimulation_oracle(name):
    """x86 (TSO) and translated Arm agree on result AND output stream."""
    obj, report = _load(name)
    assert report.ok
    built = Lasagne(verify=True).translate(obj, "ppopt")
    want_code, want_out = EXPECTED[name]

    x86 = X86Emulator(obj)
    x86_code = x86.run("main")
    arm = Lasagne.run(built)
    assert x86_code == want_code
    assert arm.result == want_code
    assert "".join(x86.output) == want_out
    assert "".join(arm.output) == want_out


def test_all_translated_configs_agree():
    obj, _ = _load("sum")
    want_code, want_out = EXPECTED["sum"]
    for config in ("lifted", "opt", "popt", "ppopt"):
        built = Lasagne(verify=True).translate(obj, config)
        run = Lasagne.run(built)
        assert run.result == want_code, config
        assert "".join(run.output) == want_out, config


def test_strings_prints_every_literal_whole():
    """``"match"`` is 6 bytes, and ``"%ld\n"`` starts right after it: the
    loader must recover them as two literals, not pad the first over the
    head of the second (which printed ``11`` without its newline)."""
    obj, _ = _load("strings")
    want_code, want_out = EXPECTED["strings"]
    assert want_out.endswith("\n11\n")
    assert obj.data_symbols["data_479010"].init == b"match\x00"
    x86 = X86Emulator(obj)
    assert x86.run("main") == want_code
    assert "".join(x86.output) == want_out
    for config in ("lifted", "opt", "popt", "ppopt"):
        run = Lasagne.run(Lasagne(verify=True).translate(obj, config))
        assert run.result == want_code, config
        assert "".join(run.output) == want_out, config


class TestCliOnBinaries:
    def test_triage_emits_json(self, capsys):
        from repro.cli import main

        path = FIXTURES / "sum"
        if not path.exists():
            pytest.skip("fixture not checked in")
        assert main(["triage", str(path), "--strict"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "elf64" and report["ok"]
        assert report["counts"]["externals_opaque"] == 0
        assert report["counts"]["functions_discovered"] >= 1

    def test_triage_on_mini_c_source(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "t.c"
        src.write_text("int main() { print_i(7); return 7; }")
        assert main(["triage", str(src)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "elf-lite" and report["ok"]
        assert "print_i64" in report["externals"]["resolved"]

    def test_translate_rejects_native_for_elf(self, capsys):
        from repro.cli import main

        path = FIXTURES / "sum"
        if not path.exists():
            pytest.skip("fixture not checked in")
        assert main(["translate", str(path), "--config", "native"]) == 2
        assert "native" in capsys.readouterr().err

    def test_translate_run_matches(self, capsys):
        from repro.cli import main

        path = FIXTURES / "sum"
        if not path.exists():
            pytest.skip("fixture not checked in")
        assert main(["translate", str(path), "--run"]) == 0
        out = capsys.readouterr().out
        assert "x86 result: 36" in out and "arm result: 36" in out

    def test_explain_full_fence_provenance(self, capsys):
        from repro.cli import main

        path = FIXTURES / "strings"
        if not path.exists():
            pytest.skip("fixture not checked in")
        assert main(["explain", str(path), "--coverage",
                     "--min-fence-coverage", "100"]) == 0
        assert "100.0%" in capsys.readouterr().out


class TestEntryErrorDiagnostics:
    def test_emulator_names_candidates(self):
        from repro.x86.objfile import EntryError

        obj, _ = _load("memgrid")
        with pytest.raises(EntryError) as exc:
            X86Emulator(obj).run("start")
        assert "start" in str(exc.value) and "rowsum" in str(exc.value)

    def test_translate_names_candidates(self):
        from repro.x86.objfile import EntryError

        obj, _ = _load("sum")
        with pytest.raises(EntryError, match="main"):
            Lasagne().translate(obj, "ppopt", entry="not_there")
