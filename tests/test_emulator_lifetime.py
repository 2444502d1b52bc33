"""A finished emulator is freed by reference counting alone.

Each emulator owns a 48 MiB memory image.  No reference cycle may keep it
alive until the cyclic collector happens to run, so with the collector
disabled the last ``del`` must free it — for the built-in runtime
externals and for the loader catalog's libc handlers alike.
"""

import gc
import weakref
from pathlib import Path

import pytest

from repro.arm import ArmEmulator
from repro.core import Lasagne, ingest_binary
from repro.minicc import compile_to_x86
from repro.x86 import X86Emulator

FIXTURES = Path(__file__).resolve().parent.parent / "examples" / "elf"

THREADS = """
int shared[4];
int worker(int t) { shared[t] = t * 3; return t; }
int main() {
  int *p = malloc(16);
  p[0] = 5;
  int a = spawn(worker, 1);
  int b = spawn(worker, 2);
  join(a);
  join(b);
  print_i(shared[1] + shared[2] + p[0]);
  return thread_id();
}
"""


def _freed_after_run(make_emulator, image) -> bool:
    """Run a fresh emulator to completion; is it gone after ``del``?"""
    gc.disable()
    try:
        emu = make_emulator(image)
        emu.run("main")
        ref = weakref.ref(emu)
        del emu
        return ref() is None
    finally:
        gc.enable()


def _elf_strings():
    path = FIXTURES / "strings"
    if not path.exists():
        pytest.skip("fixture strings not checked in")
    obj, _ = ingest_binary(path.read_bytes())
    return obj


def test_x86_emulator_with_runtime_externals():
    assert _freed_after_run(X86Emulator, compile_to_x86(THREADS))


def test_arm_emulator_with_runtime_externals():
    built = Lasagne().build(THREADS, "ppopt")
    assert _freed_after_run(ArmEmulator, built.program)


def test_x86_emulator_with_catalog_externals():
    assert _freed_after_run(X86Emulator, _elf_strings())


def test_arm_emulator_with_catalog_externals():
    built = Lasagne().translate(_elf_strings(), "ppopt")
    assert _freed_after_run(ArmEmulator, built.program)
