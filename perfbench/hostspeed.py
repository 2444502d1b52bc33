"""Host speed, measured with a fixed piece of interpreter work.

On a shared 2-vCPU host the speed a process gets switches every few seconds
between regimes 1.5 to 2 times apart, and the mix drifts over minutes
(README, Noise).  A probe that does the same work every time runs between
consecutive jobs (and before and after set-up); the mean of the probes
just before and just after a job measures the host's speed while the job
ran.  The benchmark reports each job's time divided by that, in units of
``REFERENCE_S``, so a time reads as seconds on the reference host at its
fastest.  The probe uses only the standard library, so a change to the
translator cannot move it.
"""

from __future__ import annotations

import gc
import time

#: About what ``probe()`` takes between jobs when the host the reference
#: figures come from (2 vCPUs, Python 3.11) runs at its fastest.
REFERENCE_S = 0.0030

_REGISTERS = tuple(f"x{i}" for i in range(31))


class _Cell:
    __slots__ = ("key", "value", "next")


def _work(n: int = 3000) -> int:
    """Allocation, attribute and dict access, string formatting, integer
    arithmetic on a register file, and a sort: the kinds of work the
    translator and the emulator do."""
    head, table = None, {}
    for i in range(n):
        cell = _Cell()
        cell.key = "v%d" % (i % 97)
        cell.value = i * 7 & 0xFFFF
        cell.next = head
        head = cell
        table[cell.key] = table.get(cell.key, 0) + cell.value
    total = 0
    while head is not None:
        if isinstance(head.value, int):
            total = (total * 31 + (table[head.key] ^ head.value)) & 0xFFFFFFFF
        head = head.next
    regs = dict.fromkeys(_REGISTERS, 0)
    for i in range(3 * n):
        name = _REGISTERS[i % 31]
        regs[name] = (regs[name] + i * 3) & 0xFFFFFFFFFFFFFFFF
    return total + len(sorted(table.items(), key=lambda kv: (kv[1], kv[0])))


def probe() -> float:
    """Seconds ``_work`` takes, with the cyclic collector paused so that
    the program's heap does not enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes between consecutive jobs, the first right after set-up."""

    def __init__(self) -> None:
        self.first = self.last = probe()

    def around(self) -> float:
        """Probe now and return the mean of this probe and the previous
        one: the probe's time while whatever ran between them ran."""
        now = probe()
        mean = (self.last + now) / 2
        self.last = now
        return mean
