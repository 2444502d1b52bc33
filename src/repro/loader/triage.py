"""Binary triage: format sniffing, function discovery, confidence.

Sits between the raw bytes and the lifter.  :func:`sniff_format` decides
whether an input is a real ELF64 image or mini-C source for the ELF-lite
path.  :func:`ingest_elf` walks the call graph from the entry function,
classifies every call target (lift it / substitute a catalogued external
/ leave an opaque external with a remark), synthesizes data symbols for
the addresses the reachable code actually touches, and packages the
result as the :class:`~repro.x86.objfile.X86Object` the rest of the
pipeline already consumes.

Every discovered function carries a confidence record — decodable
bytes, unknown-opcode spans, whether decode agrees with the symbol's
size — so a binary the decoder cannot fully digest degrades into an
explicit report instead of an exception half-way through the lift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..profiler.workcounters import work
from ..x86.decoder import DecodeError, decode_one
from ..x86.isa import Imm, Instr, Mem
from ..x86.objfile import DataSymbol, FuncSymbol, X86Object
from . import elf as elfmod
from .externs import resolve_names

#: Size cap when scanning a function with no symbol-table size.
MAX_SCAN_BYTES = 0x10000
#: Size cap for synthesized anonymous data symbols.
MAX_ANON_DATA = 4096


class TriageError(Exception):
    """The binary cannot be ingested for translation; the message names
    the function and byte span that defeated the decoder."""


@dataclass
class UnknownSpan:
    address: int
    size: int
    reason: str


@dataclass
class FunctionReport:
    """Per-function decode confidence."""

    name: str
    address: int
    size: int
    decoded_instrs: int = 0
    decoded_bytes: int = 0
    unknown_spans: list[UnknownSpan] = field(default_factory=list)
    calls_internal: list[str] = field(default_factory=list)
    calls_external: list[str] = field(default_factory=list)
    calls_opaque: list[str] = field(default_factory=list)

    @property
    def decodable_pct(self) -> float:
        if self.size <= 0:
            return 0.0
        return round(100.0 * self.decoded_bytes / self.size, 2)

    @property
    def size_agreement(self) -> bool:
        """Decode consumed exactly the symbol's stated size."""
        return not self.unknown_spans and self.decoded_bytes == self.size

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "address": self.address,
            "size": self.size,
            "decoded_instrs": self.decoded_instrs,
            "decoded_bytes": self.decoded_bytes,
            "decodable_pct": self.decodable_pct,
            "size_agreement": self.size_agreement,
            "unknown_spans": [
                {"address": s.address, "size": s.size, "reason": s.reason}
                for s in self.unknown_spans
            ],
            "calls": {
                "internal": sorted(self.calls_internal),
                "external": sorted(self.calls_external),
                "opaque": sorted(self.calls_opaque),
            },
        }


@dataclass
class TriageReport:
    """Machine-readable ingestion summary (``repro triage`` emits this
    as JSON)."""

    format: str                       # "elf64" | "elf-lite"
    entry: str
    functions: list[FunctionReport] = field(default_factory=list)
    externals_resolved: dict[str, int] = field(default_factory=dict)
    externals_opaque: dict[str, int] = field(default_factory=dict)
    data_symbols: int = 0
    remarks: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.size_agreement for f in self.functions)

    def as_dict(self) -> dict:
        return {
            "format": self.format,
            "entry": self.entry,
            "ok": self.ok,
            "functions": [f.as_dict() for f in self.functions],
            "externals": {
                "resolved": dict(sorted(self.externals_resolved.items())),
                "opaque": dict(sorted(self.externals_opaque.items())),
            },
            "counts": {
                "functions_discovered": len(self.functions),
                "externals_resolved": len(self.externals_resolved),
                "externals_opaque": len(self.externals_opaque),
                "data_symbols": self.data_symbols,
            },
            "remarks": list(self.remarks),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def sniff_format(data: bytes) -> str:
    """``"elf64"`` for a real ELF image, ``"source"`` otherwise (the
    ELF-lite path: mini-C text compiled by ``repro.minicc``)."""
    return "elf64" if elfmod.is_elf(data) else "source"


# ---- instruction-stream scanning -----------------------------------------

def _scan_stream(body: bytes, address: int,
                 report: FunctionReport) -> list[Instr]:
    """Decode ``body`` at ``address``, resynchronizing one byte at a
    time after failures; failures accumulate as unknown spans."""
    instrs: list[Instr] = []
    offset = 0
    span_start = None
    span_reason = ""
    while offset < len(body):
        try:
            instr = decode_one(body, offset, address + offset)
        except DecodeError as exc:
            if span_start is None:
                span_start = offset
                span_reason = str(exc)
            offset += 1
            continue
        if span_start is not None:
            report.unknown_spans.append(
                UnknownSpan(address + span_start, offset - span_start,
                            span_reason))
            span_start = None
        instrs.append(instr)
        report.decoded_instrs += 1
        report.decoded_bytes += instr.size
        offset += instr.size
    if span_start is not None:
        report.unknown_spans.append(
            UnknownSpan(address + span_start, len(body) - span_start,
                        span_reason))
    work("triage.instructions", len(instrs), function=report.name)
    work("triage.bytes", len(body), function=report.name)
    return instrs


def _read_upto(elf: elfmod.ElfFile, addr: int, limit: int) -> bytes:
    """The longest mapped prefix of [addr, addr+limit): small images end
    long before MAX_SCAN_BYTES, and a probe read must not fail for that."""
    lo, hi = 0, limit
    while lo < hi:          # binary-search the mapped extent
        mid = (lo + hi + 1) // 2
        try:
            elf.read(addr, mid)
            lo = mid
        except elfmod.ElfError:
            hi = mid - 1
    return elf.read(addr, lo) if lo else b""


def _scan_unsized(data: bytes, address: int) -> int:
    """Heuristic extent of a function with no symbol size: decode
    linearly, tracking the furthest forward branch target, until a
    ``ret``/``hlt``/unconditional ``jmp`` past every pending target."""
    offset = 0
    frontier = 0
    while offset < min(len(data), MAX_SCAN_BYTES):
        try:
            instr = decode_one(data, offset, address + offset)
        except DecodeError:
            break
        end = offset + instr.size
        m = instr.mnemonic
        if m.startswith("j") and instr.operands \
                and isinstance(instr.operands[0], Imm):
            target_off = instr.operands[0].value - address
            if end <= target_off <= MAX_SCAN_BYTES:
                frontier = max(frontier, target_off)
        if m in ("ret", "hlt") or (m == "jmp" and end > frontier):
            if end > frontier:
                return end
        offset = end
    return offset


def _call_targets(instrs: list[Instr], start: int, end: int) -> list[int]:
    """Direct call targets plus tail-jumps leaving [start, end)."""
    out = []
    for instr in instrs:
        if not instr.operands or not isinstance(instr.operands[0], Imm):
            continue
        target = instr.operands[0].value
        if instr.mnemonic == "call" or (
                instr.mnemonic == "jmp" and not start <= target < end):
            out.append(target)
    return out


def _address_operands(instrs: list[Instr]) -> set[int]:
    """Absolute addresses referenced by operands: RIP-rebased memory
    displacements and 32/64-bit immediates that may be pointers."""
    out: set[int] = set()
    for instr in instrs:
        if instr.mnemonic == "call":
            continue
        for op in instr.operands:
            if isinstance(op, Mem) and op.base is None and op.index is None:
                out.add(op.disp)
            elif isinstance(op, Imm) and op.width >= 32:
                out.add(op.value)
    return out


# ---- ELF ingestion --------------------------------------------------------

def ingest_elf(data: bytes, entry: str = "main",
               strict: bool = True) -> tuple[X86Object, TriageReport]:
    """Turn a real ELF64 executable into an :class:`X86Object`.

    Walks the call graph from ``entry``: targets that resolve (by PLT or
    symbol name) against the external catalog become typed externals;
    other symbol-covered targets are queued for lifting; targets with
    neither become conservative opaque externals with a remark.  With
    ``strict`` (the translation path), any reachable function the
    decoder cannot fully digest raises :class:`TriageError`; triage
    reporting passes ``strict=False`` and records the damage instead.
    """
    elf = elfmod.parse_elf(data)
    plt = elfmod.decode_plt(elf)
    report = TriageReport(format="elf64", entry=entry)

    func_syms = {s.name: s for s in elf.function_symbols()}
    func_by_addr = {s.value: s for s in func_syms.values()}
    if not func_syms:
        report.remarks.append(
            "no function symbols (stripped?); discovery falls back to "
            "call-target scanning from the ELF entry point")
        return _ingest_stripped(elf, report, entry)

    entry_sym = func_syms.get(entry)
    if entry_sym is None:
        # Build an empty object whose require_entry() produces the
        # canonical EntryError diagnostic; triage carries a remark.
        report.remarks.append(
            f"entry function {entry!r} not found among "
            f"{len(func_syms)} symbols")
        obj = X86Object(entry=entry, source_format="elf64")
        obj.functions = {}
        return obj, report

    functions: dict[str, FuncSymbol] = {}
    externals: dict[str, int] = {}
    extern_sigs: dict[str, tuple[int, int, str]] = {}
    data_addrs: set[int] = set()
    queue = [entry_sym.value]
    seen = {entry_sym.value}
    func_reports: dict[int, FunctionReport] = {}

    def classify_target(addr: int) -> str:
        """Resolve one call target; returns the name it was filed
        under (and queues internal targets for decoding)."""
        names = []
        if addr in plt:
            names.append(plt[addr])
        names.extend(elf.names_at(addr))
        entry_def = resolve_names(names)
        if entry_def is not None:
            name = entry_def.name
            prior = externals.get(name)
            if prior is not None and prior != addr:
                name = f"{name}@{addr:x}"  # same libc fn, second address
            externals[name] = addr
            extern_sigs[name] = entry_def.sig
            report.externals_resolved[name] = addr
            return name
        sym = func_by_addr.get(addr)
        if sym is not None:
            if addr not in seen:
                seen.add(addr)
                queue.append(addr)
            return sym.name
        if addr in plt:
            name = f"ext_{addr:x}"
            externals[name] = addr
            extern_sigs[name] = (0, 0, "i64")
            report.externals_opaque[name] = addr
            report.remarks.append(
                f"PLT entry {plt[addr]!r} at {addr:#x} is not in the "
                f"external catalog; treated as an opaque call")
            return name
        # No symbol, no PLT entry: an unnamed local function.
        if addr not in seen:
            seen.add(addr)
            queue.append(addr)
            func_by_addr[addr] = elfmod.ElfSymbol(
                f"sub_{addr:x}", addr, 0, elfmod.STT_FUNC,
                elfmod.STB_LOCAL, 1, "symtab")
            report.remarks.append(
                f"call target {addr:#x} has no symbol; scanning as "
                f"sub_{addr:x}")
        return f"sub_{addr:x}"

    while queue:
        addr = queue.pop(0)
        sym = func_by_addr[addr]
        size = sym.size
        if size == 0:
            probe = _read_upto(elf, addr, MAX_SCAN_BYTES)
            size = _scan_unsized(probe, addr) or len(probe)
        frep = FunctionReport(sym.name, addr, size)
        func_reports[addr] = frep
        try:
            body = elf.read(addr, size)
        except elfmod.ElfError as exc:
            frep.unknown_spans.append(UnknownSpan(addr, size, str(exc)))
            report.remarks.append(f"{sym.name}: {exc}")
            continue
        instrs = _scan_stream(body, addr, frep)
        if strict and frep.unknown_spans:
            span = frep.unknown_spans[0]
            raise TriageError(
                f"function {sym.name!r} at {addr:#x} has "
                f"{len(frep.unknown_spans)} undecodable span(s); first at "
                f"{span.address:#x} ({span.size} bytes): {span.reason}")
        functions[sym.name] = FuncSymbol(sym.name, addr, size)
        for target in _call_targets(instrs, addr, addr + size):
            name = classify_target(target)
            if name in externals:
                which = (frep.calls_opaque if name.startswith("ext_")
                         else frep.calls_external)
                which.append(name)
            else:
                frep.calls_internal.append(name)
        data_addrs |= _address_operands(instrs)

    report.functions = sorted(func_reports.values(),
                              key=lambda f: f.address)

    data_symbols = _synthesize_data(elf, data_addrs, functions)
    report.data_symbols = len(data_symbols)

    lo = min(f.address for f in functions.values())
    hi = max(f.address + f.size for f in functions.values())
    obj = X86Object(
        text=elf.read(lo, hi - lo),
        text_base=lo,
        functions=functions,
        data_symbols=data_symbols,
        externals=externals,
        entry=entry,
        extern_sigs=extern_sigs,
        source_format="elf64",
    )
    return obj, report


def _synthesize_data(elf: elfmod.ElfFile, addrs: set[int],
                     functions: dict[str, FuncSymbol]) -> dict[str, DataSymbol]:
    """Data symbols for every referenced address that lands in an
    allocatable non-code section: named OBJECT symbols when the symbol
    table covers the address, anonymous NUL-scanned blobs otherwise."""
    func_ranges = [(f.address, f.address + f.size) for f in functions.values()]
    out: dict[str, DataSymbol] = {}
    covered: list[tuple[int, int]] = []
    ordered = sorted(addrs)
    for i, addr in enumerate(ordered):
        if any(lo <= addr < hi for lo, hi in func_ranges):
            continue
        if any(lo <= addr < hi for lo, hi in covered):
            continue
        sec = elf.section_at(addr)
        if sec is None or sec.is_exec or not sec.is_alloc:
            continue
        sym = elf.object_symbol_covering(addr)
        if sym is not None:
            size = max(1, sym.size)
            name, base = sym.name, sym.value
        else:
            # Anonymous literal; most are C strings, so NUL-scan for a
            # plausible extent, padded to one 8-byte slot when the pad
            # reaches no other referenced address (a tail-merged string
            # may still start inside the scanned extent).
            blob = elf.read_cstr(addr, MAX_ANON_DATA)
            pad = 8
            if i + 1 < len(ordered):
                pad = min(pad, ordered[i + 1] - addr)
            size = max(pad, len(blob) + 1)
            size = min(size, sec.sh_addr + sec.sh_size - addr)
            name, base = f"data_{addr:x}", addr
        if name in out:
            continue
        init = b"" if sec.is_nobits else elf.read(base, size)
        out[name] = DataSymbol(name, base, size, init)
        covered.append((base, base + size))
    return out


def _ingest_stripped(elf: elfmod.ElfFile, report: TriageReport,
                     entry: str) -> tuple[X86Object, TriageReport]:
    """Best-effort discovery for symbol-less images: scan from the ELF
    entry point, following direct call targets.  The result is only
    suitable for triage reporting (functions get positional names), so
    the object defines no ``main`` and translation stops with a clear
    EntryError."""
    plt = elfmod.decode_plt(elf)
    start = elf.header.e_entry
    queue, seen = [start], {start}
    functions: dict[str, FuncSymbol] = {}
    while queue:
        addr = queue.pop(0)
        name = "_start" if addr == start else f"sub_{addr:x}"
        probe = _read_upto(elf, addr, MAX_SCAN_BYTES)
        size = _scan_unsized(probe, addr)
        if size == 0:
            continue
        frep = FunctionReport(name, addr, size)
        instrs = _scan_stream(probe[:size], addr, frep)
        report.functions.append(frep)
        functions[name] = FuncSymbol(name, addr, size)
        for target in _call_targets(instrs, addr, addr + size):
            if target in plt:
                report.externals_opaque[f"ext_{target:x}"] = target
                continue
            if target not in seen:
                seen.add(target)
                queue.append(target)
    report.functions.sort(key=lambda f: f.address)
    obj = X86Object(entry=entry, source_format="elf64")
    obj.functions = {}
    if functions:
        lo = min(f.address for f in functions.values())
        hi = max(f.address + f.size for f in functions.values())
        obj.text = elf.read(lo, hi - lo)
        obj.text_base = lo
        obj.functions = functions
    return obj, report


# ---- ELF-lite triage ------------------------------------------------------

def triage_object(obj: X86Object) -> TriageReport:
    """Confidence report for an already-linked :class:`X86Object`
    (the ELF-lite path): same per-function decode sweep, with calls
    classified against the object's own symbol tables."""
    report = TriageReport(format=obj.source_format, entry=obj.entry)
    for name, sym in obj.functions.items():
        frep = FunctionReport(name, sym.address, sym.size)
        instrs = _scan_stream(obj.function_body(name), sym.address, frep)
        for target in _call_targets(instrs, sym.address,
                                    sym.address + sym.size):
            ext = obj.external_at(target)
            if ext is not None:
                frep.calls_external.append(ext)
                report.externals_resolved[ext] = target
            elif obj.function_at(target) is not None:
                frep.calls_internal.append(obj.function_at(target).name)
            else:
                frep.calls_opaque.append(f"ext_{target:x}")
                report.externals_opaque[f"ext_{target:x}"] = target
        report.functions.append(frep)
    report.functions.sort(key=lambda f: f.address)
    report.data_symbols = len(obj.data_symbols)
    return report
