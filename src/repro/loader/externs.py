"""EFACT-style external-function knowledge base.

Real binaries call libc; a lifter that fails on the first ``printf``
lifts nothing.  Following EFACT, every external call target is resolved
*by name* against a catalog of typed summaries: the lifted code calls a
declared external with a known signature, both emulators implement the
function natively (sharing one formatting/string kernel so the
co-simulation oracle compares identical output), and the analysis layer
receives mod-ref/escape annotations so fence elision stays sound across
libc calls.  Unknown externals degrade to conservative opaque calls with
a remark — never a hard error.

glibc decorates the symbols actually found at call targets
(``__printf``, ``_IO_puts``, ``strlen_ifunc`` for ifunc resolvers, ...);
:func:`normalize_name` strips the decorations back to the canonical
catalog name.

The catalog's analysis annotations deliberately treat libc-internal
state (the heap free list, ``FILE`` buffers) as invisible to lifted
code, the same stance the minicc runtime takes for ``print_i64``: a
``printf`` between two accesses of user data neither reads nor writes
that data unless a pointer to it is passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

#: pointsto mod/ref encoding (mirrors repro.analysis.pointsto.REF/MOD).
_REF, _MOD = 1, 2

RETRY = "retry"  # blocking-call protocol shared with the emulators


@dataclass(frozen=True)
class CatalogEntry:
    """One known external function: signature plus analysis effects."""

    name: str
    argc: int                  # integer (GPR) parameters in the lifted sig
    ret: str = "i64"           # "i64" | "void"
    kind: str = "pure"         # alloc | memory | pure | io | control | thread
    reads: tuple[int, ...] = ()    # params whose pointee may be read
    writes: tuple[int, ...] = ()   # params whose pointee may be written
    escapes: tuple[int, ...] = ()  # params published to other threads
    # (dst_param, src_param): *dst receives *src's contents (memcpy may
    # copy pointers, so provenance must flow).
    copies: tuple[tuple[int, int], ...] = ()
    returns_param: int | None = None  # returns one of its pointer args
    noreturn: bool = False

    @property
    def sig(self) -> tuple[int, int, str]:
        """(int_args, sse_args, ret) in the lifter's EXTERNAL_SIGS shape."""
        return (self.argc, 0, self.ret)


def _e(name: str, argc: int, **kw) -> tuple[str, CatalogEntry]:
    return name, CatalogEntry(name, argc, **kw)


#: Canonical name -> typed summary.  ``printf`` supports the format
#: subset implemented by :func:`format_printf`; its lifted signature
#: passes the first two variadic slots, which covers the typical
#: "format + up to two values" call.
CATALOG: dict[str, CatalogEntry] = dict([
    _e("malloc", 1, kind="alloc"),
    _e("calloc", 2, kind="alloc"),
    _e("free", 1, ret="void", kind="alloc"),
    _e("memcpy", 3, kind="memory", reads=(1,), writes=(0,),
       copies=((0, 1),), returns_param=0),
    _e("memmove", 3, kind="memory", reads=(1,), writes=(0,),
       copies=((0, 1),), returns_param=0),
    _e("memset", 3, kind="memory", writes=(0,), returns_param=0),
    _e("strlen", 1, reads=(0,)),
    _e("strcmp", 2, reads=(0, 1)),
    _e("strncmp", 3, reads=(0, 1)),
    _e("strcpy", 2, kind="memory", reads=(1,), writes=(0,),
       returns_param=0),
    _e("atoi", 1, reads=(0,)),
    _e("puts", 1, kind="io", reads=(0,)),
    _e("putchar", 1, kind="io"),
    _e("putc", 2, kind="io"),  # (char, FILE*); the stream is opaque
    _e("printf", 3, kind="io", reads=(0, 1, 2)),
    _e("exit", 1, ret="void", kind="control", noreturn=True),
    _e("abort", 0, ret="void", kind="control", noreturn=True),
    # Both the start routine (arg 2) and its argument (arg 3) escape: the
    # spawned thread calls one with the other, so anything reachable from
    # either outlives the call and is shared across threads.
    _e("pthread_create", 4, kind="thread", writes=(0,), escapes=(2, 3)),
    _e("pthread_join", 2, kind="thread", writes=(1,)),
    # Mutexes: the lock word is the first 8 bytes of the pthread_mutex_t
    # (0 = unlocked, 1 = held).  pthread_mutex_trylock is deliberately
    # *not* catalogued: it stays an opaque external, so neither the
    # lockset analysis (it may fail) nor the emulators assume anything.
    _e("pthread_mutex_init", 2, kind="thread", writes=(0,)),
    _e("pthread_mutex_lock", 1, kind="thread", reads=(0,), writes=(0,)),
    _e("pthread_mutex_unlock", 1, kind="thread", reads=(0,), writes=(0,)),
    _e("pthread_mutex_destroy", 1, kind="thread", writes=(0,)),
])

#: Decorated names that prefix-stripping alone cannot recover.
ALIASES: dict[str, str] = {
    "__pthread_create_2_1": "pthread_create",
    "__pthread_join": "pthread_join",
    "_IO_printf": "printf",
    "_exit": "exit",
    "cfree": "free",
}

_STRIP_PREFIXES = ("__libc_", "__GI_", "__new_", "_IO_", "__isoc99_", "__")
_STRIP_SUFFIXES = ("_ifunc", "_avx2", "_sse2", "_erms", "_unaligned")


def normalize_name(raw: str) -> str:
    """Undo glibc symbol decoration: ``__new_memcpy_ifunc`` -> ``memcpy``,
    ``_IO_putc`` -> ``putc``, ``__printf`` -> ``printf``."""
    name = ALIASES.get(raw, raw)
    changed = True
    while changed and name not in CATALOG:
        changed = False
        name = ALIASES.get(name, name)
        for suffix in _STRIP_SUFFIXES:
            if name.endswith(suffix) and len(name) > len(suffix):
                name = name[: -len(suffix)]
                changed = True
        for prefix in _STRIP_PREFIXES:
            if name.startswith(prefix) and len(name) > len(prefix):
                name = name[len(prefix):]
                changed = True
                break
    return name


def resolve_names(names) -> CatalogEntry | None:
    """First catalog entry any of the candidate raw names normalizes to."""
    for raw in names:
        entry = CATALOG.get(normalize_name(raw))
        if entry is not None:
            return entry
    return None


# ---- analysis integration -------------------------------------------------

_summary_cache: dict[str, object] = {}


def catalog_summary(name: str):
    """A :class:`repro.analysis.summaries.FunctionSummary` for a catalogued
    external, or None.  Names owned by the minicc runtime
    (``EXTERNAL_SIGS``) are excluded so existing minicc behaviour — and
    its conservative escape treatment — is unchanged."""
    if name in _summary_cache:
        return _summary_cache[name]
    from ..analysis.summaries import FunctionSummary
    from ..lifter.typedisc import EXTERNAL_SIGS

    entry = CATALOG.get(name)
    result = None
    if entry is not None and name not in EXTERNAL_SIGS:
        n = entry.argc
        modref = []
        for i in range(n):
            bits = 0
            if i in entry.reads:
                bits |= _REF
            if i in entry.writes:
                bits |= _MOD
            modref.append(bits)
        stores = []
        for i in range(n):
            toks = frozenset(
                ("contents", src) for dst, src in entry.copies if dst == i
            )
            stores.append(toks)
        if entry.returns_param is not None:
            returns = frozenset({("param", entry.returns_param)})
        elif entry.ret == "void":
            returns = frozenset()
        else:
            returns = frozenset({("unknown",)})
        result = FunctionSummary(
            function=name,
            nparams=n,
            param_escapes=tuple(i in entry.escapes for i in range(n)),
            contents_escape=(False,) * n,
            param_modref=tuple(modref),
            stores_into=tuple(stores),
            returns=returns,
            touches=0,
        )
    _summary_cache[name] = result
    return result


# ---- shared execution kernel ---------------------------------------------
#
# Both emulators execute catalogued externals through one set of handlers
# over a tiny environment protocol, so the co-simulation oracle sees
# byte-identical output and allocation behaviour on both sides.

class ExternEnv:
    """What a catalog handler may do to the host emulator.

    Adapters for the x86 and Arm emulators implement this; handlers are
    written once against it.
    """

    def arg(self, i: int) -> int:
        raise NotImplementedError

    def set_ret(self, value: int) -> None:
        raise NotImplementedError

    def read(self, addr: int, size: int) -> bytes:
        raise NotImplementedError

    def write(self, addr: int, data: bytes) -> None:
        raise NotImplementedError

    def alloc(self, size: int) -> int:
        raise NotImplementedError

    def emit(self, text: str) -> None:
        raise NotImplementedError

    def exit(self, status: int) -> None:
        raise NotImplementedError

    def spawn(self, fn_addr: int, arg: int) -> int:
        raise NotImplementedError

    def join(self, tid: int):
        """Result register of the joined thread, or RETRY if still running
        (x86 yields back to the scheduler; Arm runs the target inline)."""
        raise NotImplementedError

    def read_cstr(self, addr: int, limit: int = 1 << 20) -> bytes:
        out = bytearray()
        while len(out) < limit:
            b = self.read(addr + len(out), 1)
            if not b or b == b"\x00":
                break
            out += b
        return bytes(out)


def _signed(v: int, bits: int) -> int:
    v &= (1 << bits) - 1
    if v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


def format_printf(fmt: bytes, args: list[int], env: ExternEnv) -> str:
    """The supported ``printf`` subset: %d %i %u %ld %li %lu %zu %c %s
    %x %lx %p %% (with the l/ll/z length modifiers).  Unknown directives
    are emitted literally so a partially supported format degrades
    visibly rather than crashing."""
    out: list[str] = []
    argi = 0
    i = 0
    text = fmt.decode("latin-1")

    def next_arg() -> int:
        nonlocal argi
        v = args[argi] if argi < len(args) else 0
        argi += 1
        return v

    while i < len(text):
        ch = text[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        j = i + 1
        long_mod = False
        while j < len(text) and text[j] in "lz":
            long_mod = True
            j += 1
        conv = text[j] if j < len(text) else ""
        if conv == "%":
            out.append("%")
        elif conv in "di":
            out.append(str(_signed(next_arg(), 64 if long_mod else 32)))
        elif conv == "u":
            v = next_arg()
            out.append(str(v if long_mod else v & 0xFFFFFFFF))
        elif conv == "x":
            v = next_arg()
            out.append(format(v if long_mod else v & 0xFFFFFFFF, "x"))
        elif conv == "p":
            out.append(f"0x{next_arg():x}")
        elif conv == "c":
            out.append(chr(next_arg() & 0xFF))
        elif conv == "s":
            out.append(env.read_cstr(next_arg()).decode("latin-1"))
        else:
            out.append(text[i : j + 1])  # unsupported: pass through
        i = j + 1
    return "".join(out)


def _cstr_cmp(a: bytes, b: bytes) -> int:
    if a == b:
        return 0
    return -1 if (a + b"\x00") < (b + b"\x00") else 1


def _h_malloc(env: ExternEnv):
    env.set_ret(env.alloc(env.arg(0)))


def _h_calloc(env: ExternEnv):
    n = env.arg(0) * env.arg(1)
    addr = env.alloc(n)
    env.write(addr, b"\x00" * max(1, n))
    env.set_ret(addr)


def _h_free(env: ExternEnv):
    pass  # bump allocator: release is a no-op


def _h_memcpy(env: ExternEnv):
    d, s, n = env.arg(0), env.arg(1), env.arg(2)
    if n:
        env.write(d, env.read(s, n))
    env.set_ret(d)


def _h_memset(env: ExternEnv):
    d, c, n = env.arg(0), env.arg(1), env.arg(2)
    if n:
        env.write(d, bytes([c & 0xFF]) * n)
    env.set_ret(d)


def _h_strlen(env: ExternEnv):
    env.set_ret(len(env.read_cstr(env.arg(0))))


def _h_strcmp(env: ExternEnv):
    env.set_ret(
        _cstr_cmp(env.read_cstr(env.arg(0)), env.read_cstr(env.arg(1)))
        & (2**64 - 1)
    )


def _h_strncmp(env: ExternEnv):
    n = env.arg(2)
    env.set_ret(
        _cstr_cmp(env.read_cstr(env.arg(0))[:n], env.read_cstr(env.arg(1))[:n])
        & (2**64 - 1)
    )


def _h_strcpy(env: ExternEnv):
    d = env.arg(0)
    env.write(d, env.read_cstr(env.arg(1)) + b"\x00")
    env.set_ret(d)


def _h_atoi(env: ExternEnv):
    s = env.read_cstr(env.arg(0)).decode("latin-1").strip()
    num = ""
    for k, ch in enumerate(s):
        if ch in "+-" and k == 0 or ch.isdigit():
            num += ch
        else:
            break
    try:
        env.set_ret(int(num) & (2**64 - 1))
    except ValueError:
        env.set_ret(0)


def _h_puts(env: ExternEnv):
    env.emit(env.read_cstr(env.arg(0)).decode("latin-1") + "\n")
    env.set_ret(0)


def _h_putchar(env: ExternEnv):
    c = env.arg(0) & 0xFF
    env.emit(chr(c))
    env.set_ret(c)


def _h_putc(env: ExternEnv):
    # (char, FILE*) — the stream argument is libc-internal, ignored.
    c = env.arg(0) & 0xFF
    env.emit(chr(c))
    env.set_ret(c)


def _h_printf(env: ExternEnv):
    fmt = env.read_cstr(env.arg(0))
    text = format_printf(fmt, [env.arg(1), env.arg(2)], env)
    env.emit(text)
    env.set_ret(len(text))


def _h_exit(env: ExternEnv):
    env.exit(env.arg(0))


def _h_abort(env: ExternEnv):
    raise RuntimeError("program aborted")


def _h_pthread_create(env: ExternEnv):
    tidp, _attr, fn, arg = (env.arg(i) for i in range(4))
    tid = env.spawn(fn, arg)
    env.write(tidp, tid.to_bytes(8, "little"))
    env.set_ret(0)


def _h_pthread_mutex_init(env: ExternEnv):
    env.write(env.arg(0), (0).to_bytes(8, "little"))
    env.set_ret(0)


def _h_pthread_mutex_lock(env: ExternEnv):
    addr = env.arg(0)
    if int.from_bytes(env.read(addr, 8), "little") != 0:
        return RETRY  # held: re-execute the call after a scheduling step
    env.write(addr, (1).to_bytes(8, "little"))
    env.set_ret(0)


def _h_pthread_mutex_unlock(env: ExternEnv):
    env.write(env.arg(0), (0).to_bytes(8, "little"))
    env.set_ret(0)


def _h_pthread_mutex_destroy(env: ExternEnv):
    env.set_ret(0)


def _h_pthread_join(env: ExternEnv):
    result = env.join(env.arg(0))
    if result == RETRY:
        return RETRY
    retp = env.arg(1)
    if retp:
        env.write(retp, (result & (2**64 - 1)).to_bytes(8, "little"))
    env.set_ret(0)


HANDLERS = {
    "malloc": _h_malloc,
    "calloc": _h_calloc,
    "free": _h_free,
    "memcpy": _h_memcpy,
    "memmove": _h_memcpy,
    "memset": _h_memset,
    "strlen": _h_strlen,
    "strcmp": _h_strcmp,
    "strncmp": _h_strncmp,
    "strcpy": _h_strcpy,
    "atoi": _h_atoi,
    "puts": _h_puts,
    "putchar": _h_putchar,
    "putc": _h_putc,
    "printf": _h_printf,
    "exit": _h_exit,
    "abort": _h_abort,
    "pthread_create": _h_pthread_create,
    "pthread_join": _h_pthread_join,
    "pthread_mutex_init": _h_pthread_mutex_init,
    "pthread_mutex_lock": _h_pthread_mutex_lock,
    "pthread_mutex_unlock": _h_pthread_mutex_unlock,
    "pthread_mutex_destroy": _h_pthread_mutex_destroy,
}


# ---- emulator adapters ----------------------------------------------------

class _X86Env(ExternEnv):
    def __init__(self, emu, thread) -> None:
        self.emu = emu
        self.thread = thread

    _ARG_REGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

    def arg(self, i: int) -> int:
        return self.thread.regs[self._ARG_REGS[i]]

    def set_ret(self, value: int) -> None:
        self.thread.regs["rax"] = value & (2**64 - 1)

    def read(self, addr: int, size: int) -> bytes:
        # Store buffers were flushed at the runtime-call barrier.
        return bytes(self.emu.memory[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        self.emu.memory[addr : addr + len(data)] = data

    def alloc(self, size: int) -> int:
        addr = (self.emu.heap_ptr + 15) & ~15
        self.emu.heap_ptr = addr + max(1, size)
        return addr

    def emit(self, text: str) -> None:
        self.emu.output.append(text)

    def exit(self, status: int) -> None:
        for t in self.emu.threads:
            self.emu._flush(t)
            t.done = True
        self.emu.threads[0].regs["rax"] = status & (2**64 - 1)

    def spawn(self, fn_addr: int, arg: int) -> int:
        child = self.emu._make_thread(fn_addr)
        child.regs["rdi"] = arg
        return child.tid

    def join(self, tid: int):
        for t in self.emu.threads:
            if t.tid == tid:
                if not t.done:
                    return RETRY
                self.emu._flush(t)
                return t.regs["rax"]
        raise RuntimeError(f"join of unknown thread {tid}")


class _ArmEnv(ExternEnv):
    def __init__(self, emu, thread) -> None:
        self.emu = emu
        self.thread = thread

    def arg(self, i: int) -> int:
        return self.thread.x[f"x{i}"]

    def set_ret(self, value: int) -> None:
        self.thread.x["x0"] = value & (2**64 - 1)

    def read(self, addr: int, size: int) -> bytes:
        return bytes(self.emu.memory[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        self.emu.memory[addr : addr + len(data)] = data

    def alloc(self, size: int) -> int:
        addr = (self.emu.heap_ptr + 15) & ~15
        self.emu.heap_ptr = addr + max(1, size)
        return addr

    def emit(self, text: str) -> None:
        self.emu.output.append(text)

    def exit(self, status: int) -> None:
        for t in self.emu.threads:
            t.done = True
        self.emu.threads[0].x["x0"] = status & (2**64 - 1)

    def spawn(self, fn_addr: int, arg: int) -> int:
        child = self.emu._make_thread(fn_addr)
        child.x["x0"] = arg
        return child.tid

    def join(self, tid: int):
        for t in self.emu.threads:
            if t.tid == tid:
                while not t.done:  # Arm join blocks inline, like _ext_join
                    for _ in range(self.emu.quantum):
                        if t.done:
                            break
                        self.emu.step(t)
                return t.x["x0"]
        raise RuntimeError(f"join of unknown thread {tid}")


def _catalog_handler(env_class, fn):
    """An emulator external running catalog handler ``fn`` through
    ``env_class``; called as ``handler(emu, thread)``, so it holds no
    reference to the emulator."""
    def handler(emu, thread):
        return fn(env_class(emu, thread))
    return handler


def install_x86_catalog(emu) -> None:
    """Register handlers for every catalogued external the object names.
    Existing runtime handlers (minicc's malloc/spawn/...) are kept."""
    for name in emu.obj.externals:
        base = name.split("@", 1)[0]  # "printf@401040": second address
        if base in HANDLERS and name not in emu.externals:
            emu.externals[name] = _catalog_handler(_X86Env, HANDLERS[base])


def install_arm_catalog(emu) -> None:
    """Same, keyed off the Arm program's declared externals."""
    for name in emu.program.externals:
        base = name.split("@", 1)[0]
        if base in HANDLERS and name not in emu.externals:
            emu.externals[name] = _catalog_handler(_ArmEnv, HANDLERS[base])
