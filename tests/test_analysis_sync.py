"""Tests for the must-lockset dataflow (repro.analysis.sync), the
sync tier of the delay-set analysis (a lock filter over its one conflict
graph), and the lock-based litmus enumeration gate."""

from pathlib import Path

from repro import Lasagne
from repro.analysis import delayset, sync
from repro.analysis.delayset import (
    audit_module,
    check_litmus_elision,
    elide_redundant_fences,
    graph_from_litmus,
)
from repro.analysis.sync import (
    ALL_LOCKS,
    CONSERVATIVE_LOCK_SUMMARY,
    LockSummary,
    compute_locksets,
    lock_key,
)
from repro.lir import (
    ConstantInt,
    ExternalFunction,
    Fence,
    Function,
    FunctionType,
    GlobalVariable,
    I64,
    IRBuilder,
    Module,
)
from repro.memmodel.litmus import (
    LOCK_LITMUS,
    MP_EARLY_UNLOCK,
    MP_LOCKED,
    MP_LOCKED_HALF,
    MP_TWO_LOCKS,
)
from repro.memmodel.mappings import map_x86_to_ir
from repro.profiler import workcounters

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

MUTEX_SIG = FunctionType(I64, (I64,))
M_KEY = ("lock", "m", 0)


def _mutex_module():
    """Module skeleton with a lock word ``m`` and data globals ``x, y``."""
    m = Module("t")
    for name in ("m", "x", "y"):
        m.add_global(GlobalVariable(name, I64))
    for ext in ("pthread_mutex_lock", "pthread_mutex_unlock"):
        m.externals[ext] = ExternalFunction(ext, MUTEX_SIG)
    return m


def _lock(b: IRBuilder, m: Module, g) -> None:
    b.call(m.externals["pthread_mutex_lock"], [b.ptrtoint(g, I64)])


def _unlock(b: IRBuilder, m: Module, g) -> None:
    b.call(m.externals["pthread_mutex_unlock"], [b.ptrtoint(g, I64)])


def _func(m: Module, name: str) -> Function:
    f = Function(name, FunctionType(I64, ()), [])
    m.add_function(f)
    return f


class TestLockKey:
    def test_global_through_casts(self):
        m = _mutex_module()
        f = _func(m, "f")
        b = IRBuilder(f.new_block("entry"))
        gm = m.globals["m"]
        addr = b.ptrtoint(gm, I64)
        back = b.inttoptr(addr, gm.type)
        b.ret(ConstantInt(I64, 0))
        assert lock_key(gm) == M_KEY
        assert lock_key(addr) == M_KEY
        assert lock_key(back) == M_KEY

    def test_unresolvable_is_none(self):
        m = _mutex_module()
        f = _func(m, "f")
        b = IRBuilder(f.new_block("entry"))
        r = b.load(m.globals["x"])  # a loaded value is not a must-key
        b.ret(r)
        assert lock_key(r) is None
        assert lock_key(ConstantInt(I64, 64)) is None


class TestLocksetDataflow:
    def test_straight_line_critical_section(self):
        m = _mutex_module()
        f = _func(m, "f")
        b = IRBuilder(f.new_block("entry"))
        gm, gx = m.globals["m"], m.globals["x"]
        before = b.load(gx, name="before")
        _lock(b, m, gm)
        inside = b.load(gx, name="inside")
        _unlock(b, m, gm)
        after = b.load(gx, name="after")
        b.ret(after)
        ls = compute_locksets(m)
        assert ls.locks_for(before) == frozenset()
        assert ls.locks_for(inside) == frozenset({M_KEY})
        assert ls.locks_for(after) == frozenset()
        assert ls.locks_seen == {M_KEY}

    def test_lock_held_across_loop(self):
        # lock(m); while (x) { x = x - 1 }; unlock(m): the backedge join
        # must not lose the lock.
        m = _mutex_module()
        f = _func(m, "f")
        entry = f.new_block("entry")
        head = f.new_block("head")
        body = f.new_block("body")
        done = f.new_block("done")
        gm, gx = m.globals["m"], m.globals["x"]
        b = IRBuilder(entry)
        _lock(b, m, gm)
        b.br(head)
        b = IRBuilder(head)
        r = b.load(gx, name="r")
        cond = b.icmp("ne", r, ConstantInt(I64, 0), "c")
        b.cond_br(cond, body, done)
        b = IRBuilder(body)
        inner = b.load(gx, name="inner")
        b.store(b.sub(inner, ConstantInt(I64, 1), "d"), gx)
        b.br(head)
        b = IRBuilder(done)
        _unlock(b, m, gm)
        tail = b.load(gx, name="tail")
        b.ret(tail)
        ls = compute_locksets(m)
        assert ls.locks_for(r) == frozenset({M_KEY})
        assert ls.locks_for(inner) == frozenset({M_KEY})
        assert ls.locks_for(tail) == frozenset()

    def test_lock_per_iteration(self):
        # while (...) { lock(m); x; unlock(m) }: the head joins the
        # pre-loop (nothing held) and post-unlock (nothing held) states,
        # while the body access is protected.
        m = _mutex_module()
        f = _func(m, "f")
        head = f.new_block("head")
        body = f.new_block("body")
        done = f.new_block("done")
        gm, gx = m.globals["m"], m.globals["x"]
        b = IRBuilder(head)
        r = b.load(gx, name="r")
        cond = b.icmp("ne", r, ConstantInt(I64, 0), "c")
        b.cond_br(cond, body, done)
        b = IRBuilder(body)
        _lock(b, m, gm)
        inner = b.load(gx, name="inner")
        _unlock(b, m, gm)
        b.br(head)
        b = IRBuilder(done)
        b.ret(ConstantInt(I64, 0))
        ls = compute_locksets(m)
        assert ls.locks_for(r) == frozenset()
        assert ls.locks_for(inner) == frozenset({M_KEY})

    def test_early_unlock_path_kills_must(self):
        # lock(m); if (c) unlock(m); x: the merge point may not claim m.
        m = _mutex_module()
        f = _func(m, "f")
        entry = f.new_block("entry")
        early = f.new_block("early")
        merge = f.new_block("merge")
        gm, gx = m.globals["m"], m.globals["x"]
        b = IRBuilder(entry)
        _lock(b, m, gm)
        r = b.load(gx, name="r")
        cond = b.icmp("ne", r, ConstantInt(I64, 0), "c")
        b.cond_br(cond, early, merge)
        b = IRBuilder(early)
        _unlock(b, m, gm)
        b.br(merge)
        b = IRBuilder(merge)
        after = b.load(gx, name="after")
        b.ret(after)
        ls = compute_locksets(m)
        assert ls.locks_for(r) == frozenset({M_KEY})
        assert ls.locks_for(after) == frozenset()

    def test_irreducible_cfg_terminates_and_is_sound(self):
        # Classic irreducible shape: entry branches into the *middle* of
        # a two-block cycle (a <-> b).  The lock is taken on entry, so
        # both cycle blocks must still hold it at fixpoint.
        m = _mutex_module()
        f = _func(m, "f")
        entry = f.new_block("entry")
        a = f.new_block("a")
        bb = f.new_block("b")
        done = f.new_block("done")
        gm, gx = m.globals["m"], m.globals["x"]
        b = IRBuilder(entry)
        _lock(b, m, gm)
        r = b.load(gx, name="r")
        cond = b.icmp("ne", r, ConstantInt(I64, 0), "c")
        b.cond_br(cond, a, bb)
        b = IRBuilder(a)
        in_a = b.load(gx, name="in_a")
        ca = b.icmp("ne", in_a, ConstantInt(I64, 0), "ca")
        b.cond_br(ca, bb, done)
        b = IRBuilder(bb)
        in_b = b.load(gx, name="in_b")
        cb = b.icmp("ne", in_b, ConstantInt(I64, 1), "cb")
        b.cond_br(cb, a, done)
        b = IRBuilder(done)
        b.ret(ConstantInt(I64, 0))
        ls = compute_locksets(m)
        assert ls.locks_for(in_a) == frozenset({M_KEY})
        assert ls.locks_for(in_b) == frozenset({M_KEY})

    def test_interprocedural_summary_transfer(self):
        # helper() locks m and returns while holding it; section() calls
        # helper and accesses x: the summary must carry the acquisition.
        m = _mutex_module()
        helper = _func(m, "helper")
        section = _func(m, "section")
        gm, gx = m.globals["m"], m.globals["x"]
        b = IRBuilder(helper.new_block("entry"))
        _lock(b, m, gm)
        b.ret(ConstantInt(I64, 0))
        b = IRBuilder(section.new_block("entry"))
        b.call(helper, [])
        inside = b.load(gx, name="inside")
        b.ret(inside)
        ls = compute_locksets(m)
        assert ls.summaries["helper"].acquires == frozenset({M_KEY})
        assert ls.locks_for(inside) == frozenset({M_KEY})

    def test_recursive_scc_is_conservative(self):
        # rec() locks m and calls itself: the SCC summary must not claim
        # the lock, and a post-call access loses the caller's lockset.
        m = _mutex_module()
        rec = _func(m, "rec")
        caller = _func(m, "caller")
        gm, gx = m.globals["m"], m.globals["x"]
        b = IRBuilder(rec.new_block("entry"))
        _lock(b, m, gm)
        pre = b.load(gx, name="pre")
        b.call(rec, [])
        post = b.load(gx, name="post")
        b.ret(post)
        b = IRBuilder(caller.new_block("entry"))
        _lock(b, m, gm)
        b.call(rec, [])
        after = b.load(gx, name="after")
        b.ret(after)
        ls = compute_locksets(m)
        assert ls.summaries["rec"] is CONSERVATIVE_LOCK_SUMMARY
        # Inside the recursive function the intraprocedural facts hold...
        assert ls.locks_for(pre) == frozenset({M_KEY})
        # ...but after any call into the SCC nothing is provably held.
        assert ls.locks_for(post) == frozenset()
        assert ls.locks_for(after) == frozenset()

    def test_unknown_external_clears_locks(self):
        m = _mutex_module()
        m.externals["mystery"] = ExternalFunction(
            "mystery", FunctionType(I64, ()))
        f = _func(m, "f")
        b = IRBuilder(f.new_block("entry"))
        gm, gx = m.globals["m"], m.globals["x"]
        _lock(b, m, gm)
        b.call(m.externals["mystery"], [])
        after = b.load(gx, name="after")
        b.ret(after)
        ls = compute_locksets(m)
        assert ls.locks_for(after) == frozenset()

    def test_unresolvable_unlock_clears_everything(self):
        m = _mutex_module()
        f = _func(m, "f")
        b = IRBuilder(f.new_block("entry"))
        gm, gx = m.globals["m"], m.globals["x"]
        _lock(b, m, gm)
        # Unlock through a loaded (unresolvable) mutex address: it could
        # release any held lock.
        addr = b.load(gx, name="addr")
        b.call(m.externals["pthread_mutex_unlock"], [addr])
        after = b.load(gx, name="after")
        b.ret(after)
        ls = compute_locksets(m)
        assert ls.locks_for(after) == frozenset()


class TestLockSummaryAlgebra:
    def test_apply_delta(self):
        s = LockSummary(acquires=frozenset({("lock", "a", 0)}),
                        releases=frozenset({("lock", "b", 0)}))
        held = frozenset({("lock", "b", 0), ("lock", "c", 0)})
        assert s.apply(held) == frozenset(
            {("lock", "a", 0), ("lock", "c", 0)})

    def test_all_locks_release(self):
        s = LockSummary(acquires=frozenset({("lock", "a", 0)}),
                        releases=ALL_LOCKS)
        assert s.apply(frozenset({("lock", "b", 0)})) == frozenset(
            {("lock", "a", 0)})


def _locked_mp_module(lock_reader: bool = True):
    """MP across two thread roots with the writer (and optionally the
    reader) holding the same mutex, pre-fenced in the Fig. 8a shape."""
    from repro.fences import place_fences

    m = _mutex_module()
    gm, gx, gy = m.globals["m"], m.globals["x"], m.globals["y"]
    writer = _func(m, "writer")
    reader = _func(m, "reader")
    b = IRBuilder(writer.new_block("entry"))
    _lock(b, m, gm)
    b.store(ConstantInt(I64, 1), gx)
    b.store(ConstantInt(I64, 1), gy)
    _unlock(b, m, gm)
    b.ret(ConstantInt(I64, 0))
    b = IRBuilder(reader.new_block("entry"))
    if lock_reader:
        _lock(b, m, gm)
    r0 = b.load(gy, name="flag")
    r1 = b.load(gx, name="data")
    if lock_reader:
        _unlock(b, m, gm)
    b.ret(b.add(r0, r1, "s"))
    place_fences(m)
    return m


def _fences(m):
    return [i for f in m.functions.values() if not f.is_declaration
            for i in f.instructions() if isinstance(i, Fence)]


class TestModuleSyncElision:
    def test_locked_mp_elides_only_under_sync(self):
        base = _locked_mp_module()
        stats = elide_redundant_fences(base)
        assert stats.required == 2  # MP critical cycle without locksets
        synced = _locked_mp_module()
        stats = elide_redundant_fences(synced, sync=True)
        assert stats.required == 0
        assert stats.elided_sync == 2
        assert stats.sync
        assert stats.sync_dropped_conflicts > 0
        assert not _fences(synced)
        # The sync-tier decisions carry their tier for SARIF/remarks.
        tiers = {d.tier for d in stats.decisions if d.verdict == "redundant"}
        assert "sync" in tiers
        # The audit re-derives the certificates through the same filter;
        # without it, the removed fences leave the MP cycle uncovered.
        assert audit_module(synced, sync=True) == []
        assert any("uncovered delay edge" in v
                   for v in audit_module(synced))

    def test_half_locked_mp_keeps_fences(self):
        m = _locked_mp_module(lock_reader=False)
        stats = elide_redundant_fences(m, sync=True)
        assert stats.required == 2
        assert stats.elided_sync == 0
        assert len(_fences(m)) == 2
        # No common lock, so the filter drops nothing and the base
        # analysis stands as the refined one.
        assert stats.sync
        assert stats.sync_dropped_conflicts == 0


class TestLockLitmusGate:
    def test_locked_mp_elides_via_sync_and_is_sound(self):
        sound, result = check_litmus_elision(MP_LOCKED, sync=True)
        assert sound
        assert result.elided_sync_count == 2
        # Without the refinement the same fences are required.
        _, base = check_litmus_elision(MP_LOCKED, sync=False)
        assert base.elided_sync_count == 0
        assert base.required_count == 2

    def test_half_locked_mp_gets_no_sync_elision(self):
        sound, result = check_litmus_elision(MP_LOCKED_HALF, sync=True)
        assert sound
        assert result.elided_sync_count == 0
        assert result.required_count == 2

    def test_distinct_locks_get_no_sync_elision(self):
        sound, result = check_litmus_elision(MP_TWO_LOCKS, sync=True)
        assert sound
        assert result.elided_sync_count == 0
        assert result.required_count == 2

    def test_early_unlock_still_pairwise_protected(self):
        sound, result = check_litmus_elision(MP_EARLY_UNLOCK, sync=True)
        assert sound
        assert result.elided_sync_count == 2

    def test_whole_lock_corpus_is_sound(self):
        for program in LOCK_LITMUS:
            sound, _ = check_litmus_elision(program, sync=True)
            assert sound, f"{program.name}: sync elision is UNSOUND"


def _counting(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def _build(example: str, fence_analysis: str):
    source = (EXAMPLES / example).read_text()
    with workcounters.collect() as wc:
        built = Lasagne(fence_analysis=fence_analysis).build(source, "ppopt")
    return built, wc.by_counter()


class TestLockFilter:
    """The sync tier filters the one delay-set conflict graph."""

    def test_filter_drops_exactly_the_lock_ordered_edges(self):
        graph = graph_from_litmus(map_x86_to_ir(MP_LOCKED))
        refined, dropped = graph.lock_refined()
        assert refined.accesses is graph.accesses
        assert refined.po is graph.po
        accesses = graph.accesses
        expected = {
            uid: {other for other in others
                  if not accesses[uid].locks & accesses[other].locks}
            for uid, others in graph.conflicts.items()}
        assert refined.conflicts == expected
        removed = sum(len(graph.conflicts[u]) - len(expected[u])
                      for u in expected)
        assert dropped == removed // 2 > 0

    def test_elision_builds_one_graph(self, monkeypatch):
        calls: dict[str, int] = {}
        _counting(monkeypatch, calls, delayset, "graph_from_module")
        _counting(monkeypatch, calls, delayset, "analyze_module")
        _counting(monkeypatch, calls, sync, "compute_locksets")
        stats = elide_redundant_fences(_locked_mp_module(), sync=True)
        assert stats.elided_sync == 2
        assert calls == {"graph_from_module": 1, "analyze_module": 1,
                         "compute_locksets": 1}

    def test_lock_free_module_searches_once(self):
        base, base_work = _build("demo.c", "delay-sets")
        synced, sync_work = _build("demo.c", "sync")
        assert synced.delayset.sync
        assert synced.delayset.sync_dropped_conflicts == 0
        assert sync_work["delayset.cycle_steps"] > 0
        assert (sync_work["delayset.cycle_steps"]
                == base_work["delayset.cycle_steps"])
        assert (sync_work["delayset.candidates"]
                == base_work["delayset.candidates"])
        assert synced.fences == base.fences

    def test_locked_example_elides_through_the_filter(self):
        base, base_work = _build("locked.c", "delay-sets")
        synced, sync_work = _build("locked.c", "sync")
        ds = synced.delayset
        assert ds.sync_dropped_conflicts == 10
        assert ds.elided_sync == 3
        assert synced.fences == 0 < base.fences
        # An edge was dropped, so the filtered graph was searched too.
        assert (sync_work["delayset.cycle_steps"]
                > base_work["delayset.cycle_steps"])
