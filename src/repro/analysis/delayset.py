"""Shasha–Snir delay-set analysis: which placed fences are *required*?

Fig. 8a fences every shared access pairwise (``ldna;Frm``, ``Fww;stna``),
which enforces **every** program-order edge between shared accesses.  The
classic delay-set observation (Shasha & Snir 1988; surveyed for
architecture-to-architecture mappings by Chakraborty, see PAPERS.md) is
that only po edges lying on a *critical cycle* of the static conflict
graph can ever be observed out of order — a cycle alternating

* **po edges** inside a thread (at most two accesses per thread, to
  different locations), and
* **conflict edges** between accesses of different threads to overlapping
  locations, at least one a write.

A fence is *required* iff it covers a delay edge (an enforceable po edge
on some critical cycle); every other Frm/Fww is *redundant* and may be
elided without admitting any execution the x86-TSO source forbids.

Three TSO/LIMM-specific refinements:

* po edges x86 itself does not order — ``W → R`` — are never delay edges
  (the source already allows that reordering; MFENCEs became ``Fsc``
  which this tier never touches);
* accesses with ``sc`` ordering (RMW/CmpXchg and their fences) are
  ordered by LIMM's ord3/ord4 natively — edges touching them need no
  ``Frm``/``Fww``;
* po edges between *provably identical* concrete locations are enforced
  by LIMM's per-location coherence (``sc_per_loc``) — pruned only when
  both sides resolve to the same (global, offset, size) key, never for
  merely may-aliasing abstract objects.

A fourth refinement, the ``sync`` tier, uses the must-locksets of
:mod:`repro.analysis.sync`, which every access node carries: a conflict
edge between two accesses that both hold a common lock is ordered by the
lock's own sc RMW chain (mutual exclusion + ord3/ord4 across the
critical-section boundary) and cannot lie on a critical cycle.  The tier
is a filter over the one conflict graph (:meth:`ConflictGraph.lock_refined`
drops the lock-ordered edges and shares everything else), and the cycle
search runs again only when the filter dropped an edge; otherwise the
base analysis already is the refined one.  Fences that become redundant
only under the filter form the ``sync`` elision tier
(``fences.skipped_sync``); a capped base analysis keeps every fence and a
capped refined one contributes nothing.

Two frontends build the conflict graph: :func:`graph_from_litmus` (each
litmus thread is a thread; locations are exact) and
:func:`graph_from_module` (thread roots are ``main``-like entries plus
escaped-function-pointer targets, which get **two** copies so self-races
are visible; per-root access sets are inlined through direct calls with a
CFG-reachability "may execute before" relation; locations come from the
interprocedural points-to analysis).  Everything over-approximates toward
*more* cycles — unknown locations conflict with everything, cycle-search
budget overruns mark the analysis ``capped`` and keep every fence.

Every elision is double-checked: the protected access is stamped with a
``delayset_cert`` (cycle-freeness certificate) that ``fencecheck``
honours and :func:`audit_module` re-derives from scratch, and the litmus
path is validated exhaustively by enumeration in the tests/CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .. import telemetry
from ..lir import (
    GEP,
    AtomicRMW,
    Call,
    Cast,
    CmpXchg,
    ConstantInt,
    Fence,
    Function,
    GlobalVariable,
    Load,
    Module,
    Store,
)
from ..memmodel import events as ev
from ..profiler.workcounters import work
from ..provenance.origin import x86_location
from .summaries import ModuleAnalysis, analyze_module

TOP = ("top",)  # unknown location: conflicts with every shared access

# Work caps: overrunning any of them keeps every fence (sound fallback).
MAX_THREADS = 8
MAX_NODES = 800
MAX_CANDIDATES = 20000
CYCLE_BUDGET = 250000


@dataclass(eq=False)
class Access:
    uid: int
    thread: int
    kind: str            # "R" | "W" | "RW"
    ordering: str        # "na" | "sc"
    locs: frozenset      # location keys, possibly {TOP}
    label: str
    inst: object = None  # LIR Instruction (module) or (thread, index)
    func: str = ""
    block: str = ""
    index: int = -1
    #: must-held lock keys at this access (repro.analysis.sync); empty when
    #: unknown, which is the sound direction for the sync refinement
    locks: frozenset = frozenset()


@dataclass(eq=False)
class FenceNode:
    uid: int
    thread: int
    kind: str            # "rm" | "ww" | "sc"
    label: str
    inst: object = None
    func: str = ""
    block: str = ""
    index: int = -1


@dataclass
class ConflictGraph:
    accesses: dict[int, Access] = field(default_factory=dict)
    fences: dict[int, FenceNode] = field(default_factory=dict)
    nthreads: int = 0
    #: uid -> uids that may execute later in the same thread (accesses+fences)
    po: dict[int, set[int]] = field(default_factory=dict)
    #: access uid -> conflicting access uids (symmetric, cross-thread)
    conflicts: dict[int, set[int]] = field(default_factory=dict)
    capped: bool = False
    #: lock keys held at some memory access of the module (diagnostic)
    locks_seen: frozenset = frozenset()

    def add_access(self, node: Access) -> None:
        self.accesses[node.uid] = node
        self.po.setdefault(node.uid, set())
        self.conflicts.setdefault(node.uid, set())

    def add_fence(self, node: FenceNode) -> None:
        self.fences[node.uid] = node
        self.po.setdefault(node.uid, set())

    def _conflicting_pairs(self):
        nodes = list(self.accesses.values())
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if a.thread == b.thread:
                    continue
                if a.kind == "R" and b.kind == "R":
                    continue
                if _locs_overlap(a.locs, b.locs):
                    yield a, b

    def build_conflicts(self) -> None:
        for a, b in self._conflicting_pairs():
            self.conflicts[a.uid].add(b.uid)
            self.conflicts[b.uid].add(a.uid)

    def lock_refined(self) -> tuple["ConflictGraph", int]:
        """The sync filter: this graph without the conflict edges whose
        endpoints hold a common lock.  Mutual exclusion plus the lock's sc
        RMW chain (ord3/ord4) orders such a pair, so it cannot lie on a
        critical cycle (Chakraborty's sync-ordered conflict rule).

        Shares accesses, fences and po with this graph; the same pair loop
        fills the new conflict sets, so their iteration order (and with it
        the cycle search) is that of a graph built without those edges.
        Returns the refined graph and the number of edges dropped."""
        refined = replace(self, conflicts={u: set() for u in self.conflicts})
        dropped = 0
        for a, b in self._conflicting_pairs():
            if a.locks & b.locks:
                dropped += 1
                continue
            refined.conflicts[a.uid].add(b.uid)
            refined.conflicts[b.uid].add(a.uid)
        return refined, dropped


# -- location keys ----------------------------------------------------------


def _keys_overlap(k1: tuple, k2: tuple) -> bool:
    if k1 == TOP or k2 == TOP:
        return True
    if k1[0] == "g" and k2[0] == "g":
        if k1[1] != k2[1]:
            return False
        return k1[2] < k2[2] + k2[3] and k2[2] < k1[2] + k1[3]
    if k1[0] == k2[0]:
        return k1 == k2
    # concrete global range vs abstract object key
    if {k1[0], k2[0]} == {"g", "obj"}:
        g, o = (k1, k2) if k1[0] == "g" else (k2, k1)
        return o[1] == "global" and o[2] == g[1]
    return False


def _locs_overlap(ls1: frozenset, ls2: frozenset) -> bool:
    return any(_keys_overlap(k1, k2) for k1 in ls1 for k2 in ls2)


def _must_same_loc(a: Access, b: Access) -> bool:
    """Provably the *same concrete* bytes — the only case per-location
    coherence is allowed to discharge.  Field-insensitive abstract object
    keys (e.g. a whole array) never qualify."""
    if len(a.locs) != 1 or a.locs != b.locs:
        return False
    (key,) = a.locs
    return key != TOP and key[0] in ("g", "lit")


def _concrete_key(pointer, size: int) -> Optional[tuple]:
    """Syntactic walk to a (global, byte-offset, size) key, or None."""
    offset = 0
    value = pointer
    for _ in range(64):
        if isinstance(value, GlobalVariable):
            return ("g", value.name, offset, size)
        if isinstance(value, Cast) and value.op == "bitcast":
            value = value.value
        elif isinstance(value, GEP):
            element = (value.source_type.element
                       if len(value.indices) == 2 else value.source_type)
            scales = ([value.source_type.size_bytes(), element.size_bytes()]
                      if len(value.indices) == 2
                      else [value.source_type.size_bytes()])
            for idx, scale in zip(value.indices, scales):
                if not isinstance(idx, ConstantInt):
                    return None
                offset += idx.value * scale
            value = value.pointer
        else:
            return None
    return None


def _access_size(inst) -> int:
    try:
        if isinstance(inst, Store):
            return max(1, inst.value.type.size_bytes())
        return max(1, inst.type.size_bytes())
    except Exception:
        return 8


def _location_keys(inst, pointer, func, alias) -> frozenset:
    key = _concrete_key(pointer, _access_size(inst))
    if key is not None:
        return frozenset({key})
    keys = set()
    for obj in alias.points_to(pointer):
        if obj.kind == "global" and obj.origin is not None:
            keys.add(("obj", "global", obj.origin.name))
        elif obj.kind == "stack" and obj.origin is not None:
            # Keyed by the alloca identity: shared across thread copies of
            # the same root on purpose (a leaked frame address may travel).
            keys.add(("obj", "stack", func.name, id(obj.origin)))
        else:
            return frozenset({TOP})
    return frozenset(keys) if keys else frozenset({TOP})


# -- delay-edge computation -------------------------------------------------


@dataclass
class DelayAnalysis:
    graph: ConflictGraph
    delay_edges: set[tuple[int, int]] = field(default_factory=set)
    required: set[int] = field(default_factory=set)     # fence uids
    redundant: set[int] = field(default_factory=set)
    #: fence uid -> one (u, v) delay edge it covers (evidence for logs)
    witness: dict[int, tuple[int, int]] = field(default_factory=dict)
    uncovered: set[tuple[int, int]] = field(default_factory=set)
    candidates: int = 0
    cycles: int = 0
    capped: bool = False

    @property
    def keep_all(self) -> bool:
        """Sound fallback: budget overrun, or a delay edge with no
        covering fence (the placement invariant did not hold here)."""
        return self.capped or bool(self.uncovered)


def _edge_enforceable(u: Access, v: Access) -> bool:
    if u.ordering != "na" or v.ordering != "na":
        return False  # sc accesses are ordered by ord3/ord4 natively
    if u.kind == "W" and v.kind == "R":
        return False  # x86-TSO itself allows W->R reordering
    if _must_same_loc(u, v):
        return False  # per-location coherence (sc_per_loc) enforces it
    return True


def _fence_covers(f: FenceNode, u: Access, v: Access) -> bool:
    if f.kind == "sc":
        return True
    if f.kind == "rm":
        return u.kind == "R"
    if f.kind == "ww":
        return u.kind == "W" and v.kind == "W"
    return False


class _CycleSearch:
    """Critical-cycle existence queries with a global expansion budget."""

    def __init__(self, graph: ConflictGraph, budget: int = CYCLE_BUDGET):
        self.graph = graph
        self.budget = budget
        self.exhausted = False

    def cycle_exists(self, u: Access, v: Access) -> bool:
        """Is there a critical cycle containing the po edge u -> v?

        Searches v --cf--> (one or two accesses per intermediate thread,
        the pair po-ordered and to different locations) --cf--> u, each
        intermediate thread used at most once.  Budget exhaustion answers
        True (more cycles = more fences = sound)."""
        graph = self.graph
        po = graph.po
        conflicts = graph.conflicts
        accesses = graph.accesses
        target = u.uid
        seen: set[tuple[int, frozenset]] = set()
        stack: list[tuple[int, frozenset]] = [(v.uid, frozenset({u.thread}))]
        while stack:
            if self.budget <= 0:
                self.exhausted = True
                return True
            self.budget -= 1
            node, used = stack.pop()
            for w_uid in conflicts[node]:
                if w_uid == target:
                    return True
                w = accesses[w_uid]
                if w.thread in used:
                    continue
                used2 = used | {w.thread}
                state = (w_uid, used2)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
                # Two-access segment: w --po--> y, different locations.
                for y_uid in po[w_uid]:
                    y = accesses.get(y_uid)
                    if y is None or y.thread != w.thread:
                        continue
                    if _must_same_loc(w, y):
                        continue
                    state = (y_uid, used2)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
        return False


def analyze_graph(graph: ConflictGraph) -> DelayAnalysis:
    """Find delay edges and classify every fence as required/redundant."""
    result = DelayAnalysis(graph)
    if graph.capped:
        result.capped = True
        return result
    search = _CycleSearch(graph)
    try:
        return _analyze_graph(graph, result, search)
    finally:
        # Deterministic cost attribution (repro.profiler): candidate po
        # edges examined and cycle-search expansions spent.  The DFS
        # iterates sets of int uids, whose order is stable across runs.
        work("delayset.candidates", result.candidates)
        work("delayset.cycle_steps", CYCLE_BUDGET - search.budget)


def _analyze_graph(graph: ConflictGraph, result: DelayAnalysis,
                   search: _CycleSearch) -> DelayAnalysis:
    accesses = graph.accesses
    # Candidate po pairs: enforceable na->na edges between shared accesses
    # where both endpoints can touch a conflict (else no cycle through them).
    for u in accesses.values():
        if not graph.conflicts[u.uid]:
            continue
        for v_uid in graph.po[u.uid]:
            v = accesses.get(v_uid)
            if v is None or v.uid == u.uid:
                continue
            if not graph.conflicts[v.uid]:
                continue
            if not _edge_enforceable(u, v):
                continue
            result.candidates += 1
            if result.candidates > MAX_CANDIDATES:
                result.capped = True
                return result
            if search.cycle_exists(u, v):
                result.delay_edges.add((u.uid, v.uid))
                result.cycles += 1
        if search.exhausted:
            result.capped = True
            return result
    # Coverage: a fence is required iff it covers some delay edge.
    for u_uid, v_uid in result.delay_edges:
        u, v = accesses[u_uid], accesses[v_uid]
        covered = False
        for f_uid, f in graph.fences.items():
            if f.thread != u.thread:
                continue
            if (f_uid in graph.po[u_uid] and v_uid in graph.po[f_uid]
                    and _fence_covers(f, u, v)):
                covered = True
                if f_uid not in result.required:
                    result.required.add(f_uid)
                    result.witness[f_uid] = (u_uid, v_uid)
        if not covered:
            result.uncovered.add((u_uid, v_uid))
    result.redundant = set(graph.fences) - result.required
    return result


def lock_refined_analysis(
        analysis: DelayAnalysis) -> tuple[DelayAnalysis, int]:
    """The sync tier over a base analysis: filter the lock-ordered
    conflict edges out of its graph and search again only if one was
    dropped.  Returns the refined analysis (``analysis`` itself when
    nothing was dropped) and the number of edges dropped."""
    refined, dropped = analysis.graph.lock_refined()
    if not dropped:
        return analysis, 0
    return analyze_graph(refined), dropped


# -- litmus frontend --------------------------------------------------------


def litmus_locksets(program: ev.Program) -> list[list[frozenset]]:
    """Per-thread, per-op must-held lock keys of a litmus program.

    Threads are straight-line, so the lockset is a simple scan: a blocking
    acquire RMW (``events.Lock``) adds its location, a blocking release
    (``events.Unlock``) removes it.  The lock operations themselves carry
    an empty lockset — their conflicts on the lock word *are* the
    synchronization and must stay in the graph."""
    out: list[list[frozenset]] = []
    for ops in program.threads:
        held: set[str] = set()
        thread_sets: list[frozenset] = []
        for op in ops:
            if isinstance(op, ev.Rmw) and op.blocking:
                thread_sets.append(frozenset())
                if op.sync == "acquire":
                    held.add(op.loc)
                elif op.sync == "release":
                    held.discard(op.loc)
            else:
                thread_sets.append(frozenset(("lit", loc) for loc in held))
        out.append(thread_sets)
    return out


_LITMUS_ACCESSES = {ev.Ld: ("R", "Ld"), ev.St: ("W", "St"),
                    ev.Rmw: ("RW", "RMW")}


def graph_from_litmus(program: ev.Program) -> ConflictGraph:
    """Conflict graph of a LIMM-level litmus program (e.g. the image of
    ``map_x86_to_ir``).  x86 ``mfence`` is treated as ``sc``; every access
    carries its :func:`litmus_locksets` entry."""
    graph = ConflictGraph(nthreads=len(program.threads))
    locksets = litmus_locksets(program)
    uid = 0
    for t, ops in enumerate(program.threads):
        thread_nodes: list[int] = []
        for idx, op in enumerate(ops):
            if isinstance(op, (ev.Ld, ev.St, ev.Rmw)):
                kind, name = _LITMUS_ACCESSES[type(op)]
                ordering = ("sc" if kind == "RW" or op.ordering == "sc"
                            else "na")
                graph.add_access(Access(
                    uid, t, kind, ordering, frozenset({("lit", op.loc)}),
                    f"T{t}: {name} {op.loc}", inst=(t, idx), index=idx,
                    locks=locksets[t][idx]))
            elif isinstance(op, ev.Fence):
                kind = "sc" if op.kind == "mfence" else op.kind
                if kind not in ("rm", "ww", "sc"):
                    kind = "sc"  # arm-level fences: strongest, never elided
                graph.add_fence(FenceNode(
                    uid, t, kind, f"T{t}: F{kind}", inst=(t, idx), index=idx))
            else:  # CtrlDep: no event
                continue
            thread_nodes.append(uid)
            uid += 1
        for i, a in enumerate(thread_nodes):
            for b in thread_nodes[i + 1:]:
                graph.po[a].add(b)
    graph.build_conflicts()
    return graph


@dataclass
class LitmusDecision:
    thread: int
    index: int
    kind: str
    verdict: str  # "required" | "redundant" | "kept"
    reason: str
    tier: str = ""  # "delayset" | "sync" for redundant verdicts


@dataclass
class LitmusDelayResult:
    program: ev.Program
    elided: ev.Program
    analysis: DelayAnalysis
    decisions: list[LitmusDecision]

    @property
    def elided_count(self) -> int:
        return sum(1 for d in self.decisions if d.verdict == "redundant")

    @property
    def elided_sync_count(self) -> int:
        return sum(1 for d in self.decisions
                   if d.verdict == "redundant" and d.tier == "sync")

    @property
    def required_count(self) -> int:
        return sum(1 for d in self.decisions if d.verdict == "required")


def elide_litmus_fences(program: ev.Program,
                        sync: bool = False) -> LitmusDelayResult:
    """Classify and drop redundant Frm/Fww fences of a LIMM litmus
    program.  ``sc`` fences are always kept (they encode source MFENCEs).

    With ``sync=True`` the lock filter runs over the base graph: fences
    required by the base delay sets but redundant once lock-ordered
    conflict edges are dropped are elided under the ``sync`` tier.  A
    capped/uncovered refined analysis contributes nothing (fences keep
    the base verdict)."""
    graph = graph_from_litmus(program)
    analysis = analyze_graph(graph)
    sync_redundant: set = set()  # (t, idx) inst keys
    if sync and not analysis.keep_all:
        refined, _ = lock_refined_analysis(analysis)
        if not refined.keep_all:
            sync_redundant = {graph.fences[f_uid].inst
                              for f_uid in refined.redundant}
    verdicts: dict[tuple[int, int], tuple[str, str, str]] = {}
    for f_uid, f in graph.fences.items():
        if f.kind == "sc":
            verdicts[f.inst] = (
                "kept", "Fsc (source MFENCE) is never elided", "")
        elif analysis.keep_all:
            reason = ("analysis budget exhausted"
                      if analysis.capped else "uncovered delay edge")
            verdicts[f.inst] = ("kept", f"kept conservatively: {reason}", "")
        elif f_uid in analysis.required:
            if f.inst in sync_redundant:
                verdicts[f.inst] = (
                    "redundant",
                    "every conflict it orders is lock-protected "
                    "(sync-refined delay sets)", "sync")
                continue
            u_uid, v_uid = analysis.witness[f_uid]
            u, v = graph.accesses[u_uid], graph.accesses[v_uid]
            verdicts[f.inst] = (
                "required",
                f"covers delay edge {u.label} -> {v.label} "
                "(on a critical cycle)", "")
        else:
            verdicts[f.inst] = (
                "redundant", "covers no critical-cycle delay edge",
                "delayset")
    threads = []
    decisions = []
    for t, ops in enumerate(program.threads):
        kept_ops = []
        for idx, op in enumerate(ops):
            if isinstance(op, ev.Fence):
                verdict, reason, tier = verdicts.get(
                    (t, idx), ("kept", "unclassified fence kept", ""))
                decisions.append(LitmusDecision(
                    t, idx, op.kind, verdict, reason, tier=tier))
                if verdict == "redundant":
                    continue
            kept_ops.append(op)
        threads.append(kept_ops)
    elided = ev.Program(threads, dict(program.init),
                        f"{program.name}-delayset")
    return LitmusDelayResult(program, elided, analysis, decisions)


def check_litmus_elision(
    source: ev.Program, sync: bool = False
) -> tuple[bool, "LitmusDelayResult"]:
    """The enumeration gate: map an x86 litmus program through Fig. 8a,
    elide redundant fences, and prove by exhaustive LIMM enumeration that
    the elided program admits no outcome the x86 source forbids."""
    from ..memmodel.axioms import outcomes
    from ..memmodel.mappings import map_x86_to_ir

    mapped = map_x86_to_ir(source)
    result = elide_litmus_fences(mapped, sync=sync)
    allowed = outcomes(source, "x86")
    observed = outcomes(result.elided, "limm")
    return observed <= allowed, result


# -- module frontend --------------------------------------------------------


def _block_reach(func: Function) -> dict:
    """block -> set of blocks reachable via >= 1 CFG edge (so a block in a
    cycle reaches itself)."""
    succs = {bb: list(bb.successors()) for bb in func.blocks}
    reach: dict = {}
    for bb in func.blocks:
        seen: set = set()
        work = list(succs[bb])
        while work:
            nxt = work.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            work.extend(succs.get(nxt, ()))
        reach[bb] = seen
    return reach


_ACCESS_LABELS = {"R": "load", "W": "store", "RW": "rmw"}


@dataclass
class FenceDecision:
    func: str
    block: str
    index: int
    kind: str
    verdict: str  # "required" | "redundant" | "kept"
    reason: str
    x86: str = ""
    tier: str = ""  # "delayset" | "sync" for redundant verdicts


@dataclass
class ModuleDelayResult:
    graph: ConflictGraph
    analysis: DelayAnalysis
    #: id(fence inst) -> True when some thread copy needs it
    required_insts: set[int] = field(default_factory=set)
    seen_insts: set[int] = field(default_factory=set)
    #: id(fence inst) -> (u.label, v.label) witness
    witnesses: dict[int, tuple[str, str]] = field(default_factory=dict)
    threads: list[str] = field(default_factory=list)

    @property
    def keep_all(self) -> bool:
        return self.analysis.keep_all


def graph_from_module(module: Module,
                      ma: Optional[ModuleAnalysis] = None) -> tuple[
                          ConflictGraph, list[str]]:
    """Build the whole-module conflict graph.

    Thread roots are ``main``-like entries (no intra-module caller) plus
    every address-taken function; address-taken roots contribute **two**
    thread copies so a worker racing its own clone is modelled.  Each
    root's thread inlines the shared accesses of every function reachable
    through direct calls; "may execute before" is CFG reachability within
    a function composed with call structure (enter/exit virtual nodes).
    External calls are assumed memory-model-neutral (see module docstring
    Limitations) and contribute no access node.

    Every access node carries the must-lockset the
    :mod:`repro.analysis.sync` dataflow computed for its instruction.
    """
    from .sync import compute_locksets

    ma = ma or analyze_module(module)
    cg = ma.callgraph
    locksets = compute_locksets(module, ma)
    graph = ConflictGraph(locks_seen=frozenset(locksets.locks_seen))
    thread_names: list[str] = []
    roots: list[tuple[Function, int]] = []
    for root in cg.thread_roots():
        copies = 2 if root.name in cg.address_taken else 1
        for c in range(copies):
            roots.append((root, c))
            thread_names.append(root.name + (f"#{c}" if copies > 1 else ""))
    if not roots or len(roots) > MAX_THREADS:
        graph.capped = True
        return graph, thread_names
    graph.nthreads = len(roots)

    uid_counter = [0]

    def fresh_uid() -> int:
        uid_counter[0] += 1
        return uid_counter[0]

    reach_cache: dict[str, dict] = {}

    for thread, (root, _copy) in enumerate(roots):
        funcs = cg.reachable_from(root)
        # virtual enter/exit per function for cross-call ordering
        enter = {f.name: fresh_uid() for f in funcs}
        exit_ = {f.name: fresh_uid() for f in funcs}
        edges: dict[int, set[int]] = {}

        def add_edge(a: int, b: int) -> None:
            edges.setdefault(a, set()).add(b)

        real_nodes: list[int] = []
        for func in funcs:
            alias = ma.alias(func)
            if func.name not in reach_cache:
                reach_cache[func.name] = _block_reach(func)
            breach = reach_cache[func.name]
            positions: list[tuple[int, object, int]] = []  # (uid, bb, idx)
            calls: list[tuple[str, object, int]] = []
            for bb in func.blocks:
                for idx, inst in enumerate(bb.instructions):
                    node = None
                    if isinstance(inst, (Load, Store, AtomicRMW, CmpXchg)):
                        if not alias.is_thread_local(inst.pointer):
                            kind = ("R" if isinstance(inst, Load) else
                                    "W" if isinstance(inst, Store) else "RW")
                            ordering = ("na" if kind != "RW"
                                        and inst.ordering == "na" else "sc")
                            node = Access(
                                fresh_uid(), thread, kind, ordering,
                                _location_keys(inst, inst.pointer, func,
                                               alias),
                                f"{func.name}:{bb.name}:{idx} "
                                + _ACCESS_LABELS[kind],
                                inst=inst, func=func.name, block=bb.name,
                                index=idx, locks=locksets.locks_for(inst))
                            graph.add_access(node)
                    elif isinstance(inst, Fence):
                        node = FenceNode(
                            fresh_uid(), thread, inst.kind,
                            f"{func.name}:{bb.name}:{idx} F{inst.kind}",
                            inst=inst, func=func.name, block=bb.name,
                            index=idx)
                        graph.add_fence(node)
                    elif isinstance(inst, Call):
                        callee = inst.callee
                        if isinstance(callee, Function) and \
                                callee.name in enter:
                            calls.append((callee.name, bb, idx))
                    if node is not None:
                        positions.append((node.uid, bb, idx))
                        real_nodes.append(node.uid)
                        if len(real_nodes) > MAX_NODES:
                            graph.capped = True
                            return graph, thread_names

            def before(bb_a, idx_a, bb_b, idx_b) -> bool:
                if bb_a is bb_b:
                    return idx_a < idx_b or bb_a in breach[bb_a]
                return bb_b in breach[bb_a]

            add_edge(enter[func.name], exit_[func.name])
            for uid_a, bb_a, idx_a in positions:
                add_edge(enter[func.name], uid_a)
                add_edge(uid_a, exit_[func.name])
                for uid_b, bb_b, idx_b in positions:
                    if uid_a != uid_b and before(bb_a, idx_a, bb_b, idx_b):
                        add_edge(uid_a, uid_b)
            for callee_name, bb_c, idx_c in calls:
                add_edge(enter[func.name], enter[callee_name])
                add_edge(exit_[callee_name], exit_[func.name])
                for uid_a, bb_a, idx_a in positions:
                    if before(bb_a, idx_a, bb_c, idx_c):
                        add_edge(uid_a, enter[callee_name])
                    if before(bb_c, idx_c, bb_a, idx_a):
                        add_edge(exit_[callee_name], uid_a)

        # po = reachability over the per-thread edge graph, restricted to
        # this thread's real (access/fence) nodes.
        thread_real = set(real_nodes)
        for start in real_nodes:
            seen: set[int] = set()
            work = list(edges.get(start, ()))
            while work:
                nxt = work.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                work.extend(edges.get(nxt, ()))
            graph.po[start] = seen & thread_real
    graph.build_conflicts()
    return graph, thread_names


def analyze_module_fences(module: Module,
                          ma: Optional[ModuleAnalysis] = None
                          ) -> ModuleDelayResult:
    graph, thread_names = graph_from_module(module, ma)
    analysis = analyze_graph(graph)
    result = ModuleDelayResult(graph, analysis, threads=thread_names)
    for f_uid, f in graph.fences.items():
        result.seen_insts.add(id(f.inst))
        if f_uid in analysis.required:
            result.required_insts.add(id(f.inst))
            u_uid, v_uid = analysis.witness[f_uid]
            result.witnesses.setdefault(
                id(f.inst), (graph.accesses[u_uid].label,
                             graph.accesses[v_uid].label))
    return result


# -- elision on LIR modules -------------------------------------------------


@dataclass
class DelaySetStats:
    fences_before: int = 0
    required: int = 0
    elided: int = 0
    elided_sync: int = 0       # of ``elided``: only via the sync refinement
    kept_sc: int = 0
    kept_conservative: int = 0
    delay_edges: int = 0
    sync_dropped_conflicts: int = 0
    capped: bool = False
    kept_all: bool = False
    sync: bool = False         # the sync refinement ran and was usable
    decisions: list[FenceDecision] = field(default_factory=list)


def _protected_access(fence_inst: Fence):
    """The access a placed fence is adjacent to: the load right before an
    ``Frm``, the store right after an ``Fww``.  None if the shape is not
    the placement shape (then the fence is kept)."""
    bb = fence_inst.parent
    insts = list(bb.instructions)
    pos = insts.index(fence_inst)
    if fence_inst.kind == "rm":
        if pos > 0 and isinstance(insts[pos - 1], Load):
            return insts[pos - 1]
    elif fence_inst.kind == "ww":
        if pos + 1 < len(insts) and isinstance(insts[pos + 1], Store):
            return insts[pos + 1]
    return None


def elide_redundant_fences(module: Module,
                           ma: Optional[ModuleAnalysis] = None,
                           sync: bool = False) -> DelaySetStats:
    """Remove every Frm/Fww the delay-set analysis proves redundant.

    Must run right after :func:`repro.fences.place_fences` (before the O2
    pipeline and fence merging), while every fence still sits adjacent to
    the access it protects.  Each elided fence stamps its access with a
    ``delayset_cert`` so ``fencecheck`` (and the oracle's audit rung) can
    distinguish a certified elision from a lost fence.

    With ``sync=True`` the lock filter runs over the same graph: fences
    the base delay sets require but whose every ordered conflict is
    lock-protected are elided under the ``sync`` tier
    (``fences.skipped_sync``).  A capped or uncovered refined analysis
    contributes nothing — fences keep their base verdict.
    """
    result = analyze_module_fences(module, ma)
    stats = DelaySetStats(capped=result.analysis.capped,
                          kept_all=result.keep_all,
                          delay_edges=len(result.analysis.delay_edges))
    sync_required: Optional[set[int]] = None  # id(fence inst)
    if sync and not result.keep_all:
        refined, dropped = lock_refined_analysis(result.analysis)
        if not refined.keep_all:
            stats.sync = True
            stats.sync_dropped_conflicts = dropped
            sync_required = {id(result.graph.fences[f_uid].inst)
                             for f_uid in refined.required}
    emit = telemetry.remarks_enabled()
    for func in module.functions.values():
        if func.is_declaration:
            continue
        for bb in func.blocks:
            for idx, inst in enumerate(list(bb.instructions)):
                if not isinstance(inst, Fence):
                    continue
                stats.fences_before += 1
                where = FenceDecision(func.name, bb.name, idx, inst.kind,
                                      "kept", "", x86=x86_location(inst))
                if inst.kind == "sc":
                    stats.kept_sc += 1
                    continue  # Fsc encodes a source MFENCE: never elide
                if result.keep_all:
                    stats.kept_conservative += 1
                    where.reason = ("analysis budget exhausted"
                                    if result.analysis.capped
                                    else "uncovered delay edge; kept all")
                    stats.decisions.append(where)
                    continue
                if id(inst) not in result.seen_insts:
                    stats.kept_conservative += 1
                    where.reason = "unreachable from any thread root"
                    stats.decisions.append(where)
                    continue
                tier = ""
                if id(inst) not in result.required_insts:
                    tier = "delayset"
                    reason = ("covers no critical-cycle delay edge "
                              "(Shasha-Snir delay-set analysis)")
                elif (sync_required is not None
                        and id(inst) not in sync_required):
                    tier = "sync"
                    reason = ("every conflict it orders is lock-protected "
                              "(sync-refined delay sets)")
                if not tier:
                    stats.required += 1
                    u_label, v_label = result.witnesses[id(inst)]
                    where.verdict = "required"
                    where.reason = (f"covers delay edge {u_label} -> "
                                    f"{v_label} (critical cycle)")
                    stats.decisions.append(where)
                    continue
                access = _protected_access(inst)
                if access is None:
                    stats.kept_conservative += 1
                    where.reason = "not adjacent to its access; kept"
                    stats.decisions.append(where)
                    continue
                # Redundant: remove, certify, log.
                certs = set(getattr(access, "delayset_cert", ()))
                certs.add(inst.kind)
                access.delayset_cert = frozenset(certs)
                access.placement = tuple(getattr(access, "placement", ())) + (
                    f"elided: F{inst.kind} for this access is redundant — "
                    + reason,)
                where.verdict = "redundant"
                where.reason = reason
                where.tier = tier
                stats.decisions.append(where)
                if emit:
                    telemetry.remark(
                        "delay-set", "fence-elided",
                        f"F{inst.kind} elided: {reason}",
                        function=func.name, block=bb.name,
                        instruction=f"fence.{inst.kind}",
                        x86=x86_location(inst) or "")
                inst.erase_from_parent()
                stats.elided += 1
                if tier == "sync":
                    stats.elided_sync += 1
    telemetry.count("fences.skipped_delayset",
                    stats.elided - stats.elided_sync)
    telemetry.count("fences.skipped_sync", stats.elided_sync)
    if stats.kept_all and emit:
        telemetry.remark(
            "delay-set", "analysis-capped",
            "delay-set analysis fell back to keeping every fence "
            + ("(budget exhausted)" if stats.capped
               else "(uncovered delay edge)"))
    return stats


def audit_module(module: Module,
                 ma: Optional[ModuleAnalysis] = None,
                 sync: bool = False) -> list[str]:
    """Re-derive the delay-set facts from scratch and check every
    cycle-freeness certificate: a certified access must not start an
    uncovered enforceable delay edge.  Returns violation strings (empty =
    every certificate is justified).  Intended for the placement-stage
    snapshot, where fences are still adjacent to their accesses.

    Pass ``sync=True`` when the module was elided under the sync tier —
    the audit then searches the lock-filtered graph, whose delay edges
    are a subset of the base graph's."""
    graph, _ = graph_from_module(module, ma)
    if sync:
        graph, _ = graph.lock_refined()
    analysis = analyze_graph(graph)
    violations: list[str] = []
    if analysis.capped:
        certified = any(
            getattr(inst, "delayset_cert", None)
            for func in module.functions.values()
            if not func.is_declaration
            for inst in func.instructions())
        if certified:
            violations.append(
                "delay-set audit: analysis budget exhausted but the module "
                "carries delayset_cert stamps")
        return violations
    for u_uid, v_uid in analysis.uncovered:
        u = graph.accesses[u_uid]
        v = graph.accesses[v_uid]
        violations.append(
            f"uncovered delay edge {u.label} -> {v.label}: no surviving "
            "fence orders a critical-cycle pair")
    return violations
