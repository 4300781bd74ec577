"""Ball-Larus path profiles: numbering, collection, and exploitation.

A *path profile* counts, per method, how often each acyclic
ENTRY→EXIT control-flow path executed — strictly more information than
edge counts at a comparable cost, and the profile type the inliner and
the adaptive controller exploit for path-aware decisions.

Numbering
---------
Each :class:`~repro.vm.runtime.CompiledMethod`'s CFG is derived from
its flat ``ops``/``a`` arrays (the same jump-target scan the
superinstruction fuser uses).  A CFG edge whose target pc is ≤ the
branch pc is a *back edge* — exactly the interpreter's backedge-
yieldpoint definition — and every other edge strictly increases pc, so
removing back edges leaves a DAG whose topological order is pc order.
Classic Ball-Larus numbering assigns each DAG edge a value such that
summing values along a path yields a unique id in ``[0, num_paths)``.

Back edges are handled with the multi-iteration extension (arxiv
1304.5197): a back edge ``u→v`` is replaced by dummy edges ``u→EXIT``
and ``ENTRY→v``; at runtime the back edge *records* the current path
(``count[r + val(u→EXIT)]``) and *resets* ``r = val(ENTRY→v)`` — so
each loop iteration is its own countable path and dominant
multi-iteration bodies are visible as hot ids.

Collection
----------
:class:`PathTracker` hangs off the interpreter's dispatch loops (see
``Interpreter.attach_paths``) and supports three modes:

* ``exhaustive`` — every observable branch outcome applies its edge
  value; the reference counts.
* ``mincov`` — minimum-coverage placement (:mod:`repro.profiling.
  pathplace`): increments only on spanning-tree chords, *identical*
  final ids, strictly fewer executed increments on branchy code.
* ``cbs`` — windowed sampling that reuses the virtual timer: every
  ``stride``-th tick opens a window with a budget of
  ``samples_per_tick`` path records; outside windows events are
  ignored and a frame's register is re-synced at the next back edge
  (the reset value fully determines ``r``).

A tracker built with ``charge=False`` is a zero-virtual-cost rider
(like telemetry and the flight recorder) used by the differential
fuzzer to assert bit-identity; ``charge=True`` bills
``path_edge_cost`` per executed increment and ``path_record_cost`` per
path record against the VM's virtual clock — the table-2 overhead
story.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.bytecode.opcodes import Op
from repro.profiling import pathplace

_OP_JUMP = int(Op.JUMP)
_OP_JIF = int(Op.JUMP_IF_FALSE)
_OP_JIT = int(Op.JUMP_IF_TRUE)
_OP_RETURN = int(Op.RETURN)
_OP_RETURN_VAL = int(Op.RETURN_VAL)
_BRANCH_OPS = (_OP_JIF, _OP_JIT)

#: Methods with more acyclic paths than this are not path-profiled
#: (the id space would not fit a sane counter table); their frames
#: no-op in every mode, so the modes still agree.
PATH_LIMIT = 1 << 20

#: Collection modes accepted by :class:`PathTracker` and the CLI.
PATH_MODES = ("exhaustive", "mincov", "cbs")


class Edge:
    """One DAG edge of a method's numbering.

    ``kind`` ∈ ``entry`` (ENTRY→block0), ``fall`` (fall-through),
    ``jump`` (forward JUMP), ``branch`` (conditional outcome, key
    ``(pc, taken)``), ``ret`` (block→EXIT at a RETURN, key pc),
    ``bout``/``bin`` (back-edge dummies ``u→EXIT`` / ``ENTRY→v``, key
    = the back edge's event key).
    """

    __slots__ = ("id", "u", "v", "val", "kind", "key")

    def __init__(self, eid: int, u: int, v: int, kind: str, key=None):
        self.id = eid
        self.u = u
        self.v = v
        self.kind = kind
        self.key = key
        self.val = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<edge {self.u}->{self.v} {self.kind} key={self.key} val={self.val}>"


class PathNumbering:
    """Ball-Larus numbering of one method's CFG (back-edge extended)."""

    __slots__ = (
        "n",
        "entry",
        "exit",
        "blocks",
        "starts",
        "edges",
        "out",
        "back_edges",
        "num_paths",
        "overflow",
    )

    def __init__(self, n, blocks, starts, edges, out, back_edges, num_paths, overflow):
        #: Node count including virtual ENTRY (0) and EXIT (n-1).
        self.n = n
        self.entry = 0
        self.exit = n - 1
        #: ``(start_pc, end_pc)`` per real block; node id = index + 1.
        self.blocks = blocks
        #: Block start pcs (sorted), for pc→block lookup.
        self.starts = starts
        #: Flat list of :class:`Edge` (DAG edges only).
        self.edges = edges
        #: Out-edge lists per node, in successor (value-assignment) order.
        self.out = out
        #: ``(key, src_node, dst_node, branch_pc, target_pc)`` per back edge.
        self.back_edges = back_edges
        #: Total acyclic paths (``numpaths(ENTRY)``).
        self.num_paths = num_paths
        #: True when ``num_paths`` exceeded :data:`PATH_LIMIT`.
        self.overflow = overflow

    # -- decoding -------------------------------------------------------------------

    def path_nodes(self, path_id: int) -> list:
        """The node sequence of ``path_id`` (ENTRY/EXIT excluded)."""
        nodes = []
        node, remaining = self.entry, path_id
        while node != self.exit:
            chosen = None
            for edge in reversed(self.out[node]):
                if edge.val <= remaining:
                    chosen = edge
                    break
            if chosen is None:  # pragma: no cover - invalid id
                break
            remaining -= chosen.val
            node = chosen.v
            if node != self.exit:
                nodes.append(node)
        return nodes

    def path_pcs(self, path_id: int) -> list:
        """Every raw pc covered by ``path_id``, in execution order."""
        pcs = []
        for node in self.path_nodes(path_id):
            start, end = self.blocks[node - 1]
            pcs.extend(range(start, end + 1))
        return pcs

    def block_at(self, pc: int) -> int:
        """Node id of the block containing ``pc``."""
        return bisect_right(self.starts, pc)


def number_paths(ops: list, a: list) -> PathNumbering:
    """Build the back-edge-extended Ball-Larus numbering for one
    method's flat opcode arrays (raw, unfused — the pcs the
    interpreter's hook sites report under every dispatch mode)."""
    size = len(ops)
    leaders = {0}
    for pc in range(size):
        op = ops[pc]
        if op == _OP_JUMP or op in _BRANCH_OPS:
            leaders.add(a[pc])
            if pc + 1 < size:
                leaders.add(pc + 1)
        elif op in (_OP_RETURN, _OP_RETURN_VAL):
            if pc + 1 < size:
                leaders.add(pc + 1)
    all_starts = sorted(p for p in leaders if 0 <= p < size)
    block_index = {start: i for i, start in enumerate(all_starts)}
    spans = [
        (start, (all_starts[i + 1] - 1) if i + 1 < len(all_starts) else size - 1)
        for i, start in enumerate(all_starts)
    ]

    def raw_successors(i: int) -> list:
        _start, end = spans[i]
        op = ops[end]
        if op == _OP_JUMP:
            return [block_index[a[end]]]
        if op in _BRANCH_OPS:
            succ = []
            if end + 1 < size:
                succ.append(block_index[end + 1])
            succ.append(block_index[a[end]])
            return succ
        if op in (_OP_RETURN, _OP_RETURN_VAL):
            return []
        return [block_index[end + 1]] if end + 1 < size else []

    # Reachability from block 0 (over real edges, back edges included).
    reachable = set()
    worklist = [0] if all_starts else []
    while worklist:
        i = worklist.pop()
        if i in reachable:
            continue
        reachable.add(i)
        worklist.extend(raw_successors(i))

    live = [i for i in sorted(reachable)]
    node_of = {i: idx + 1 for idx, i in enumerate(live)}
    blocks = [spans[i] for i in live]
    starts = [spans[i][0] for i in live]
    n = len(live) + 2
    entry, exit_node = 0, n - 1

    edges: list = []
    out: list = [[] for _ in range(n)]
    back_edges: list = []
    pending_bins: list = []

    def add_edge(u: int, v: int, kind: str, key=None) -> Edge:
        edge = Edge(len(edges), u, v, kind, key)
        edges.append(edge)
        out[u].append(edge)
        return edge

    for i in live:
        node = node_of[i]
        _start, end = spans[i]
        op = ops[end]
        if op == _OP_JUMP:
            target = a[end]
            if target <= end:
                back_edges.append((end, node, node_of[block_index[target]], end, target))
                add_edge(node, exit_node, "bout", end)
                pending_bins.append((end, node_of[block_index[target]]))
            else:
                add_edge(node, node_of[block_index[target]], "jump")
        elif op in _BRANCH_OPS:
            if end + 1 < size:
                add_edge(node, node_of[block_index[end + 1]], "branch", (end, False))
            target = a[end]
            if target <= end:
                key = (end, True)
                back_edges.append((key, node, node_of[block_index[target]], end, target))
                add_edge(node, exit_node, "bout", key)
                pending_bins.append((key, node_of[block_index[target]]))
            else:
                add_edge(node, node_of[block_index[target]], "branch", (end, True))
        elif op in (_OP_RETURN, _OP_RETURN_VAL):
            add_edge(node, exit_node, "ret", end)
        elif end + 1 < size:
            add_edge(node, node_of[block_index[end + 1]], "fall")
        else:
            # Fell off the end of the method (the verifier prevents
            # this, but keep the CFG closed).
            add_edge(node, exit_node, "ret", end)

    # ENTRY edges: the real entry first (so its value is 0 and the
    # entry register starts at 0 under exhaustive placement), then one
    # dummy per back-edge target.
    if live:
        add_edge(entry, node_of[live[0]], "entry")
    else:
        add_edge(entry, exit_node, "entry")
    for key, target_node in pending_bins:
        add_edge(entry, target_node, "bin", key)

    # Value assignment in reverse topological (descending node) order.
    numpaths = [0] * n
    numpaths[exit_node] = 1
    overflow = False
    for node in range(n - 2, -1, -1):
        running = 0
        for edge in out[node]:
            edge.val = running
            running += numpaths[edge.v]
        numpaths[node] = running if out[node] else 1
        if numpaths[node] > PATH_LIMIT:
            overflow = True
            break
    return PathNumbering(
        n, blocks, starts, edges, out, back_edges, numpaths[entry], overflow
    )


def numbering_for_code(code) -> PathNumbering:
    """Numbering straight from a function's ``Instr`` list (the
    baseline CFG — what the exploitation layers decode against)."""
    return number_paths([int(i.op) for i in code], [i.a for i in code])


class PathTables:
    """Runtime lookup tables for one (method, placement) pair."""

    __slots__ = (
        "num_paths",
        "entry_r",
        "branch",
        "branch_back",
        "back_jump",
        "ret",
        "charged",
        "placement",
    )

    def __init__(self, numbering: PathNumbering, placement: str):
        theta = [0] * numbering.n
        chords = None
        if placement == "mincov":
            placed = pathplace.place_counters(numbering)
            if placed is not None:
                theta, chords = placed.theta, placed.chords
        self.placement = placement
        self.num_paths = numbering.num_paths
        self.entry_r = 0
        #: {(pc, taken): increment} for forward conditional outcomes.
        self.branch: dict = {}
        #: {(pc, True): (record_inc, reset)} for backward conditionals.
        self.branch_back: dict = {}
        #: {pc: (record_inc, reset)} for backward JUMPs.
        self.back_jump: dict = {}
        #: {return_pc: increment folded into the record at EXIT}.
        self.ret: dict = {}
        #: Branch keys whose increment is actually *instrumented*
        #: (all of them under exhaustive placement; chords only under
        #: minimum coverage) — the charging / ``paths.increments`` set.
        charged = set()
        bouts = {e.key: e for e in numbering.edges if e.kind == "bout"}
        for edge in numbering.edges:
            if edge.kind == "entry":
                self.entry_r = edge.val + theta[edge.v]
            elif edge.kind == "branch":
                inc = edge.val + theta[edge.v] - theta[edge.u]
                if inc:
                    self.branch[edge.key] = inc
                if chords is None or edge.id in chords:
                    charged.add(edge.key)
            elif edge.kind == "ret":
                inc = -theta[edge.u]
                if inc:
                    self.ret[edge.key] = inc
            elif edge.kind == "bin":
                bout = bouts[edge.key]
                record_inc = bout.val - theta[bout.u]
                reset = edge.val + theta[edge.v]
                if isinstance(edge.key, tuple):
                    self.branch_back[edge.key] = (record_inc, reset)
                else:
                    self.back_jump[edge.key] = (record_inc, reset)
        self.charged = frozenset(charged)


def method_tables(method, placement: str) -> PathTables | None:
    """The (lazily built, cached) tables for one compiled method.

    Returns ``None`` for methods whose path space overflows
    :data:`PATH_LIMIT`; such frames are skipped in every mode.
    """
    info = method.pathinfo
    if info is None:
        info = method.pathinfo = {}
    if placement in info:
        return info[placement]
    numbering = info.get("numbering")
    if numbering is None:
        numbering = info["numbering"] = number_paths(method.ops, method.a)
    tables = None if numbering.overflow else PathTables(numbering, placement)
    info[placement] = tables
    return tables


class PathProfile:
    """Per-(function, path-id) execution counts."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict | None = None):
        #: {(function_index, path_id): count}
        self.counts: dict = counts if counts is not None else {}

    def record(self, function: int, path_id: int, count: float = 1) -> None:
        key = (function, path_id)
        self.counts[key] = self.counts.get(key, 0) + count

    def total(self) -> float:
        return sum(self.counts.values())

    def distinct(self) -> int:
        return len(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def function_totals(self) -> dict:
        totals: dict = {}
        for (function, _pid), count in self.counts.items():
            totals[function] = totals.get(function, 0) + count
        return totals

    def hot_paths(self, count: int = 10) -> list:
        """The ``count`` hottest ``((function, path_id), count)`` rows."""
        rows = sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))
        return rows[:count]

    def merge(self, other: "PathProfile", scale: float = 1.0) -> None:
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count * scale

    def copy(self) -> "PathProfile":
        return PathProfile(dict(self.counts))

    def overlap(self, other: "PathProfile") -> float:
        """Percent distribution overlap with another profile — the
        figure-5 metric over (function, path) keys: ``Σ min(p, q)`` in
        percent (100 = identical shape)."""
        mine, theirs = self.total(), other.total()
        if mine == 0 or theirs == 0:
            return 0.0
        shared = 0.0
        for key, count in self.counts.items():
            shared += min(count / mine, other.counts.get(key, 0) / theirs)
        return 100.0 * shared

    # -- serialization (profile files and the fleet wire format) -------------------

    def to_rows(self, program) -> list:
        """``[[qualified_name, path_id, count], ...]``, deterministic."""
        names = {}
        rows = []
        for (function, pid) in sorted(self.counts):
            name = names.get(function)
            if name is None:
                name = names[function] = program.functions[function].qualified_name
            rows.append([name, pid, self.counts[(function, pid)]])
        rows.sort(key=lambda row: (row[0], row[1]))
        return rows

    @classmethod
    def from_rows(cls, rows, program, strict: bool = False) -> "PathProfile":
        index_of = {
            function.qualified_name: i for i, function in enumerate(program.functions)
        }
        profile = cls()
        for name, pid, count in rows:
            function = index_of.get(name)
            if function is None:
                if strict:
                    raise ValueError(f"unknown function in path rows: {name!r}")
                continue
            profile.record(function, int(pid), count)
        return profile

    def describe(self, program=None, limit: int = 5) -> str:
        lines = [
            f"PathProfile({self.distinct()} paths, {self.total():.0f} records)"
        ]
        for (function, pid), count in self.hot_paths(limit):
            name = (
                program.functions[function].qualified_name
                if program is not None
                else str(function)
            )
            lines.append(f"  {name} path {pid}: {count:.0f}")
        return "\n".join(lines)


class PathHeat:
    """Per-pc execution heat decoded from a path profile.

    Decoding walks the *baseline* CFG (path ids are collected at opt
    level 0), so the heat keys line up with the pcs the inlining
    policies reason about.
    """

    __slots__ = ("heat", "totals")

    def __init__(self, heat: dict, totals: dict):
        #: {function_index: {pc: weight}}
        self.heat = heat
        #: {function_index: total recorded paths}
        self.totals = totals

    @classmethod
    def from_profile(cls, profile: PathProfile, program) -> "PathHeat":
        numberings: dict = {}
        heat: dict = {}
        totals: dict = {}
        for (function, pid), count in profile.counts.items():
            numbering = numberings.get(function)
            if numbering is None:
                numbering = numberings[function] = numbering_for_code(
                    program.functions[function].code
                )
            if numbering.overflow or pid >= numbering.num_paths:
                continue
            per_pc = heat.setdefault(function, {})
            for pc in numbering.path_pcs(pid):
                per_pc[pc] = per_pc.get(pc, 0) + count
            totals[function] = totals.get(function, 0) + count
        return cls(heat, totals)

    def pc_fraction(self, function: int, pc: int) -> float:
        """Fraction of the function's recorded paths covering ``pc``."""
        total = self.totals.get(function, 0)
        if not total:
            return 0.0
        return self.heat.get(function, {}).get(pc, 0) / total


class PathTracker:
    """The collector: mirrors the interpreter's frame stack and keeps
    one Ball-Larus register per live frame.

    Hook contract (all driven from ``Interpreter``'s dispatch loops,
    after the step-limit/yieldpoint handling of the site, under the
    same sync-at-raise-sites discipline as the call observer):

    * ``on_entry(method)`` / ``on_call(method)`` — frame pushed,
    * ``on_branch(pc, taken)`` — conditional outcome at ``pc``,
    * ``on_jump_back(pc)`` — backward unconditional jump,
    * ``on_return(pc)`` — frame popped at a RETURN site,
    * ``on_tick(vm)`` — virtual timer fired (CBS windowing only).

    By default the tracker is a charge-free rider (the flight-recorder
    contract): attaching one leaves output, virtual time, the tick
    schedule, and every other profile bit-identical.  Pass
    ``charge=True`` to bill ``path_edge_cost``/``path_record_cost``
    against the virtual clock — what the overhead harness does to
    measure what the instrumentation *would* cost.
    """

    __slots__ = (
        "mode",
        "charge",
        "stride",
        "samples_per_tick",
        "placement",
        "vm",
        "profile",
        "stack",
        "increments",
        "records",
        "_edge_cost",
        "_record_cost",
        "_open",
        "_windowed",
        "_budget",
        "_ticks",
        "windows",
    )

    def __init__(
        self,
        mode: str = "exhaustive",
        charge: bool = False,
        stride: int = 3,
        samples_per_tick: int = 32,
    ):
        if mode not in PATH_MODES:
            raise ValueError(f"unknown path mode: {mode!r} (expected {PATH_MODES})")
        self.mode = mode
        self.charge = charge
        self.stride = max(1, stride)
        self.samples_per_tick = max(1, samples_per_tick)
        #: Exhaustive placement instruments every observable edge;
        #: both cheaper modes run on minimum-coverage tables.
        self.placement = "exhaustive" if mode == "exhaustive" else "mincov"
        self.vm = None
        self.profile = PathProfile()
        #: Per-frame state: [tables, register, dirty, function_index].
        self.stack: list = []
        #: Instrumented edge increments executed (the overhead driver
        #: minimum coverage shrinks).
        self.increments = 0
        #: Paths recorded (back-edge + return records).
        self.records = 0
        self._edge_cost = 0
        self._record_cost = 0
        self._windowed = mode == "cbs"
        self._open = not self._windowed
        self._budget = 0
        self._ticks = 0
        #: CBS windows opened.
        self.windows = 0

    # -- attachment -----------------------------------------------------------------

    def attach(self, vm) -> None:
        """Bind to a VM (called by ``Interpreter.attach_paths``)."""
        self.vm = vm
        cost_model = vm.config.cost_model
        self._edge_cost = cost_model.path_edge_cost
        self._record_cost = cost_model.path_record_cost

    # -- frame hooks ----------------------------------------------------------------

    def on_entry(self, method) -> None:
        tables = method_tables(method, self.placement)
        self.stack.append(
            [tables, tables.entry_r if tables is not None else 0, False, method.index]
        )

    on_call = on_entry

    def on_return(self, pc: int) -> None:
        frame = self.stack.pop()
        tables = frame[0]
        if tables is None or not self._open or frame[2]:
            return
        self._record(frame[3], frame[1] + tables.ret.get(pc, 0))

    # -- edge hooks -----------------------------------------------------------------

    def on_branch(self, pc: int, taken: bool) -> None:
        frame = self.stack[-1]
        tables = frame[0]
        if tables is None:
            return
        if not self._open:
            frame[2] = True
            return
        key = (pc, taken)
        back = tables.branch_back.get(key)
        if back is not None:
            self._back_edge(frame, back)
            return
        if frame[2]:
            return
        inc = tables.branch.get(key)
        if inc is not None:
            frame[1] += inc
        if key in tables.charged:
            self.increments += 1
            if self.charge:
                self.vm.time += self._edge_cost

    def on_jump_back(self, pc: int) -> None:
        frame = self.stack[-1]
        tables = frame[0]
        if tables is None:
            return
        if not self._open:
            frame[2] = True
            return
        self._back_edge(frame, tables.back_jump[pc])

    def _back_edge(self, frame, back) -> None:
        record_inc, reset = back
        if frame[2]:
            # Register went stale while the sampling window was closed;
            # the reset value fully determines it again.
            frame[1] = reset
            frame[2] = False
            return
        self._record(frame[3], frame[1] + record_inc)
        frame[1] = reset

    def _record(self, function: int, path_id: int) -> None:
        self.records += 1
        self.profile.record(function, path_id)
        if self.charge:
            self.vm.time += self._record_cost
        if self._windowed:
            self._budget -= 1
            if self._budget <= 0:
                self._open = False

    # -- timer hook (CBS windowing) --------------------------------------------------

    def on_tick(self, vm) -> None:
        if not self._windowed:
            return
        self._ticks += 1
        if not self._open and self._ticks % self.stride == 0:
            self._open = True
            self._budget = self.samples_per_tick
            self.windows += 1

    # -- summaries ------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "total": self.records,
            "distinct": self.profile.distinct(),
            "increments": self.increments,
            "windows": self.windows,
        }

    def describe(self) -> str:
        return (
            f"PathTracker({self.mode}, {self.records} records, "
            f"{self.profile.distinct()} distinct, {self.increments} increments)"
        )
