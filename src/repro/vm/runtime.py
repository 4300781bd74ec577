"""Runtime code management: compiled method versions and the code cache.

The interpreter never executes :class:`FunctionInfo` objects directly; it
executes :class:`CompiledMethod` versions produced by "compiling" a
function at some optimization level.  The adaptive system replaces cache
entries as methods are recompiled; in-flight frames keep running the old
version, as in a real VM.

Compilation also runs the superinstruction fuser (see
:mod:`repro.vm.fuse`): alongside the raw ``ops``/``costs`` arrays each
method carries quickened ``fops``/``fcosts`` views that the interpreter
dispatches from, falling back to the raw arrays at tick boundaries.
When fusion is disabled (``CodeCache(fuse=False)``) or finds nothing,
the quickened views *are* the raw arrays, so the interpreter needs no
mode check of its own.
"""

from __future__ import annotations

from repro.bytecode.function import FunctionInfo
from repro.bytecode.program import Program
from repro.vm.costmodel import CostModel
from repro.vm.fuse import fuse_method
from repro.vm.ic import (
    analyze_leaf,
    S_METHOD,
    S_NARGS,
    S_PAD,
    S_VIEWS,
    V_INDEX0,
    V_INDEX1,
    V_METHOD0,
    V_METHOD1,
    V_NARGS,
    V_PAD0,
    V_PAD1,
    V_REST,
    V_VIEWS0,
    V_VIEWS1,
    entry_is_virtual,
    locals_pad,
)


class CompiledMethod:
    """One executable version of a function.

    Holds the instruction stream unzipped into parallel opcode/operand/
    cost arrays for the interpreter hot loop, plus the fused views and
    the per-pc inline-map origins (hoisted out of ``code[pc].origin`` so
    the per-call baseline-coordinate lookup is one list index).
    """

    __slots__ = (
        "function",
        "index",
        "code",
        "ops",
        "a",
        "b",
        "costs",
        "origins",
        "fops",
        "fcosts",
        "fa",
        "fb",
        "fused_sites",
        "fused_span",
        "ics",
        "views",
        "leaf",
        "opt_level",
        "num_locals",
        "returns_value",
        "size_bytes",
        "pathinfo",
        "jit",
    )

    def __init__(
        self,
        function: FunctionInfo,
        cost_model: CostModel,
        opt_level: int,
        fuse: bool = True,
        ic: bool = True,
        paths: bool = False,
    ):
        self.function = function
        self.index = function.index
        self.code = function.code
        self.ops = [int(instr.op) for instr in function.code]
        self.a = [instr.a for instr in function.code]
        self.b = [instr.b for instr in function.code]
        cost_table = cost_model.cost_array()
        self.costs = [cost_table[op] for op in self.ops]
        self.origins = [instr.origin for instr in function.code]
        #: Lazily built Ball-Larus numbering/tables cache (see
        #: repro.profiling.paths.method_tables).
        self.pathinfo: dict | None = None
        #: Opt-level-3 compiled body (repro.vm.jit.JitCode), installed
        #: by the JIT manager / adaptive controller.
        self.jit = None
        if not fuse:
            fused = None
        else:
            # Path-instrumentable code excludes control-bearing
            # superinstructions so every branch/return dispatches
            # through a hooked raw/IC arm.
            fused = fuse_method(function.code, self.ops, self.costs, control=not paths)
        if fused is None:
            self.fops = self.ops
            self.fcosts = self.costs
            self.fa = None
            self.fb = None
            self.fused_sites = 0
            self.fused_span = 0
        else:
            (
                self.fops,
                self.fcosts,
                self.fa,
                self.fb,
                self.fused_sites,
                self.fused_span,
            ) = fused
        self.opt_level = opt_level
        self.num_locals = function.num_locals
        self.returns_value = function.returns_value
        self.size_bytes = function.bytecode_size()
        if ic:
            # Call sites quicken lazily (the interpreter rewrites
            # ``fops[pc]`` on first execution), so ``fops`` must be a
            # list distinct from the pristine raw ``ops`` even when
            # fusion found nothing.
            if self.fops is self.ops:
                self.fops = list(self.ops)
            self.ics: list | None = [None] * len(self.ops)
            #: Leaf-call template (see repro.vm.ic.analyze_leaf): small
            #: fault-analyzable bodies that inline-cached call sites may
            #: evaluate without materializing a frame.
            self.leaf = analyze_leaf(
                self.ops,
                self.a,
                self.costs,
                self.num_locals,
                function.num_params,
                cost_model.return_cost,
            )
        else:
            self.ics = None
            self.leaf = None
        #: Everything a frame switch must load, prebuilt: every call and
        #: return arm unpacks this one tuple instead of doing eight
        #: attribute loads (``ics`` is ``None`` without inline caches).
        self.views = (
            self.fops,
            self.a,
            self.b,
            self.fcosts,
            self.fa,
            self.fb,
            self.origins,
            self.ics,
        )

    def __repr__(self) -> str:
        return (
            f"CompiledMethod({self.function.qualified_name}, "
            f"opt={self.opt_level}, {len(self.ops)} instrs, "
            f"{self.fused_sites} fused)"
        )


class CodeCache:
    """Current executable version of every function in a program.

    Also accounts "compilation time": each (re)compilation charges
    ``compile_cost_per_byte[level] * bytecode_size`` to
    :attr:`compile_time`, which the J9 experiments report on.  Fusion is
    a host-level dispatch rewrite, not a guest optimization, so it
    charges no compile time.
    """

    def __init__(
        self,
        program: Program,
        cost_model: CostModel,
        fuse: bool = True,
        ic: bool = True,
        paths: bool = False,
    ):
        self._program = program
        self._cost_model = cost_model
        self.fuse = fuse
        self.ic = ic
        #: True when compiled code is path-instrumentable (control-free
        #: fusion subset; ``Interpreter.attach_paths`` requires it).
        self.paths = paths
        self.compile_time = 0
        self.compile_count = 0
        #: Superinstruction sites / raw instructions covered, summed over
        #: every compilation this cache ever performed (monotonic even
        #: when installs replace earlier versions).
        self.fused_sites = 0
        self.fused_span = 0
        #: Inline-cache population (see repro.vm.ic): quickened call
        #: sites, sites that overflowed to megamorphic, and the exact
        #: per-site receiver counts.  ``receiver_cells`` maps a baseline
        #: ``(function index, pc)`` site to ``{class_index: [count]}``;
        #: the single-element count cells are shared with every cache
        #: entry bound for the site, so counts survive recompilation.
        self.ic_sites = 0
        self.ic_static_sites = 0
        self.megamorphic_sites = 0
        self.receiver_cells: dict[tuple[int, int], dict[int, list[int]]] = {}
        #: callee function index -> cache entries bound to it, refreshed
        #: in place when :meth:`install` replaces that function.
        self.ic_deps: dict[int, list[list]] = {}
        self.methods: list[CompiledMethod] = [
            self._charge_and_compile(function, opt_level=0)
            for function in program.functions
        ]

    def _charge_and_compile(
        self, function: FunctionInfo, opt_level: int
    ) -> CompiledMethod:
        per_byte = self._cost_model.compile_cost_per_byte.get(opt_level, 2)
        self.compile_time += per_byte * function.bytecode_size()
        self.compile_count += 1
        method = CompiledMethod(
            function,
            self._cost_model,
            opt_level,
            fuse=self.fuse,
            ic=self.ic,
            paths=self.paths,
        )
        self.fused_sites += method.fused_sites
        self.fused_span += method.fused_span
        return method

    def install(self, function: FunctionInfo, opt_level: int) -> CompiledMethod:
        """Compile ``function`` at ``opt_level`` and make it current.

        ``function`` may be a rewritten (optimized) body for an existing
        function index.  Inline-cache entries bound to the replaced
        version are repointed at the new one in place (in-flight frames
        keep executing the old code, but every *call* — cached or not —
        resolves to the current version, exactly like the raw dispatch
        path reading ``cache.methods``); receiver counts live in shared
        cells and are preserved.
        """
        method = self._charge_and_compile(function, opt_level)
        self.methods[function.index] = method
        if self.ic:
            self._refresh_ic_entries(function.index, method)
        return method

    def _refresh_ic_entries(self, index: int, method: CompiledMethod) -> None:
        entries = self.ic_deps.get(index)
        if not entries:
            return
        views = method.views
        num_locals = method.num_locals
        for entry in entries:
            if not entry_is_virtual(entry):
                entry[S_METHOD] = method
                entry[S_VIEWS] = views
                entry[S_PAD] = locals_pad(num_locals, entry[S_NARGS])
                continue
            pad = locals_pad(num_locals, entry[V_NARGS])
            if entry[V_INDEX0] == index:
                entry[V_METHOD0] = method
                entry[V_VIEWS0] = views
                entry[V_PAD0] = pad
            if entry[V_INDEX1] == index:
                entry[V_METHOD1] = method
                entry[V_VIEWS1] = views
                entry[V_PAD1] = pad
            rest = entry[V_REST]
            if rest:
                for r in rest:
                    if r[2] == index:
                        r[1] = method
                        r[3] = views
                        r[4] = pad

    def receiver_cell_total(self) -> int:
        """Total receiver-classified calls counted by the caches."""
        total = 0
        for cells in self.receiver_cells.values():
            for cell in cells.values():
                total += cell[0]
        return total

    def jit_methods(self) -> tuple[int, int]:
        """``(compiled, eligible)``: current methods running a level-3
        body, and those plus the ones still counting on the plain-run
        trampoline (a method the compiler refused holds neither)."""
        compiled = eligible = 0
        for method in self.methods:
            jrec = method.jit
            if jrec is not None:
                eligible += 1
                if jrec.source is not None:
                    compiled += 1
        return compiled, eligible

    def current(self, index: int) -> CompiledMethod:
        return self.methods[index]

    def opt_level(self, index: int) -> int:
        return self.methods[index].opt_level

    def total_code_size(self) -> int:
        return sum(m.size_bytes for m in self.methods)
