"""Disassembler: renders a :class:`Program` back to assembler text.

Output round-trips through :func:`repro.bytecode.assembler.assemble` for
programs whose field offsets can be expressed symbolically; numeric
operands are used otherwise.
"""

from __future__ import annotations

from repro.bytecode.function import FunctionInfo
from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import JUMP_OPS, Op
from repro.bytecode.program import Program


def disassemble_function(function: FunctionInfo, program: Program | None = None) -> str:
    """Render one function as assembler text."""
    targets = sorted(
        {instr.a for instr in function.code if instr.op in JUMP_OPS}
    )
    label_names = {pc: f"L{i}" for i, pc in enumerate(targets)}

    keyword = "method" if function.kind == "method" else "func"
    header = f"{keyword} {function.qualified_name}/{function.num_params}"
    header += f" locals={function.num_locals}"
    if not function.returns_value:
        header += " void"

    lines = [header]
    for pc, instr in enumerate(function.code):
        if pc in label_names:
            lines.append(f"label {label_names[pc]}")
        lines.append("  " + _render_instr(instr, label_names, program))
    # A label may point one past the last instruction (e.g. a loop exit
    # that was trimmed); emit it so jumps stay resolvable.
    end = len(function.code)
    if end in label_names:
        lines.append(f"label {label_names[end]}")
        lines.append("  NOP")
    lines.append("end")
    return "\n".join(lines)


def _render_instr(
    instr: Instr, label_names: dict[int, str], program: Program | None
) -> str:
    op = instr.op
    if op in JUMP_OPS:
        return f"{op.name} {label_names[instr.a]}"
    if op is Op.CALL_STATIC:
        if program is not None:
            callee = program.functions[instr.a]
            return f"{op.name} {callee.qualified_name} {instr.b}"
        return f"{op.name} {instr.a} {instr.b}"
    if op is Op.CALL_VIRTUAL:
        if program is not None:
            name, argc = program.selectors[instr.a]
            return f"{op.name} {name} {argc}"
        return f"{op.name} {instr.a} {instr.b}"
    if op is Op.GUARD_METHOD:
        if program is not None:
            name, argc = program.selectors[instr.a]
            expected = program.functions[instr.b].qualified_name
            return f"{op.name} {name} {argc} {expected}"
        return f"{op.name} {instr.a} {instr.b}"
    if op in (Op.NEW, Op.IS_EXACT):
        if program is not None:
            return f"{op.name} {program.classes[instr.a].name}"
        return f"{op.name} {instr.a}"
    parts = [op.name]
    if instr.a is not None:
        parts.append(str(instr.a))
    if instr.b is not None:
        parts.append(str(instr.b))
    return " ".join(parts)


def disassemble_fused(program: Program) -> str:
    """Render every method's *quickened* instruction stream.

    Shows what the interpreter actually dispatches after superinstruction
    fusion: group heads print the fused name with their covered span and
    summed cost, interior slots are elided.  Debugging aid for the fusion
    pass (``repro-mini disasm --fused``); not assembler round-trippable.
    """
    # Imported lazily: the vm layer sits above bytecode, and this view
    # is a debugging aid, not part of the assembler round-trip.
    from repro.vm.costmodel import jikes_cost_model
    from repro.vm.fuse import FUSE_BASE, FUSED_ARITY, FUSED_NAMES
    from repro.vm.runtime import CompiledMethod

    cost_model = jikes_cost_model()
    lines: list[str] = []
    total_sites = 0
    total_span = 0
    total_instrs = 0
    for function in program.functions:
        # ic=False: this view shows the fusion rewrite alone; inline-cache
        # quickening is lazy (per-run) and rendered by ``disasm --ic``.
        method = CompiledMethod(function, cost_model, opt_level=0, ic=False)
        total_sites += method.fused_sites
        total_span += method.fused_span
        total_instrs += len(method.ops)
        lines.append(
            f"{function.qualified_name}/{function.num_params}: "
            f"{len(method.ops)} instrs, {method.fused_sites} fused sites "
            f"covering {method.fused_span}"
        )
        pc = 0
        while pc < len(method.fops):
            op = method.fops[pc]
            if op >= FUSE_BASE:
                arity = FUSED_ARITY[op]
                lines.append(
                    f"  {pc:4d}  {FUSED_NAMES[op]}"
                    f"  [{arity} ops, cost {method.fcosts[pc]}]"
                )
                pc += arity
            else:
                lines.append(f"  {pc:4d}  {function.code[pc]}")
                pc += 1
        lines.append("")
    lines.append(
        f"total: {total_sites} fused sites covering {total_span} of "
        f"{total_instrs} instructions"
    )
    return "\n".join(lines) + "\n"


def disassemble_ic(program: Program) -> str:
    """Render the inline-cache view of every method.

    Shows what the IC subsystem will do with each method before any
    execution: which call sites quicken (lazily, on first execution) to
    IC dispatch opcodes, how many targets each virtual selector can
    reach through the flat dispatch tables, and which bodies qualify as
    leaf templates (frameless IC fast paths: jump-free bodies
    specialized to host closures).  Debugging aid for the IC pass
    (``repro-mini disasm --ic``); not assembler round-trippable.
    """
    # Imported lazily, like disassemble_fused: a debugging view over the
    # vm layer, not part of the assembler round-trip.
    from repro.vm import ic as icache
    from repro.vm.costmodel import jikes_cost_model
    from repro.vm.runtime import CompiledMethod

    cost_model = jikes_cost_model()
    tables = program.flat_dispatch_tables()
    lines: list[str] = []
    virtual_sites = 0
    static_sites = 0
    leaves = 0
    for function in program.functions:
        method = CompiledMethod(function, cost_model, opt_level=0, ic=True)
        leaf = method.leaf
        tag = ""
        if leaf is not None:
            leaves += 1
            tag = f"  [leaf template: cost {leaf[icache.L_COST]}]"
        lines.append(f"{function.qualified_name}/{function.num_params}:{tag}")
        for pc, instr in enumerate(function.code):
            if instr.op is Op.CALL_VIRTUAL:
                virtual_sites += 1
                name, argc = program.selectors[instr.a]
                targets = {
                    row[instr.a]
                    for row in tables
                    if instr.a < len(row) and row[instr.a] >= 0
                }
                lines.append(
                    f"  {pc:4d}  IC_CALL_VIRTUAL {name}/{argc}"
                    f"  [{len(targets)} reachable targets]"
                )
            elif instr.op is Op.CALL_STATIC:
                static_sites += 1
                callee = program.functions[instr.a]
                lines.append(
                    f"  {pc:4d}  IC_CALL_STATIC {callee.qualified_name}"
                )
        lines.append("")
    lines.append(
        f"total: {virtual_sites} virtual sites, {static_sites} static "
        f"sites, {leaves} leaf templates"
    )
    return "\n".join(lines) + "\n"


def describe_method_plan(function: FunctionInfo, program: Program) -> str:
    """One-line compilation plan for a method: what each tier of the
    execution stack (baseline, fusion, inline caches, leaf template,
    template JIT) would do with this body before any execution.

    Rendered as the header of ``disasm --method N`` so a single method
    can be inspected without grepping the whole-program views.
    """
    from repro.vm.costmodel import jikes_cost_model
    from repro.vm.config import jikes_config
    from repro.vm.jit.compiler import compile_method
    from repro.vm.runtime import CodeCache

    cache = CodeCache(program, jikes_cost_model(), fuse=True, ic=True)
    method = cache.current(function.index)
    parts = [f"baseline opt={method.opt_level}"]
    if method.fused_sites:
        parts.append(
            f"fused {method.fused_sites} sites covering {method.fused_span}"
        )
    else:
        parts.append("no fusion")
    ic_sites = sum(
        1
        for instr in function.code
        if instr.op in (Op.CALL_VIRTUAL, Op.CALL_STATIC)
    )
    parts.append(f"ic {ic_sites} sites" if ic_sites else "no call sites")
    if method.leaf is not None:
        parts.append("leaf template")
    code = compile_method(
        method, program, cache, jikes_config(jit=True), inline_leaves=True
    )
    if code is None:
        parts.append("jit ineligible")
    else:
        arms = ("entry" if code.entry0 else "") or "osr-only"
        parts.append(
            f"jit {arms}+{len(code.entries)} osr arms, "
            f"{code.inline_sites} inlined call sites / "
            f"{code.direct_sites} direct call sites / "
            f"{code.poly_sites} polymorphic tails / {code.exit_sites} exits"
        )
    return "plan: " + ", ".join(parts)


def disassemble_jit(program: Program) -> str:
    """Render the template JIT's generated host code for every method.

    Compiles every body from an *unexecuted* cache — quickened stream,
    leaf inlining on, but no IC guards yet: sites still raw show as
    interpreter exits.  A run compiles only the methods that get hot,
    and by then their call sites have quickened, so the code a run
    generates for the same method bakes receiver guards where this
    view shows exits.  Prints the generated Python alongside entry-arm
    and call-site statistics.  Debugging aid for
    the JIT (``repro-mini disasm --jit``); not assembler
    round-trippable.
    """
    # Imported lazily, like the other special views: a debugging view
    # over the vm layer, not part of the assembler round-trip.
    from repro.vm.costmodel import jikes_cost_model
    from repro.vm.config import jikes_config
    from repro.vm.jit.compiler import compile_method
    from repro.vm.runtime import CodeCache

    cache = CodeCache(program, jikes_cost_model(), fuse=True, ic=True)
    config = jikes_config(jit=True)
    lines: list[str] = []
    compiled = 0
    skipped = 0
    for function in program.functions:
        method = cache.current(function.index)
        code = compile_method(method, program, cache, config, inline_leaves=True)
        if code is None:
            skipped += 1
            lines.append(
                f"{function.qualified_name}/{function.num_params}: "
                f"not compiled (no productive arm)"
            )
            lines.append("")
            continue
        compiled += 1
        osr = ", ".join(str(pc) for pc in sorted(code.entries)) or "none"
        lines.append(
            f"{function.qualified_name}/{function.num_params}: "
            f"entry={'yes' if code.entry0 else 'no'} osr=[{osr}] "
            f"{code.inline_sites} inlined call sites / "
            f"{code.direct_sites} direct call sites / "
            f"{code.poly_sites} polymorphic tails / {code.exit_sites} "
            f"exits, {code.fused_expanded} fused heads expanded"
        )
        for line in code.source.rstrip("\n").split("\n"):
            lines.append("  | " + line)
        lines.append("")
    lines.append(
        f"total: {compiled} methods compiled, {skipped} left to the "
        f"interpreter"
    )
    return "\n".join(lines) + "\n"


def disassemble_spec(program: Program) -> str:
    """Render every method's instruction stream annotated with the
    declarative opcode specs (``repro-mini disasm --spec``).

    Each line shows the spec row the toolchain derives everything from:
    stack effect (pops→pushes), semantic kind, abstract encoded size,
    fault modes, and the site classes (fusable, quickening class,
    step-limit binding, yieldpoint) that drive dispatch-arm generation.
    Debugging aid for spec/handler drift hunts; not assembler
    round-trippable.
    """
    from repro.bytecode.opcodes import spec_of
    from repro.vm.fuse import FUSABLE_OPS

    lines: list[str] = []
    per_kind: dict[str, int] = {}
    fault_sites = 0
    for function in program.functions:
        lines.append(
            f"{function.qualified_name}/{function.num_params}: "
            f"{len(function.code)} instrs, "
            f"{function.bytecode_size()} spec bytes"
        )
        for pc, instr in enumerate(function.code):
            spec = spec_of(instr.op)
            per_kind[spec.kind] = per_kind.get(spec.kind, 0) + 1
            if spec.pops is None:
                # Calls: argc-dependent; show the site's actual account.
                argc = instr.b + (1 if instr.op is Op.CALL_VIRTUAL else 0)
                effect = f"{argc}→ret"
            else:
                effect = f"{spec.pops}→{spec.pushes}"
            notes = [spec.kind, f"size={spec.size}"]
            if spec.faults:
                fault_sites += 1
                notes.append("faults=" + ",".join(f.kind for f in spec.faults))
            if spec.op in FUSABLE_OPS:
                notes.append("fusable")
            if spec.quicken:
                notes.append(f"quicken={spec.quicken}")
            if spec.step_limit:
                notes.append(f"step-limit@{spec.step_limit}")
            if spec.yieldpoint:
                notes.append(f"yieldpoint={spec.yieldpoint}")
            if spec.dyn_cost:
                notes.append(f"dyn-cost={spec.dyn_cost}")
            lines.append(
                f"  {pc:4d}  {str(instr):<24s} [{effect:>6s}]  "
                + "  ".join(notes)
            )
        lines.append("")
    kinds = ", ".join(f"{k}:{n}" for k, n in sorted(per_kind.items()))
    lines.append(
        f"total: {sum(per_kind.values())} instructions "
        f"({fault_sites} faultable sites) — {kinds}"
    )
    return "\n".join(lines) + "\n"


def disassemble(program: Program) -> str:
    """Render a whole program as assembler text."""
    lines: list[str] = []
    for cls in program.classes:
        line = f"class {cls.name}"
        if cls.super_name is not None:
            line += f" extends {cls.super_name}"
        own_fields = cls.field_layout
        if cls.super_name is not None:
            inherited = program.class_named(cls.super_name).field_layout
            own_fields = cls.field_layout[len(inherited):]
        if own_fields:
            line += " fields " + " ".join(own_fields)
        lines.append(line)
    if program.classes:
        lines.append("")
    for function in program.functions:
        lines.append(disassemble_function(function, program))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
