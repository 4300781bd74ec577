"""One symbolic-stack evaluator for host code generated from bytecode.

Every place the VM turns an opcode into host Python *text* — the
template JIT's method bodies, its textual expansion of a leaf callee at
the call site, the inline caches' frameless leaf closures, and the
interpreter's own raw, inline-cache and fused dispatch arms
(:mod:`repro.vm.dispatchgen`) — goes through :func:`emit`, which is
keyed by the opcode's :class:`~repro.bytecode.opcodes.OpSpec` row
(``kind``/``arg``/``faults``) and executes it against a list of
:class:`Atom` operand-stack slots at code-generation time.  What
differs between the four users is stated by an :class:`EmitContext`:
how a local is read and written, what an operand is, where a statement
goes, and what a fault precondition does.

Control is templated too: jump, branch, return, the raw call and the
two inline-cache calls (:data:`CONTROL_KINDS`).  Their templates own the
calling sequence — step-limit checks, receiver resolution, charges, call
hooks, the leaf attempt, the pooled frame push, the return epilogue and
every counter — and ask the context (the interpreter's arm or a JIT
body) only how it leaves.  The import-time check at the bottom keeps
the table honest: every ``OpSpec.kind`` has a template and every fault
mode of a data row has a precondition test.  The leaf-eligible opcode
sets the IC and JIT consult are computed from the same table.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

from repro.bytecode.opcodes import OPCODE_SPECS, SPEC_BY_OP, Op, OpSpec


class Atom:
    """One symbolic operand-stack slot: a pure Python expression.

    ``expr`` is parenthesized whenever compound, so atoms compose by
    plain interpolation.  ``deps`` are the local slots the expression
    reads (a store to one of them pins the atom to a temp first).
    ``cond``/``ncond`` carry a boolean form and its negation for
    comparison results, so branches test the comparison directly instead
    of materializing 0/1.  ``lit`` holds a compile-time int constant,
    ``isint`` marks a value known to be an int (a ``PUSH`` operand,
    baked or read at run time), ``isnull`` marks the ``null`` literal —
    all three feed the ``EQ``/``NE`` int-vs-identity specialization."""

    __slots__ = (
        "expr", "deps", "simple", "cond", "ncond", "lit", "isint", "isnull"
    )

    def __init__(self, expr, deps=frozenset(), simple=False, cond=None,
                 ncond=None, lit=None, isint=False, isnull=False):
        self.expr = expr
        self.deps = deps
        self.simple = simple
        self.cond = cond
        self.ncond = ncond
        self.lit = lit
        self.isint = isint or lit is not None
        self.isnull = isnull


def lit_atom(value: int) -> Atom:
    return Atom(repr(value), simple=True, lit=value)


_NULL = Atom("None", simple=True, isnull=True)


class EmitContext:
    """Where generated statements go and what locals and faults mean.

    The defaults describe a function whose locals are host variables
    named ``<local_prefix><slot>`` and whose heap writes happen in
    program order; a context overrides what it does differently.

    A context that runs control templates also supplies how it leaves
    (``goto``, ``next``, ``pop_frame``, ``leaf``, ``enter``, the exits
    behind ``guard`` and ``missing_selector``), how a call site finds its
    callee (``guards``, ``bind``, ``bind_slow``, ``resolves_miss``) and
    when bookkeeping lands (``charge_fixed``, ``commit``,
    ``commit_point``); the templates below say what each one is asked.
    ``pc`` is the current instruction's pc; ``hooked``, ``quickens``
    and ``yieldpoints`` say whether call hooks, raw-call quickening and
    yieldpoints run (a run-time condition, or ``False``: never);
    ``joins`` says a site's resolved cases share one calling sequence
    rather than each running its own."""

    local_prefix = "l"
    hooked = quickens = joins = yieldpoints = False
    indent = 0

    def w(self, line: str) -> None:
        """Emit one statement at the current position."""
        raise NotImplementedError

    def indented(self) -> "_Indented":
        """``with ctx.indented():`` writes one block level deeper."""
        return _Indented(self)

    def new_tmp(self) -> str:
        raise NotImplementedError

    def fault(self, cond: str, vstack, operands) -> None:
        """Leave generated code when ``cond`` holds, before the op has
        changed anything; ``vstack + operands`` is the operand stack the
        interpreter would see on re-executing the op."""
        raise NotImplementedError

    def guard(self, modes, vstack, operands) -> None:
        """The op's fault modes in the spec row's order, each a
        ``(FaultSpec, precondition, message placeholders)`` triple.  One
        merged exit serves every context that hands the op back to the
        interpreter; the interpreter itself raises each mode's error."""
        self.fault(" or ".join(test for _, test, _ in modes), vstack, operands)

    def const(self, a) -> Atom:
        """The ``PUSH`` operand: a baked int unless the context reads
        its operands at run time."""
        return lit_atom(a)

    def drop(self, atom: Atom) -> None:
        """``atom`` is discarded unread (``POP``); only a context whose
        atoms can have effects cares."""

    def name(self, what: str) -> str:
        """Host name of a VM table or heap class (method bodies only)."""
        raise NotImplementedError

    def current(self, index) -> None:
        """Bind ``callee`` to function ``index``'s current version, built
        on its first entry (:meth:`repro.vm.runtime.CodeCache.current`,
        its fast path inlined)."""
        self.w(f"callee = {self.name('methods')}[{index}]")
        self.w("if callee is None:")
        self.w(f"    callee = {self.name('current')}({index})")

    def charge(self, expr: str) -> None:
        """Run-time virtual-time charge (method bodies only)."""
        raise NotImplementedError

    def load(self, slot: int) -> Atom:
        return Atom(
            f"{self.local_prefix}{slot}", deps=frozenset((slot,)), simple=True
        )

    def store(self, slot: int, value: Atom, vstack) -> None:
        # Slots still on the symbolic stack that read the old value —
        # even a bare local name — are captured before the overwrite.
        replaced: dict[int, Atom] = {}
        for i, atom in enumerate(vstack):
            if slot in atom.deps:
                if id(atom) not in replaced:
                    replaced[id(atom)] = self.pin_force(atom)
                vstack[i] = replaced[id(atom)]
        self.w(f"{self.local_prefix}{slot} = {value.expr}")

    def heap_write(self, fmt: str, *atoms: Atom) -> None:
        self.w(fmt.format(*(atom.expr for atom in atoms)))

    def pin(self, atom: Atom) -> Atom:
        """Bind a compound atom to a fresh temp so it can be used more
        than once; simple atoms (names/literals) pass through."""
        return atom if atom.simple else self.pin_force(atom)

    def pin_force(self, atom: Atom) -> Atom:
        t = self.new_tmp()
        self.w(f"{t} = {atom.expr}")
        return Atom(
            t, simple=True, lit=atom.lit, isint=atom.isint, isnull=atom.isnull
        )


#: What ``ctx.leaf`` returns once the callee has run (``as done`` is
#: true) or when the generic sequence follows.
RAN, GO_ON = nullcontext(True), nullcontext(False)


class _Indented:
    __slots__ = ("ctx",)

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def __enter__(self) -> None:
        self.ctx.indent += 1

    def __exit__(self, *exc) -> None:
        self.ctx.indent -= 1


# -- the templates: one function per OpSpec.kind -------------------------------

#: kind -> (template, leaf class).  The leaf class says where the kind
#: may appear in a frameless leaf body: ``"pure"`` (no effect outside
#: the symbolic state; the JIT may expand it textually at a call site),
#: ``"write"`` (a heap write a closure can defer past its last guard),
#: or ``None`` (allocates, prints, charges or reads VM tables: method
#: bodies only).
TEMPLATES: dict = {}

#: Kinds that transfer control, including the two inline-cache calls.
CONTROL_KINDS = frozenset(
    {"jump", "branch", "call", "return", "ic_call_virtual", "ic_call_static"}
)

#: FaultSpec.kind -> precondition over the op's subject expressions.
_FAULT_TESTS = {
    "null": "{0} is None",
    "div_zero": "{0} == 0",
    "negative_length": "{0} < 0",
    "bounds": "{1} < 0 or {1} >= len({0}.elements)",
}

#: FaultSpec.kind -> the placeholders of its message, over the same
#: subjects (read only by a context that raises the fault itself).
_FAULT_MESSAGE_VARS = {
    "bounds": {"index": "{1}", "length": "len({0}.elements)"},
}

_FOLD = {"+": int.__add__, "-": int.__sub__, "*": int.__mul__}
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _template(kind: str, leaf: str | None = None):
    def register(fn):
        TEMPLATES[kind] = (fn, leaf)
        return fn

    return register


def _guard(ctx, spec: OpSpec, vstack, operands, *subjects: Atom) -> None:
    """Every fault mode the spec row lists, tested in the row's order (a
    null test short-circuits the bounds test)."""
    exprs = [atom.expr for atom in subjects]
    ctx.guard(
        [
            (
                f,
                _FAULT_TESTS[f.kind].format(*exprs),
                {
                    var: text.format(*exprs)
                    for var, text in _FAULT_MESSAGE_VARS.get(f.kind, {}).items()
                },
            )
            for f in spec.faults
        ],
        vstack,
        operands,
    )


def _bool_atom(cond: str, ncond: str, deps=frozenset()) -> Atom:
    return Atom(f"(1 if {cond} else 0)", deps=deps, cond=cond, ncond=ncond)


def _bound(ctx, expr: str) -> Atom:
    t = ctx.new_tmp()
    ctx.w(f"{t} = {expr}")
    return Atom(t, simple=True)


@_template("load", "pure")
def _load(ctx, spec, a, b, vstack):
    vstack.append(ctx.load(a))


@_template("store", "pure")
def _store(ctx, spec, a, b, vstack):
    ctx.store(a, vstack.pop(), vstack)


@_template("push_const", "pure")
def _push_const(ctx, spec, a, b, vstack):
    vstack.append(ctx.const(a))


@_template("push_null", "pure")
def _push_null(ctx, spec, a, b, vstack):
    vstack.append(_NULL)


@_template("pop", "pure")
def _pop(ctx, spec, a, b, vstack):
    ctx.drop(vstack.pop())


@_template("dup", "pure")
def _dup(ctx, spec, a, b, vstack):
    vstack[-1] = ctx.pin(vstack[-1])
    vstack.append(vstack[-1])


@_template("nop", "pure")
def _nop(ctx, spec, a, b, vstack):
    pass


@_template("binop", "pure")
def _binop(ctx, spec, a, b, vstack):
    r = vstack.pop()
    l = vstack.pop()
    if l.lit is not None and r.lit is not None:
        vstack.append(lit_atom(_FOLD[spec.arg](l.lit, r.lit)))
    else:
        vstack.append(
            Atom(f"({l.expr} {spec.arg} {r.expr})", deps=l.deps | r.deps)
        )


@_template("cmp", "pure")
def _cmp(ctx, spec, a, b, vstack):
    r = vstack.pop()
    l = vstack.pop()
    vstack.append(
        _bool_atom(
            f"({l.expr} {spec.arg} {r.expr})",
            f"({l.expr} {_NEGATED[spec.arg]} {r.expr})",
            l.deps | r.deps,
        )
    )


@_template("eqcmp", "pure")
def _eqcmp(ctx, spec, a, b, vstack):
    r = ctx.pin(vstack.pop())
    l = ctx.pin(vstack.pop())
    cond, ncond = _eq_conds(l, r)
    if spec.arg == "!=":
        cond, ncond = ncond, cond
    vstack.append(_bool_atom(cond, ncond, l.deps | r.deps))


def _eq_conds(l: Atom, r: Atom) -> tuple[str, str]:
    """The interpreter's EQ: ``==`` when both sides are ints, identity
    otherwise.  Literal operands let the type test fold (and keep
    ``x is 5`` out of the generated text)."""
    if l.lit is not None and r.lit is not None:
        return ("True", "False") if l.lit == r.lit else ("False", "True")
    if l.isnull and r.isnull:
        return "True", "False"
    for lit, other in ((l, r), (r, l)):
        if lit.isnull:
            return f"({other.expr} is None)", f"({other.expr} is not None)"
        if lit.isint:
            eq = f"(isinstance({other.expr}, int) and {other.expr} == {lit.expr})"
            ne = f"(not isinstance({other.expr}, int) or {other.expr} != {lit.expr})"
            return eq, ne
    both_int = f"(isinstance({l.expr}, int) and isinstance({r.expr}, int))"
    eq = f"(({l.expr} == {r.expr}) if {both_int} else ({l.expr} is {r.expr}))"
    ne = f"(({l.expr} != {r.expr}) if {both_int} else ({l.expr} is not {r.expr}))"
    return eq, ne


@_template("neg", "pure")
def _neg(ctx, spec, a, b, vstack):
    x = vstack.pop()
    if x.lit is not None:
        vstack.append(lit_atom(-x.lit))
    else:
        vstack.append(Atom(f"(-{x.expr})", deps=x.deps))


@_template("not", "pure")
def _not(ctx, spec, a, b, vstack):
    x = vstack.pop()
    if x.lit is not None:
        vstack.append(lit_atom(0 if x.lit != 0 else 1))
    else:
        vstack.append(
            Atom(
                f"(0 if {x.expr} != 0 else 1)", deps=x.deps,
                cond=f"({x.expr} == 0)", ncond=f"({x.expr} != 0)",
            )
        )


@_template("divmod", "pure")
def _divmod(ctx, spec, a, b, vstack):
    r = ctx.pin(vstack.pop())
    l = ctx.pin(vstack.pop())
    if not r.lit:  # a nonzero literal divisor cannot fault
        _guard(ctx, spec, vstack, (l, r), r)
    q = _bound(ctx, f"abs({l.expr}) // abs({r.expr})")
    ctx.w(f"if ({l.expr} < 0) != ({r.expr} < 0): {q.expr} = -{q.expr}")
    if spec.arg == "mod":
        q = _bound(ctx, f"{l.expr} - {q.expr} * {r.expr}")
    vstack.append(q)


@_template("getfield", "pure")
def _getfield(ctx, spec, a, b, vstack):
    obj = ctx.pin(vstack.pop())
    _guard(ctx, spec, vstack, (obj,), obj)
    vstack.append(_bound(ctx, f"{obj.expr}.fields[{a}]"))


@_template("putfield", "write")
def _putfield(ctx, spec, a, b, vstack):
    value = vstack.pop()
    obj = ctx.pin(vstack.pop())
    _guard(ctx, spec, vstack, (obj, value), obj)
    ctx.heap_write(f"{{}}.fields[{a}] = {{}}", obj, value)


@_template("is_exact", "pure")
def _is_exact(ctx, spec, a, b, vstack):
    obj = ctx.pin(vstack.pop())
    cond = f"({obj.expr} is not None and {obj.expr}.class_index == {a})"
    vstack.append(_bool_atom(cond, f"not {cond}", obj.deps))


@_template("guard_method")
def _guard_method(ctx, spec, a, b, vstack):
    obj = ctx.pin(vstack.pop())
    cond = (
        f"({obj.expr} is not None"
        f" and {ctx.name('vt')}[{obj.expr}.class_index].get({a}) == {b})"
    )
    vstack.append(_bool_atom(cond, f"not {cond}", obj.deps))


@_template("new")
def _new(ctx, spec, a, b, vstack):
    vstack.append(
        _bound(ctx, f"{ctx.name('HeapObject')}({a}, {ctx.name('fd')}[{a}])")
    )


@_template("new_array")
def _new_array(ctx, spec, a, b, vstack):
    length = ctx.pin(vstack.pop())
    _guard(ctx, spec, vstack, (length,), length)
    ctx.charge(length.expr)  # spec.dyn_cost: allocation scales with size
    vstack.append(_bound(ctx, f"{ctx.name('HeapArray')}({length.expr})"))


@_template("aload")
def _aload(ctx, spec, a, b, vstack):
    index = ctx.pin(vstack.pop())
    array = ctx.pin(vstack.pop())
    _guard(ctx, spec, vstack, (array, index), array, index)
    vstack.append(_bound(ctx, f"{array.expr}.elements[{index.expr}]"))


@_template("astore")
def _astore(ctx, spec, a, b, vstack):
    value = vstack.pop()
    index = ctx.pin(vstack.pop())
    array = ctx.pin(vstack.pop())
    _guard(ctx, spec, vstack, (array, index, value), array, index)
    ctx.heap_write("{}.elements[{}] = {}", array, index, value)


@_template("array_len")
def _array_len(ctx, spec, a, b, vstack):
    array = ctx.pin(vstack.pop())
    _guard(ctx, spec, vstack, (array,), array)
    vstack.append(Atom(f"len({array.expr}.elements)", deps=array.deps))


@_template("print")
def _print(ctx, spec, a, b, vstack):
    ctx.w(f"{ctx.name('out')}.append({vstack.pop().expr})")


# -- control: the calling sequence, written once ---------------------------------
#
# A control template owns the order and the bookkeeping of its sequence;
# the context supplies only how it leaves (see EmitContext).  The
# interpreter's arm leaves by frame switch, ``continue`` or a raise, a
# JIT body by jumping to a block, a baked guard, an expanded or called
# leaf, a direct call or an exit to the interpreter.


def _ic():
    from repro.vm import ic  # ic builds its leaf closures with this module

    return ic


def bare(expr: str) -> str:
    """``expr`` without a pair of parentheses that encloses all of it."""
    if not expr.startswith("("):
        return expr
    depth = 0
    for i, ch in enumerate(expr):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            return expr[1:-1] if i and i == len(expr) - 1 else expr
    return expr


def _when(ctx, cond):
    """``for _ in _when(ctx, cond):`` runs its body under ``cond``: not at
    all when it is false, unguarded when it is ``True``, else inside an
    emitted ``if``."""
    if cond is True:
        yield
    elif cond:
        ctx.w(f"if {bare(cond)}:")
        with ctx.indented():
            yield


def _backward(ctx, target):
    return target <= ctx.pc if isinstance(target, int) else f"{target} <= {ctx.pc}"


def take_yieldpoint(ctx, kind: str, pc=None) -> None:
    """A Jikes yieldpoint (``BACKEDGE``, ``PROLOGUE``, ``EPILOGUE``),
    counters synced around a handler that may charge; a backedge is not
    taken inside an open CBS window (flag -1).  Generated code never
    runs with the flag set."""
    if not ctx.yieldpoints:
        return
    test = "> 0" if kind == "BACKEDGE" else "!= 0"
    ctx.w(f"if {kind.lower()}_yp and self.yieldpoint_flag {test}:")
    with ctx.indented():
        ctx.w("self.time = time")
        ctx.w("self.call_count = call_count")
        if pc is not None:
            ctx.w(f"frame.pc = {pc}")
        ctx.w(f"self._take_yieldpoint({kind})")
        ctx.w("time = self.time")


@_template("jump")
def _jump(ctx, spec, a, b, vstack):
    target = ctx.target(a)
    for _ in _when(ctx, _backward(ctx, target)):
        # The step limit must bind even when no timer ever fires.
        ctx.step_limit()
        take_yieldpoint(ctx, "BACKEDGE", ctx.pc)
        ctx.jit_entry(target)
    ctx.goto(target, vstack)


@_template("branch")
def _branch(ctx, spec, a, b, vstack):
    value = vstack.pop()
    if spec.arg == "false":
        taken = value.ncond or f"{value.expr} == 0"
    else:
        taken = value.cond or f"{value.expr} != 0"
    for _ in _when(ctx, taken):
        target = ctx.target(a)
        ctx.step_limit(_backward(ctx, target))
        ctx.goto(target, vstack)
    ctx.next(vstack)


@_template("return")
def _return(ctx, spec, a, b, vstack):
    value = vstack.pop() if spec.arg == "value" else None
    for _ in ctx.returning(value, vstack):
        ctx.charge_fixed("return_cost")
        take_yieldpoint(ctx, "EPILOGUE", ctx.pc)
        ctx.pop_frame(value)


class Site(NamedTuple):
    """A call site as its context reads it: the cache entry (``None`` at
    a raw site) and the argument count."""

    entry: object
    nargs: object


class Callee(NamedTuple):
    """One way a call site resolved its target: expressions for the
    ``CompiledMethod``, its index, views tuple, locals pad and receiver
    cell.  ``hit`` is the condition under which ``cell`` counts the call
    (the interpreter's bind path leaves it ``None``); ``slot`` is the
    entry index the method was read from, for a context that bakes it."""

    method: object
    index: object = None
    views: object = None
    pad: object = None
    cell: object = None
    hit: object = False
    slot: object = None


def _slot(entry, first: int) -> Callee:
    """The five fields of a cache slot, starting at entry index ``first``."""
    return Callee(
        f"{entry}[{first}]", f"{entry}[{first + 1}]", f"{entry}[{first + 2}]",
        f"{entry}[{first + 3}]", f"{entry}[{first + 4}]", slot=first,
    )


def _looked_up(site, method="callee", index="callee_index", cell=None) -> Callee:
    """A callee found outside the cache: views and pad from the method."""
    pad = f"locals_pad(callee.num_locals, {site.nargs})"
    return Callee(method, index, "callee.views", pad, cell)


def _mark_seen(ctx, index) -> None:
    seen = ctx.name("seen")
    ctx.commit(
        f"if not {seen}[{index}]:",
        f"    {seen}[{index}] = True",
        f"    {ctx.name('vm')}.methods_executed += 1",
    )


def _notify(ctx, index) -> None:
    """The call hooks see the site in baseline coordinates via the
    inline map (see Instr.origin), resolved once."""
    if not ctx.hooked:
        return
    for _ in _when(ctx, ctx.hooked):
        ctx.w(f"origin = origins[{ctx.pc}]")
        ctx.w("if origin is None:")
        ctx.w("    caller_index = method.index")
        ctx.w(f"    site_pc = {ctx.pc}")
        ctx.w("else:")
        ctx.w("    caller_index, site_pc = origin")
        ctx.w("if observer is not None:")
        # Observers may charge (instrumented modes): sync around the call.
        ctx.w("    self.time = time")
        ctx.w(f"    observer(caller_index, site_pc, {index})")
        ctx.w("    time = self.time")
        ctx.w("if telemetry is not None:")
        ctx.w(f"    telemetry.on_call(time, caller_index, site_pc, {index})")


def _invoke(ctx, spec, site, callee: Callee) -> None:
    """Charge and notify the call, then run the callee: as a frameless
    leaf where the context can, else in a pooled frame."""
    for _ in _when(ctx, callee.hit):
        ctx.commit(f"{callee.cell}[0] += 1")
    ctx.charge_fixed(f"call_{spec.arg}_cost", calls=1)
    _notify(ctx, callee.index)
    with ctx.leaf(site, callee) as done:
        if not done:
            ctx.room(spec)
            new_locals = ctx.new_locals(site, callee)
            frame, pool = ctx.name("frame"), ctx.name("pool")
            ctx.w(f"if {pool}:")
            ctx.w(f"    {frame} = {pool}.pop()")
            ctx.w(f"    {frame}.method = {callee.method}")
            ctx.w(f"    {frame}.pc = 0")
            ctx.w(f"    {frame}.locals = {new_locals}")
            ctx.w(f"    {frame}.callsite_pc = {ctx.pc}")
            ctx.w("else:")
            ctx.w(f"    {frame} = {ctx.name('Frame')}({callee.method}, {new_locals}, {ctx.pc})")
            ctx.w(f"{ctx.name('frames')}.append({frame})")
            ctx.enter(site, callee)
    ctx.commit_point()


def _flat_lookup(ctx, rclass, selector) -> None:
    """``callee`` from the flat selector-indexed tables, or the
    no-such-method leave."""
    if not isinstance(selector, int):  # read more than once
        ctx.w(f"selector = {selector}")
        selector = "selector"
    ctx.w(f"row = {ctx.name('fv')}[{rclass}]")
    ctx.w(f"callee_index = row[{selector}] if {selector} < len(row) else -1")
    ctx.missing_selector("callee_index < 0", rclass, selector)
    ctx.current("callee_index")


def _receiver_class(ctx, spec, site, vstack) -> str:
    receiver = ctx.receiver(site, vstack)
    ctx.guard([(spec.faults[0], f"{receiver} is None", {})], vstack, ())
    ctx.w(f"rclass = {receiver}.class_index")
    return "rclass"


@_template("call")
def _call(ctx, spec, a, b, vstack):
    """An unquickened site: resolve, quicken it for next time, call."""
    for site in ctx.calling(spec, a, b, vstack):
        ctx.step_limit()
        if spec.arg == "virtual":
            rclass = _receiver_class(ctx, spec, site, vstack)
            _flat_lookup(ctx, rclass, a)
            callee = ctx.bind(site, _looked_up(site))
            quicken = f"_quicken_virtual(method, {ctx.pc}, {rclass}, callee, {site.nargs})"
        else:
            if not isinstance(a, int):  # read more than once
                ctx.w(f"callee_index = {a}")
                a = "callee_index"
            ctx.current(a)
            callee = ctx.bind(site, _looked_up(site, index=a))
            quicken = f"_quicken_static(method, {ctx.pc}, callee, {site.nargs})"
        for _ in _when(ctx, ctx.quickens):
            ctx.w(f"{ctx.name('vm')}.{quicken}")
        _mark_seen(ctx, callee.index)
        _invoke(ctx, spec, site, callee)


@_template("ic_call_static")
def _ic_call_static(ctx, spec, a, b, vstack):
    for site in ctx.calling(spec, a, b, vstack):
        ctx.step_limit()
        callee = _slot(site.entry, _ic().S_METHOD)._replace(cell=None)
        _invoke(ctx, spec, site, ctx.bind(site, callee))


@_template("ic_call_virtual")
def _ic_call_virtual(ctx, spec, a, b, vstack):
    """Receiver class against the cache's inline slots, then its
    overflow rows, then — once megamorphic — the flat tables."""
    ic = _ic()
    for site in ctx.calling(spec, a, b, vstack):
        ctx.step_limit()
        rclass = _receiver_class(ctx, spec, site, vstack)
        entry = site.entry
        for i, (klass, first) in enumerate(ctx.guards(site)):
            ctx.w(f"{'elif' if i else 'if'} {rclass} == {klass}:")
            with ctx.indented():
                callee = ctx.bind(site, _slot(entry, first + 1))
                if not ctx.joins:
                    _invoke(ctx, spec, site, callee)
        ctx.w("else:")
        with ctx.indented():
            if ctx.resolves_miss(site):
                ctx.w(f"for r in {entry}[{ic.V_REST}] or ():")
                ctx.w(f"    if r[0] == {rclass}:")
                with ctx.indented(), ctx.indented():
                    ctx.commit(f"{ctx.name('vm')}.ic_misses += 1")
                    callee = ctx.bind(site, Callee(*(f"r[{k}]" for k in range(1, 6))))
                    ctx.w("break")
                ctx.w("else:")
                with ctx.indented(), ctx.bind_slow(
                    site, rclass, f"{entry}[{ic.V_STATE}] <= {ic.POLY_LIMIT}"
                ):
                    ctx.commit(f"{ctx.name('vm')}.ic_misses += 1")
                    _flat_lookup(ctx, rclass, a)
                    # Created where the interpreter creates it, so the
                    # site's cells keep one insertion order.
                    ctx.w(f"cells = {entry}[{ic.V_CELLS}]")
                    ctx.w(f"cell = cells.get({rclass})")
                    ctx.w("if cell is None:")
                    ctx.w(f"    cell = cells[{rclass}] = [0]")
                    _mark_seen(ctx, "callee_index")
                    callee = ctx.bind(site, _looked_up(site, cell="cell"))
                if not ctx.joins:
                    _invoke(ctx, spec, site, callee)
        if ctx.joins:
            _invoke(ctx, spec, site, callee)


# -- spec-keyed entry points ---------------------------------------------------

class _SpecTable(dict):
    """Opcode -> (spec row, template kind).  An inline-cache call opcode
    runs its own template under the row of the call it quickens; those
    two rows are added on first use, because repro.vm.ic, which numbers
    them, imports this module."""

    def __missing__(self, op):
        ic = _ic()
        self[ic.OP_IC_CALL_VIRTUAL] = (SPEC_BY_OP[Op.CALL_VIRTUAL], "ic_call_virtual")
        self[ic.OP_IC_CALL_STATIC] = (SPEC_BY_OP[Op.CALL_STATIC], "ic_call_static")
        if op not in self:
            raise KeyError(f"no template for opcode {op}")
        return self[op]


_SPEC_AND_KIND = _SpecTable((int(spec.op), (spec, spec.kind)) for spec in OPCODE_SPECS)
spec_and_kind = _SPEC_AND_KIND.__getitem__


def emit(ctx: EmitContext, op: int, a, b, vstack: list) -> None:
    """Execute opcode ``op`` symbolically: update ``vstack`` and emit
    whatever statements, fault exits and leaves the op needs to ``ctx``."""
    spec, kind = _SPEC_AND_KIND[op]
    TEMPLATES[kind][0](ctx, spec, a, b, vstack)


def _ops_where(accept) -> frozenset:
    return frozenset(spec.op for spec in OPCODE_SPECS if accept(spec))


def _check_coverage() -> None:
    """Every opcode kind is templated, control kinds among them, and
    every fault mode of a data row has a precondition test."""
    kinds = {spec.kind for spec in OPCODE_SPECS}
    assert kinds | CONTROL_KINDS == TEMPLATES.keys(), (
        f"op kinds without a template: {sorted(kinds - TEMPLATES.keys())}"
    )
    untested = {
        f.kind
        for spec in OPCODE_SPECS
        if spec.kind not in CONTROL_KINDS
        for f in spec.faults
    } - _FAULT_TESTS.keys()
    assert not untested, f"fault modes without a precondition: {sorted(untested)}"


_check_coverage()

RETURN_OPS = _ops_where(lambda spec: spec.kind == "return")

#: Opcodes a leaf body may contain before its return, and the subset
#: with no effect outside the symbolic state.
LEAF_OPS = _ops_where(
    lambda spec: spec.kind in TEMPLATES and TEMPLATES[spec.kind][1] is not None
)
PURE_LEAF_OPS = _ops_where(
    lambda spec: spec.kind in TEMPLATES and TEMPLATES[spec.kind][1] == "pure"
)
