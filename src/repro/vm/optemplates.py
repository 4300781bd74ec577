"""One symbolic-stack evaluator for host code generated from bytecode.

Every place the VM turns a data opcode into host Python *text* — the
template JIT's method bodies, its textual expansion of a leaf callee at
the call site, the inline caches' frameless leaf closures, and the
interpreter's own raw and fused dispatch arms
(:mod:`repro.vm.dispatchgen`) — goes through :func:`emit`, which is
keyed by the opcode's :class:`~repro.bytecode.opcodes.OpSpec` row
(``kind``/``arg``/``faults``) and executes it against a list of
:class:`Atom` operand-stack slots at code-generation time.  What
differs between the four users is stated by an :class:`EmitContext`:
how a local is read and written, what an operand is, where a statement
goes, and what a fault precondition does.

Control opcodes (jumps, branches, calls, returns) are not data and stay
with the consumer that owns the control flow.  The import-time check at
the bottom keeps the split honest: every ``OpSpec.kind`` is either
templated here or in :data:`CONTROL_KINDS`, and every fault mode a
templated row lists has a precondition test.  The leaf-eligible opcode
sets the IC and JIT consult are computed from the same table.
"""

from __future__ import annotations

from repro.bytecode.opcodes import OPCODE_SPECS, SPEC_BY_OP, OpSpec


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
    program order; a context overrides what it does differently."""

    local_prefix = "l"

    def w(self, line: str) -> None:
        """Emit one statement at the current position."""
        raise NotImplementedError

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


# -- the templates: one function per OpSpec.kind -------------------------------

#: kind -> (template, leaf class).  The leaf class says where the kind
#: may appear in a frameless leaf body: ``"pure"`` (no effect outside
#: the symbolic state; the JIT may expand it textually at a call site),
#: ``"write"`` (a heap write a closure can defer past its last guard),
#: or ``None`` (allocates, prints, charges or reads VM tables: method
#: bodies only).
TEMPLATES: dict = {}

#: Kinds that transfer control; their consumers handle them.
CONTROL_KINDS = frozenset({"jump", "branch", "call", "return"})

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


# -- spec-keyed entry points ---------------------------------------------------

def emit(ctx: EmitContext, op: int, a, b, vstack: list) -> None:
    """Execute data opcode ``op`` symbolically: update ``vstack`` and
    emit whatever statements and fault exits the op needs to ``ctx``."""
    spec = SPEC_BY_OP[op]
    TEMPLATES[spec.kind][0](ctx, spec, a, b, vstack)


def _ops_where(accept) -> frozenset:
    return frozenset(spec.op for spec in OPCODE_SPECS if accept(spec))


def _check_coverage() -> None:
    """Every opcode kind is templated or control, never both, and every
    fault mode of a templated row has a precondition test."""
    kinds = {spec.kind for spec in OPCODE_SPECS}
    stray = (kinds ^ (TEMPLATES.keys() | CONTROL_KINDS)) | (
        TEMPLATES.keys() & CONTROL_KINDS
    )
    assert not stray, f"op kinds neither templated nor control: {sorted(stray)}"
    untested = {
        f.kind
        for spec in OPCODE_SPECS
        if spec.kind in TEMPLATES
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
