"""Whole-program container: classes, functions, selectors, vtables.

A :class:`Program` is the unit loaded into the VM.  Virtual dispatch is
selector-based: each distinct ``(method name, argc)`` pair used at a
virtual call site gets a small integer *selector id*; every class has a
vtable mapping selector id → function index, built here with standard
single-inheritance override semantics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.bytecode.function import FunctionInfo


class ProgramError(Exception):
    """Raised for malformed program construction (duplicate names, etc.)."""


@dataclass
class ClassInfo:
    """Runtime metadata for one class."""

    name: str
    super_name: str | None = None
    index: int = -1

    #: Field names in layout order; inherited fields come first, so a
    #: field offset is valid for all subclasses.
    field_layout: list[str] = field(default_factory=list)
    field_offsets: dict[str, int] = field(default_factory=dict)

    #: Default value per declared field name: 0 for int/bool, None for
    #: reference types.  Filled by the frontend (which knows the types);
    #: assembler-built classes default everything to 0.
    field_default_by_name: dict[str, object] = field(default_factory=dict)
    #: Default values in layout order (computed by build_vtables).
    field_defaults: list = field(default_factory=list)

    #: selector id -> function index, including inherited methods.
    vtable: dict[int, int] = field(default_factory=dict)

    #: Function indices of methods declared directly in this class.
    declared_methods: list[int] = field(default_factory=list)

    #: Ancestry for subtype tests: indices of self + all superclasses.
    ancestors: frozenset[int] = frozenset()

    @property
    def num_fields(self) -> int:
        return len(self.field_layout)

    def __repr__(self) -> str:
        return f"ClassInfo({self.name}, fields={self.field_layout})"


class Program:
    """A complete compiled Mini program."""

    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self.classes: list[ClassInfo] = []
        self.selectors: list[tuple[str, int]] = []
        self._function_by_name: dict[str, int] = {}
        self._class_by_name: dict[str, int] = {}
        self._selector_ids: dict[tuple[str, int], int] = {}
        self.entry_index: int | None = None
        self._field_templates: list[list] | None = None
        self._flat_vtables: list[list[int]] | None = None
        self._selector_returns: list[bool | None] | None = None

    # -- registration -------------------------------------------------------

    def add_function(self, function: FunctionInfo) -> int:
        """Register a function; returns its index."""
        key = function.qualified_name
        if key in self._function_by_name:
            raise ProgramError(f"duplicate function {key!r}")
        function.index = len(self.functions)
        self.functions.append(function)
        self._function_by_name[key] = function.index
        if function.kind == "static" and function.name == "main":
            self.entry_index = function.index
        return function.index

    def add_class(self, cls: ClassInfo) -> int:
        if cls.name in self._class_by_name:
            raise ProgramError(f"duplicate class {cls.name!r}")
        cls.index = len(self.classes)
        self.classes.append(cls)
        self._class_by_name[cls.name] = cls.index
        return cls.index

    def selector_id(self, name: str, argc: int) -> int:
        """Intern a dispatch selector, returning its id."""
        key = (name, argc)
        existing = self._selector_ids.get(key)
        if existing is not None:
            return existing
        sid = len(self.selectors)
        self.selectors.append(key)
        self._selector_ids[key] = sid
        return sid

    # -- lookup --------------------------------------------------------------

    def function_named(self, qualified_name: str) -> FunctionInfo:
        index = self._function_by_name.get(qualified_name)
        if index is None:
            raise ProgramError(f"no function named {qualified_name!r}")
        return self.functions[index]

    def function_index(self, qualified_name: str) -> int:
        return self.function_named(qualified_name).index

    def class_named(self, name: str) -> ClassInfo:
        index = self._class_by_name.get(name)
        if index is None:
            raise ProgramError(f"no class named {name!r}")
        return self.classes[index]

    def has_class(self, name: str) -> bool:
        return name in self._class_by_name

    def entry_function(self) -> FunctionInfo:
        if self.entry_index is None:
            raise ProgramError("program has no main() function")
        return self.functions[self.entry_index]

    # -- vtable construction --------------------------------------------------

    def build_vtables(self) -> None:
        """Compute field layouts, vtables, and ancestor sets.

        Must be called after all classes and methods are registered and
        before execution.  Classes must be registered so that a subclass
        appears after its superclass (the frontend guarantees this by
        topologically sorting the hierarchy).
        """
        for cls in self.classes:
            if cls.super_name is not None:
                sup = self.class_named(cls.super_name)
                if sup.index >= cls.index:
                    raise ProgramError(
                        f"class {cls.name!r} registered before its superclass"
                    )
                inherited_layout = list(sup.field_layout)
                own_fields = [f for f in cls.field_layout if f not in sup.field_offsets]
                cls.field_layout = inherited_layout + own_fields
                merged_defaults = dict(sup.field_default_by_name)
                merged_defaults.update(cls.field_default_by_name)
                cls.field_default_by_name = merged_defaults
                cls.vtable = dict(sup.vtable)
                cls.ancestors = sup.ancestors | {cls.index}
            else:
                cls.ancestors = frozenset({cls.index})
            cls.field_offsets = {name: i for i, name in enumerate(cls.field_layout)}
            cls.field_defaults = [
                cls.field_default_by_name.get(name, 0) for name in cls.field_layout
            ]
            for func_index in cls.declared_methods:
                function = self.functions[func_index]
                sid = self.selector_id(*function.selector)
                cls.vtable[sid] = func_index
        self._field_templates = None
        self._flat_vtables = None
        self._selector_returns = None

    def field_default_templates(self) -> list[list]:
        """Per-class field-default lists, indexed by class index.

        Computed once and shared by every interpreter over this program
        (``NEW`` copies the template per allocation), instead of each
        ``Interpreter.__init__`` re-deriving the ``field_defaults or
        zeros`` fallback.  Invalidated by :meth:`build_vtables`.
        """
        templates = self._field_templates
        if templates is None:
            templates = [
                cls.field_defaults if cls.field_defaults else [0] * cls.num_fields
                for cls in self.classes
            ]
            self._field_templates = templates
        return templates

    def flat_dispatch_tables(self) -> list[list[int]]:
        """Dense per-class dispatch rows: ``tables[class][selector]`` is
        the target function index, or -1 where the class does not
        understand the selector.

        The megamorphic fallback of the interpreter's inline caches
        dispatches through these instead of the dict vtables (a list
        index per lookup, no hashing).  Rows cover the selectors
        interned when the tables are built; a later-interned selector
        id falls off the end of every row, which callers must treat as
        "missing" (the interpreter bounds-checks and raises the same
        no-such-method error).  Cached; invalidated by
        :meth:`build_vtables`.
        """
        tables = self._flat_vtables
        if tables is None:
            width = len(self.selectors)
            tables = [
                [cls.vtable.get(sid, -1) for sid in range(width)]
                for cls in self.classes
            ]
            self._flat_vtables = tables
        return tables

    def selector_return_shapes(self) -> list[bool | None]:
        """Per selector id: whether every implementation returns a
        value (True) or none does (False); None where implementations
        disagree or no class understands the selector.

        The template JIT needs a virtual site's stack effect before it
        knows the receiver; it asks once per call site of every method
        it compiles.  Cached; invalidated by :meth:`build_vtables`.
        """
        shapes = self._selector_returns
        if shapes is None:
            seen: dict[int, set[bool]] = {}
            for cls in self.classes:
                for sid, func_index in cls.vtable.items():
                    seen.setdefault(sid, set()).add(
                        self.functions[func_index].returns_value
                    )
            shapes = [
                next(iter(seen[sid])) if len(seen.get(sid, ())) == 1 else None
                for sid in range(len(self.selectors))
            ]
            self._selector_returns = shapes
        return shapes

    def resolve_virtual(self, class_index: int, selector_id: int) -> int:
        """Resolve a virtual dispatch to a function index."""
        vtable = self.classes[class_index].vtable
        target = vtable.get(selector_id)
        if target is None:
            name, argc = self.selectors[selector_id]
            raise ProgramError(
                f"class {self.classes[class_index].name!r} does not understand "
                f"{name}/{argc}"
            )
        return target

    def is_subclass(self, class_index: int, ancestor_index: int) -> bool:
        return ancestor_index in self.classes[class_index].ancestors

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable content hash identifying this program's code.

        Covers class hierarchy and every function's name, arity, and
        baseline bytecode (opcodes + operands), so two compilations of
        the same source agree and any code change disagrees.  Used to
        key serialized profiles and fleet aggregates to the program
        they were collected against.  Cached after first computation;
        call only on fully built programs.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        for cls in self.classes:
            digest.update(f"C {cls.name}<{cls.super_name}\n".encode())
        for function in self.functions:
            digest.update(
                f"F {function.qualified_name}/{function.num_params}\n".encode()
            )
            for instr in function.code:
                digest.update(f"{instr.op.name},{instr.a},{instr.b};".encode())
            digest.update(b"\n")
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- stats ----------------------------------------------------------------

    def total_bytecode_size(self) -> int:
        """Total abstract bytecode size in bytes across all functions."""
        return sum(f.bytecode_size() for f in self.functions)

    def __repr__(self) -> str:
        return (
            f"Program({len(self.classes)} classes, {len(self.functions)} functions, "
            f"{self.total_bytecode_size()} bytes)"
        )
