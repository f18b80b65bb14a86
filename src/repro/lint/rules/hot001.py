"""HOT001 — hot-path classes declare ``__slots__`` and never grow.

The simulation allocates these objects millions of times per run
(events, batches, routing entries) or touches them on every tuple
(executors, stores).  ``__slots__`` removes the per-instance ``__dict__``
— measurably faster attribute access and a fraction of the memory — and
doubles as a schema: a class cannot silently grow attributes at runtime.

The rule enforces both halves statically in the hot modules:

1. every class declares ``__slots__`` (a literal in the class body, or a
   ``@dataclass(slots=True)`` decorator);
2. no method outside ``__init__``/``__post_init__``/``__new__`` assigns a
   ``self`` attribute that is neither in the (module-resolvable) slots
   nor established by ``__init__`` — attribute growth hidden in a random
   method is exactly the drift ``__slots__`` exists to stop.

Check 2 is skipped for classes whose bases cannot be resolved within the
same module (inherited slots are then unknowable statically).

Unique catch in the mutation set (``tests/mutants.py``): ``TupleBatch``
losing its ``__slots__``.  Every test still passes; only memory and
speed suffer.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.core import Finding, ParsedModule, Rule

#: Modules whose classes are on the per-tuple hot path.
HOT_PATH_SUFFIXES = (
    "repro/sim/", "repro/executors/", "repro/state/", "repro/cluster/",
    "repro/topology/batch.py", "repro/topology/keys.py",
)

#: Base-class names that manage instance layout themselves.
_EXEMPT_BASES = frozenset({"Enum", "IntEnum", "NamedTuple", "Protocol", "TypedDict"})

_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _literal_slots(cls: ast.ClassDef) -> typing.Optional[typing.FrozenSet[str]]:
    """The names in a literal ``__slots__`` assignment, or None if absent."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            names: typing.Set[str] = set()
            value = stmt.value
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.add(element.value)
            elif isinstance(value, ast.Constant) and isinstance(value.value, str):
                names.add(value.value)
            return frozenset(names)
    return None


def _dataclass_slots(cls: ast.ClassDef) -> bool:
    """True for ``@dataclass(..., slots=True)`` (any import spelling)."""
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call):
            for keyword in deco.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


def _field_names(cls: ast.ClassDef) -> typing.FrozenSet[str]:
    """Annotated class-body names (dataclass fields / class attributes)."""
    names: typing.Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return frozenset(names)


def _self_attr_assigns(
    func: ast.FunctionDef,
) -> typing.Iterator[typing.Tuple[str, ast.AST]]:
    """(name, node) for every ``self.<name> = ...`` in ``func``."""
    if not func.args.args:
        return
    self_name = func.args.args[0].arg
    for node in ast.walk(func):
        targets: typing.List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                yield target.attr, target


class Hot001(Rule):
    name = "HOT001"
    description = "hot-module classes declare __slots__ and never grow attributes"

    def check(self, module: ParsedModule) -> typing.Iterator[Finding]:
        if not module.in_package(*HOT_PATH_SUFFIXES):
            return
        classes = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            yield from self._check_class(module, cls, classes)

    def _check_class(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        classes: typing.Mapping[str, ast.ClassDef],
    ) -> typing.Iterator[Finding]:
        base_names = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        # ``enum.Enum``-style attribute bases count for the exemption too.
        exempt_candidates = set(base_names) | {
            b.attr for b in cls.bases if isinstance(b, ast.Attribute)
        }
        if exempt_candidates & _EXEMPT_BASES:
            return
        own_slots = _literal_slots(cls)
        is_slotted_dataclass = _dataclass_slots(cls)
        if own_slots is None and not is_slotted_dataclass:
            yield self.finding(
                module, cls,
                f"class {cls.name} is in a hot module but declares no "
                "__slots__ (use a literal __slots__ tuple or "
                "@dataclass(slots=True))",
            )
            return
        # Resolve inherited slots within this module; bail out of the
        # growth check when a base lives elsewhere (slots unknowable).
        known: typing.Set[str] = set(own_slots or ()) | set(_field_names(cls))
        pending = list(base_names)
        while pending:
            base = pending.pop()
            parent = classes.get(base)
            if parent is None:
                return  # cross-module base: inherited layout is not visible
            parent_slots = _literal_slots(parent)
            if parent_slots is None and not _dataclass_slots(parent):
                return
            known |= set(parent_slots or ()) | set(_field_names(parent))
            pending.extend(
                b.id for b in parent.bases if isinstance(b, ast.Name)
            )
        init_assigned: typing.Set[str] = set()
        methods = [
            stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
        ]
        for method in methods:
            if method.name in _INIT_METHODS:
                init_assigned.update(name for name, _ in _self_attr_assigns(method))
        allowed = known | init_assigned
        for method in methods:
            if method.name in _INIT_METHODS:
                continue
            for name, node in _self_attr_assigns(method):
                if name not in allowed:
                    yield self.finding(
                        module, node,
                        f"{cls.name}.{method.name} assigns self.{name}, "
                        "which is neither in __slots__ nor set by "
                        "__init__ — hot classes must not grow attributes",
                    )
