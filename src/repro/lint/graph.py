"""Whole-project symbol table and call graph for ``repro lint``.

The per-module rules (DET001, SIM001, ...) are syntactic: they see one
function at a time and miss anything hidden one call away.  This module
gives the interprocedural passes (SIM001-transitive, DET002, OWN001,
PROTO001's dead-edge liveness check) a shared project-wide view:

- **Extraction** walks each module once and produces a
  :class:`ModuleSummary`: imports, classes with textual bases, and one
  :class:`FunctionInfo` per function/method holding its call sites and
  semantic *facts* (nondeterminism sources, RNG sanitizers, artifact
  writes, process spawns, discarded blocking calls, shard-state
  mutations, ownership attestations).
- **Linking** resolves call sites into edges with an explicit confidence
  level: ``call``/``ref`` edges are *resolved* (module-level names,
  imports with re-export chasing, ``self`` dispatch through the class
  hierarchy, subclass dispatch), ``heuristic`` edges match attribute
  calls by method name across the project, and everything else lands in
  an explicit unresolved report instead of being silently dropped.

Soundness stance: passes that *flag* what a path reaches (SIM001, DET002
taint) traverse only resolved edges — a by-name heuristic edge would
manufacture false positives.  Passes that *search for* a guarantee on
every path (OWN001's ownership attestation) also traverse heuristic
edges — there an over-approximation of callers is the safe direction.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import pathlib
import typing

from repro.lint.rules.det001 import (
    _BANNED_ATTR_CALLS,
    _GLOBAL_RANDOM_FNS,
    _NUMPY_ALIASES,
    _NUMPY_GLOBAL_FNS,
    _NUMPY_SEEDED_CTORS,
    _ORDERING_SINKS,
    _is_set_expr,
)
from repro.lint.rules.sim001 import _BLOCKING_ATTRS

#: The pseudo-function holding a module's top-level statements.
MODULE_SCOPE = "<module>"

# -- fact kinds --------------------------------------------------------------

FACT_DET_SOURCE = "det_source"          #: wall clock / global RNG / set order
FACT_RNG_SANITIZER = "rng_sanitizer"    #: seeded Generator(PCG64) construction
FACT_ARTIFACT_WRITE = "artifact_write"  #: writes results/telemetry artifacts
FACT_BLOCKING_DISCARD = "blocking_discard"  #: bare `x.get(...)` statement
FACT_PROCESS_SPAWN = "process_spawn"    #: `.process(...)` call
FACT_AWAIT = "await"                    #: await expression
FACT_OWN_MUTATION = "own_mutation"      #: shard-state mutation site
FACT_OWN_ATTEST = "own_attest"          #: ownership-epoch attestation

#: Attribute calls that persist data into an artifact.
_ARTIFACT_WRITE_ATTRS = frozenset({"write", "writelines", "write_text", "dump"})

#: Max heuristic candidates for a by-name attribute call; beyond this the
#: call is reported as ambiguous instead of fanning out.
_HEURISTIC_CAP = 6

#: Max re-export / alias chase depth during name resolution.
_RESOLVE_DEPTH = 8


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    Anchored at the ``repro`` path component when present so fixture
    trees under ``tests/fixtures/lint/repro/...`` form self-contained
    projects with ``repro.*`` names.
    """
    parts = rel.split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    elif parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts) if parts else rel


# -- summary data model ------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Fact:
    """One semantic fact observed inside a function body."""

    kind: str
    line: int
    detail: str


@dataclasses.dataclass(frozen=True, slots=True)
class CallSite:
    """One call or callable reference inside a function body.

    ``kind`` is ``"name"`` (bare name), ``"local"`` (nested function,
    ``target`` already a qualname), ``"self"`` (attribute rooted at the
    method's self argument, root stripped), or ``"attr"`` (any other
    attribute chain, dotted text).  ``discarded`` marks calls whose
    result is dropped (a bare expression statement).
    """

    line: int
    kind: str
    target: str
    is_call: bool
    discarded: bool


@dataclasses.dataclass(slots=True)
class FunctionInfo:
    """Summary of one function, method, or the module scope."""

    module: str
    qualname: str
    line: int
    is_generator: bool = False
    calls: typing.List[CallSite] = dataclasses.field(default_factory=list)
    facts: typing.List[Fact] = dataclasses.field(default_factory=list)

    @property
    def fid(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def class_qual(self) -> typing.Optional[str]:
        """Qualname of the enclosing class for a method, else None."""
        if "." in self.qualname:
            return self.qualname.rsplit(".", 1)[0]
        return None

    def facts_of(self, kind: str) -> typing.List[Fact]:
        return [fact for fact in self.facts if fact.kind == kind]

    def has_fact(self, kind: str) -> bool:
        return any(fact.kind == kind for fact in self.facts)


@dataclasses.dataclass(slots=True)
class ClassInfo:
    """One class definition: textual bases, method names."""

    module: str
    qualname: str
    line: int
    bases: typing.List[str] = dataclasses.field(default_factory=list)
    methods: typing.List[str] = dataclasses.field(default_factory=list)

    @property
    def cid(self) -> str:
        return f"{self.module}:{self.qualname}"


@dataclasses.dataclass(slots=True)
class ModuleSummary:
    """Everything linking needs to know about one module."""

    module: str
    rel: str
    imports: typing.Dict[str, str] = dataclasses.field(default_factory=dict)
    functions: typing.List[FunctionInfo] = dataclasses.field(default_factory=list)
    classes: typing.List[ClassInfo] = dataclasses.field(default_factory=list)


# -- extraction --------------------------------------------------------------


def _expr_text(node: ast.AST) -> typing.Optional[str]:
    """Dotted text of a Name/Attribute chain; subscripts are dropped."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_text(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return _expr_text(node.value)
    return None


class _Scope:
    """One function scope during extraction."""

    __slots__ = ("info", "locals", "self_name", "parent")

    def __init__(
        self,
        info: FunctionInfo,
        self_name: typing.Optional[str],
        parent: typing.Optional["_Scope"],
    ) -> None:
        self.info = info
        self.locals: typing.Dict[str, str] = {}
        self.self_name = self_name
        self.parent = parent

    def lookup_local(self, name: str) -> typing.Optional[str]:
        scope: typing.Optional[_Scope] = self
        while scope is not None:
            qual = scope.locals.get(name)
            if qual is not None:
                return qual
            scope = scope.parent
        return None


class _Extractor:
    """Single-pass module summarizer (facts + call sites + symbols)."""

    def __init__(self, module: str, rel: str) -> None:
        self.summary = ModuleSummary(module=module, rel=rel)
        self._module = module

    def run(self, tree: ast.Module) -> ModuleSummary:
        info = FunctionInfo(self._module, MODULE_SCOPE, 1)
        self.summary.functions.append(info)
        scope = _Scope(info, None, None)
        self._walk_body(tree.body, scope, None)
        return self.summary

    # -- statement dispatch --------------------------------------------------

    def _walk_body(
        self,
        body: typing.Sequence[ast.stmt],
        scope: _Scope,
        cls: typing.Optional[ClassInfo],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._record_import(stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._handle_def(stmt, scope, cls)
            elif isinstance(stmt, ast.ClassDef):
                self._handle_class(stmt, scope, cls)
            elif isinstance(
                stmt,
                (ast.If, ast.For, ast.AsyncFor, ast.While,
                 ast.With, ast.AsyncWith, ast.Try),
            ):
                self._scan_compound_header(stmt, scope)
                for nested in self._nested_bodies(stmt):
                    self._walk_body(nested, scope, cls)
            else:
                self._scan_simple(stmt, scope)

    @staticmethod
    def _nested_bodies(stmt: ast.stmt) -> typing.List[typing.List[ast.stmt]]:
        bodies: typing.List[typing.List[ast.stmt]] = []
        for field in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, field, None)
            if nested:
                bodies.append(list(nested))
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(list(handler.body))
        return bodies

    def _scan_compound_header(self, stmt: ast.stmt, scope: _Scope) -> None:
        headers: typing.List[ast.expr] = []
        if isinstance(stmt, (ast.If, ast.While)):
            headers.append(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            headers.append(stmt.iter)
            if _is_set_expr(stmt.iter):
                self._fact(
                    scope, FACT_DET_SOURCE, stmt.iter.lineno,
                    "iterating a set (hash-randomized order)",
                )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                headers.append(item.context_expr)
        for expr in headers:
            self._scan_expr_tree(expr, scope, None)

    def _scan_simple(self, stmt: ast.stmt, scope: _Scope) -> None:
        discard: typing.Optional[ast.Call] = None
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            discard = stmt.value
        targets: typing.List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "data"
            ):
                text = _expr_text(target.value) or "?.data"
                self._fact(
                    scope, FACT_OWN_MUTATION, target.lineno,
                    f"writes {text}[...]",
                )
        self._scan_expr_tree(stmt, scope, discard)

    # -- defs ----------------------------------------------------------------

    def _handle_def(
        self,
        stmt: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef],
        scope: _Scope,
        cls: typing.Optional[ClassInfo],
    ) -> None:
        for deco in stmt.decorator_list:
            self._scan_expr_tree(deco, scope, None)
        if cls is not None:
            qual = f"{cls.qualname}.{stmt.name}"
            cls.methods.append(stmt.name)
        elif scope.info.qualname == MODULE_SCOPE:
            qual = stmt.name
            scope.locals[stmt.name] = qual
        else:
            qual = f"{scope.info.qualname}.{stmt.name}"
            scope.locals[stmt.name] = qual
        info = FunctionInfo(self._module, qual, stmt.lineno)
        self.summary.functions.append(info)
        self_name: typing.Optional[str] = None
        if cls is not None and stmt.args.args:
            decorators = {
                d.id for d in stmt.decorator_list if isinstance(d, ast.Name)
            }
            if "staticmethod" not in decorators:
                self_name = stmt.args.args[0].arg
        for default in list(stmt.args.defaults) + [
            d for d in stmt.args.kw_defaults if d is not None
        ]:
            self._scan_expr_tree(default, scope, None)
        inner = _Scope(info, self_name, scope)
        self._walk_body(stmt.body, inner, None)

    def _handle_class(
        self,
        stmt: ast.ClassDef,
        scope: _Scope,
        cls: typing.Optional[ClassInfo],
    ) -> None:
        for deco in stmt.decorator_list:
            self._scan_expr_tree(deco, scope, None)
        qual = f"{cls.qualname}.{stmt.name}" if cls is not None else stmt.name
        info = ClassInfo(self._module, qual, stmt.lineno)
        for base in stmt.bases:
            text = _expr_text(base)
            if text is not None:
                info.bases.append(text)
        self.summary.classes.append(info)
        self._walk_body(stmt.body, scope, info)

    # -- expression scanning -------------------------------------------------

    def _scan_expr_tree(
        self,
        root: ast.AST,
        scope: _Scope,
        discard: typing.Optional[ast.Call],
    ) -> None:
        func_nodes = {
            id(node.func)
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                self._record_call(node, scope, discarded=node is discard)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if scope.info.qualname != MODULE_SCOPE:
                    scope.info.is_generator = True
            elif isinstance(node, ast.Await):
                self._fact(scope, FACT_AWAIT, node.lineno, "await expression")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if id(node) not in func_nodes:
                    self._record_name_ref(node, scope)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in func_nodes
                and isinstance(node.value, ast.Name)
                and scope.self_name is not None
                and node.value.id == scope.self_name
            ):
                scope.info.calls.append(
                    CallSite(node.lineno, "self", node.attr, False, False)
                )

    def _record_name_ref(self, node: ast.Name, scope: _Scope) -> None:
        name = node.id
        local = scope.lookup_local(name)
        if local is not None:
            scope.info.calls.append(
                CallSite(node.lineno, "local", local, False, False)
            )
        elif name in self.summary.imports:
            scope.info.calls.append(
                CallSite(node.lineno, "name", name, False, False)
            )

    def _record_call(
        self, node: ast.Call, scope: _Scope, discarded: bool
    ) -> None:
        func = node.func
        line = node.lineno
        info = scope.info
        if isinstance(func, ast.Name):
            name = func.id
            local = scope.lookup_local(name)
            if local is not None:
                info.calls.append(CallSite(line, "local", local, True, discarded))
            else:
                info.calls.append(CallSite(line, "name", name, True, discarded))
            self._name_call_facts(node, name, scope)
            return
        if not isinstance(func, ast.Attribute):
            return  # call of a call / subscript result: dynamic, skipped
        text = _expr_text(func) or f"?.{func.attr}"
        comps = text.split(".")
        if scope.self_name is not None and comps[0] == scope.self_name:
            kind = "self"
            target = ".".join(comps[1:])
        else:
            kind = "attr"
            target = text
        info.calls.append(CallSite(line, kind, target, True, discarded))
        self._attr_call_facts(node, comps, scope, discarded)
        self._partial_ref(node, scope)

    def _partial_ref(self, node: ast.Call, scope: _Scope) -> None:
        """`functools.partial(f, ...)` keeps `f` callable: record a ref."""
        text = _expr_text(node.func)
        if text not in ("functools.partial", "partial") or not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Name):
            self._record_name_ref(first, scope)
            if scope.lookup_local(first.id) is None:
                scope.info.calls.append(
                    CallSite(first.lineno, "name", first.id, False, False)
                )
        elif (
            isinstance(first, ast.Attribute)
            and isinstance(first.value, ast.Name)
            and scope.self_name is not None
            and first.value.id == scope.self_name
        ):
            scope.info.calls.append(
                CallSite(first.lineno, "self", first.attr, False, False)
            )

    def _name_call_facts(
        self, node: ast.Call, name: str, scope: _Scope
    ) -> None:
        if name in _ORDERING_SINKS and len(node.args) == 1:
            if _is_set_expr(node.args[0]):
                self._fact(
                    scope, FACT_DET_SOURCE, node.lineno,
                    f"{name}(set) materializes hash-randomized order",
                )
        elif name == "open":
            mode = ""
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                if isinstance(node.args[1].value, str):
                    mode = node.args[1].value
            for keyword in node.keywords:
                if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                    if isinstance(keyword.value.value, str):
                        mode = keyword.value.value
            if any(flag in mode for flag in ("w", "a", "x")):
                self._fact(
                    scope, FACT_ARTIFACT_WRITE, node.lineno,
                    f"open(..., {mode!r})",
                )
        elif name == "migrate_shard":
            self._fact(
                scope, FACT_OWN_MUTATION, node.lineno, "migrate_shard(...)"
            )

    def _attr_call_facts(
        self,
        node: ast.Call,
        comps: typing.Sequence[str],
        scope: _Scope,
        discarded: bool,
    ) -> None:
        last = comps[-1]
        receiver = ".".join(comps[:-1])
        pair = (comps[-2], last) if len(comps) >= 2 else ("", last)
        reason = _BANNED_ATTR_CALLS.get(pair)
        if reason is not None:
            self._fact(
                scope, FACT_DET_SOURCE, node.lineno,
                f"{'.'.join(pair)}() reads {reason}",
            )
        elif pair[0] == "random" and last in _GLOBAL_RANDOM_FNS:
            self._fact(
                scope, FACT_DET_SOURCE, node.lineno,
                f"global random.{last}()",
            )
        elif (
            len(comps) >= 3
            and comps[-3] in _NUMPY_ALIASES
            and comps[-2] == "random"
        ):
            if last in _NUMPY_GLOBAL_FNS:
                self._fact(
                    scope, FACT_DET_SOURCE, node.lineno,
                    f"numpy.random.{last}() global RandomState",
                )
            elif last in _NUMPY_SEEDED_CTORS:
                if node.args or node.keywords:
                    self._fact(
                        scope, FACT_RNG_SANITIZER, node.lineno,
                        f"seeded numpy.random.{last}(...)",
                    )
                else:
                    self._fact(
                        scope, FACT_DET_SOURCE, node.lineno,
                        f"numpy.random.{last}() without a seed",
                    )
        elif pair == ("random", "Random") and (node.args or node.keywords):
            self._fact(
                scope, FACT_RNG_SANITIZER, node.lineno,
                "seeded random.Random(...)",
            )
        if last in _ARTIFACT_WRITE_ATTRS:
            self._fact(
                scope, FACT_ARTIFACT_WRITE, node.lineno, f".{last}(...)"
            )
        if discarded and last in _BLOCKING_ATTRS:
            self._fact(
                scope, FACT_BLOCKING_DISCARD, node.lineno,
                f"discards the event returned by .{last}(...)",
            )
        if last == "process" and receiver.split(".")[-1] in ("env", "environment"):
            # Only simulation-environment spawns: `logic.process(...)` is
            # operator CPU work, not a scheduler re-entry.
            self._fact(
                scope, FACT_PROCESS_SPAWN, node.lineno, f"{receiver}.process(...)"
            )
        if last == "tracker" and comps[-2:][0].isupper() and len(comps) >= 2:
            self._fact(
                scope, FACT_OWN_ATTEST, node.lineno,
                f"{receiver}.tracker() protocol epoch",
            )
        elif last == "synchronize" and receiver.endswith("barrier"):
            # OperatorBarrier.synchronize holds the RC_SYNC tracker and runs
            # the move step its caller hands it inside that epoch.
            self._fact(
                scope, FACT_OWN_ATTEST, node.lineno,
                f"{receiver}.synchronize() protocol epoch",
            )
        if last in ("add", "remove") and "store" in receiver.lower():
            self._fact(
                scope, FACT_OWN_MUTATION, node.lineno,
                f"{receiver}.{last}(shard)",
            )
        elif last in ("pop", "clear", "update", "setdefault") and (
            receiver.endswith(".data") or receiver == "data"
        ):
            self._fact(
                scope, FACT_OWN_MUTATION, node.lineno,
                f"{receiver}.{last}(...)",
            )
        elif last == "migrate_shard":
            self._fact(
                scope, FACT_OWN_MUTATION, node.lineno, "migrate_shard(...)"
            )

    def _record_import(
        self, stmt: typing.Union[ast.Import, ast.ImportFrom]
    ) -> None:
        imports = self.summary.imports
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
            return
        base = self._resolve_import_base(stmt)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _resolve_import_base(self, stmt: ast.ImportFrom) -> str:
        if stmt.level == 0:
            return stmt.module or ""
        parts = self._module.split(".")
        # Relative imports resolve against the package: drop the module's
        # own leaf name, then one more component per extra dot.
        anchor = parts[: max(0, len(parts) - stmt.level)]
        if stmt.module:
            anchor.append(stmt.module)
        return ".".join(anchor)

    def _fact(self, scope: _Scope, kind: str, line: int, detail: str) -> None:
        scope.info.facts.append(Fact(kind, line, detail))


def extract_summary(rel: str, tree: ast.Module) -> ModuleSummary:
    """Summarize one parsed module."""
    return _Extractor(module_name_for(rel), rel).run(tree)


# -- linked project ----------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Edge:
    """One call-graph edge; ``kind`` is ``call``, ``ref`` or ``heuristic``."""

    caller: str
    callee: str
    kind: str
    line: int
    discarded: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class UnresolvedCall:
    """A call the resolver could not bind to any project function."""

    module: str
    function: str
    line: int
    target: str
    reason: str


class _SourceModule(typing.Protocol):
    """Structural input: ``ParsedModule`` satisfies this."""

    rel: str
    tree: ast.Module


#: Resolved edge kinds (safe for must-not-reach passes).
RESOLVED_KINDS = frozenset({"call", "ref"})
#: All edge kinds (safe for must-have-on-every-path passes).
ALL_KINDS = frozenset({"call", "ref", "heuristic"})


class Project:
    """The linked whole-project call graph and symbol table."""

    def __init__(
        self,
        summaries: typing.Sequence[ModuleSummary],
    ) -> None:
        self.modules: typing.Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules.setdefault(summary.module, summary)
        self.functions: typing.Dict[str, FunctionInfo] = {}
        self.classes: typing.Dict[str, ClassInfo] = {}
        self.method_index: typing.Dict[str, typing.List[str]] = {}
        for summary in self.modules.values():
            for func in summary.functions:
                self.functions.setdefault(func.fid, func)
                if func.class_qual is not None:
                    name = func.qualname.rsplit(".", 1)[1]
                    self.method_index.setdefault(name, []).append(func.fid)
            for cls in summary.classes:
                self.classes.setdefault(cls.cid, cls)
        self.edges: typing.List[Edge] = []
        self.unresolved: typing.List[UnresolvedCall] = []
        self.external_calls = 0
        self.ambiguous_calls = 0
        self._out: typing.Dict[str, typing.List[Edge]] = {}
        self._in: typing.Dict[str, typing.List[Edge]] = {}
        self._children: typing.Dict[str, typing.List[str]] = {}
        self._link()

    # -- linking -------------------------------------------------------------

    def _link(self) -> None:
        for cls in self.classes.values():
            for base in cls.bases:
                base_cid = self._resolve_class(cls.module, base)
                if base_cid is not None:
                    self._children.setdefault(base_cid, []).append(cls.cid)
        for func in self.functions.values():
            for site in func.calls:
                self._link_site(func, site)

    def _add_edge(
        self, caller: FunctionInfo, callee: str, site: CallSite, kind: str
    ) -> None:
        edge = Edge(caller.fid, callee, kind, site.line, site.discarded)
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)
        self._in.setdefault(edge.callee, []).append(edge)

    def _link_site(self, func: FunctionInfo, site: CallSite) -> None:
        kind = "call" if site.is_call else "ref"
        if site.kind == "local":
            fid = f"{func.module}:{site.target}"
            if fid in self.functions:
                self._add_edge(func, fid, site, kind)
            return
        if site.kind == "name":
            resolved = self._resolve_name(func.module, site.target)
            if resolved is not None:
                tag, symbol = resolved
                if tag == "func":
                    self._add_edge(func, symbol, site, kind)
                elif tag == "class" and site.is_call:
                    ctor = self._find_method(symbol, "__init__", set())
                    if ctor is not None:
                        self._add_edge(func, ctor, site, kind)
                return
            if not site.is_call:
                return
            summary = self.modules[func.module]
            if site.target in summary.imports:
                self.external_calls += 1
            elif hasattr(builtins, site.target):
                self.external_calls += 1
            else:
                self.unresolved.append(
                    UnresolvedCall(
                        func.module, func.qualname, site.line, site.target,
                        "unresolved name (local or dynamic callable)",
                    )
                )
            return
        if site.kind == "self":
            self._link_self_site(func, site, kind)
            return
        # site.kind == "attr"
        comps = site.target.split(".")
        if comps[0] != "?":
            summary = self.modules[func.module]
            dotted = summary.imports.get(comps[0])
            if dotted is not None:
                full = ".".join([dotted] + comps[1:])
                resolved = self._resolve_dotted(full, 0)
                if resolved is not None:
                    tag, symbol = resolved
                    if tag == "func":
                        self._add_edge(func, symbol, site, kind)
                    elif tag == "class" and site.is_call:
                        ctor = self._find_method(symbol, "__init__", set())
                        if ctor is not None:
                            self._add_edge(func, ctor, site, kind)
                    return
                if not self._dotted_prefix_known(full):
                    self.external_calls += 1
                    return
        if site.is_call:
            self._link_heuristic(func, site, comps[-1])

    def _link_self_site(
        self, func: FunctionInfo, site: CallSite, kind: str
    ) -> None:
        comps = site.target.split(".")
        own_class = func.class_qual
        cid = f"{func.module}:{own_class}" if own_class is not None else None
        if len(comps) == 1 and cid is not None and cid in self.classes:
            method = comps[0]
            found = self._find_method(cid, method, set())
            if found is not None:
                self._add_edge(func, found, site, kind)
                return
            if not site.is_call:
                return
            targets = self._dispatch_targets(cid, method)
            if targets:
                for target in targets[:_HEURISTIC_CAP]:
                    self._add_edge(func, target, site, "call")
                return
            if method.startswith("__") or method in self.method_index:
                # Defined elsewhere in the project: fall through to the
                # by-name heuristic rather than reporting.
                self._link_heuristic(func, site, method)
                return
            self.unresolved.append(
                UnresolvedCall(
                    func.module, func.qualname, site.line,
                    f"self.{site.target}",
                    f"no method {method!r} in the hierarchy of {own_class}",
                )
            )
            return
        if site.is_call:
            self._link_heuristic(func, site, comps[-1])

    def _link_heuristic(
        self, func: FunctionInfo, site: CallSite, name: str
    ) -> None:
        if name.startswith("__") and name.endswith("__"):
            self.external_calls += 1
            return
        candidates = self.method_index.get(name, [])
        if not candidates:
            self.external_calls += 1
            return
        if len(candidates) > _HEURISTIC_CAP:
            self.ambiguous_calls += 1
            self.unresolved.append(
                UnresolvedCall(
                    func.module, func.qualname, site.line, site.target,
                    f"ambiguous attribute call ({len(candidates)} candidates "
                    f"named {name!r})",
                )
            )
            return
        for fid in candidates:
            if fid != func.fid:
                self._add_edge(func, fid, site, "heuristic")

    # -- name resolution -----------------------------------------------------

    def _resolve_name(
        self, module: str, name: str, depth: int = 0
    ) -> typing.Optional[typing.Tuple[str, str]]:
        summary = self.modules.get(module)
        if summary is None or depth > _RESOLVE_DEPTH:
            return None
        return self._resolve_symbol(module, name, depth)

    def _resolve_symbol(
        self, module: str, symbol: str, depth: int
    ) -> typing.Optional[typing.Tuple[str, str]]:
        if depth > _RESOLVE_DEPTH:
            return None
        fid = f"{module}:{symbol}"
        if fid in self.functions and symbol != MODULE_SCOPE:
            return ("func", fid)
        if fid in self.classes:
            return ("class", fid)
        summary = self.modules.get(module)
        if summary is None:
            return None
        head, _, tail = symbol.partition(".")
        dotted = summary.imports.get(head)
        if dotted is not None:
            full = f"{dotted}.{tail}" if tail else dotted
            return self._resolve_dotted(full, depth + 1)
        return None

    def _resolve_dotted(
        self, dotted: str, depth: int
    ) -> typing.Optional[typing.Tuple[str, str]]:
        if depth > _RESOLVE_DEPTH:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                rest = ".".join(parts[cut:])
                if not rest:
                    return None  # a module object, not a callable
                return self._resolve_symbol(prefix, rest, depth + 1)
        return None

    def _dotted_prefix_known(self, dotted: str) -> bool:
        parts = dotted.split(".")
        return any(
            ".".join(parts[:cut]) in self.modules
            for cut in range(len(parts), 0, -1)
        )

    def _resolve_class(
        self, module: str, text: str
    ) -> typing.Optional[str]:
        resolved = (
            self._resolve_dotted_in_module(module, text)
            if "." in text
            else self._resolve_name(module, text)
        )
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None

    def _resolve_dotted_in_module(
        self, module: str, text: str
    ) -> typing.Optional[typing.Tuple[str, str]]:
        summary = self.modules.get(module)
        if summary is None:
            return None
        head, _, tail = text.partition(".")
        dotted = summary.imports.get(head)
        if dotted is None:
            return self._resolve_symbol(module, text, 0)
        return self._resolve_dotted(f"{dotted}.{tail}" if tail else dotted, 0)

    def _find_method(
        self, cid: str, name: str, seen: typing.Set[str]
    ) -> typing.Optional[str]:
        if cid in seen:
            return None
        seen.add(cid)
        cls = self.classes.get(cid)
        if cls is None:
            return None
        fid = f"{cls.module}:{cls.qualname}.{name}"
        if fid in self.functions:
            return fid
        for base in cls.bases:
            base_cid = self._resolve_class(cls.module, base)
            if base_cid is not None:
                found = self._find_method(base_cid, name, seen)
                if found is not None:
                    return found
        return None

    def _dispatch_targets(self, cid: str, name: str) -> typing.List[str]:
        """Methods named ``name`` on transitive subclasses of ``cid``."""
        targets: typing.List[str] = []
        pending = list(self._children.get(cid, []))
        seen: typing.Set[str] = set()
        while pending:
            child = pending.pop()
            if child in seen:
                continue
            seen.add(child)
            cls = self.classes.get(child)
            if cls is None:
                continue
            fid = f"{cls.module}:{cls.qualname}.{name}"
            if fid in self.functions:
                targets.append(fid)
            pending.extend(self._children.get(child, []))
        return sorted(targets)

    # -- queries -------------------------------------------------------------

    def out_edges(
        self, fid: str, kinds: typing.FrozenSet[str] = RESOLVED_KINDS
    ) -> typing.List[Edge]:
        return [e for e in self._out.get(fid, []) if e.kind in kinds]

    def in_edges(
        self, fid: str, kinds: typing.FrozenSet[str] = ALL_KINDS
    ) -> typing.List[Edge]:
        return [e for e in self._in.get(fid, []) if e.kind in kinds]

    def rel_of(self, fid: str) -> str:
        func = self.functions[fid]
        summary = self.modules.get(func.module)
        return summary.rel if summary is not None else func.module

    def reach_forest(
        self,
        roots: typing.Iterable[str],
        kinds: typing.FrozenSet[str] = RESOLVED_KINDS,
    ) -> typing.Dict[str, typing.Tuple[typing.Optional[str], int]]:
        """BFS forest: reached fid -> (parent fid, depth).  Roots map to
        (None, 0).  Shortest chains win (breadth-first order)."""
        forest: typing.Dict[str, typing.Tuple[typing.Optional[str], int]] = {}
        frontier: typing.List[str] = []
        for root in roots:
            if root in self.functions and root not in forest:
                forest[root] = (None, 0)
                frontier.append(root)
        while frontier:
            next_frontier: typing.List[str] = []
            for fid in frontier:
                depth = forest[fid][1]
                for edge in self.out_edges(fid, kinds):
                    if edge.callee not in forest:
                        forest[edge.callee] = (fid, depth + 1)
                        next_frontier.append(edge.callee)
            frontier = next_frontier
        return forest

    def chain(
        self,
        forest: typing.Mapping[str, typing.Tuple[typing.Optional[str], int]],
        fid: str,
    ) -> typing.List[str]:
        """Witness path root -> ... -> fid from a :meth:`reach_forest`."""
        path = [fid]
        cursor: typing.Optional[str] = fid
        while cursor is not None:
            parent = forest[cursor][0]
            if parent is not None:
                path.append(parent)
            cursor = parent
        path.reverse()
        return path

    def stats(self) -> typing.Dict[str, int]:
        kinds: typing.Dict[str, int] = {}
        for edge in self.edges:
            kinds[edge.kind] = kinds.get(edge.kind, 0) + 1
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "classes": len(self.classes),
            "call_edges": kinds.get("call", 0),
            "ref_edges": kinds.get("ref", 0),
            "heuristic_edges": kinds.get("heuristic", 0),
            "external_calls": self.external_calls,
            "ambiguous_calls": self.ambiguous_calls,
            "unresolved": len(self.unresolved),
        }

    def unresolved_report(self, limit: int = 25) -> str:
        """Human-readable unresolved-edge report for ``--graph-report``."""
        lines = [
            f"{key} = {value}" for key, value in sorted(self.stats().items())
        ]
        by_reason: typing.Dict[str, typing.List[UnresolvedCall]] = {}
        for call in self.unresolved:
            key = call.reason.split("(")[0].strip()
            by_reason.setdefault(key, []).append(call)
        for reason in sorted(by_reason):
            calls = by_reason[reason]
            lines.append(f"-- {reason}: {len(calls)}")
            for call in calls[:limit]:
                lines.append(
                    f"   {call.module}:{call.function}:{call.line} "
                    f"-> {call.target}"
                )
            if len(calls) > limit:
                lines.append(f"   ... {len(calls) - limit} more")
        return "\n".join(lines)


# -- builders ----------------------------------------------------------------


def build_project(modules: typing.Sequence[_SourceModule]) -> Project:
    """Extract and link a set of parsed modules."""
    return Project(
        [extract_summary(module.rel, module.tree) for module in modules]
    )


def project_from_paths(
    paths: typing.Sequence[typing.Union[str, pathlib.Path]],
) -> Project:
    """Parse files/directories and build a project (CLI/test helper)."""
    from repro.lint.core import ParsedModule, _relpath, collect_files

    modules: typing.List[ParsedModule] = []
    for file in collect_files([pathlib.Path(p) for p in paths]):
        try:
            modules.append(ParsedModule(file, _relpath(file)))
        except (SyntaxError, UnicodeDecodeError):
            continue
    return build_project(modules)
