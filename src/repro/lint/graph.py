"""Whole-program analysis: symbol table, call graph, interprocedural rules.

The per-file rules in :mod:`repro.lint.rules` cannot see a wall-clock
read laundered through a helper in another module, nor an instance
attribute that no checkpoint-stage hook ever covers.  This module builds
a project-wide index from the same per-file ASTs the engine already
parses — every function and class, an import-resolved call graph, and a
class hierarchy rooted at ``Checkpointable`` — and runs two rule
families over it:

* **interprocedural taint** — ``DET009`` (transitive wall-clock reach)
  and ``DET010`` (ambient randomness escaping through a wrapper).
  Direct reads of a banned API seed the taint; taint propagates backward
  along call edges to every caller, and each call site *in library code*
  that reaches a tainted function is reported with the full chain.
  A ``# repro: noqa=DET001``/``DET002`` (or blanket) pragma on the
  source line declares the read a host-side boundary and kills the
  taint; ``noqa=DET009``/``DET010`` on a call line sanctions that one
  edge without hiding the source.

* **checkpoint coverage** — the ``CKPT`` family over every
  ``Checkpointable`` subclass (see
  :mod:`repro.checkpoint.pipeline`), aimed at the upcoming
  ``serialize()/restore()`` plugin hooks:

  ========  ===========================================================
  CKPT001   instance attribute mutated outside ``__init__`` and the
            stage hooks, and never read/written by any stage hook —
            hidden state a snapshot will silently drop
  CKPT002   generator/coroutine object stored on ``self`` — survives
            the ``suspend→save`` boundary but is unserializable by
            construction
  CKPT003   provider overrides ``stage_save`` (or ``serialize``)
            without restore-side parity (``stage_resume``/
            ``stage_abort`` / ``restore``)
  ========  ===========================================================

The runtime counterpart is :mod:`repro.lint.statecheck`, which hashes
provider state across a live pipeline run and attributes divergence to
named fields — use it in tests to confirm or refute a CKPT finding.
Entry points: :func:`check_project` (used by
:func:`repro.lint.engine.check_sources`) and :func:`build_index` /
:meth:`ProjectIndex.to_json` (the ``repro lint --graph`` dump).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (ImportMap, Violation, apply_suppressions,
                               suppression_table)
from repro.lint.rules import AmbientRandomRule, WallClockRule

#: first path segments never registered as module names — they would
#: shadow the standard library (``sim/random.py`` must not answer for
#: ``random.random``)
_STDLIB = frozenset(getattr(sys, "stdlib_module_names", ()))

#: the checkpoint-stage hook surface of a provider (pipeline stages,
#: rollback, and the ROADMAP-item-4 serialization pair)
STAGE_HOOKS = frozenset({
    "stage_prepare", "stage_precopy", "stage_quiesce", "stage_suspend",
    "stage_save", "stage_branch", "stage_resume", "stage_abort",
    "serialize", "restore",
})

#: restore-side hooks that give a ``stage_save`` override parity
_RESTORE_SIDE = frozenset({"stage_resume", "stage_abort", "restore"})

_MAX_RESOLVE_DEPTH = 6
_MAX_SUFFIX_SEGMENTS = 5


# ---------------------------------------------------------------------------
# index data model
# ---------------------------------------------------------------------------

@dataclass
class CallSite:
    """One call expression inside a function body, resolution pending."""

    line: int
    col: int
    #: dotted origin via the import map (``repro.bench.runner._time_run``)
    dotted: Optional[str] = None
    #: bare name called (``helper()``) — same-module function candidate
    bare: Optional[str] = None
    #: ``self.<attr>(...)`` — method call on the enclosing class
    self_attr: Optional[str] = None
    #: resolved callee, filled by :meth:`ProjectIndex._resolve_calls`
    target: Optional["FunctionInfo"] = None


@dataclass
class AttrEvent:
    """One ``self.<attr>`` read or write inside a method."""

    attr: str
    method: str
    line: int
    col: int
    is_write: bool
    #: RHS of a simple ``self.x = <value>`` assignment (CKPT002 input)
    value: Optional[ast.AST] = None


class FunctionInfo:
    """A function or method: its calls and its direct taint sources.

    Nested defs and lambdas are merged into the enclosing function — a
    closure that reads the wall clock usually ends up scheduled or
    returned by its owner, so the conservative merge is the useful one.
    """

    def __init__(self, module: "ModuleInfo", name: str,
                 node: ast.AST, cls: Optional["ClassInfo"] = None) -> None:
        self.module = module
        self.name = name                      # in-module qualname
        self.node = node
        self.cls = cls
        self.is_generator = False
        self.calls: List[CallSite] = []
        #: direct banned reads, already filtered by source-line noqa:
        #: (line, col, dotted origin)
        self.wall_sources: List[Tuple[int, int, str]] = []
        self.random_sources: List[Tuple[int, int, str]] = []

    @property
    def qualname(self) -> str:
        return f"{self.module.dotted}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """A class: methods, resolved bases, and its ``self.*`` attr events."""

    def __init__(self, module: "ModuleInfo", name: str,
                 node: ast.ClassDef) -> None:
        self.module = module
        self.name = name
        self.node = node
        self.base_dotted: List[str] = []      # unresolved spellings
        self.bases: List["ClassInfo"] = []    # resolved, project-local
        self.methods: Dict[str, FunctionInfo] = {}
        self.attr_events: List[AttrEvent] = []

    @property
    def qualname(self) -> str:
        return f"{self.module.dotted}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.qualname})"


class ModuleInfo:
    """One parsed file plus its symbol table and suppression table."""

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)
        self.suppress = suppression_table(source, tree)
        self.parts = _module_parts(path)
        self.dotted = _display_name(self.parts)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    @property
    def in_library(self) -> bool:
        return "src/repro/" in self.path or self.path.startswith("repro/")

    def suppresses(self, line: int, code: str) -> bool:
        codes = self.suppress.get(line, ())
        return codes is None or code in codes


def _module_parts(path: str) -> List[str]:
    p = path.replace("\\", "/")
    if p.endswith(".py"):
        p = p[:-3]
    parts = [seg for seg in p.split("/") if seg not in ("", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return parts or ["<module>"]

def _display_name(parts: Sequence[str]) -> str:
    if "src" in parts:
        tail = parts[len(parts) - parts[::-1].index("src"):]
        if tail:
            return ".".join(tail)
    return ".".join(parts[-2:])


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

def _own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _FunctionCollector:
    """Fills one :class:`FunctionInfo` from its AST (nested defs merged)."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info

    def collect(self) -> None:
        info = self.info
        info.is_generator = any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in _own_nodes(info.node))
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                self._collect_call(node)
            elif isinstance(node, ast.Attribute) and info.cls is not None:
                self._collect_attr(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._collect_assign(node)

    def _collect_call(self, node: ast.Call) -> None:
        info = self.info
        imports = info.module.imports
        origin = imports.resolve(node.func)
        line, col = node.lineno, node.col_offset
        if origin in WallClockRule.BANNED:
            if not self._source_sanctioned(line, ("DET001", "DET009")):
                info.wall_sources.append((line, col, origin))
            return
        if origin and origin.startswith("random.") \
                and origin.split(".", 1)[1] in AmbientRandomRule.MODULE_FNS:
            if not self._source_sanctioned(line, ("DET002", "DET010")):
                info.random_sources.append((line, col, origin))
            return
        site = CallSite(line=line, col=col, dotted=origin)
        if isinstance(node.func, ast.Name):
            site.bare = node.func.id
        elif isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "self":
            site.self_attr = node.func.attr
        if site.dotted or site.bare or site.self_attr:
            info.calls.append(site)

    def _source_sanctioned(self, line: int, codes: Tuple[str, ...]) -> bool:
        suppress = self.info.module.suppress
        entry = suppress.get(line, ())
        return entry is None or bool(set(codes) & set(entry))

    def _collect_attr(self, node: ast.Attribute) -> None:
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        cls = self.info.cls
        assert cls is not None
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        cls.attr_events.append(AttrEvent(
            attr=node.attr, method=self.info.name.rsplit(".", 1)[-1],
            line=node.lineno, col=node.col_offset, is_write=is_write))

    def _collect_assign(self, node: ast.AST) -> None:
        # Remember the RHS of simple ``self.x = value`` bindings so
        # CKPT002 can recognise stored generator objects.
        cls = self.info.cls
        if cls is None:
            return
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            return
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                cls.attr_events.append(AttrEvent(
                    attr=target.attr,
                    method=self.info.name.rsplit(".", 1)[-1],
                    line=node.lineno, col=node.col_offset,
                    is_write=True, value=value))


# ---------------------------------------------------------------------------
# the project index
# ---------------------------------------------------------------------------

@dataclass
class Taint:
    """Why a function is tainted: the banned origin and the path to it."""

    origin: str                     # e.g. "time.time"
    source: FunctionInfo            # the function containing the read
    via: Optional[FunctionInfo]     # next hop toward the source (None=direct)


class ProjectIndex:
    """Symbol table + call graph over every parsed file of a project."""

    def __init__(self, entries: Sequence[Tuple[str, str, ast.AST]]) -> None:
        self.modules: List[ModuleInfo] = []
        self._by_suffix: Dict[str, Optional[ModuleInfo]] = {}
        for path, source, tree in entries:
            module = ModuleInfo(path, source, tree)
            self.modules.append(module)
            self._register_suffixes(module)
        for module in self.modules:
            self._collect_module(module)
        for module in self.modules:
            self._resolve_bases(module)
        self._checkpointable_cache: Dict[int, bool] = {}
        for module in self.modules:
            self._resolve_calls(module)
        self._taints: Dict[str, Dict[int, Taint]] = {}

    # ------------------------------------------------------------- building

    def _register_suffixes(self, module: ModuleInfo) -> None:
        parts = module.parts
        for k in range(1, min(_MAX_SUFFIX_SEGMENTS, len(parts)) + 1):
            suffix_parts = parts[-k:]
            if suffix_parts[0] in _STDLIB:
                continue
            suffix = ".".join(suffix_parts)
            if suffix in self._by_suffix \
                    and self._by_suffix[suffix] is not module:
                self._by_suffix[suffix] = None      # ambiguous
            else:
                self._by_suffix[suffix] = module

    def _collect_module(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(module, node.name, node)
                module.functions[node.name] = info
                _FunctionCollector(info).collect()
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(module, node.name, node)
                module.classes[node.name] = cls
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            module, f"{node.name}.{sub.name}", sub, cls=cls)
                        cls.methods[sub.name] = info
                        module.functions[info.name] = info
                        _FunctionCollector(info).collect()

    def _resolve_bases(self, module: ModuleInfo) -> None:
        for cls in module.classes.values():
            for base in cls.node.bases:
                if isinstance(base, ast.Name) \
                        and base.id in module.classes:
                    cls.bases.append(module.classes[base.id])
                    cls.base_dotted.append(base.id)
                    continue
                dotted = module.imports.resolve(base)
                if dotted is None and isinstance(base, ast.Name):
                    dotted = base.id
                if dotted is None:
                    continue
                cls.base_dotted.append(dotted)
                resolved = self.resolve_dotted(dotted)
                if isinstance(resolved, ClassInfo):
                    cls.bases.append(resolved)

    def _resolve_calls(self, module: ModuleInfo) -> None:
        for info in module.functions.values():
            for site in info.calls:
                site.target = self._resolve_site(module, info, site)

    def _resolve_site(self, module: ModuleInfo, info: FunctionInfo,
                      site: CallSite) -> Optional[FunctionInfo]:
        if site.self_attr is not None and info.cls is not None:
            return self._hierarchy_method(info.cls, site.self_attr)
        if site.dotted is not None:
            resolved = self.resolve_dotted(site.dotted)
            if isinstance(resolved, FunctionInfo):
                return resolved
        if site.bare is not None:
            local = module.functions.get(site.bare)
            if local is not None and local.cls is None:
                return local
        return None

    # ------------------------------------------------------------- lookups

    def resolve_dotted(self, dotted: str, _depth: int = 0):
        """Project symbol for a dotted name, or None.

        Finds the longest module-path prefix known to the index, then
        looks the remainder up as a member — following one level of
        re-export (``from repro.checkpoint.pipeline import Checkpointable``
        in a package ``__init__``) per recursion step.
        """
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = self._by_suffix.get(".".join(parts[:i]))
            if module is None:
                continue
            return self._lookup_member(module, ".".join(parts[i:]), _depth)
        return None

    def _lookup_member(self, module: ModuleInfo, member: str, depth: int):
        if member in module.functions:
            return module.functions[member]
        if member in module.classes:
            return module.classes[member]
        head, _, rest = member.partition(".")
        origin = module.imports.names.get(head)
        if origin is not None:
            target = origin + (("." + rest) if rest else "")
            return self.resolve_dotted(target, depth + 1)
        return None

    def _hierarchy(self, cls: ClassInfo) -> List[ClassInfo]:
        """``cls`` plus every resolved ancestor, nearest-first."""
        out: List[ClassInfo] = []
        seen: Set[int] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if id(current) in seen:
                continue
            seen.add(id(current))
            out.append(current)
            stack.extend(current.bases)
        return out

    def _hierarchy_method(self, cls: ClassInfo,
                          name: str) -> Optional[FunctionInfo]:
        for ancestor in self._hierarchy(cls):
            if name in ancestor.methods:
                return ancestor.methods[name]
        return None

    def is_checkpointable(self, cls: ClassInfo) -> bool:
        """Does ``cls`` (transitively) subclass ``Checkpointable``?

        The root itself answers False — the rules only police providers.
        """
        if cls.name == "Checkpointable":
            return False
        cached = self._checkpointable_cache.get(id(cls))
        if cached is not None:
            return cached
        found = any(
            ancestor.name == "Checkpointable"
            for ancestor in self._hierarchy(cls)[1:]
        ) or any(
            dotted == "Checkpointable" or dotted.endswith(".Checkpointable")
            for ancestor in self._hierarchy(cls)
            for dotted in ancestor.base_dotted
        )
        self._checkpointable_cache[id(cls)] = found
        return found

    def checkpointable_classes(self) -> List[ClassInfo]:
        return [cls for module in self.modules
                for cls in module.classes.values()
                if self.is_checkpointable(cls)]

    # ------------------------------------------------------------- taint

    def taints(self, kind: str) -> Dict[int, Taint]:
        """``id(FunctionInfo) -> Taint`` for ``kind`` in {wall, random}.

        Seeds are functions with an unsanctioned direct read; taint then
        propagates to callers over call edges, skipping edges whose call
        line carries a matching noqa (``DET009``/``DET010`` or blanket).
        """
        if kind in self._taints:
            return self._taints[kind]
        edge_code = "DET009" if kind == "wall" else "DET010"
        tainted: Dict[int, Taint] = {}
        by_id: Dict[int, FunctionInfo] = {}
        callers: Dict[int, List[Tuple[FunctionInfo, CallSite]]] = {}
        worklist: List[FunctionInfo] = []
        for module in self.modules:
            for info in module.functions.values():
                by_id[id(info)] = info
                sources = (info.wall_sources if kind == "wall"
                           else info.random_sources)
                if sources:
                    line, col, origin = sources[0]
                    tainted[id(info)] = Taint(origin=origin, source=info,
                                              via=None)
                    worklist.append(info)
                for site in info.calls:
                    if site.target is not None:
                        callers.setdefault(id(site.target), []).append(
                            (info, site))
        while worklist:
            current = worklist.pop()
            taint = tainted[id(current)]
            for caller, site in callers.get(id(current), ()):
                if caller.module.suppresses(site.line, edge_code):
                    continue
                if id(caller) in tainted:
                    continue
                tainted[id(caller)] = Taint(origin=taint.origin,
                                            source=taint.source, via=current)
                worklist.append(caller)
        self._taints[kind] = tainted
        return tainted

    def taint_chain(self, info: FunctionInfo, kind: str) -> List[str]:
        """Qualnames from ``info`` down to the function holding the read."""
        tainted = self.taints(kind)
        chain: List[str] = []
        current: Optional[FunctionInfo] = info
        for _ in range(32):
            if current is None or id(current) not in tainted:
                break
            chain.append(current.qualname)
            current = tainted[id(current)].via
        return chain

    # ------------------------------------------------------------- export

    def to_json(self) -> Dict:
        """Deterministic JSON view: symbols, call edges, taint verdicts."""
        wall = self.taints("wall")
        ambient = self.taints("random")
        modules = []
        for module in sorted(self.modules, key=lambda m: m.path):
            functions = []
            for name in sorted(module.functions):
                info = module.functions[name]
                functions.append({
                    "name": name,
                    "generator": info.is_generator,
                    "calls": sorted({
                        site.target.qualname if site.target is not None
                        else (site.dotted or site.bare
                              or f"self.{site.self_attr}")
                        for site in info.calls}),
                    "wall_clock_sources": [
                        {"line": line, "origin": origin}
                        for line, _, origin in info.wall_sources],
                    "ambient_random_sources": [
                        {"line": line, "origin": origin}
                        for line, _, origin in info.random_sources],
                    "wall_clock_tainted": id(info) in wall,
                    "ambient_random_tainted": id(info) in ambient,
                })
            classes = []
            for name in sorted(module.classes):
                cls = module.classes[name]
                classes.append({
                    "name": name,
                    "bases": sorted(set(cls.base_dotted)),
                    "checkpointable": self.is_checkpointable(cls),
                })
            modules.append({"path": module.path, "module": module.dotted,
                            "functions": functions, "classes": classes})
        return {
            "graph": "repro-lint",
            "modules": modules,
            "taint": {
                "wall_clock": sorted(
                    t.source.qualname for t in wall.values()
                    if t.via is None),
                "ambient_random": sorted(
                    t.source.qualname for t in ambient.values()
                    if t.via is None),
            },
        }


def build_index(entries: Sequence[Tuple[str, str, ast.AST]]) -> ProjectIndex:
    """Public constructor used by the CLI's ``--graph`` dump."""
    return ProjectIndex(entries)


# ---------------------------------------------------------------------------
# project rules
# ---------------------------------------------------------------------------

PROJECT_RULES: Dict[str, type] = {}


def register(cls):
    PROJECT_RULES[cls.code] = cls
    return cls


class ProjectRule:
    """Base: one rule instance analyses one :class:`ProjectIndex`."""

    code = ""
    name = ""
    summary = ""
    #: every project rule polices the library; call sites in tests and
    #: benchmarks may legitimately reach host-side helpers
    library_only = True

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.violations: List[Violation] = []

    def run(self) -> None:
        raise NotImplementedError

    def report(self, module: ModuleInfo, line: int, col: int,
               message: str) -> None:
        self.violations.append(Violation(module.path, line, col + 1,
                                         self.code, message))


class _TaintRule(ProjectRule):
    """Shared body of DET009/DET010: report library calls into taint."""

    kind = ""
    advice = ""

    def run(self) -> None:
        tainted = self.index.taints(self.kind)
        for module in self.index.modules:
            if self.library_only and not module.in_library:
                continue
            for info in module.functions.values():
                for site in info.calls:
                    target = site.target
                    if target is None or id(target) not in tainted:
                        continue
                    taint = tainted[id(target)]
                    chain = " -> ".join(
                        self.index.taint_chain(target, self.kind))
                    self.report(
                        module, site.line, site.col,
                        f"call to `{target.qualname}` transitively reaches "
                        f"`{taint.origin}()` [{chain}]; {self.advice}")


@register
class TransitiveWallClockRule(_TaintRule):
    """DET009 — a helper chain ends at the host wall clock."""

    code = "DET009"
    name = "transitive-wall-clock"
    summary = "call reaches a wall-clock read through helper functions"
    kind = "wall"
    advice = ("simulated time comes from `Simulator.now`; if the helper is "
              "host-side on purpose, noqa its read line with DET001")


@register
class TransitiveAmbientRandomRule(_TaintRule):
    """DET010 — ambient global-RNG draws escape through a wrapper."""

    code = "DET010"
    name = "transitive-ambient-random"
    summary = "call reaches ambient random state through a wrapper"
    kind = "random"
    advice = ("route randomness through a named `RandomStreams` substream; "
              "if the wrapper is host-side on purpose, noqa its draw line "
              "with DET002")


@register
class HiddenProviderStateRule(ProjectRule):
    """CKPT001 — provider state no checkpoint-stage hook ever covers."""

    code = "CKPT001"
    name = "hidden-provider-state"
    summary = "provider attribute mutated outside any checkpoint-stage hook"

    def run(self) -> None:
        for cls in self.index.checkpointable_classes():
            if self.library_only and not cls.module.in_library:
                continue
            self._check_class(cls)

    def _reachable_methods(self, cls: ClassInfo,
                           roots: Iterable[str]) -> Set[str]:
        """Method names reachable from ``roots`` via ``self.x()`` calls."""
        hierarchy = self.index._hierarchy(cls)
        reachable: Set[str] = set()
        stack = [name for name in roots
                 if any(name in a.methods for a in hierarchy)]
        while stack:
            name = stack.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for ancestor in hierarchy:
                info = ancestor.methods.get(name)
                if info is None:
                    continue
                for site in info.calls:
                    if site.self_attr is not None \
                            and site.self_attr not in reachable:
                        stack.append(site.self_attr)
                break                    # nearest override wins
        return reachable

    def _check_class(self, cls: ClassInfo) -> None:
        hierarchy = self.index._hierarchy(cls)
        stage_reachable = self._reachable_methods(cls, STAGE_HOOKS)
        init_reachable = self._reachable_methods(cls, ("__init__",))
        covered: Set[str] = set()
        events: List[AttrEvent] = []
        for ancestor in hierarchy:
            for event in ancestor.attr_events:
                events.append(event)
                if event.method in stage_reachable:
                    covered.add(event.attr)
        flagged: Set[str] = set()
        for event in sorted(events, key=lambda e: (e.line, e.col)):
            if not event.is_write or event.attr in covered \
                    or event.attr in flagged:
                continue
            if event.method in init_reachable \
                    or event.method in stage_reachable:
                continue
            flagged.add(event.attr)
            self.report(
                cls.module, event.line, event.col,
                f"`self.{event.attr}` is mutated in "
                f"`{cls.name}.{event.method}` but no checkpoint-stage hook "
                f"of `{cls.name}` ever reads or writes it; a snapshot will "
                f"silently drop this state — cover it in a stage hook or "
                f"mark the write `# repro: noqa=CKPT001`")


@register
class StoredGeneratorRule(ProjectRule):
    """CKPT002 — generator objects stored on a provider are unserializable."""

    code = "CKPT002"
    name = "stored-generator"
    summary = "generator/coroutine object stored on a provider attribute"

    def run(self) -> None:
        for cls in self.index.checkpointable_classes():
            if self.library_only and not cls.module.in_library:
                continue
            for event in cls.attr_events:
                if event.value is None:
                    continue
                why = self._generator_value(cls, event.value)
                if why is not None:
                    self.report(
                        cls.module, event.line, event.col,
                        f"`self.{event.attr}` holds {why}; generator state "
                        f"cannot be serialized across the suspend->save "
                        f"boundary — store plain data and rebuild the "
                        f"iterator on restore")

    def _generator_value(self, cls: ClassInfo,
                         value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.GeneratorExp):
            return "a generator expression"
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name) and func.id == "iter":
            return "a live iterator (`iter(...)`)"
        target: Optional[FunctionInfo] = None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "self":
            target = self.index._hierarchy_method(cls, func.attr)
        else:
            dotted = cls.module.imports.resolve(func)
            if dotted is None and isinstance(func, ast.Name):
                local = cls.module.functions.get(func.id)
                if local is not None and local.cls is None:
                    target = local
            elif dotted is not None:
                resolved = self.index.resolve_dotted(dotted)
                if isinstance(resolved, FunctionInfo):
                    target = resolved
        if target is not None and target.is_generator:
            return f"the generator object returned by `{target.qualname}()`"
        return None


@register
class SaveRestoreParityRule(ProjectRule):
    """CKPT003 — a save-side override demands restore-side parity.

    Providers pair ``stage_save``/``serialize`` with a restore-side hook;
    any class defining ``serialize_state`` (a component's half of the
    state pair) must also have ``restore_state`` — the one spelling.
    """

    code = "CKPT003"
    name = "save-restore-parity"
    summary = "save-side state hook without its restore-side pair"

    _STATE_PAIRS = (("serialize_state", ("restore_state",)),)
    _PROVIDER_PAIRS = (
        ("stage_save", ("stage_resume", "stage_abort", "restore")),
        ("serialize", ("restore",))) + _STATE_PAIRS

    def run(self) -> None:
        for module in self.index.modules:
            if self.library_only and not module.in_library:
                continue
            for cls in module.classes.values():
                self._check(cls, self._PROVIDER_PAIRS
                            if self.index.is_checkpointable(cls)
                            else self._STATE_PAIRS)

    def _check(self, cls: ClassInfo, pairs) -> None:
        defined: Set[str] = set()
        for ancestor in self.index._hierarchy(cls):
            if ancestor.name == "Checkpointable":
                continue                 # the root's no-op defaults don't count
            defined |= set(ancestor.methods)
        for save_hook, restore_hooks in pairs:
            if save_hook in cls.methods and not (defined & set(restore_hooks)):
                node = cls.methods[save_hook].node
                self.report(
                    cls.module, node.lineno, node.col_offset,
                    f"`{cls.name}` defines `{save_hook}` without "
                    f"restore-side parity; implement one of "
                    f"{'/'.join(restore_hooks)} so captured state can "
                    f"be re-applied or rolled back")


def all_project_codes() -> List[str]:
    return sorted(PROJECT_RULES)


def check_project(entries: Sequence[Tuple[str, str, ast.AST]],
                  select: Optional[Iterable[str]] = None) -> List[Violation]:
    """Run every (selected) project rule over the parsed entries.

    Returns noqa-filtered violations; ``entries`` is a sequence of
    ``(path, source, tree)`` triples, typically produced by
    :func:`repro.lint.engine.check_sources`.
    """
    wanted = set(select) if select is not None else None
    codes = [code for code in sorted(PROJECT_RULES)
             if wanted is None or code in wanted]
    if not codes:
        return []
    index = ProjectIndex(entries)
    tables = {module.path: module.suppress for module in index.modules}
    violations: List[Violation] = []
    for code in codes:
        rule = PROJECT_RULES[code](index)
        rule.run()
        violations.extend(rule.violations)
    kept: List[Violation] = []
    by_path: Dict[str, List[Violation]] = {}
    for v in violations:
        by_path.setdefault(v.path, []).append(v)
    for path, group in by_path.items():
        kept.extend(apply_suppressions(group, tables.get(path, {})))
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return kept
