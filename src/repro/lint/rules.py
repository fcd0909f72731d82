"""Determinism lint rules (the ``DET`` catalogue).

Each rule is an :class:`ast.NodeVisitor` registered in :data:`RULES` under
its code.  The catalogue enforces the invariants that keep a simulation run
bit-for-bit reproducible across hosts and replays:

========  ==============================================================
DET001    no wall-clock reads (``time.time``, ``datetime.now``, ...)
DET002    no ambient module-level ``random`` functions
DET003    no bare ``random.Random(...)`` outside ``sim/random.py``
DET004    no order-sensitive iteration over sets without ``sorted()``
DET005    no ``id()``/``hash()``-based ordering keys
DET006    no float arithmetic feeding simulated-time APIs
DET007    process discipline: no blocking sleep, no discarded wait events
DET008    no mutable or model-instance default arguments
========  ==============================================================

The whole-program rules — DET009/DET010 (interprocedural taint) and the
checkpoint-coverage family CKPT001–CKPT003 — need every file's AST at
once and live in :mod:`repro.lint.graph`.

Rationale and worked examples live in ``docs/determinism.md``; the full
catalogue including the project-wide rules is in
``docs/static-analysis.md``.  Suppress a single knowingly-safe line with
``# repro: noqa=DET004``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Type

from repro.lint.engine import LintContext

RULES: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    RULES[cls.code] = cls
    return cls


def all_codes() -> List[str]:
    return sorted(RULES)


class Rule(ast.NodeVisitor):
    """Base class: one rule instance lints one file."""

    code: str = ""
    name: str = ""
    summary: str = ""
    #: rules that only make sense inside the ``repro`` package itself
    #: (tests and benchmarks may legitimately break them at the boundary)
    library_only: bool = False

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx

    def run(self) -> None:
        self.visit(self.ctx.tree)

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.add(self.code, node, message)

    def resolve(self, node: ast.AST) -> Optional[str]:
        return self.ctx.imports.resolve(node)


@register
class WallClockRule(Rule):
    """The host wall clock must never leak into simulation logic."""

    code = "DET001"
    name = "wall-clock"
    summary = "host wall-clock read in simulation code"

    BANNED = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.ctime", "time.localtime", "time.gmtime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }

    def visit_Call(self, node: ast.Call) -> None:
        origin = self.resolve(node.func)
        if origin in self.BANNED:
            self.report(node, f"wall-clock read `{origin}()`; simulated "
                              f"time comes from `Simulator.now` (integer ns)")
        self.generic_visit(node)


@register
class AmbientRandomRule(Rule):
    """Module-level ``random`` functions share hidden global state."""

    code = "DET002"
    name = "ambient-random"
    summary = "module-level random function (hidden global state)"

    MODULE_FNS = {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "seed", "getrandbits", "expovariate", "gauss",
        "normalvariate", "lognormvariate", "triangular", "betavariate",
        "paretovariate", "vonmisesvariate", "weibullvariate", "randbytes",
    }

    def visit_Call(self, node: ast.Call) -> None:
        origin = self.resolve(node.func)
        if origin and origin.startswith("random.") \
                and origin.split(".", 1)[1] in self.MODULE_FNS:
            self.report(node, f"ambient `{origin}()` draws from the global "
                              f"RNG; use a named `RandomStreams` substream")
        self.generic_visit(node)


@register
class BareRandomConstructionRule(Rule):
    """All library randomness flows through named ``RandomStreams``."""

    code = "DET003"
    name = "bare-random-construction"
    summary = "bare random.Random construction outside sim/random.py"
    library_only = True

    CONSTRUCTORS = {"random.Random", "random.SystemRandom"}

    def run(self) -> None:
        if self.ctx.path.endswith("sim/random.py"):
            return                      # the one blessed construction site
        self.visit(self.ctx.tree)

    def visit_Call(self, node: ast.Call) -> None:
        origin = self.resolve(node.func)
        if origin in self.CONSTRUCTORS:
            self.report(node, f"bare `{origin}(...)`; derive a named "
                              f"substream via `RandomStreams.stream()` or "
                              f"`sim.random.derived_rng()` instead")
        self.generic_visit(node)


#: builtins whose result does not depend on argument iteration order
_ORDER_FREE_SINKS = {"sorted", "min", "max", "sum", "len", "any", "all",
                     "set", "frozenset"}


@register
class UnorderedIterationRule(Rule):
    """Iterating a set in an order-sensitive position is a replay hazard.

    Set iteration order depends on element hashes — for strings it varies
    with ``PYTHONHASHSEED``, for plain objects with ``id()`` — so a loop,
    list conversion, or dict build fed by a set can differ between two runs
    of the *same* scenario.  Wrap the set in ``sorted(...)``.  (Dicts are
    insertion-ordered in Python >= 3.7 and are therefore allowed.)

    Tracking is intentionally local and conservative: set literals, set
    comprehensions, ``set()``/``frozenset()`` calls, set-operator results,
    names assigned such values in the same function, and ``self``
    attributes annotated or assigned as sets in the same class.
    """

    code = "DET004"
    name = "unordered-iteration"
    summary = "order-sensitive iteration over a set without sorted()"

    SET_METHODS = {"union", "intersection", "difference",
                   "symmetric_difference", "copy"}
    _SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet",
                        "MutableSet", "AbstractSet"}

    def run(self) -> None:
        self._local_sets: List[Set[str]] = [set()]   # function scope stack
        self._attr_sets: List[Set[str]] = [set()]    # class scope stack
        self._sanctioned: Set[int] = set()           # nodes inside sorted()&co
        self.visit(self.ctx.tree)

    # -- scope management ---------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        attrs: Set[str] = set()
        for sub in ast.walk(node):
            target = None
            if isinstance(sub, ast.AnnAssign) and self._is_set_annotation(
                    sub.annotation):
                target = sub.target
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and self._is_set_expr(sub.value):
                target = sub.targets[0]
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                attrs.add(target.attr)
        self._attr_sets.append(attrs)
        self.generic_visit(node)
        self._attr_sets.pop()

    def _visit_function(self, node) -> None:
        names: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) \
                    and self._is_set_expr(sub.value, names):
                names.add(sub.targets[0].id)
            elif isinstance(sub, ast.AnnAssign) \
                    and isinstance(sub.target, ast.Name) \
                    and self._is_set_annotation(sub.annotation):
                names.add(sub.target.id)
        self._local_sets.append(names)
        self.generic_visit(node)
        self._local_sets.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- set-typed expression recognition ------------------------------------

    def _is_set_annotation(self, ann: ast.AST) -> bool:
        if isinstance(ann, ast.Subscript):
            ann = ann.value
        if isinstance(ann, ast.Attribute):
            return ann.attr in self._SET_ANNOTATIONS
        return isinstance(ann, ast.Name) and ann.id in self._SET_ANNOTATIONS

    def _is_set_expr(self, node: ast.AST,
                     extra_names: Optional[Set[str]] = None) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self.SET_METHODS \
                    and self._is_set_expr(node.func.value, extra_names):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
            return (self._is_set_expr(node.left, extra_names) or
                    self._is_set_expr(node.right, extra_names))
        if isinstance(node, ast.Name):
            if extra_names is not None and node.id in extra_names:
                return True
            return node.id in self._local_sets[-1]
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr in self._attr_sets[-1]
        return False

    # -- order-sensitive sinks -----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name):
            if node.func.id in _ORDER_FREE_SINKS:
                for arg in node.args:
                    self._sanctioned.add(id(arg))
            elif node.func.id in ("list", "tuple") and node.args \
                    and self._is_set_expr(node.args[0]):
                self.report(node, f"`{node.func.id}()` of a set fixes an "
                                  f"arbitrary order; use `sorted(...)`")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self.report(node.iter, "iterating a set in a `for` loop is "
                                   "order-sensitive; wrap in `sorted(...)`")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        if id(node) not in self._sanctioned:
            for gen in node.generators:
                if self._is_set_expr(gen.iter):
                    self.report(gen.iter, "comprehension over a set builds "
                                          "an ordered result from unordered "
                                          "input; wrap in `sorted(...)`")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    visit_DictComp = _check_comprehension
    # SetComp is order-free: set in, set out.


@register
class IdOrderingRule(Rule):
    """``id()``/``hash()`` values differ between runs; never order by them."""

    code = "DET005"
    name = "id-ordering"
    summary = "id()/hash()-based ordering key"

    ORDERING_FNS = {"sorted", "min", "max"}

    def visit_Call(self, node: ast.Call) -> None:
        is_ordering = (isinstance(node.func, ast.Name)
                       and node.func.id in self.ORDERING_FNS) or \
                      (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "sort")
        if is_ordering:
            for kw in node.keywords:
                if kw.arg == "key" and self._mentions_identity(kw.value):
                    self.report(kw.value, "ordering by `id()`/`hash()` "
                                          "differs between runs; sort by a "
                                          "stable field (e.g. `.name`)")
        self.generic_visit(node)

    @staticmethod
    def _mentions_identity(node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id in ("id", "hash"):
            return True
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                    and sub.func.id in ("id", "hash"):
                return True
        return False


@register
class FloatTimeRule(Rule):
    """Simulated time is integer nanoseconds; float feeds are drift bugs.

    Flags float literals, true division, and ``float()`` in the time
    argument of the scheduling APIs (``timeout``/``sleep``/``call_at``/
    ``call_in``).  Explicit quantization
    through ``int(...)``/``round(...)`` or floor division is accepted.
    """

    code = "DET006"
    name = "float-time"
    summary = "float arithmetic feeding a simulated-time API"

    TIME_METHODS = {"timeout", "sleep", "call_at", "call_in"}

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in self.TIME_METHODS and node.args):
            self._check_time_arg(node.args[0], node.func.attr)
        self.generic_visit(node)

    def _check_time_arg(self, arg: ast.AST, method: str) -> None:
        offender = self._float_subexpr(arg)
        if offender is not None:
            self.report(offender, f"float arithmetic in `{method}(...)` "
                                  f"time argument; simulated time is "
                                  f"integer ns — use `//` or `int(...)`")

    def _float_subexpr(self, node: ast.AST) -> Optional[ast.AST]:
        """First float-producing subexpression, skipping int()/round()."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("int", "round"):
                return None
            if node.func.id == "float":
                return node
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return node
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return node
        for child in ast.iter_child_nodes(node):
            found = self._float_subexpr(child)
            if found is not None:
                return found
        return None


@register
class ProcessDisciplineRule(Rule):
    """Sim processes wait by yielding events, never by blocking or dropping.

    Two findings: any call to ``time.sleep`` (blocks the host, not the
    simulation), and an expression statement inside a generator that
    creates a wait event (``.timeout(...)``/``.sleep(...)``) and discards
    it — almost certainly a missing ``yield``.
    """

    code = "DET007"
    name = "process-discipline"
    summary = "blocking sleep or discarded wait event in a sim process"

    WAIT_METHODS = {"timeout", "sleep"}

    def visit_Call(self, node: ast.Call) -> None:
        if self.resolve(node.func) == "time.sleep":
            self.report(node, "`time.sleep()` blocks the host; sim "
                              "processes must `yield sim.timeout(...)`")
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        if any(isinstance(sub, (ast.Yield, ast.YieldFrom))
               for sub in self._own_walk(node)):
            for stmt in self._own_walk(node):
                if isinstance(stmt, ast.Expr) \
                        and isinstance(stmt.value, ast.Call) \
                        and isinstance(stmt.value.func, ast.Attribute) \
                        and stmt.value.func.attr in self.WAIT_METHODS:
                    self.report(stmt, f"wait event "
                                      f"`.{stmt.value.func.attr}(...)` is "
                                      f"discarded; did you mean "
                                      f"`yield ...`?")
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @staticmethod
    def _own_walk(func) -> List[ast.AST]:
        """Walk a function's body without descending into nested defs."""
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            out.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return out


@register
class MutableDefaultRule(Rule):
    """Default arguments are evaluated once, at import.

    A mutable literal (``[]``, ``{}``) is shared across every call; a
    model/config instance (``path: PathDelayModel = PathDelayModel()``)
    is shared across every *object* constructed with the default — one
    experiment's state silently becomes another's.  Use
    ``Optional[...] = None`` and construct per call/instance.  Calls to
    a small allowlist of immutable builtins (``tuple()``, ``float("inf")``,
    ...) are accepted.
    """

    code = "DET008"
    name = "mutable-default"
    summary = "mutable or model-instance default argument"
    library_only = True

    #: builtins whose results are immutable values, safe to share
    ALLOWED_CALLS = {"bool", "bytes", "complex", "float", "frozenset",
                     "int", "str", "tuple"}

    def _visit_function(self, node) -> None:
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults
                                          if d is not None]
        for default in defaults:
            self._check(default)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def _check(self, node: ast.AST) -> None:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            self.report(node, "mutable literal default is evaluated once "
                              "at import and shared across calls; use "
                              "`Optional[...] = None`")
            return
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in self.ALLOWED_CALLS:
                return
            self.report(node, "instance default is constructed once at "
                              "import and shared by every caller; use "
                              "`Optional[...] = None` and construct per "
                              "call/instance")
