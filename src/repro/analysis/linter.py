"""simlint, one module at a time: the parse and the walk.

Every linted file is parsed once into a :class:`ModuleInfo` and walked
once.  The walk records everything the rules later query:

- the module's symbol table: import aliases (relative imports
  resolved), top-level functions and classes, every class statement,
  the import statements the program model turns into edges, and the
  names the module assigns;
- the raw facts of each top-level function and method — its calls and
  stores in source order, its ``global`` declarations and its
  fresh-container bindings — which :mod:`repro.analysis.program` links
  into call edges and mutation sites;
- the syntactic findings (SIM002–SIM013) that need nothing beyond the
  module, and the entropy seed list: every SIM001 site, which the
  program model also propagates as SIM016.

See :mod:`repro.analysis.rules` for what each SIM rule means.

Suppression:

- ``# simlint: ignore[SIM003]`` on the offending line (or on a comment
  line directly above it) suppresses the named rules; ``# simlint:
  ignore`` suppresses every rule for that line.  An entropy site whose
  pragma names SIM001 or SIM016 is a sanctioned sink: it is neither
  reported nor propagated to its callers.
- ``# simlint: skip-file`` anywhere in the first ten lines drops every
  finding in the file (a package module still takes part in the call
  graph).
- a baseline file (JSON, see :func:`load_baseline`) grandfathers
  existing violations so new code is held to a higher bar than legacy
  code; baselined entries are keyed by a line-number-independent
  fingerprint so unrelated edits do not resurrect them.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .rules import Rule, rule_by_id

__all__ = [
    "Violation",
    "LintResult",
    "ModuleInfo",
    "ClassInfo",
    "FunctionInfo",
    "parse_module",
    "dotted_name",
    "is_entropy_call",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "render_human",
    "render_json",
]

# ---------------------------------------------------------------------------
# Rule knobs (kept together so the doc can point at one place)
# ---------------------------------------------------------------------------

# SIM001: fully-qualified callables that read host time / OS entropy.
ENTROPY_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
}
# module-level RNG namespaces: any call into them is host entropy
# (seeded instances constructed via random.Random(seed) are fine).
_RANDOM_MODULE_OK = {"random.Random", "random.SystemRandom"}   # SIM009's turf
_NUMPY_RANDOM_OK = {
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
}

# SIM002: calls that turn iteration order into event order.
SCHEDULING_ATTRS = {
    "succeed", "fail", "timeout", "process", "schedule", "submit",
    "heappush", "heapify", "interrupt",
}
DICT_VIEW_ATTRS = {"keys", "values", "items"}
ORDER_SAFE_WRAPPERS = {"sorted", "min", "max", "sum", "len", "frozenset",
                       "set", "any", "all"}

# SIM003: callables whose first delay-like argument must stay integral.
CLOCK_SINK_ATTRS = {"timeout": 0, "compute": 0, "sleep": 0}
CLOCK_SINK_NAMES = {"Timeout": 1}          # Timeout(sim, delay)

# SIM004: attribute calls whose result is an Event (yielding them is the
# protocol); a generator that yields at least one of these is treated as
# a simulation process, and its other yields are held to the protocol.
EVENT_FACTORY_ATTRS = {
    "timeout", "event", "process", "any_of", "all_of",
    "request", "acquire", "get", "put", "submit", "block", "poll",
}

# SIM011: list mutators that bypass TimeSeries.record()'s sorted-
# samples invariant.  sim/ is the owning layer; a module declaring its
# *own* samples/points attribute (e.g. a dataclass field) is a friend.
SERIES_ATTRS = {"samples", "points"}
SERIES_MUTATORS = {"append", "extend", "insert", "remove", "pop",
                   "clear", "sort", "reverse"}

# SIM013: process-level parallelism is the experiment orchestrator's
# exclusive turf; everything else must stay single-threaded
# deterministic.  Module roots whose import is flagged, plus the pool
# names flagged wherever they are imported from.
MP_MODULE_ROOTS = {"multiprocessing", "_multiprocessing"}
MP_POOL_NAMES = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool"}
MP_ALLOWED_SUFFIX = "bench/runner.py"

# SIM012: the documented gauge naming scheme (docs/observability.md):
# <subsystem>.<object>.<metric> — lowercase/digits/underscores, two or
# more dot-separated components.  Keep in sync with
# repro.obs.monitor.GAUGE_NAME_RE (tests/analysis checks the pattern).
GAUGE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

_PRAGMA_RE = re.compile(r"#\s*simlint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*simlint:\s*skip-file")
_NO_PRAGMA = object()

# A pragma naming either rule sanctions an entropy sink (SIM001 and
# SIM016 read the same seed list).
_ENTROPY_RULES = ("SIM001", "SIM016")

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
# nodes whose body/orelse/finalbody fields are statement lists (SIM005)
_BLOCK_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.For, ast.AsyncFor, ast.While, ast.If, ast.With,
                ast.AsyncWith, ast.Try, getattr(ast, "TryStar", ast.Try),
                ast.ExceptHandler, ast.match_case)
_BRANCHES = (ast.If, ast.For, ast.While, ast.Try, ast.With, ast.Return,
             ast.Raise, ast.Continue, ast.Break)


def is_entropy_call(full: str) -> bool:
    """True when the dotted callable ``full`` reads host time/entropy."""
    return (
        full in ENTROPY_CALLS
        or full.startswith("secrets.")
        or (full.startswith("random.")
            and full not in _RANDOM_MODULE_OK
            and full.count(".") == 1)
        or (full.startswith("numpy.random.")
            and full not in _NUMPY_RANDOM_OK)
    )


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    rule: Rule
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""
    # set by the autofixer when it knows a mechanical rewrite
    fix_span: Optional[Tuple[int, int, int, int]] = None  # l0,c0,l1,c1
    fix_text: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining: independent of line numbers."""
        h = hashlib.sha1()
        h.update(self.rule.id.encode())
        h.update(b"\0")
        h.update(self.path.encode())
        h.update(b"\0")
        h.update(self.source_line.strip().encode())
        return h.hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.id,
            "name": self.rule.name,
            "severity": self.rule.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class LintResult:
    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    baselined: int = 0
    # the linked package model (a repro.analysis.program.Program), when
    # the linted paths covered it
    program: Optional[Any] = field(default=None, repr=False)

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.rule.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# The module model
# ---------------------------------------------------------------------------

@dataclass
class ClassInfo:
    name: str
    module: str
    lineno: int
    col: int = 0
    bases: List[str] = field(default_factory=list)   # dotted, unresolved
    is_dataclass: bool = False
    has_slots: bool = False
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qual

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class FunctionInfo:
    """A top-level function or method: the unit the call graph links.

    The walk fills the raw fields; linking turns ``events`` into
    ``calls``, ``writes`` and ``allocations``.  Nested defs, lambdas
    and classes fold into their enclosing unit.
    """

    qualname: str                  # "pkg.mod:Class.m" or "pkg.mod:f"
    module: str
    name: str
    cls: Optional[ClassInfo]       # the enclosing class of a method
    lineno: int
    node: Optional[ast.AST] = field(default=None, repr=False)
    # raw walk facts: calls and store targets in source order
    events: List[ast.AST] = field(default_factory=list, repr=False)
    globals: Set[str] = field(default_factory=set, repr=False)
    # names a nested def declares ``nonlocal``: locals of an enclosing
    # def of this unit, so rebinding one writes no global state
    nonlocals: Set[str] = field(default_factory=set, repr=False)
    fresh: List[Tuple[str, ast.AST]] = field(default_factory=list,
                                             repr=False)
    # unsanctioned entropy seeds in this unit: (line, sink)
    entropy_sites: List[Tuple[int, str]] = field(default_factory=list)
    # linked facts (repro.analysis.program's MutationSite, AllocSite
    # and CallSite records)
    writes: List[Any] = field(default_factory=list)
    named_calls: List[Any] = field(default_factory=list)
    allocations: List[Any] = field(default_factory=list)
    calls: List[Any] = field(default_factory=list)


@dataclass
class ModuleInfo:
    name: str                      # "repro.sim.engine"
    path: str                      # repo-relative posix path
    is_package: bool
    tree: Optional[ast.Module]
    lines: List[str]
    pragmas: Dict[int, Optional[Set[str]]] = field(default_factory=dict)
    skip: bool = False             # carries a skip-file pragma
    aliases: Dict[str, str] = field(default_factory=dict)
    imports: Dict[str, int] = field(default_factory=dict)  # mod -> line
    import_stmts: List[ast.stmt] = field(default_factory=list, repr=False)
    functions: Dict[str, str] = field(default_factory=dict)  # f -> qual
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    class_defs: List[ClassInfo] = field(default_factory=list)  # every one
    units: List[FunctionInfo] = field(default_factory=list)
    findings: List[Violation] = field(default_factory=list)

    def violation(self, rule_id: str, line: int, col: int, message: str,
                  **fix) -> Violation:
        src = self.lines[line - 1] if 1 <= line <= len(self.lines) else ""
        return Violation(rule=rule_by_id(rule_id), path=self.path,
                         line=line, col=col, message=message,
                         source_line=src, **fix)


def parse_module(source: str, path: str, name: str,
                 is_package: bool = False) -> ModuleInfo:
    """Parse ``source`` once and walk it once into a :class:`ModuleInfo`."""
    lines = source.splitlines()
    mod = ModuleInfo(name=name, path=path, is_package=is_package,
                     tree=None, lines=lines, pragmas=_pragma_map(lines),
                     skip=any(_SKIP_FILE_RE.search(line)
                              for line in lines[:10]))
    try:
        mod.tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        mod.findings.append(mod.violation(
            "SIM000", exc.lineno or 1, exc.offset or 0,
            f"syntax error: {exc.msg}"))
        return mod
    _Walker(mod).run()
    return mod


def resolve_relative(module: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute module path of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.name.split(".")
    if not module.is_package:
        parts = parts[:-1]
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts)


def dotted_name(node: ast.AST,
                aliases: Optional[Dict[str, str]] = None) -> Optional[str]:
    """'ev', 'self._go', 'state.done' for a Name/Attribute chain; with a
    module's import ``aliases``, the dotted path it resolves to."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id) if aliases else node.id)
    return ".".join(reversed(parts))


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _class_info(node: ast.ClassDef, module: str) -> ClassInfo:
    bases: List[str] = []
    for b in node.bases:
        dotted = dotted_name(b)           # Generic[T] and calls: skipped
        if dotted is not None:
            bases.append(dotted)
    is_dc = dc_slots = False
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (target.id if isinstance(target, ast.Name)
                else getattr(target, "attr", ""))
        if name == "dataclass":
            is_dc = True
            if isinstance(dec, ast.Call):
                dc_slots = dc_slots or any(
                    kw.arg == "slots" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True for kw in dec.keywords)
    slots_body = any(
        isinstance(s, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in s.targets)
        for s in node.body)
    info = ClassInfo(name=node.name, module=module, lineno=node.lineno,
                     col=node.col_offset, bases=bases, is_dataclass=is_dc,
                     has_slots=slots_body or (is_dc and dc_slots))
    for stmt in node.body:
        if isinstance(stmt, _FUNCTION_DEFS):
            info.methods[stmt.name] = f"{module}:{node.name}.{stmt.name}"
    return info


def _container_kind(value: Optional[ast.AST],
                    ann: Optional[ast.AST]) -> Optional[str]:
    """Classify an assignment as creating a set or a dict."""
    if ann is not None:
        low = ast.unparse(ann).lower()
        if low.startswith("set") or "set[" in low:
            return "set"
        if low.startswith("dict") or "dict[" in low or \
                low.startswith('"dict') or low.startswith("'dict"):
            return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id == "set":
            return "set"
        if value.func.id in ("dict", "OrderedDict", "defaultdict",
                             "Counter"):
            return "dict"
    return None


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------

class _Frame:
    """A def or class body, for the rules that ask "in a process?"."""

    __slots__ = ("is_function", "generator", "process", "yields", "comps")

    def __init__(self, is_function: bool):
        self.is_function = is_function
        self.generator = False
        self.process = False
        self.yields: List[ast.Yield] = []     # raw-value yields (SIM004)
        self.comps: List[ast.AST] = []        # unlaundered comps (SIM002)


class _Walker(ast.NodeVisitor):
    """The one walk over a module: symbol table, unit facts, findings.

    Checks that need the whole module first (alias resolution, the
    names the module assigns) are queued as candidates and settled in
    :meth:`_finish` once the walk is done.
    """

    def __init__(self, mod: ModuleInfo):
        self.mod = mod
        norm = mod.path.replace("\\", "/")
        # sim/ owns TimeSeries and may touch .samples directly (SIM011)
        self.in_sim_layer = "/sim/" in norm or norm.startswith("sim/")
        # bench/runner.py is the one sanctioned process-pool site (SIM013)
        self.pool_owner = norm.endswith(MP_ALLOWED_SUFFIX)
        self.frames: List[_Frame] = []
        self.fn_depth = 0
        self.unit: Optional[FunctionInfo] = None
        self.unit_cls: Dict[ast.AST, Optional[ClassInfo]] = {}  # def -> class
        # yields and scheduling calls seen so far, outside nested defs
        self.sched = 0
        # comprehensions consumed by an order-insensitive callable
        # (sorted(x for x in s), len(...), ...): exempt from SIM002
        self.laundered: Set[ast.AST] = set()
        self.calls: List[Tuple[ast.Call, Optional[FunctionInfo]]] = []
        self.iters: List[Tuple[ast.AST, bool]] = []     # SIM002
        self.private_writes: List[ast.Attribute] = []    # SIM007
        self.series: List[Tuple[ast.Attribute, str]] = []  # SIM011
        self.set_attrs: Set[str] = set()
        self.dict_attrs: Set[str] = set()
        self.own_private: Set[str] = set()   # private attrs it assigns
        self.own_attrs: Set[str] = set()     # every name it assigns

    def run(self) -> None:
        self.visit(self.mod.tree)
        self._finish()

    def report(self, rule_id: str, node: ast.AST, message: str,
               **fix) -> None:
        self.mod.findings.append(self.mod.violation(
            rule_id, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), message, **fix))

    def generic_visit(self, node: ast.AST) -> None:
        if self.fn_depth and isinstance(node, _BLOCK_NODES):
            self._check_double_trigger(node)
        super().generic_visit(node)

    # -- scopes --------------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        mod = self.mod
        for stmt in node.body:
            if isinstance(stmt, _FUNCTION_DEFS):
                mod.functions[stmt.name] = f"{mod.name}:{stmt.name}"
                self.unit_cls[stmt] = None
            elif isinstance(stmt, ast.ClassDef):
                info = _class_info(stmt, mod.name)
                mod.classes[stmt.name] = info
                for body_stmt in stmt.body:
                    if isinstance(body_stmt, _FUNCTION_DEFS):
                        self.unit_cls[body_stmt] = info
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = self.mod.classes.get(node.name)
        if info is None or info.lineno != node.lineno:
            info = _class_info(node, self.mod.name)
        self.mod.class_defs.append(info)
        self._visit_scope(node, _Frame(is_function=False))

    def _visit_def(self, node) -> None:
        outer = self.unit
        if node in self.unit_cls:
            cls = self.unit_cls[node]
            mod = self.mod
            self.unit = FunctionInfo(
                qualname=(f"{mod.name}:{cls.name}.{node.name}"
                          if cls is not None else f"{mod.name}:{node.name}"),
                module=mod.name, name=node.name, cls=cls,
                lineno=node.lineno, node=node)
            mod.units.append(self.unit)
        frame = _Frame(is_function=True)
        self.fn_depth += 1
        self._visit_scope(node, frame)
        self.fn_depth -= 1
        self.unit = outer
        if frame.process:
            for y in frame.yields:
                what = ("nothing" if y.value is None
                        else ast.unparse(y.value))
                self.report(
                    "SIM004", y,
                    f"simulation process yields {what}; processes must "
                    f"yield Event objects (sim.timeout(...), ev, ...)")
        if frame.generator:
            self.iters.extend((comp_iter, True) for comp_iter in frame.comps)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def _visit_scope(self, node: ast.AST, frame: Optional[_Frame]) -> None:
        """Visit a def/class/lambda; its yields do not count for the
        enclosing loop body (SIM002)."""
        sched = self.sched
        if frame is not None:
            self.frames.append(frame)
        self.generic_visit(node)
        if frame is not None:
            self.frames.pop()
        self.sched = sched

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node, None)

    def visit_Global(self, node: ast.Global) -> None:
        if self.unit is not None:
            self.unit.globals.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        if self.unit is not None:
            self.unit.nonlocals.update(node.names)

    # -- imports (aliases, edges later; SIM013) -----------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.mod.import_stmts.append(node)
        for alias in node.names:
            self.mod.aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name
            if alias.name.split(".")[0] in MP_MODULE_ROOTS:
                self._report_mp(node, f"import {alias.name}")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.mod.import_stmts.append(node)
        base = resolve_relative(self.mod, node)
        if base:
            for alias in node.names:
                self.mod.aliases[alias.asname or alias.name] = \
                    f"{base}.{alias.name}"
        module = node.module or ""
        root = module.split(".")[0]
        if root in MP_MODULE_ROOTS:
            self._report_mp(node, f"from {module} import ...")
        elif root == "concurrent":
            pools = [a.name for a in node.names
                     if a.name in MP_POOL_NAMES or a.name == "*"]
            if pools:
                self._report_mp(
                    node, f"from {module} import {', '.join(pools)}")

    def _report_mp(self, node: ast.AST, what: str) -> None:
        if self.pool_owner:
            return
        self.report(
            "SIM013", node,
            f"{what}: process-level parallelism is allowed only in "
            f"repro/bench/runner.py (the experiment orchestrator); "
            f"simulation code must stay single-threaded deterministic")

    # -- stores --------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            if isinstance(t, ast.Attribute) and t.attr == "now" and \
                    _float_taint(node.value) is not None:
                self.report("SIM003", node,
                            "assigning a float to the simulation clock; "
                            "sim.now is integer nanoseconds")
            self._note_private_write(t)
            self._note_series_rebind(t)
        self._note_assign(node.targets, node.value, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_assign([node.target], node.value, node.annotation)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        t = node.target
        if isinstance(t, ast.Attribute) and t.attr == "now" and \
                _float_taint(node.value) is not None:
            self.report("SIM003", node,
                        "float arithmetic on the simulation clock; "
                        "sim.now is integer nanoseconds")
        self._note_private_write(t)
        self._note_series_rebind(t)
        if self.unit is not None:
            self.unit.events.append(t)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for t in node.targets:
            self._note_private_write(t)
        if self.unit is not None:
            self.unit.events.extend(node.targets)
        self.generic_visit(node)

    def _note_assign(self, targets: List[ast.AST],
                     value: Optional[ast.AST],
                     ann: Optional[ast.AST]) -> None:
        """Module-wide assigned names, container kinds and unit stores."""
        kind = _container_kind(value, ann)
        for t in targets:
            if isinstance(t, ast.Attribute) and _is_self(t.value):
                name = t.attr
                if name.startswith("_") and not name.startswith("__"):
                    self.own_private.add(name)
            elif isinstance(t, ast.Name):
                name = t.id
            else:
                continue
            self.own_attrs.add(name)
            if kind == "set":
                self.set_attrs.add(name)
            elif kind == "dict":
                self.dict_attrs.add(name)
        unit = self.unit
        if unit is not None:
            unit.events.extend(targets)
            if value is not None:
                unit.fresh.extend((t.id, value) for t in targets
                                  if isinstance(t, ast.Name))

    def _note_private_write(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and \
                target.attr.startswith("_") and \
                not target.attr.startswith("__") and \
                not _is_self(target.value):
            self.private_writes.append(target)

    def _note_series_rebind(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and \
                target.attr in SERIES_ATTRS:
            self._note_series(target, " assignment")

    def _note_series(self, attr_node: ast.Attribute, how: str) -> None:
        if not self.in_sim_layer and not _is_self(attr_node.value):
            self.series.append((attr_node, how))

    # -- expressions ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ORDER_SAFE_WRAPPERS:
                for arg in node.args:
                    if isinstance(arg, (ast.ListComp, ast.SetComp,
                                        ast.GeneratorExp)):
                        self.laundered.add(arg)
            if func.id in ("heappush", "heapify"):
                self.sched += 1
        elif isinstance(func, ast.Attribute):
            if func.attr in SCHEDULING_ATTRS:
                self.sched += 1
            if func.attr in SERIES_MUTATORS and \
                    isinstance(func.value, ast.Attribute) and \
                    func.value.attr in SERIES_ATTRS:
                self._note_series(func.value, f".{func.attr}()")
            if func.attr == "gauge":
                self._check_gauge_name(node)
        self.calls.append((node, self.unit))
        if self.unit is not None:
            self.unit.events.append(node)
        self.generic_visit(node)

    def _check_gauge_name(self, node: ast.Call) -> None:
        if not node.args:
            return
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)):
            return     # dynamic names: the producer's responsibility
        if GAUGE_NAME_RE.match(arg.value):
            return
        self.report(
            "SIM012", arg,
            f"gauge name {arg.value!r} is outside the documented scheme "
            f"<subsystem>.<object>.<metric> (lowercase dotted, two or "
            f"more components; see docs/observability.md)")

    def visit_For(self, node: ast.For) -> None:
        if self.fn_depth:
            self._check_double_trigger(node)
        self.visit(node.target)
        self.visit(node.iter)
        before = self.sched
        for stmt in node.body:
            self.visit(stmt)
        if self.sched > before:
            self.iters.append((node.iter, False))
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_comp(self, node: ast.AST) -> None:
        frame = self.frames[-1] if self.frames else None
        if frame is not None and frame.is_function and \
                node not in self.laundered:
            frame.comps.extend(gen.iter for gen in node.generators)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_GeneratorExp = _visit_comp

    def visit_Yield(self, node) -> None:
        """``yield`` and ``yield from`` make a generator; yielding an
        event factory's result makes it a process (SIM004)."""
        self.sched += 1
        frame = self.frames[-1] if self.frames else None
        if frame is not None and frame.is_function:
            frame.generator = True
            value = node.value
            if isinstance(node, ast.Yield) and isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) and \
                    value.func.attr in EVENT_FACTORY_ATTRS:
                frame.process = True
            if isinstance(node, ast.Yield) and (value is None or isinstance(
                    value, (ast.Constant, ast.BinOp, ast.Compare,
                            ast.List, ast.Tuple, ast.Dict, ast.Set,
                            ast.JoinedStr))):
                frame.yields.append(node)
        self.generic_visit(node)

    visit_YieldFrom = visit_Yield

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _catches_interrupt(node.type) and _body_is_empty(node.body):
            self.report(
                "SIM006", node,
                "except Interrupt with an empty body swallows the "
                "interrupt cause; re-raise, return, or handle it")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_id_call(node.slice):
            self.report(
                "SIM010", node.slice,
                "id() used as a container key; memory addresses differ "
                "across runs — use a deterministic identifier")
        self.generic_visit(node)

    # -- SIM005: double trigger ---------------------------------------------

    def _check_double_trigger(self, node: ast.AST) -> None:
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if not block or not isinstance(block, list):
                continue
            seen: Set[str] = set()
            for stmt in block:
                if isinstance(stmt, _BRANCHES):
                    seen.clear()
                    continue
                call = _trigger_call(stmt)
                if call is None:
                    continue
                target, call_node = call
                if target in seen:
                    self.report(
                        "SIM005", call_node,
                        f"{target}.succeed()/fail() already called on "
                        f"this path; events are one-shot")
                else:
                    seen.add(target)

    # -- settled once the module is known -----------------------------------

    def _finish(self) -> None:
        mod = self.mod
        for call, unit in self.calls:
            full = dotted_name(call.func, mod.aliases)
            if full is None:
                continue
            if is_entropy_call(full) and \
                    not suppressed(mod.pragmas, call.lineno,
                                   _ENTROPY_RULES):
                if unit is not None:
                    unit.entropy_sites.append((call.lineno, full))
                self.report(
                    "SIM001", call,
                    f"call to {full}() reads wall-clock time or OS "
                    f"entropy; use sim.now / a seeded random.Random "
                    f"instead")
            self._check_unseeded_rng(call, full)
            self._check_clock_sink(call, full)
            self._check_id_ordering_call(call, full)
            root = full.split(".")[0]
            if root in MP_MODULE_ROOTS or (
                    root == "concurrent"
                    and full.rsplit(".", 1)[-1] in MP_POOL_NAMES):
                self._report_mp(call, f"call to {full}()")
        for it, sets_only in self.iters:
            kind = self._iterable_kind(it, sets_only)
            if kind is None:
                continue
            self.report(
                "SIM002", it,
                (f"comprehension over a {kind} inside a simulation "
                 f"process; the result order feeds event scheduling — "
                 f"wrap the iterable in sorted()") if sets_only else
                (f"iterating a {kind} while the loop body schedules "
                 f"events; wrap the iterable in sorted() to pin the "
                 f"order"),
                **_sorted_fix(it))
        for target in self.private_writes:
            # friend access: some class in this module owns the attribute
            if target.attr in self.own_private:
                continue
            expr = dotted_name(target) or f"?.{target.attr}"
            self.report(
                "SIM007", target,
                f"mutating private state {expr} across a layer boundary; "
                f"add a public method on the owning class")
        for attr_node, how in self.series:
            # friend: this module declares its own samples/points field
            if attr_node.attr in self.own_attrs:
                continue
            expr = dotted_name(attr_node) or f"?.{attr_node.attr}"
            self.report(
                "SIM011", attr_node,
                f"direct {expr}{how} bypasses TimeSeries.record() and can "
                f"break the sorted-samples invariant windowed SLO "
                f"reducers rely on; use record()")

    def _check_unseeded_rng(self, node: ast.Call, full: str) -> None:
        if full == "random.SystemRandom":
            self.report("SIM009", node,
                        "random.SystemRandom draws OS entropy and cannot "
                        "be seeded; use random.Random(seed)")
        elif full in ("random.Random", "numpy.random.default_rng",
                      "numpy.random.SeedSequence") and \
                not node.args and not node.keywords:
            self.report(
                "SIM009", node,
                f"{full}() constructed without a seed draws OS "
                f"entropy; thread a seed from the experiment config")

    def _check_clock_sink(self, node: ast.Call, full: str) -> None:
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in CLOCK_SINK_ATTRS:
            label = node.func.attr
            arg_idx = CLOCK_SINK_ATTRS[label]
        else:
            label = full.rsplit(".", 1)[-1]
            if label not in CLOCK_SINK_NAMES:
                return
            arg_idx = CLOCK_SINK_NAMES[label]
        if len(node.args) <= arg_idx:
            return
        arg = node.args[arg_idx]
        taint = _float_taint(arg)
        if taint is None:
            return
        fix = {}
        if isinstance(taint, ast.Constant) and \
                getattr(taint, "end_lineno", None) == taint.lineno:
            fix = {"fix_span": (taint.lineno, taint.col_offset,
                                taint.end_lineno, taint.end_col_offset),
                   "fix_text": f"int({ast.unparse(taint)})"}
        self.report(
            "SIM003", arg,
            f"{label}() receives a float ({ast.unparse(arg)}); "
            f"the clock is integer nanoseconds — wrap in int()", **fix)

    def _check_id_ordering_call(self, node: ast.Call, full: str) -> None:
        tail = full.rsplit(".", 1)[-1]
        # d.get(id(x)) / d.pop(id(x)) / d.setdefault(id(x), ...)
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("get", "pop", "setdefault") and \
                node.args and _is_id_call(node.args[0]):
            self.report(
                "SIM010", node.args[0],
                "id() used as a container key; memory addresses differ "
                "across runs — use a deterministic identifier")
            return
        if tail in ("sorted", "min", "max"):
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if isinstance(kw.value, ast.Name) and kw.value.id == "id":
                    self.report("SIM010", kw.value,
                                "sorting by id() orders by memory address")
                elif isinstance(kw.value, ast.Lambda) and any(
                        _is_id_call(n) for n in ast.walk(kw.value.body)):
                    self.report("SIM010", kw.value,
                                "sort key uses id(); memory addresses "
                                "differ across runs")
        if tail == "heappush":
            for arg in node.args:
                for n in ast.walk(arg):
                    if _is_id_call(n):
                        self.report(
                            "SIM010", n,
                            "id() inside a heap entry makes the heap "
                            "order address dependent")

    def _iterable_kind(self, it: ast.AST,
                       sets_only: bool) -> Optional[str]:
        """'set' / 'dict view' / 'dict' if ``it`` iterates in hash or
        insertion order."""
        if isinstance(it, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(it, ast.Call):     # sorted(...), set(...): pinned
            if isinstance(it.func, ast.Attribute) and \
                    it.func.attr in DICT_VIEW_ATTRS and not sets_only:
                return "dict view"
            return None
        if isinstance(it, ast.Attribute):
            name = it.attr
        elif isinstance(it, ast.Name):
            name = it.id
        else:
            return None
        if name in self.set_attrs:
            return "set"
        if name in self.dict_attrs and not sets_only:
            return "dict"
        return None


def _sorted_fix(iter_node: ast.AST) -> dict:
    if getattr(iter_node, "end_lineno", None) != iter_node.lineno:
        return {}
    return {
        "fix_span": (iter_node.lineno, iter_node.col_offset,
                     iter_node.end_lineno, iter_node.end_col_offset),
        "fix_text": f"sorted({ast.unparse(iter_node)})",
    }


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id")


def _trigger_call(stmt: ast.stmt) -> Optional[Tuple[str, ast.AST]]:
    if not isinstance(stmt, ast.Expr) or \
            not isinstance(stmt.value, ast.Call):
        return None
    call = stmt.value
    if not isinstance(call.func, ast.Attribute) or \
            call.func.attr not in ("succeed", "fail"):
        return None
    target = dotted_name(call.func.value)
    if target is None:
        return None
    return target, call


def _catches_interrupt(type_node: Optional[ast.AST]) -> bool:
    if type_node is None:
        return False
    candidates = (type_node.elts if isinstance(type_node, ast.Tuple)
                  else [type_node])
    return any((c.id if isinstance(c, ast.Name)
                else getattr(c, "attr", "")) == "Interrupt"
               for c in candidates)


def _body_is_empty(body: Sequence[ast.stmt]) -> bool:
    return all(isinstance(stmt, ast.Pass) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body)


def _float_taint(node: ast.AST) -> Optional[ast.AST]:
    """The sub-expression that makes ``node`` float-valued, or None.

    Any call ends the taint: int()/round() cast, and other callees are
    assumed to keep the integer contract.  ``//`` is integer division
    and safe; ``/`` is always float in Python 3.
    """
    if isinstance(node, ast.Constant):
        return node if isinstance(node.value, float) else None
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return node
        return _float_taint(node.left) or _float_taint(node.right)
    if isinstance(node, ast.UnaryOp):
        return _float_taint(node.operand)
    if isinstance(node, ast.IfExp):
        return _float_taint(node.body) or _float_taint(node.orelse)
    return None


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

def _pragma_map(source_lines: List[str]) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed rule ids (None = all rules).

    A comment-only pragma line covers the next line too.  Stacked
    comment pragmas cascade — each comment line's accumulated set
    (its own rules plus anything carried from comment pragmas above)
    flows onto the following line — and an own-line pragma under a
    comment pragma *merges* with the carried set instead of
    overwriting it.  None ("all rules") absorbs any set it meets.
    """
    out: Dict[int, Optional[Set[str]]] = {}
    carry: object = _NO_PRAGMA
    for i, line in enumerate(source_lines, start=1):
        m = _PRAGMA_RE.search(line)
        if m is None and carry is _NO_PRAGMA:
            continue
        eff = carry
        if m is not None:
            own = None if m.group(1) is None else {
                p.strip() for p in m.group(1).split(",") if p.strip()}
            eff = own if carry is _NO_PRAGMA else (
                None if own is None or carry is None else own | carry)
        out[i] = eff
        # a comment-only pragma line forwards its accumulated set
        carry = eff if m is not None and line.strip().startswith("#") \
            else _NO_PRAGMA
    return out


def suppressed(pragmas: Dict[int, Optional[Set[str]]], line: int,
               rule_ids: Iterable[str]) -> bool:
    """Does the pragma covering ``line`` name any of ``rule_ids``?"""
    if line not in pragmas:
        return False
    ids = pragmas[line]
    return ids is None or not ids.isdisjoint(rule_ids)


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for p in paths:
        path = Path(p)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def load_baseline(path: str) -> Dict[str, str]:
    """fingerprint -> justification (free text)."""
    p = Path(path)
    if not p.exists():
        return {}
    data = json.loads(p.read_text(encoding="utf-8"))
    entries = data.get("violations", data) if isinstance(data, dict) else {}
    out: Dict[str, str] = {}
    for fp, meta in entries.items():
        out[fp] = meta.get("justification", "") \
            if isinstance(meta, dict) else str(meta)
    return out


def write_baseline(path: str, violations: Sequence[Violation],
                   justification: str = "grandfathered") -> None:
    entries = {}
    for v in violations:
        entries[v.fingerprint] = {
            "rule": v.rule.id,
            "path": v.path,
            "line": v.line,
            "summary": v.message,
            "justification": justification,
        }
    payload = {
        "comment": "simlint baseline: existing violations grandfathered "
                   "for incremental burn-down.  Do not add entries by "
                   "hand without a justification.",
        "violations": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def apply_baseline(result: LintResult,
                   baseline: Dict[str, str]) -> LintResult:
    kept, skipped = [], 0
    for v in result.violations:
        if v.fingerprint in baseline:
            skipped += 1
        else:
            kept.append(v)
    return LintResult(violations=kept,
                      files_checked=result.files_checked,
                      baselined=result.baselined + skipped,
                      program=result.program)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_human(result: LintResult) -> str:
    lines = []
    for v in result.violations:
        lines.append(f"{v.path}:{v.line}:{v.col + 1}: "
                     f"{v.rule.id} {v.rule.severity}: {v.message}")
        if v.source_line.strip():
            lines.append(f"    {v.source_line.strip()}")
    n_err = len(result.errors)
    n_warn = len(result.violations) - n_err
    lines.append(
        f"simlint: {result.files_checked} files, {n_err} errors, "
        f"{n_warn} warnings"
        + (f", {result.baselined} baselined" if result.baselined else ""))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps({
        "files_checked": result.files_checked,
        "baselined": result.baselined,
        "violations": [v.to_dict() for v in result.violations],
    }, indent=2)
