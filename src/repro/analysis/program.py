"""The program model: link, propagate, query — and the simlint entry point.

:mod:`repro.analysis.linter` parses and walks each file once into a
:class:`~repro.analysis.linter.ModuleInfo`.  This module links those
modules into a :class:`Program` and answers every rule as a query
over the result:

1. a **module import graph** (checked against the architecture DAG in
   :mod:`repro.analysis.architecture` — rule SIM015, including cycle
   detection);
2. a **conservative call graph** with per-function facts — entropy
   seeds, mutation sites, allocations — **fixpoint-propagated**
   interprocedurally (rules SIM016, SIM017, SIM018, SIM019);
3. the per-module queries that need linked facts: missing slots on
   hot-path classes (SIM008) and direct writes in pure-observer
   modules (SIM014, SIM019).

A linted file outside the package is linked alone, so its per-module
queries still see its own classes; the graph rules run only over the
package, and only when the linted paths cover its root.

Call edges come in two kinds.  *Direct* edges are precisely resolved:
module-level calls, imported names (through ``__init__`` re-export
chains), ``self.method()`` through the class and its repo bases, and
``super().__init__``.  *Dynamic* edges resolve an attribute call by
method name against every repo class that defines it — deliberately
over-approximate.  Entropy taint (SIM016) and hot-path reachability
(SIM018) follow direct edges plus dynamic edges with a *unique*
candidate; purity facts (SIM017/SIM019) follow every edge, because an
observer must not call anything that *might* mutate the run it is
judging.

Known conservatisms (documented in docs/static_analysis.md): first-
class function values and callbacks are not followed; a local name
rebound from simulation state (``qp = machine.qps[0]``) roots as
unknown non-local state; builtin container mutators (``.append`` &c.)
are assumed to mutate their receiver even if a repo class defines a
pure method of the same name.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .architecture import Layer, Manifest, default_manifest
from .linter import (
    ClassInfo,
    FunctionInfo,
    LintResult,
    ModuleInfo,
    Violation,
    iter_python_files,
    parse_module,
    dotted_name,
    resolve_relative,
    suppressed,
)
from .rules import RULES

__all__ = [
    "Program",
    "ProgramResult",
    "build_program",
    "analyze_program",
    "lint_source",
    "lint_paths",
    "lint_program",
    "export_dot",
    "export_json",
]

# Builtin container methods that mutate their receiver: Python
# semantics, not repo guesswork.
BUILTIN_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "setdefault", "add", "discard", "popitem",
    "appendleft", "popleft",
}

# SIM014's name list: repo methods an oracle may not call on simulation
# state even when no repo definition is in view (a one-file lint).
# With the package linked, SIM017 infers the same from the callee.
ORACLE_MUTATORS = {
    # event/engine/process mutators
    "succeed", "fail", "interrupt", "schedule", "run", "run_process",
    "process", "spawn", "timeout",
    # device/queue/kernel mutators
    "submit", "abort", "reap", "post_completion", "pop_completion",
    "write_blocks", "zero_blocks", "flush",
    # telemetry / fault / fs mutators
    "record", "observe", "inc", "set", "log", "commit",
    "drop_running", "record_crash", "sample", "arm", "disarm",
    "recover_after_crash", "put", "acquire", "release",
}

# Method names shared with builtin dict/list/str *read* APIs: never
# resolved by name — ``d.get(k)`` on a plain dict would otherwise
# alias every repo class that defines a method called ``get``
# (sim.resources.Store.get schedules events) and poison the purity of
# everything that reads a dict.  Precisely-resolved calls to such
# methods (self.get(), an imported symbol) still form direct edges.
DYNAMIC_NAME_SKIP = {
    "get", "keys", "values", "items", "copy", "count", "index",
    "split", "join", "strip", "startswith", "endswith", "format",
    "encode", "decode", "hex", "bit_length",
}

# Constructors of fresh containers: mutating their result is scratch.
FRESH_BUILTINS = {
    "list", "dict", "set", "tuple", "frozenset", "sorted", "reversed",
    "Counter", "defaultdict", "OrderedDict", "deque", "bytearray",
}

# SIM008: base classes whose subclasses are allocated per event.
HOT_BASE_CLASSES = {"Event", "Timeout", "Process", "Condition"}

# Base-class names that exempt a class from the slots requirement.
SLOTS_EXEMPT_BASES = {
    "Enum", "IntEnum", "IntFlag", "Flag", "StrEnum",
    "Exception", "BaseException", "ValueError", "KeyError",
    "TypeError", "RuntimeError", "OSError", "AttributeError",
    "NamedTuple", "Protocol", "ABC", "Generic",
}

# Rules that need the linked package (run when the paths cover it).
GRAPH_RULES = frozenset(r.id for r in RULES if "whole-program" in r.tags)

# Pure-observer scopes: (manifest field, rule for a direct write or a
# name-list call, rule for a call inferred impure, noun, remedy).  One
# query serves both.  Attribution code keeps its window lists in local
# aliases of scratch (``window = out.setdefault(...)``), which root as
# non-local, so only its calls are judged.
_PURITY_SCOPES = (
    ("oracle_modules", "SIM014", "SIM017", "oracle",
     "oracles must be pure observers — read attributes and return "
     "Violations, or move the mutation into the executor"),
    ("attribution_modules", None, "SIM019", "attribution observer",
     "latency attribution must never mutate simulation state — fold "
     "recorded spans into fresh local structures and return them"),
)

_MAX_DYNAMIC_CANDIDATES = 25
_MAX_REEXPORT_DEPTH = 8

# Roots for receiver/argument classification.
SELF, SCRATCH, PARAM, OTHER, FRESH = \
    "self", "scratch", "param", "other", "fresh"

_EMPTY_LAYER = Layer("", ())


# ---------------------------------------------------------------------------
# Graph data model
# ---------------------------------------------------------------------------

@dataclass
class CallSite:
    """One resolved call edge out of a function."""

    line: int
    callee: str                    # function qualname "pkg.mod:Class.m"
    kind: str                      # "direct" | "dynamic"
    unique: bool = True            # dynamic edge with a single candidate
    receiver_root: Optional[str] = None   # SELF/SCRATCH/PARAM/OTHER/None
    arg_roots: Tuple[str, ...] = ()


@dataclass
class AllocSite:
    line: int
    cls: str                       # class dotted path "pkg.mod.Class"


@dataclass
class MutationSite:
    line: int
    col: int
    kind: str                      # "self" | "args" | "global"
    desc: str                      # human description of the mutation


@dataclass
class Program:
    """The linked package: modules, classes, functions, edges."""

    package: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    parse_failures: List[str] = field(default_factory=list)

    # -- symbol resolution --------------------------------------------------

    def module_of(self, dotted: str) -> Optional[str]:
        """Longest module-name prefix of ``dotted``."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            cand = ".".join(parts[:i])
            if cand in self.modules:
                return cand
        return None

    def resolve_symbol(self, dotted: str,
                       _depth: int = 0) -> Optional[Tuple[str, str]]:
        """What does this dotted path denote?

        Returns ("module", name) / ("func", qualname) /
        ("class", class-dotted) or None, chasing one re-export hop at
        a time through package ``__init__`` alias tables.
        """
        if _depth > _MAX_REEXPORT_DEPTH:
            return None
        if dotted in self.modules:
            return ("module", dotted)
        mod_name = self.module_of(dotted)
        if mod_name is None:
            return None
        mod = self.modules[mod_name]
        attrs = dotted[len(mod_name) + 1:].split(".")
        head = attrs[0]
        if head in mod.functions and len(attrs) == 1:
            return ("func", mod.functions[head])
        if head in mod.classes:
            cls = mod.classes[head]
            if len(attrs) == 1:
                return ("class", cls.dotted)
            if len(attrs) == 2:
                meth = self.resolve_method(cls, attrs[1])
                if meth is not None:
                    return ("func", meth)
            return None
        if head in mod.aliases:
            target = mod.aliases[head]
            rest = attrs[1:]
            full = target + ("." + ".".join(rest) if rest else "")
            return self.resolve_symbol(full, _depth + 1)
        return None

    def resolve_method(self, cls: ClassInfo, name: str,
                       _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Find ``name`` on ``cls`` or its repo base classes."""
        seen = _seen or set()
        if cls.dotted in seen:
            return None
        seen.add(cls.dotted)
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_cls = self.lookup_class(base, cls.module)
            if base_cls is not None:
                found = self.resolve_method(base_cls, name, seen)
                if found is not None:
                    return found
        return None

    def lookup_class(self, ref: str,
                     from_module: str) -> Optional[ClassInfo]:
        """Resolve a base-class reference from inside ``from_module``."""
        mod = self.modules.get(from_module)
        if mod is not None and ref in mod.classes:
            return mod.classes[ref]
        if mod is not None and ref in mod.aliases:
            ref = mod.aliases[ref]
        resolved = self.resolve_symbol(ref)
        if resolved is not None and resolved[0] == "class":
            return self.classes.get(resolved[1])
        return self.classes.get(ref)

    def class_is_slots_exempt(self, cls: ClassInfo,
                              _seen: Optional[Set[str]] = None) -> bool:
        """Exception/Enum/Protocol subclasses don't need __slots__."""
        seen = _seen or set()
        if cls.dotted in seen:
            return False
        seen.add(cls.dotted)
        for base in cls.bases:
            tail = base.rsplit(".", 1)[-1]
            if tail in SLOTS_EXEMPT_BASES:
                return True
            base_cls = self.lookup_class(base, cls.module)
            if base_cls is not None and \
                    self.class_is_slots_exempt(base_cls, seen):
                return True
        return False


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------

def _module_name(file: Path, root: Path, package: str) -> Tuple[str, bool]:
    rel = file.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join([package] + parts), is_package


def _loose_module_name(path: str, package: str) -> Tuple[str, bool]:
    """Module name for a file linted outside the package root.

    ``src/repro/chaos/oracles.py`` is ``repro.chaos.oracles``, so the
    manifest's scopes apply to a file linted on its own.
    """
    parts = [p for p in PurePosixPath(path).with_suffix("").parts
             if p not in ("/", "")]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    if package in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index(package):]
    return ".".join(parts), is_package


def _link(program: Program, modules: Iterable[ModuleInfo]) -> Program:
    """Import edges, class and method tables, then per-function facts."""
    for mod in modules:
        program.modules[mod.name] = mod
        if mod.tree is None:
            program.parse_failures.append(mod.name)
    pkg = program.package
    for mod in program.modules.values():
        for node in mod.import_stmts:
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == pkg:
                        # ancestors are imported implicitly by the
                        # runtime; only the named module is an edge
                        mod.imports.setdefault(a.name, node.lineno)
                continue
            base = resolve_relative(mod, node)
            if not base:
                continue
            uses_facade = False
            for a in node.names:
                target = f"{base}.{a.name}"
                if target in program.modules:
                    # ``from pkg import submodule``: the edge is to the
                    # submodule, not the package facade
                    mod.imports.setdefault(target, node.lineno)
                else:
                    uses_facade = True
            if uses_facade and base.split(".")[0] == pkg:
                mod.imports.setdefault(base, node.lineno)
        for info in mod.classes.values():
            program.classes[info.dotted] = info
    for info in program.classes.values():
        for meth_name, qual in info.methods.items():
            program.methods_by_name.setdefault(meth_name, []).append(qual)
    for mod in program.modules.values():
        for fn in mod.units:
            _FunctionLinker(program, mod, fn).run()
            program.functions[fn.qualname] = fn
    return program


def _param_names(node) -> Set[str]:
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    names.discard("self")
    names.discard("cls")
    return names


class _FunctionLinker:
    """Turns one unit's walk facts into call edges and mutation sites."""

    def __init__(self, program: Program, mod: ModuleInfo,
                 fn: FunctionInfo):
        self.program = program
        self.mod = mod
        self.cls = fn.cls
        self.fn = fn
        self.params = _param_names(fn.node)
        self.is_init = fn.name in ("__init__", "__post_init__", "__new__")
        self.scratch: Set[str] = set()
        for name, value in fn.fresh:
            if self._is_fresh_value(value):
                self.scratch.add(name)

    def run(self) -> None:
        for node in self.fn.events:
            if isinstance(node, ast.Call):
                self._visit_call(node)
            else:
                self._visit_store(node)

    # -- local classification ----------------------------------------------

    def _is_fresh_value(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                              ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp, ast.Constant,
                              ast.JoinedStr)):
            return True
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name) and \
                    value.func.id in FRESH_BUILTINS:
                return True
            resolved = self._resolve_call_target(value)
            if resolved is not None and resolved[0] == "class":
                return True     # a constructed object is fresh state
        return False

    def _root_of(self, node: ast.AST) -> str:
        """SELF/SCRATCH/PARAM/OTHER/FRESH for an expression's base."""
        while isinstance(node, (ast.Attribute, ast.Subscript,
                                ast.Starred)):
            node = node.value
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return SELF
            if node.id in self.fn.globals:
                return OTHER
            if node.id in self.scratch:
                return SCRATCH
            if node.id in self.params:
                return PARAM
            return OTHER
        return FRESH if self._is_fresh_value(node) else OTHER

    # -- mutation recording --------------------------------------------------

    def _mutation(self, root: str, node: ast.AST,
                  desc: str) -> Optional[MutationSite]:
        if root in (SCRATCH, FRESH):
            return None
        if root == SELF:
            if self.is_init:
                return None        # constructing a fresh object
            kind = "self"
        elif root == PARAM:
            kind = "args"
        else:
            kind = "global"
        return MutationSite(line=getattr(node, "lineno", 1),
                            col=getattr(node, "col_offset", 0),
                            kind=kind, desc=desc)

    def _record_mutation(self, root: str, node: ast.AST, desc: str) -> None:
        site = self._mutation(root, node, desc)
        if site is not None:
            self.fn.writes.append(site)

    # -- call resolution -----------------------------------------------------

    def _resolve_call_target(
            self, call: ast.Call) -> Optional[Tuple[str, str]]:
        """("func"|"class", qualname/dotted) for precisely resolvable
        callees — *not* dynamic by-name candidates."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.scratch:
                return None
            if name in self.mod.functions:
                return ("func", self.mod.functions[name])
            if name in self.mod.classes:
                return ("class", self.mod.classes[name].dotted)
            if name in self.mod.aliases:
                return self.program.resolve_symbol(self.mod.aliases[name])
            return None
        if isinstance(func, ast.Attribute):
            # super().__init__(...) and friends
            if isinstance(func.value, ast.Call) and \
                    isinstance(func.value.func, ast.Name) and \
                    func.value.func.id == "super" and self.cls is not None:
                for base in self.cls.bases:
                    base_cls = self.program.lookup_class(
                        base, self.mod.name)
                    if base_cls is not None:
                        meth = self.program.resolve_method(
                            base_cls, func.attr)
                        if meth is not None:
                            return ("func", meth)
                return None
            full = dotted_name(func, self.mod.aliases)
            if full is not None:
                resolved = self.program.resolve_symbol(full)
                if resolved is not None and resolved[0] != "module":
                    return resolved
            # self.method() through the class and its repo bases
            base_expr = func.value
            if isinstance(base_expr, ast.Name) and \
                    base_expr.id in ("self", "cls") and \
                    self.cls is not None:
                meth = self.program.resolve_method(self.cls, func.attr)
                if meth is not None:
                    return ("func", meth)
        return None

    def _arg_roots(self, call: ast.Call) -> Tuple[str, ...]:
        return tuple(self._root_of(arg) for arg in
                     list(call.args) + [kw.value for kw in call.keywords])

    def _visit_call(self, call: ast.Call) -> None:
        fn = self.fn
        line = call.lineno
        func = call.func
        if isinstance(func, ast.Attribute) and \
                func.attr in ORACLE_MUTATORS:
            site = self._mutation(
                self._root_of(func.value), call,
                f"calls .{func.attr}() on {ast.unparse(func.value)}")
            if site is not None and site.kind != "self":
                fn.named_calls.append(site)

        resolved = self._resolve_call_target(call)
        if resolved is not None:
            kind, target = resolved
            receiver = None
            if isinstance(func, ast.Attribute):
                receiver = self._root_of(func.value)
            if kind == "class":
                fn.allocations.append(AllocSite(line=line, cls=target))
                cls_info = self.program.classes.get(target)
                if cls_info is not None:
                    init = self.program.resolve_method(
                        cls_info, "__init__")
                    if init is not None:
                        fn.calls.append(CallSite(
                            line=line, callee=init, kind="direct",
                            receiver_root=FRESH,
                            arg_roots=self._arg_roots(call)))
            else:
                fn.calls.append(CallSite(
                    line=line, callee=target, kind="direct",
                    receiver_root=receiver,
                    arg_roots=self._arg_roots(call)))
            return

        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        receiver = self._root_of(func.value)
        if attr in BUILTIN_MUTATORS:
            # Python container semantics: assume receiver mutation.
            self._record_mutation(
                receiver, call,
                f"calls .{attr}() on {ast.unparse(func.value)}")
            return
        if attr in DYNAMIC_NAME_SKIP:
            return
        candidates = self.program.methods_by_name.get(attr, [])
        if not candidates or len(candidates) > _MAX_DYNAMIC_CANDIDATES:
            return
        unique = len(candidates) == 1
        for target in candidates:
            fn.calls.append(CallSite(
                line=line, callee=target, kind="dynamic", unique=unique,
                receiver_root=receiver,
                arg_roots=self._arg_roots(call)))

    def _visit_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._visit_store(elt)
        elif isinstance(target, ast.Attribute):
            self._record_mutation(self._root_of(target), target,
                                  f"assigns {ast.unparse(target)}")
        elif isinstance(target, ast.Subscript):
            self._record_mutation(self._root_of(target), target,
                                  f"writes {ast.unparse(target)}")
        elif isinstance(target, ast.Name) and \
                target.id in self.fn.globals and \
                target.id not in self.fn.nonlocals:
            self._record_mutation(OTHER, target,
                                  f"rebinds global {target.id}")


# ---------------------------------------------------------------------------
# Interprocedural fixpoint
# ---------------------------------------------------------------------------

@dataclass
class _Witness:
    """Why a propagated fact holds: a direct site or a call edge."""

    line: int
    desc: str
    via: Optional[str] = None     # callee qualname the fact came through
    via_kind: str = ""            # the callee's fact it came through


@dataclass
class ProgramResult:
    program: Program
    manifest: Manifest
    violations: List[Violation] = field(default_factory=list)
    # qualname -> fact kind ("entropy", "self", "args", "global") -> why
    facts: Dict[str, Dict[str, _Witness]] = field(default_factory=dict)
    hot: Dict[str, Optional[Tuple[str, int]]] = field(default_factory=dict)

    def report(self, rule_id: str, module: str, line: int, message: str,
               col: int = 0) -> None:
        self.violations.append(self.program.modules[module].violation(
            rule_id, line, col, message))


# how a callee's mutation lands on its caller, by the root of the
# receiver (a "self" fact) or of an argument (an "args" fact)
_LANDS = {SELF: "self", PARAM: "args", OTHER: "global"}


def _propagate(result: ProgramResult) -> None:
    """One fixpoint over every fact kind, seeded from the walk's entropy
    sites and the linked writes.  Entropy crosses precise edges only
    (direct or a unique dynamic candidate); mutations cross every edge,
    landing on the caller by the root of the receiver or argument."""
    facts = result.facts
    callers: Dict[str, List[Tuple[str, CallSite]]] = {}
    work: List[str] = []
    for fn in result.program.functions.values():
        for site in fn.calls:
            callers.setdefault(site.callee, []).append((fn.qualname, site))
        seeds: Dict[str, _Witness] = {}
        if fn.entropy_sites:
            line, sink = fn.entropy_sites[0]
            seeds["entropy"] = _Witness(line=line, desc=f"{sink}()")
        for m in fn.writes:
            seeds.setdefault(m.kind, _Witness(line=m.line, desc=m.desc))
        if seeds:
            facts[fn.qualname] = seeds
            work.append(fn.qualname)
    while work:
        callee = work.pop()
        known = facts[callee]
        for caller, site in callers.get(callee, ()):
            gained: List[Tuple[str, str]] = []    # (caller kind, via)
            if "entropy" in known and (site.kind == "direct"
                                       or site.unique):
                gained.append(("entropy", "entropy"))
            if "global" in known:
                gained.append(("global", "global"))
            if "self" in known and site.receiver_root in _LANDS:
                gained.append((_LANDS[site.receiver_root], "self"))
            if "args" in known:
                gained += [(_LANDS[root], "args") for root in _LANDS
                           if root in site.arg_roots]
            caller_facts = facts.setdefault(caller, {})
            changed = False
            for kind, via_kind in gained:
                if kind not in caller_facts:
                    caller_facts[kind] = _Witness(
                        line=site.line, desc="", via=callee,
                        via_kind=via_kind)
                    changed = True
            if changed:
                work.append(caller)


def _compute_hot(result: ProgramResult) -> None:
    """Forward reachability from the manifest's dispatch entries."""
    program = result.program
    hot = result.hot
    work: List[str] = []
    for entry in result.manifest.hot_entries:
        if entry in program.functions:
            hot[entry] = None
            work.append(entry)
    while work:
        qual = work.pop()
        for site in program.functions[qual].calls:
            if site.kind == "dynamic" and not site.unique:
                continue
            if site.callee in hot or site.callee not in program.functions:
                continue
            hot[site.callee] = (qual, site.line)
            work.append(site.callee)


# ---------------------------------------------------------------------------
# Chains (for messages)
# ---------------------------------------------------------------------------

def _chain(result: ProgramResult, qual: str, kind: str) -> str:
    """Follow the witnesses of ``kind``, each hop through the callee
    fact it was propagated from, down to the direct site."""
    parts = [_short(qual)]
    seen = {qual}
    cur, cur_kind = qual, kind
    while True:
        w = result.facts.get(cur, {}).get(cur_kind)
        if w is None:
            break
        if w.via is None or w.via in seen:
            mod = result.program.functions[cur].module
            parts.append(
                f"{w.desc} ({result.program.modules[mod].path}:{w.line})")
            break
        seen.add(w.via)
        parts.append(_short(w.via))
        cur, cur_kind = w.via, w.via_kind
    return " -> ".join(parts)


def _hot_chain(result: ProgramResult, qual: str) -> str:
    parts = [_short(qual)]
    cur = qual
    seen = {qual}
    while True:
        parent = result.hot.get(cur)
        if parent is None:
            break
        prev, _line = parent
        if prev in seen:
            break
        parts.append(_short(prev))
        seen.add(prev)
        cur = prev
    return " <- ".join(parts)


def _short(qual: str) -> str:
    mod, _, name = qual.partition(":")
    return f"{mod.split('.', 1)[-1]}.{name}" if name else mod


# ---------------------------------------------------------------------------
# Rule queries
# ---------------------------------------------------------------------------

def _check_layering(result: ProgramResult) -> None:
    program, manifest = result.program, result.manifest
    for mod in program.modules.values():
        for target, line in sorted(mod.imports.items()):
            if target not in program.modules or target == mod.name:
                continue
            if manifest.import_allowed(mod.name, target):
                continue
            src_layer = manifest.layer_of(mod.name)
            dst_layer = manifest.layer_of(target)
            allowed = ()
            if src_layer in manifest.layers:
                allowed = manifest.layers[src_layer].allowed
            result.report(
                "SIM015", mod.name, line,
                f"{mod.name} (layer '{src_layer}') imports {target} "
                f"(layer '{dst_layer}'), which the architecture DAG "
                f"forbids (allowed: "
                f"{', '.join(allowed) if allowed else 'nothing'}); "
                f"move the dependency below the boundary or add a "
                f"named friend exemption in "
                f"repro/analysis/architecture.py")
    for cycle in _import_cycles(program):
        anchor = program.modules[cycle[0]]
        nxt = next((m for m in cycle[1:] if m in anchor.imports),
                   cycle[0])
        result.report(
            "SIM015", cycle[0], anchor.imports.get(nxt, 1),
            f"import cycle between modules: {' -> '.join(cycle)} -> "
            f"{cycle[0]}; the module graph must stay a DAG")


def _import_cycles(program: Program) -> List[List[str]]:
    """Strongly connected components (size > 1) of the intra-package
    import graph, each sorted: the modules that reach each other."""
    reach: Dict[str, Set[str]] = {}
    for start in program.modules:
        seen: Set[str] = set()
        work = [start]
        while work:
            node = work.pop()
            for t in program.modules[node].imports:
                if t != node and t in program.modules and t not in seen:
                    seen.add(t)
                    work.append(t)
        reach[start] = seen
    cycles: List[List[str]] = []
    done: Set[str] = set()
    for m in sorted(program.modules):
        if m not in done and m in reach[m]:
            cycle = sorted(w for w in reach[m] if m in reach[w])
            done.update(cycle)
            cycles.append(cycle)
    return cycles


def _check_transitive_entropy(result: ProgramResult) -> None:
    for qual, fn in sorted(result.program.functions.items()):
        w = result.facts.get(qual, {}).get("entropy")
        if w is None or fn.entropy_sites:
            continue        # direct sites are SIM001's
        result.report(
            "SIM016", fn.module, w.line,
            f"{_short(qual)}() reaches host wall-clock/entropy through "
            f"the call chain {_chain(result, qual, 'entropy')}; use sim.now "
            f"/ a seeded random.Random, or sanction the sink itself with "
            f"# simlint: ignore[SIM001]")


def _call_is_impure(result: ProgramResult,
                    site: CallSite) -> Optional[str]:
    """Mutation kind this call inflicts on non-scratch state, or None."""
    facts = result.facts.get(site.callee, {})
    if "global" in facts:
        return "global"
    if "self" in facts and site.receiver_root in (PARAM, OTHER, SELF):
        return "self"
    if "args" in facts and any(
            r in (PARAM, OTHER, SELF) for r in site.arg_roots):
        return "args"
    return None


def _check_purity(result: ProgramResult) -> None:
    """Pure observers: no direct writes to non-local state, no call
    inferred to make one (facts exist once propagated)."""
    manifest = result.manifest
    for scope, direct_rule, call_rule, noun, remedy in _PURITY_SCOPES:
        modules = set(getattr(manifest, scope))
        for qual, fn in sorted(result.program.functions.items()):
            if fn.module not in modules:
                continue
            if direct_rule is not None:
                for m in fn.named_calls + [
                        m for m in fn.writes if m.kind != "self"]:
                    result.report(
                        direct_rule, fn.module, m.line,
                        f"{noun} {_short(qual)}() {m.desc}: {remedy}",
                        m.col)
            reported: Set[Tuple[int, str]] = set()
            for site in fn.calls:
                if site.kind == "dynamic" and not site.unique:
                    # equivocal by-name edges feed the summaries but are
                    # too noisy to anchor a violation (a dict's .get()
                    # would match every repo class named get)
                    continue
                kind = _call_is_impure(result, site)
                if kind is None or (site.line, site.callee) in reported:
                    continue
                reported.add((site.line, site.callee))
                chain = _chain(result, site.callee, kind)
                what = {"self": "its receiver", "args": "its arguments",
                        "global": "global state"}[kind]
                result.report(
                    call_rule, fn.module, site.line,
                    f"{noun} {_short(qual)}() calls "
                    f"{_short(site.callee)}(), inferred to mutate {what} "
                    f"({chain}); {remedy}")


def _check_hot_allocations(result: ProgramResult) -> None:
    program = result.program
    reported: Set[Tuple[str, int, str]] = set()
    for qual in sorted(result.hot):
        fn = program.functions[qual]
        for alloc in fn.allocations:
            cls = program.classes.get(alloc.cls)
            if cls is None or cls.has_slots or \
                    program.class_is_slots_exempt(cls):
                continue
            key = (fn.module, alloc.line, alloc.cls)
            if key in reported:
                continue
            reported.add(key)
            result.report(
                "SIM018", fn.module, alloc.line,
                f"{cls.name} (no __slots__) allocated in "
                f"{_short(qual)}(), reachable from the per-event "
                f"dispatch ({_hot_chain(result, qual)}); declare "
                f"__slots__ / dataclass(slots=True) or move the "
                f"allocation off the hot path")


def _check_slots(result: ProgramResult, mod: ModuleInfo) -> None:
    """SIM008: per-event classes of a hot module need slots."""
    for cls in mod.class_defs:
        tails = {b.rsplit(".", 1)[-1] for b in cls.bases}
        if not (cls.is_dataclass or tails & HOT_BASE_CLASSES):
            continue
        if cls.has_slots or result.program.class_is_slots_exempt(cls):
            continue
        what = (f"dataclass {cls.name} without slots=True"
                if cls.is_dataclass
                else f"class {cls.name} without __slots__")
        result.report("SIM008", mod.name, cls.lineno,
                      f"hot-path {what}; instances are allocated per-I/O",
                      cls.col)


def analyze_program(program: Program, manifest: Optional[Manifest] = None,
                    whole: bool = True,
                    is_hot_module: Optional[bool] = None) -> ProgramResult:
    """Every rule's findings over a linked program, unfiltered.

    ``whole`` marks the package itself: only then do the graph rules
    (SIM015–SIM019) run.  ``is_hot_module`` overrides the manifest's
    ``hot_modules`` for SIM008.
    """
    result = ProgramResult(program=program,
                           manifest=manifest or default_manifest())
    if whole:
        _propagate(result)
        _compute_hot(result)
        _check_layering(result)
        _check_transitive_entropy(result)
        _check_hot_allocations(result)
    _check_purity(result)
    for mod in program.modules.values():
        result.violations.extend(mod.findings)
        hot = is_hot_module if is_hot_module is not None \
            else mod.name in result.manifest.hot_modules
        if hot:
            _check_slots(result, mod)
    return result


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _kept(violations: Iterable[Violation],
          programs: Iterable[Tuple[Program, bool]],
          enabled: Optional[Iterable[str]]) -> List[Violation]:
    """Drop disabled rules, skip-file modules and pragma'd lines."""
    modules = {m.path: m for program, _ in programs
               for m in program.modules.values()}
    enabled_set = set(enabled) if enabled is not None else None
    kept = []
    for v in violations:
        mod = modules[v.path]
        if (enabled_set is None or v.rule.id in enabled_set) and \
                not mod.skip and \
                not suppressed(mod.pragmas, v.line, (v.rule.id,)):
            kept.append(v)
    kept.sort(key=lambda v: (v.path, v.line, v.rule.id, v.message, v.col))
    return kept


def _covers(paths: Sequence[str], package_root: Path) -> bool:
    """True when some linted path is the package root or contains it."""
    return any(Path(p).resolve() == package_root or
               Path(p).resolve() in package_root.parents for p in paths)


def lint_paths(paths: Sequence[str],
               enabled: Optional[Iterable[str]] = None,
               root: Optional[str] = None,
               package_root: Optional[Path] = None,
               manifest: Optional[Manifest] = None) -> LintResult:
    """Lint files and directories: each file parsed and walked once.

    When a path covers ``package_root``, the package is linked into one
    :class:`Program` and the graph rules run over it (the program is
    returned on the result); every other file is linked alone.
    """
    manifest = manifest or default_manifest()
    root_path = Path(root).resolve() if root else None
    pkg_root = Path(package_root).resolve() if package_root else None
    result = LintResult()
    programs: List[Tuple[Program, bool]] = []
    if pkg_root is not None and _covers(paths, pkg_root):
        result.program = build_program(pkg_root, repo_root=root_path)
        programs.append((result.program, True))
    files: Dict[Path, Path] = {}          # resolved -> as given
    for f in iter_python_files(paths):
        files.setdefault(f.resolve(), f)
    for f, given in files.items():
        if result.program is not None and pkg_root in f.parents:
            continue
        rel = f.relative_to(root_path) \
            if root_path is not None and root_path in f.parents else given
        programs.append((_module_program(f.read_text(encoding="utf-8"),
                                         rel.as_posix(), manifest), False))
    result.files_checked = len(files)
    found = [v for program, whole in programs
             for v in analyze_program(program, manifest, whole).violations]
    result.violations = _kept(found, programs, enabled)
    return result


def _module_program(source: str, path: str, manifest: Manifest) -> Program:
    """One file outside the package, linked alone."""
    mod = parse_module(source, path,
                       *_loose_module_name(path, manifest.package))
    return _link(Program(mod.name.split(".")[0]), [mod])


def lint_source(source: str, path: str = "<string>",
                enabled: Optional[Iterable[str]] = None,
                is_hot_module: Optional[bool] = None) -> List[Violation]:
    """Lint one module's source text; returns un-suppressed violations."""
    manifest = default_manifest()
    program = _module_program(source, path, manifest)
    found = analyze_program(program, manifest, whole=False,
                            is_hot_module=is_hot_module).violations
    return _kept(found, [(program, False)], enabled)


def lint_program(package_root: Path,
                 manifest: Optional[Manifest] = None,
                 enabled: Optional[Iterable[str]] = None,
                 repo_root: Optional[Path] = None) -> List[Violation]:
    """The graph rules (SIM015–SIM019) over one package."""
    package_root = Path(package_root).resolve()
    rules = GRAPH_RULES if enabled is None else GRAPH_RULES & set(enabled)
    return lint_paths([str(package_root)], enabled=rules,
                      root=str(repo_root or package_root.parent),
                      package_root=package_root,
                      manifest=manifest).violations


def build_program(package_root: Path,
                  repo_root: Optional[Path] = None,
                  package: Optional[str] = None) -> Program:
    """Parse and link every module under ``package_root``.

    ``repo_root`` controls the repo-relative paths recorded on
    violations (defaults to the parent of ``package_root``) so that
    fingerprints line up with ``lint_paths`` output.
    """
    package_root = Path(package_root).resolve()
    repo_root = Path(repo_root).resolve() if repo_root is not None \
        else package_root.parent
    pkg = package or package_root.name
    modules = []
    for file in sorted(package_root.rglob("*.py")):
        if "__pycache__" in file.parts:
            continue
        try:
            rel_path = file.relative_to(repo_root).as_posix()
        except ValueError:
            rel_path = file.as_posix()
        modules.append(parse_module(file.read_text(encoding="utf-8"),
                                    rel_path,
                                    *_module_name(file, package_root, pkg)))
    return _link(Program(package=pkg), modules)


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------

def export_dot(program: Program,
               manifest: Optional[Manifest] = None) -> str:
    """The layer DAG as Graphviz dot (aggregated per layer).

    Nodes are layers (with module counts); edges aggregate the real
    module-level import edges.  Friend-edge traffic is drawn dashed.
    """
    manifest = manifest or default_manifest()
    per_layer: Dict[str, int] = {}
    edges: Dict[Tuple[str, str], int] = {}
    friend_edges: Dict[Tuple[str, str], int] = {}
    for mod in program.modules.values():
        src_layer = manifest.layer_of(mod.name)
        if src_layer is None:
            continue
        per_layer[src_layer] = per_layer.get(src_layer, 0) + 1
        for target in mod.imports:
            if target not in program.modules:
                continue
            dst_layer = manifest.layer_of(target)
            if dst_layer is None or dst_layer == src_layer:
                continue
            key = (src_layer, dst_layer)
            layer = manifest.layers.get(src_layer, _EMPTY_LAYER)
            if manifest.friend_for(mod.name, target) is not None and \
                    dst_layer not in layer.allowed:
                friend_edges[key] = friend_edges.get(key, 0) + 1
            else:
                edges[key] = edges.get(key, 0) + 1
    out = [
        "digraph layers {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    for layer in sorted(per_layer):
        out.append(
            f'  "{layer}" [label="{layer}\\n'
            f'{per_layer[layer]} modules"];')
    for (src, dst), n in sorted(edges.items()):
        out.append(f'  "{src}" -> "{dst}" [label="{n}"];')
    for (src, dst), n in sorted(friend_edges.items()):
        out.append(
            f'  "{src}" -> "{dst}" '
            f'[label="{n} (friend)", style=dashed];')
    out.append("}")
    return "\n".join(out)


def export_json(program: Program,
                manifest: Optional[Manifest] = None) -> str:
    """Full module-level graph + layer assignment as JSON."""
    manifest = manifest or default_manifest()
    modules = {}
    for mod in sorted(program.modules.values(), key=lambda m: m.name):
        modules[mod.name] = {
            "path": mod.path,
            "layer": manifest.layer_of(mod.name),
            "imports": sorted(t for t in mod.imports
                              if t in program.modules),
        }
    return json.dumps({
        "package": program.package,
        "modules": modules,
        "functions": len(program.functions),
        "classes": len(program.classes),
        "layers": {
            name: {"allowed": list(layer.allowed), "doc": layer.doc}
            for name, layer in sorted(manifest.layers.items())},
        "friends": [
            {"importer": f.importer, "imported": f.imported_prefix,
             "why": f.why}
            for f in manifest.friends],
        "hot_entries": list(manifest.hot_entries),
    }, indent=2, sort_keys=False)
