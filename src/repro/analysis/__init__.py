"""Static analysis for simulation correctness (simlint).

``python scripts/simlint.py src/repro tests scripts`` is the CLI front
end; this package is the library, one pass over one program model:

* :mod:`repro.analysis.linter` parses each file **once** into a
  ``ModuleInfo`` and walks it **once**, recording its symbol table, the
  per-function facts and the syntactic findings (wall-clock reads,
  hash-order iteration into the event queue, float delays on the
  integer nanosecond clock, event-protocol misuse);
* :mod:`repro.analysis.program` links the modules into the import
  graph and a conservative call graph, propagates the facts to a
  fixpoint, and answers every rule, SIM000–SIM019, as a query over
  them.  The graph rules (SIM015–SIM019) run when the linted paths
  cover the package root, checked against the declarative
  architecture manifest in :mod:`repro.analysis.architecture`.

See ``docs/static_analysis.md`` for the rule catalogue with bad/good
examples, and :mod:`repro.sim.sanitizer` for the runtime counterpart.
"""

from .rules import ERROR, RULES, Rule, WARNING, iter_rules_help, rule_by_id
from .linter import (
    LintResult,
    Violation,
    apply_baseline,
    is_entropy_call,
    iter_python_files,
    load_baseline,
    render_human,
    render_json,
    write_baseline,
)
from .architecture import (
    FriendEdge,
    Layer,
    Manifest,
    default_manifest,
)
from .program import (
    Program,
    ProgramResult,
    analyze_program,
    build_program,
    export_dot,
    export_json,
    lint_paths,
    lint_program,
    lint_source,
)
from .fixes import FIXABLE_RULES, fix_file, fix_source

__all__ = [
    "ERROR",
    "WARNING",
    "RULES",
    "Rule",
    "rule_by_id",
    "iter_rules_help",
    "iter_python_files",
    "is_entropy_call",
    "LintResult",
    "Violation",
    "lint_source",
    "lint_paths",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "render_human",
    "render_json",
    "FIXABLE_RULES",
    "fix_source",
    "fix_file",
    "Layer",
    "FriendEdge",
    "Manifest",
    "default_manifest",
    "Program",
    "ProgramResult",
    "build_program",
    "analyze_program",
    "lint_program",
    "export_dot",
    "export_json",
]
