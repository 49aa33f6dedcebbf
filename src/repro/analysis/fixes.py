"""Mechanical autofixes for simlint findings (``simlint.py --fix``).

Only rewrites that cannot change simulation semantics are applied:

- SIM002: wrap the flagged iterable in ``sorted(...)``.  Sorting a
  set/dict view pins the order; for code that was already relying on a
  particular hash order this *changes* behaviour — which is the point:
  that reliance was the bug.
- SIM003: cast a *constant* float delay with ``int(...)``.  Non-constant
  float expressions are left for a human because the right cast point
  depends on where precision is lost.

The fixer re-lints after editing, so chained violations on one line are
converged over multiple passes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from .linter import Violation
from .program import lint_source

__all__ = ["fix_source", "fix_file", "FIXABLE_RULES"]

FIXABLE_RULES = ("SIM002", "SIM003")

_MAX_PASSES = 8


def _apply_edit(lines: List[str],
                span: Tuple[int, int, int, int], text: str) -> bool:
    l0, c0, l1, c1 = span
    if l0 != l1:        # multi-line spans are not rewritten mechanically
        return False
    idx = l0 - 1
    if idx >= len(lines):
        return False
    line = lines[idx]
    if c1 > len(line):
        return False
    lines[idx] = line[:c0] + text + line[c1:]
    return True


def fix_source(source: str, path: str = "<string>",
               rules: Iterable[str] = FIXABLE_RULES) -> Tuple[str, int]:
    """Return (fixed_source, number_of_fixes_applied)."""
    rules = set(rules) & set(FIXABLE_RULES)
    total = 0
    for _ in range(_MAX_PASSES):
        violations = [v for v in lint_source(source, path=path)
                      if v.rule.id in rules and v.fix_span and v.fix_text]
        if not violations:
            break
        # apply bottom-up, rightmost-first, one edit per line per pass so
        # col offsets stay valid
        violations.sort(key=lambda v: (v.fix_span[0], v.fix_span[1]),
                        reverse=True)
        lines = source.splitlines()
        trailing_nl = source.endswith("\n")
        touched_lines = set()
        applied = 0
        for v in violations:
            if v.fix_span[0] in touched_lines:
                continue
            if _apply_edit(lines, v.fix_span, v.fix_text):
                touched_lines.add(v.fix_span[0])
                applied += 1
        if not applied:
            break
        total += applied
        source = "\n".join(lines) + ("\n" if trailing_nl else "")
    return source, total


def fix_file(path: str, rules: Iterable[str] = FIXABLE_RULES,
             dry_run: bool = False) -> int:
    p = Path(path)
    original = p.read_text(encoding="utf-8")
    fixed, n = fix_source(original, path=str(p), rules=rules)
    if n and not dry_run and fixed != original:
        p.write_text(fixed, encoding="utf-8")
    return n
