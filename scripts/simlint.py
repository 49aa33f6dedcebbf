#!/usr/bin/env python3
"""simlint — determinism & simulation-correctness linter.

Usage:
    python scripts/simlint.py src/repro                 # human output
    python scripts/simlint.py src/repro --json          # machine output
    python scripts/simlint.py src/repro --fix           # apply safe fixes
    python scripts/simlint.py src/repro --write-baseline
    python scripts/simlint.py --graph dot               # layer DAG
    python scripts/simlint.py --list-rules

Every file is parsed and walked once; every rule, SIM000-SIM019, is a
query over the resulting program model.  The graph rules (SIM015-SIM019
— import/call graph, interprocedural entropy & purity inference,
architecture DAG) run whenever one of the paths covers the package
root (``src/repro``); linting a single file leaves them out.

Exit status: 0 when no un-baselined violations remain, 1 otherwise.
The default baseline file is ``simlint-baseline.json`` next to this
repo's pyproject.toml; pass --baseline to override, --no-baseline to
ignore it.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from pathlib import Path

# `simlint --list-rules | head` should not traceback on the closed pipe
with contextlib.suppress(AttributeError, ValueError):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import (          # noqa: E402
    RULES,
    apply_baseline,
    build_program,
    export_dot,
    export_json,
    fix_file,
    iter_python_files,
    iter_rules_help,
    lint_paths,
    load_baseline,
    render_human,
    render_json,
    write_baseline,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="simlint", description=__doc__)
    ap.add_argument("paths", nargs="*", default=[],
                    help="files or directories to lint")
    ap.add_argument("--json", action="store_true",
                    help="emit JSON instead of human-readable output")
    ap.add_argument("--fix", action="store_true",
                    help="apply mechanically safe rewrites "
                         "(SIM002 sorted(), SIM003 int casts)")
    ap.add_argument("--rules", default="",
                    help="comma-separated rule ids to enable "
                         "(default: all)")
    ap.add_argument("--package-root", default=None,
                    help="package the graph rules (SIM015-SIM019) "
                         "analyse when a path covers it "
                         "(default: src/repro at the repo root)")
    ap.add_argument("--graph", choices=("dot", "json"), default=None,
                    help="print the import graph (dot: layer DAG for "
                         "docs; json: full module graph) and exit")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON file (default: "
                         "simlint-baseline.json at the repo root)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore any baseline file")
    ap.add_argument("--write-baseline", action="store_true",
                    help="record current violations as the new baseline "
                         "and exit 0")
    ap.add_argument("--justification", default="grandfathered",
                    help="justification recorded with --write-baseline")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        print(iter_rules_help())
        return 0

    package_root = Path(args.package_root) if args.package_root \
        else REPO_ROOT / "src" / "repro"

    if args.graph:
        program = build_program(package_root, repo_root=REPO_ROOT)
        exporter = export_dot if args.graph == "dot" else export_json
        print(exporter(program))
        return 0

    if not args.paths:
        ap.error("no paths given (try: python scripts/simlint.py src/repro)")

    enabled = None
    if args.rules:
        enabled = [r.strip() for r in args.rules.split(",") if r.strip()]
        known = {r.id for r in RULES}
        unknown = set(enabled) - known
        if unknown:
            ap.error(f"unknown rules: {', '.join(sorted(unknown))}")

    if args.fix:
        total = 0
        for f in iter_python_files(args.paths):
            n = fix_file(str(f))
            if n:
                print(f"fixed {n} violation(s) in {f}")
            total += n
        print(f"simlint --fix: {total} rewrite(s) applied")
        # fall through: re-lint so the exit code reflects what remains

    result = lint_paths(args.paths, enabled=enabled, root=str(REPO_ROOT),
                        package_root=package_root)

    baseline_path = args.baseline or str(REPO_ROOT / "simlint-baseline.json")
    if args.write_baseline:
        write_baseline(baseline_path, result.violations,
                       justification=args.justification)
        print(f"simlint: wrote {len(result.violations)} entries to "
              f"{baseline_path}")
        return 0
    if not args.no_baseline:
        result = apply_baseline(result, load_baseline(baseline_path))

    print(render_json(result) if args.json else render_human(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
