"""Run the repo-invariant lint rules (``repro.analysis.lint``) over the tree.

Checks every Python file under ``src/``, ``benchmarks/`` and ``scripts/``
against the RL-series rules: stable sorts in kernel modules, deterministic
gather merges, lock-guarded cache mutation, no wall-clock in benchmarks,
length-prefixed wire writes, bounded log buffers and the module/class line
budget under ``src/``.  Prints one line per violation and exits
non-zero when any are found, so CI can gate on it.

Usage::

    PYTHONPATH=src python scripts/repro_lint.py [paths...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src benchmarks scripts)",
    )
    args = parser.parse_args()

    from repro.analysis.lint import ALL_RULES, lint_paths

    root = Path(__file__).resolve().parent.parent
    targets = [path.resolve() for path in args.paths] or [
        root / name for name in ("src", "benchmarks", "scripts") if (root / name).is_dir()
    ]
    violations = lint_paths(targets, ALL_RULES, root=root)
    for violation in violations:
        print(violation.render())
    checked = ", ".join(rule.name for rule in ALL_RULES)
    if violations:
        print(f"repro-lint: {len(violations)} violation(s) ({checked})", file=sys.stderr)
        return 1
    print(f"repro-lint: clean ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
