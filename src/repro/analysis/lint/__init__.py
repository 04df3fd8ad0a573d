"""AST-based lint engine for repo invariants; run by ``scripts/repro_lint.py``."""

from repro.analysis.lint.engine import (
    LintRule,
    LintViolation,
    lint_paths,
    lint_source,
    suppressed_rules,
)
from repro.analysis.lint.rules import (
    ALL_RULES,
    BoundedLogBufferRule,
    LengthPrefixedWriteRule,
    LineBudgetRule,
    LockedCacheMutationRule,
    NoWallClockRule,
    OrderedGatherRule,
    StableSortRule,
)

__all__ = [
    "ALL_RULES",
    "BoundedLogBufferRule",
    "LengthPrefixedWriteRule",
    "LineBudgetRule",
    "LintRule",
    "LintViolation",
    "LockedCacheMutationRule",
    "NoWallClockRule",
    "OrderedGatherRule",
    "StableSortRule",
    "lint_paths",
    "lint_source",
    "suppressed_rules",
]
