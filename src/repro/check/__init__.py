"""Correctness tooling: runtime sanitizers, WAL auditing, and AST lint.

Three pillars (see ``docs/static_analysis.md``):

* :mod:`repro.check.invariants` -- :class:`TreeSanitizer` /
  :func:`verify_tree`: deep structural + flat-plan cross-validation,
  amortized for online use via ``DILI.sanitizer``.
* :mod:`repro.check.locks` -- :class:`LockSanitizer`: reports every
  call that reaches ``ConcurrentDILI``'s inner index without its
  writer lock.
* :mod:`repro.check.wal_audit` -- :class:`WalAuditor`: offline
  durability-directory framing audit.
* :mod:`repro.check.plan_audit` -- :class:`PlanAuditor`: offline
  plan-store audit (base CRCs, delta chains, staleness); ``repro
  audit DIR`` combines it with the WAL audit.
* :mod:`repro.check.chaos` -- :class:`ChaosReport`: the one report
  and read audit every chaos schedule shares (``repro chaos``).
* :mod:`repro.check.lint` -- pattern rules CHK001-CHK009 over the
  repo's own source (``repro check lint ...``).
* :mod:`repro.check.dataflow` -- interprocedural dataflow rules
  CHK010-CHK013 (``repro check dataflow ...``; also part of the
  default ``repro check lint`` gate), sharing one parse per file with
  the pattern rules via :mod:`repro.check.parsing`.

Submodules import the core back (the sanitizers wrap live indexes), so
everything here is exported lazily; ``repro.check.errors`` stays
dependency-free for hot-path imports.
"""

from __future__ import annotations

from repro.check.errors import InvariantError, SanitizerViolation

_LAZY = {
    "TreeSanitizer": ("repro.check.invariants", "TreeSanitizer"),
    "verify_tree": ("repro.check.invariants", "verify_tree"),
    "verify_subtree": ("repro.check.invariants", "verify_subtree"),
    "LockSanitizer": ("repro.check.locks", "LockSanitizer"),
    "LockViolation": ("repro.check.locks", "LockViolation"),
    "WalAuditor": ("repro.check.wal_audit", "WalAuditor"),
    "AuditReport": ("repro.check.wal_audit", "AuditReport"),
    "audit_directory": ("repro.check.wal_audit", "audit_directory"),
    "PlanAuditor": ("repro.check.plan_audit", "PlanAuditor"),
    "PlanAuditReport": ("repro.check.plan_audit", "PlanAuditReport"),
    "audit_plans": ("repro.check.plan_audit", "audit_plans"),
    "ChaosReport": ("repro.check.chaos", "ChaosReport"),
    "LintFinding": ("repro.check.lint", "LintFinding"),
    "lint_paths": ("repro.check.lint", "lint_paths"),
    "RULES": ("repro.check.lint", "RULES"),
    "DATAFLOW_RULES": ("repro.check.dataflow", "DATAFLOW_RULES"),
    "analyze_paths": ("repro.check.dataflow", "analyze_paths"),
    "ParsedFile": ("repro.check.parsing", "ParsedFile"),
    "parse_paths": ("repro.check.parsing", "parse_paths"),
}

__all__ = ["InvariantError", "SanitizerViolation", *_LAZY]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
