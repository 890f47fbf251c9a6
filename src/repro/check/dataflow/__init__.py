"""Interprocedural dataflow analyses (rules CHK010-CHK014).

The pattern rules in :mod:`repro.check.lint` judge one statement at a
time; the rules here judge *flows*: facts that are only visible once
you connect definitions to uses across function (and process)
boundaries.  The framework is three layers, all stdlib ``ast``:

* :mod:`~repro.check.dataflow.model` -- a whole-project index:
  every function/method, every class, and a name-heuristic call graph;
* :mod:`~repro.check.dataflow.defuse` + ``facts`` -- per-function
  def-use chains, memoized in a :class:`FactsStore` shared by every
  rule so each tree is walked once;
* :mod:`~repro.check.dataflow.solver` -- a worklist taint solver that
  iterates function summaries to a fixpoint, so a value tainted in one
  function is still tainted three calls later.

The rules:

* **CHK010** -- lock-discipline inference: a write to an attribute
  that every other write protects with ``self.<lock>`` must itself be
  provably lock-held on every call path.
* **CHK011** -- untrusted-bytes taint: bytes born at ``np.memmap`` or
  a pipe ``recv()`` must pass an allowlisted verifier before reaching
  a serving/deserialization sink.
* **CHK013** -- pipe-protocol conformance: every message tag the
  coordinator sends has a worker handler with a compatible payload
  arity, and every handler verb is reachable.
* **CHK014** -- untimed pipe receives: a raw ``Connection.recv()`` /
  ``.poll(...)`` outside the sanctioned supervision wrappers escapes
  the per-request deadline budget and can wait forever on a hung
  worker.

CHK012 chased published plans into the in-place plan mutators; plans
are immutable values now and those mutators are gone, so its number
stays unused.

Findings use the same pragma waivers as CHK001-CHK009 (``#
repro-check: allow CHK011 -- reason``) and the same
:class:`~repro.check.lint.LintFinding` record, so ``repro check
dataflow`` and ``repro check lint --format=json`` share one schema.
Test, example and benchmark trees are exempt: the rules encode src/
invariants, and tests routinely violate them on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePath
from typing import Iterable

from repro.check.lint import LintFinding
from repro.check.parsing import ParsedFile, parse_paths, parse_source, waived_in_span

from . import locks, pipes, protocol, taint
from .facts import FactsStore
from .model import ProjectModel
from .solver import TaintFinding

DATAFLOW_RULES: dict[str, str] = {
    "CHK010": "guarded attribute written without its lock provably held",
    "CHK011": "untrusted bytes reach a sink without an allowlisted verifier",
    "CHK013": "coordinator/worker pipe-protocol drift",
    "CHK014": "untimed pipe receive outside the supervision wrappers",
}

_RULE_RUNNERS = (locks.run, taint.run, protocol.run, pipes.run)

_EXEMPT_PARTS = frozenset({"tests", "test", "examples", "benchmarks"})


def _is_exempt(path: str) -> bool:
    return bool(_EXEMPT_PARTS & set(PurePath(path).parts))


def _span(node: ast.AST) -> tuple[int, int, int]:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    last = getattr(node, "end_lineno", None) or line
    return line, col, last


def analyze_parsed(
    parsed: Iterable[ParsedFile], *, include_waived: bool = False
) -> list[LintFinding]:
    """Run the dataflow rules over already-parsed files.

    The shared single-parse entry point: ``repro check`` parses each
    file once and hands the same :class:`ParsedFile` list to both the
    pattern linter and this engine.
    """
    scoped = [
        pf for pf in parsed if pf.tree is not None and not _is_exempt(pf.path)
    ]
    facts = FactsStore(ProjectModel.build(scoped))
    by_path = {pf.path: pf for pf in scoped}

    findings: list[LintFinding] = []
    for run in _RULE_RUNNERS:
        for raw in run(facts):
            line, col, last = _span(raw.node)
            pf = by_path[raw.path]
            waived = waived_in_span(pf.pragmas, raw.rule, line, last)
            if waived and not include_waived:
                continue
            findings.append(
                LintFinding(raw.path, line, col, raw.rule, raw.message, waived)
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_sources(
    sources: dict[str, str], *, include_waived: bool = False
) -> list[LintFinding]:
    """Analyze a path -> source mapping (the test entry point)."""
    parsed = [parse_source(src, path) for path, src in sources.items()]
    return analyze_parsed(parsed, include_waived=include_waived)


def analyze_paths(
    paths: Iterable[str | Path], *, include_waived: bool = False
) -> list[LintFinding]:
    """Analyze every .py file under ``paths``; findings in stable order."""
    return analyze_parsed(parse_paths(paths), include_waived=include_waived)
