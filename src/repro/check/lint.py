"""Custom AST lint for the repro codebase (rules CHK001-CHK009).

Pure stdlib-``ast`` analysis -- no third-party linter frameworks.  Each
rule encodes an invariant of this codebase that a generic linter cannot
know:

* **CHK001** -- a flat plan is an immutable value: only
  ``FlatPlan.__init__`` binds its structure-of-arrays attributes, and
  no code writes their elements.  The one writer of plan buffers is
  the arena owner ``_Arenas`` in ``core/flat.py``: its ``append`` and
  ``rewrite`` methods write only elements no live plan reads.  Any
  other store, subscript-store, or mutating method call on a plan SoA
  attribute (including one reached through ``peek_plan()`` /
  ``export_plan()``, which may be a plan lock-free readers hold) or
  on an arena buffer (``arena_tables`` / ``slot_copies``) corrupts the
  read path silently.
* **CHK002** -- no bare ``assert`` for runtime invariants inside
  ``src/``: ``python -O`` strips them.  Raise
  :class:`repro.check.errors.InvariantError` instead.  Test, example and
  benchmark trees are exempt (pytest rewrites their asserts).
* **CHK003** -- no hardcoded cost-model cycle literals (the paper's
  theta/eta/mu values).  They must come from
  ``repro.simulate.latency`` so recalibration changes one file.
  ``latency.py`` itself and test trees are exempt.
* **CHK004** -- no ``==`` / ``!=`` against non-zero float literals in
  ``core/``.  Exact comparison against a computed float is almost
  always a bug; comparisons against literal ``0.0`` (exact-arithmetic
  guards) are allowed.
* **CHK005** -- traced probes must use a shared ``Tracer`` constant: a
  ``tracer`` parameter's default must be ``NULL_TRACER`` (never ``None``
  or a fresh instance), and ``NullTracer()`` / ``Tracer()`` may only be
  instantiated inside ``repro/simulate/tracer.py``.
* **CHK006** -- ``FaultInjector`` may only be constructed inside the
  durability module that defines it and the resilience fault registry
  (``FaultRegistry.durability()`` memoizes named injectors).  A stray
  injector elsewhere in ``src/`` means crash points can be armed that
  no registry knows about.  Test trees are exempt.
* **CHK007** -- untrusted-bytes discipline: ``pickle.load`` /
  ``pickle.loads``, ``np.memmap``, and raw ``mmap`` may only appear
  inside ``repro/durability`` and ``repro/planstore``, the two modules
  whose formats checksum every byte before trusting it.  Anywhere else
  they deserialize (or map) bytes nothing has verified.  Test,
  example and benchmark trees are exempt.
* **CHK009** -- shard serving discipline: outside the sanctioned
  factory modules, ``src/`` code may not construct a ``DILI`` directly
  -- in particular the sharding layer (coordinator, router, chaos)
  must touch index state only through the durability/planstore APIs
  (``DurableDILI`` recovery + logged writes, ``MmapDILI`` serving).
  The factories: ``repro/core`` itself, durability recovery, the
  lock-check proxy, the bench harness, the CLI, and the sharding
  build modules ``worker.py`` / ``partition.py``.
  Test, example and benchmark trees are exempt.

CHK008 policed the in-place plan mutators, which no longer exist;
its number stays unused so pragmas and docs keep their meaning.  The
flow-sensitive rules CHK010-CHK014 live in ``repro.check.dataflow``
and run from the same parsed trees (see ``repro.check.parsing``).

Any finding can be locally waived with a pragma comment on (any line
of) the offending statement::

    assert fast_path  # repro-check: allow CHK002 -- type narrowing only

See ``docs/static_analysis.md`` for the full catalogue.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Iterable, Sequence

from repro.check.parsing import (
    ParsedFile,
    _PRAGMA_RE,
    iter_python_files,
    parse_paths,
    parse_source,
    pragma_lines as _pragma_lines,
)

RULES: dict[str, str] = {
    "CHK001": "flat-plan buffer written outside the arena owner",
    "CHK002": "bare assert used for a runtime invariant in src/",
    "CHK003": "hardcoded cost-model cycle literal",
    "CHK004": "float-literal equality comparison in core/",
    "CHK005": "traced probe without a shared Tracer constant",
    "CHK006": "FaultInjector constructed outside the fault registry",
    "CHK007": "untrusted-bytes primitive outside durability/planstore",
    "CHK009": "direct DILI construction outside the sanctioned factories",
}

# Files allowed to construct a DILI directly (CHK009), as
# (parent-directory, filename) pairs; repro/core is allowed wholesale.
_DILI_FACTORIES = frozenset(
    {
        ("durability", "recovery.py"),
        ("check", "locks.py"),
        ("bench", "harness.py"),
        ("repro", "__main__.py"),
        ("sharding", "worker.py"),
        ("sharding", "partition.py"),
    }
)

# FlatPlan's structure-of-arrays attributes: its __slots__ minus the
# version (not a buffer) and ``_key_view`` (the cache the
# ``sorted_keys`` property fills), plus that property, whose view is
# the key base itself while the sides are empty.
SOA_ATTRS = frozenset(
    {
        "kind", "slope", "intercept", "size", "base", "region",
        "slot_kind", "slot_ref", "pair_keys", "dense_keys", "values",
        "key_base", "key_added", "key_removed", "sorted_keys",
        "num_pairs", "depth", "arenas", "step",
    }
)

# The arena owner's buffer attributes, which plans view: the append-only
# arenas and the two left-right slot-table copies.
ARENA_ATTRS = frozenset({"arena_tables", "slot_copies"})

# The arena owner and its one writer of buffer elements.
_ARENA_OWNER = "_Arenas"
_ARENA_WRITERS = frozenset({"append", "rewrite"})

# Calls that return a FlatPlan: a fresh compile, the index's lazily
# compiled plan, and the two public ways to reach the maintained one.
_PLAN_CALLS = frozenset({"compile_plan", "_plan", "peek_plan", "export_plan"})

# In-place container mutators that corrupt an SoA buffer just as surely
# as a store does.
_MUTATING_CALLS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort",
     "reverse", "fill", "resize", "put"}
)

# The Section 7.1 calibration values (theta, eta, mu_L, mu_E, cache hit,
# branch).  Re-typing any of them as a literal is what CHK003 flags.
COST_LITERALS = frozenset({130.0, 25.0, 17.0, 5.0, 4.0, 2.0})

@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    waived: bool = False

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        """The stable machine-readable schema (``--format=json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
        }


def _call_name(func: ast.expr) -> str | None:
    """Trailing name of a call target (``foo`` or ``obj.foo``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_cost_literal(node: ast.expr) -> bool:
    # Only float literals: the calibration constants are written as
    # floats (130.0, 25.0, ...); integer 2s and 4s in index arithmetic
    # are not cost charges.
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is float
        and node.value in COST_LITERALS
    )


def _is_null_tracer_ref(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "NULL_TRACER"
    if isinstance(node, ast.Attribute):
        return node.attr == "NULL_TRACER"
    return False


class _FileContext:
    """Which rules apply to this file, from its path alone."""

    def __init__(self, path: str) -> None:
        parts = PurePath(path).parts
        name = parts[-1] if parts else path
        in_tests = any(p in ("tests", "test", "examples") for p in parts)
        in_benchmarks = "benchmarks" in parts
        self.check_asserts = not (in_tests or in_benchmarks)
        self.check_cost = not in_tests and name != "latency.py"
        self.check_float_eq = "core" in parts
        self.check_tracer = name != "tracer.py"
        # faultpoints.py defines FaultInjector; faults.py (the
        # resilience registry and its repro.faults alias) memoizes the
        # sanctioned instances.
        self.check_fault_ctor = not in_tests and name not in (
            "faultpoints.py", "faults.py",
        )
        # durability and planstore checksum bytes before trusting them;
        # everywhere else pickle.load / np.memmap / raw mmap would
        # deserialize unverified data.
        self.check_untrusted = not (in_tests or in_benchmarks) and not any(
            p in ("durability", "planstore") for p in parts
        )
        # Only the factory modules may construct a DILI directly; shard
        # workers and everything downstream of them must reach index
        # state through DurableDILI / MmapDILI (CHK009).
        parent = parts[-2] if len(parts) >= 2 else ""
        self.check_dili_ctor = (
            not (in_tests or in_benchmarks)
            and "core" not in parts
            and (parent, name) not in _DILI_FACTORIES
        )


class _Linter(ast.NodeVisitor):
    """Single-file rule engine; collects findings with pragma filtering."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.ctx = _FileContext(path)
        self.pragmas = _pragma_lines(source)
        self.findings: list[LintFinding] = []
        self.waived: list[LintFinding] = []
        self._class_stack: list[str] = []
        self._func_stack: list[str] = []
        # Per-scope sets of local names bound to a flat plan.
        self._alias_stack: list[set[str]] = [set()]
        # Names bound directly to an untrusted-bytes primitive via
        # ``from pickle import load`` / ``from mmap import mmap`` /
        # ``from numpy import memmap`` (CHK007); collected up front so
        # call sites before a late import are still caught.
        self._untrusted_imports: set[str] = set()
        _FROM_IMPORTS = {
            "pickle": ("load", "loads"),
            "mmap": ("mmap",),
            "numpy": ("memmap",),
        }
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module in _FROM_IMPORTS:
                for alias in n.names:
                    if alias.name in _FROM_IMPORTS[n.module]:
                        self._untrusted_imports.add(alias.asname or alias.name)
        self.visit(tree)

    # -- reporting ----------------------------------------------------

    def _report(
        self,
        node: ast.AST,
        rule: str,
        message: str,
        span: tuple[int, int] | None = None,
    ) -> None:
        # ``span`` widens the pragma-matching window beyond the node
        # itself (e.g. a default-value finding honors a pragma anywhere
        # on the enclosing ``def``'s decorated signature).
        first = getattr(node, "lineno", 1)
        last = getattr(node, "end_lineno", None) or first
        if span is not None:
            first, last = min(first, span[0]), max(last, span[1])
        finding = LintFinding(
            self.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), rule, message,
        )
        for line in range(first, last + 1):
            if rule in self.pragmas.get(line, ()):  # waived
                self.waived.append(
                    LintFinding(finding.path, finding.line, finding.col,
                                finding.rule, finding.message, waived=True)
                )
                return
        self.findings.append(finding)

    # -- scope bookkeeping --------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        self._check_tracer_defaults(node)
        self._func_stack.append(node.name)
        self._alias_stack.append(set())
        self.generic_visit(node)
        self._alias_stack.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- CHK002: bare asserts -----------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        if self.ctx.check_asserts:
            self._report(
                node, "CHK002",
                "bare assert is stripped under python -O; raise "
                "repro.check.errors.InvariantError instead",
            )
        self.generic_visit(node)

    # -- CHK004: float equality ---------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.ctx.check_float_eq:
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    if (
                        isinstance(side, ast.Constant)
                        and type(side.value) is float
                        and side.value != 0.0
                    ):
                        self._report(
                            node, "CHK004",
                            f"exact comparison against float literal "
                            f"{side.value!r}; use a tolerance (or a pragma "
                            f"if bit-exactness is intended)",
                        )
                        break
        self.generic_visit(node)

    # -- calls: CHK003 cost literals, CHK005 tracer instantiation,
    #    CHK001 mutating calls ----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if self.ctx.check_cost:
            if name == "compute":
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if _is_cost_literal(sub):
                            self._report(
                                node, "CHK003",
                                f"cycle literal {sub.value!r} in a "
                                f"tracer.compute() charge; use "
                                f"repro.simulate.latency.DEFAULT_CYCLES",
                            )
                            break
            elif name == "CyclesPerOp":
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if _is_cost_literal(arg):
                        self._report(
                            node, "CHK003",
                            f"CyclesPerOp re-types default {arg.value!r}; "
                            f"use dataclasses.replace(DEFAULT_CYCLES, ...)",
                        )
                        break
            for kw in node.keywords:
                if kw.arg == "mu_e" and _is_cost_literal(kw.value):
                    self._report(
                        node, "CHK003",
                        f"cycle literal {kw.value.value!r} passed as mu_e; "
                        f"use DEFAULT_CYCLES.exp_search_step",
                    )
        if self.ctx.check_tracer and name in ("NullTracer", "Tracer"):
            self._report(
                node, "CHK005",
                f"{name}() instantiated outside repro/simulate/tracer.py; "
                f"use the shared NULL_TRACER constant",
            )
        if self.ctx.check_fault_ctor and name == "FaultInjector":
            self._report(
                node, "CHK006",
                "FaultInjector() constructed outside the fault registry; "
                "use repro.faults.FaultRegistry.durability() (or "
                "durability's NULL_FAULTS) so armed crash points stay "
                "attributable",
            )
        if self.ctx.check_dili_ctor and name == "DILI":
            self._report(
                node, "CHK009",
                "direct DILI construction outside the sanctioned "
                "factories; serve index state through the durability/"
                "planstore APIs (DurableDILI recovery + logged writes, "
                "MmapDILI zero-copy reads)",
            )
        if self.ctx.check_untrusted:
            self._check_untrusted_bytes(node)
        if name in _MUTATING_CALLS and isinstance(node.func, ast.Attribute):
            self._check_soa_mutation(node, node.func.value, is_call=True)
        self.generic_visit(node)

    # -- CHK007: untrusted-bytes primitives ----------------------------

    def _check_untrusted_bytes(self, node: ast.Call) -> None:
        func = node.func
        flagged: str | None = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            recv, attr = func.value.id, func.attr
            if recv == "pickle" and attr in ("load", "loads"):
                flagged = f"pickle.{attr}"
            elif attr == "memmap" and recv in ("np", "numpy"):
                flagged = f"{recv}.memmap"
            elif recv == "mmap" and attr == "mmap":
                flagged = "mmap.mmap"
        elif isinstance(func, ast.Name) and func.id in self._untrusted_imports:
            flagged = func.id
        if flagged is not None:
            self._report(
                node, "CHK007",
                f"{flagged} outside repro/durability and repro/planstore "
                f"deserializes bytes nothing has checksummed; route the "
                f"read through those modules' verified formats",
            )

    # -- CHK005: tracer parameter defaults ----------------------------

    def _check_tracer_defaults(self, node) -> None:
        if not self.ctx.check_tracer:
            return
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        pairs = list(zip(positional[len(positional) - len(a.defaults):],
                         a.defaults))
        pairs += [
            (arg, d)
            for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None
        ]
        # The offending "statement" is the decorated signature: a pragma
        # anywhere from the first decorator through the line before the
        # body waives, but a pragma inside the body does not.
        sig_first = min(
            [node.lineno, *(d.lineno for d in node.decorator_list)]
        )
        body_first = node.body[0].lineno if node.body else node.lineno
        sig_last = body_first if body_first == node.lineno else body_first - 1
        for arg, default in pairs:
            if arg.arg == "tracer" and not _is_null_tracer_ref(default):
                self._report(
                    default, "CHK005",
                    "tracer parameter must default to the shared "
                    "NULL_TRACER constant",
                    span=(sig_first, sig_last),
                )

    # -- CHK001: SoA mutation tracking --------------------------------

    def _is_plan_expr(self, node: ast.expr) -> bool:
        """Does this expression evaluate to a FlatPlan?"""
        if isinstance(node, ast.Name):
            if node.id == "self" and self._class_stack[-1:] == ["FlatPlan"]:
                return True
            return any(node.id in s for s in self._alias_stack)
        if isinstance(node, ast.Attribute):
            return node.attr == "_flat"
        if isinstance(node, ast.Call):
            return _call_name(node.func) in _PLAN_CALLS
        return False

    def _in_method(self, cls: str, names) -> bool:
        return self._class_stack[-1:] == [cls] and any(
            f in names for f in self._func_stack[-1:]
        )

    def _check_soa_mutation(
        self, stmt: ast.AST, target: ast.expr, *, is_call: bool = False
    ) -> None:
        # A subscript store or a mutating call writes the elements of
        # the buffer its innermost attribute names; a plain store
        # rebinds the attribute.
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if not isinstance(base, ast.Attribute):
            return
        element = is_call or base is not target
        where = self._func_stack[-1] if self._func_stack else "?"
        if base.attr in ARENA_ATTRS:
            writers = _ARENA_WRITERS if element else {"__init__"}
            if not self._in_method(_ARENA_OWNER, writers):
                self._report(
                    stmt, "CHK001",
                    f"arena buffer '{base.attr}' written in '{where}'; "
                    f"only {_ARENA_OWNER}.append / .rewrite write arena "
                    f"elements, past every live plan's view",
                )
            return
        if base.attr not in SOA_ATTRS or not self._is_plan_expr(base.value):
            return
        if element:
            verb = "mutated" if is_call else "written"
            self._report(
                stmt, "CHK001",
                f"flat-plan buffer '{base.attr}' {verb} in place in "
                f"'{where}'; plans never change once built -- use the "
                f"applied_* tiers",
            )
        elif not self._in_method("FlatPlan", {"__init__"}):
            self._report(
                stmt, "CHK001",
                f"flat-plan attribute '{base.attr}' assigned in "
                f"'{where}'; only FlatPlan.__init__ binds it -- return "
                f"a successor plan instead",
            )

    def _note_aliases(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        if self._is_plan_expr(value):
            for t in targets:
                if isinstance(t, ast.Name):
                    self._alias_stack[-1].add(t.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_aliases(node.targets, node.value)
        for t in node.targets:
            self._check_soa_mutation(node, t)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_aliases([node.target], node.value)
        self._check_soa_mutation(node, node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_soa_mutation(node, node.target)
        self.generic_visit(node)


def lint_parsed(
    parsed: Iterable[ParsedFile], *, include_waived: bool = False
) -> list[LintFinding]:
    """Lint already-parsed files (the shared single-parse entry point)."""
    findings: list[LintFinding] = []
    for pf in parsed:
        if pf.tree is None:
            exc = pf.error
            findings.append(
                LintFinding(
                    pf.path,
                    (exc.lineno or 1) if exc else 1,
                    (exc.offset or 0) if exc else 0,
                    "PARSE",
                    f"syntax error: {exc.msg if exc else 'unparseable'}",
                )
            )
            continue
        linter = _Linter(pf.path, pf.source, pf.tree)
        findings.extend(linter.findings)
        if include_waived:
            findings.extend(linter.waived)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source text; returns findings (possibly empty)."""
    return lint_parsed([parse_source(source, path)])


def lint_file(path: str | Path) -> list[LintFinding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: Iterable[str | Path]) -> list[LintFinding]:
    """Lint every .py file under ``paths``; findings in stable order."""
    return lint_parsed(parse_paths(paths))
