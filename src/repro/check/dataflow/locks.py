"""CHK010 -- lock-discipline inference.

For every class the rule infers, with no annotations:

1. **Lock attributes**: ``self.X = threading.Lock() / RLock()``
   assignments (a *list* of locks is not a single guard and is
   skipped).
2. **Guarded attributes**: any ``self.<attr>`` written at least once
   inside a ``with self.X:`` block (or a block provably lock-held, see
   below) is considered guarded by ``X``.
3. **Held-on-entry methods** (the interprocedural part): a method with
   at least one in-project call site, *all* of whose ``self.m(...)``
   call sites execute with ``X`` held -- lexically inside
   ``with self.X:``, inside a ``with self.cm():`` where ``cm`` is a
   ``@contextmanager`` method whose every ``yield`` sits under
   ``with self.X:``, or inside another held-on-entry method -- is
   itself lock-held (greatest fixpoint: optimistic start, strip until
   stable).  A call site outside the class, or through anything but
   ``self``/``cls``, is never considered held.

A write (store, augmented store, subscript store, or mutating method
call) to a guarded attribute at a program point where the guard is not
provably held is a finding.  Constructors and pickling hooks
(``__init__``, ``__new__``, ``__getstate__``, ``__setstate__``,
``__del__``) are exempt on both sides: they run before/after the
object is shared.  Reads are deliberately not flagged -- lock-free
reads of published state are a documented pattern here
(``DILI.peek_plan``, ``ConcurrentDILI._published``); plans are
immutable values (CHK001) that a reader's own reference keeps alive.
"""

from __future__ import annotations

import ast

from .facts import FactsStore
from .model import ProjectModel, call_name
from .solver import TaintFinding

RULE = "CHK010"

_EXEMPT_METHODS = frozenset(
    {"__init__", "__new__", "__getstate__", "__setstate__", "__del__",
     "__reduce__", "__copy__", "__deepcopy__", "__enter__", "__exit__"}
)

_LOCK_CTORS = frozenset({"Lock", "RLock"})


def _is_lock_ctor(value: ast.expr) -> bool:
    return (
        isinstance(value, ast.Call)
        and call_name(value.func) in _LOCK_CTORS
    )


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassLockAnalysis:
    """All lock facts for one class."""

    def __init__(self, facts: FactsStore, class_name: str, path: str) -> None:
        self.facts = facts
        self.model = facts.model
        model = self.model
        self.class_name = class_name
        self.path = path
        ci = next(
            c for c in model.classes[class_name] if c.path == path
        )
        self.methods = ci.methods
        self.locks = self._find_locks()
        #: contextmanager method name -> lock it confers on its body
        # (two-step: region discovery below consults self.confers, so
        # it starts empty -- a cm body is judged on direct `with` only)
        self.confers: dict[str, str] = {}
        if self.locks:
            self.confers = self._find_conferring_cms()
        #: (method, lock) -> held on entry (fixpoint)
        self.entry_held: dict[tuple[str, str], bool] = {}

    # -- lock attribute discovery -------------------------------------

    def _find_locks(self) -> set[str]:
        locks: set[str] = set()
        for mi in self.methods.values():
            for stmt in ast.walk(mi.node):
                if isinstance(stmt, ast.Assign) and _is_lock_ctor(stmt.value):
                    for target in stmt.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            locks.add(attr)
        return locks

    def _find_conferring_cms(self) -> dict[str, str]:
        confers: dict[str, str] = {}
        for name, mi in self.methods.items():
            if not any("contextmanager" in d for d in mi.decorators):
                continue
            yields = [
                n for n in ast.walk(mi.node)
                if isinstance(n, (ast.Yield, ast.YieldFrom))
            ]
            if not yields:
                continue
            for lock in self.locks:
                held_regions = self._regions_holding(mi.node, lock)
                if all(id(y) in held_regions for y in yields):
                    confers[name] = lock
                    break
        return confers

    # -- lexical lock regions -----------------------------------------

    def _with_lock_names(self, stmt: ast.With | ast.AsyncWith) -> set[str]:
        """Locks this ``with`` statement acquires."""
        held: set[str] = set()
        for item in stmt.items:
            expr = item.context_expr
            attr = _self_attr(expr)
            if attr in self.locks:
                held.add(attr)
            elif isinstance(expr, ast.Call):
                cm = call_name(expr.func)
                if (
                    cm in self.confers
                    and isinstance(expr.func, ast.Attribute)
                    and isinstance(expr.func.value, ast.Name)
                    and expr.func.value.id == "self"
                ):
                    held.add(self.confers[cm])
        return held

    def _regions_holding(self, func_node, lock: str) -> set[int]:
        """ids of every AST node lexically under ``with self.<lock>``."""
        out: set[int] = set()

        def walk(node: ast.AST, held: bool) -> None:
            if held:
                out.add(id(node))
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held or lock in self._with_lock_names(node)
                for item in node.items:
                    walk(item, held)
                for child in node.body:
                    walk(child, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func_node:
                    return  # nested defs run later, lock state unknown
            for child in ast.iter_child_nodes(node):
                walk(child, held)

        walk(func_node, False)
        return out

    # -- held-on-entry fixpoint ---------------------------------------

    def solve_entry_held(self) -> None:
        names = list(self.methods)
        held_regions: dict[tuple[str, str], set[int]] = {
            (m, lock): self._regions_holding(self.methods[m].node, lock)
            for m in names
            for lock in self.locks
        }
        self._held_regions = held_regions
        # Optimistic start: every method with >=1 self-call site is
        # held; strip any whose call sites aren't all covered.
        state = {
            (m, lock): bool(self.model.callers.get(self.methods[m].qualname))
            for m in names
            for lock in self.locks
        }
        for _ in range(len(names) + 2):
            changed = False
            for m in names:
                qual = self.methods[m].qualname
                sites = self.model.callers.get(qual, [])
                for lock in self.locks:
                    if not state[(m, lock)]:
                        continue
                    ok = bool(sites)
                    for site in sites:
                        caller = site.caller
                        if (
                            caller is None
                            or caller.class_name != self.class_name
                            or caller.path != self.path
                            or not isinstance(site.receiver, ast.Name)
                            or site.receiver.id not in ("self", "cls")
                        ):
                            ok = False
                            break
                        lexically = id(site.node) in held_regions.get(
                            (caller.name, lock), set()
                        )
                        entry = (
                            caller.name not in _EXEMPT_METHODS
                            and state.get((caller.name, lock), False)
                        )
                        if not (lexically or entry):
                            ok = False
                            break
                    if not ok:
                        state[(m, lock)] = False
                        changed = True
            if not changed:
                break
        self.entry_held = state

    # -- write collection + verdicts ----------------------------------

    def findings(self) -> list[TaintFinding]:
        self.solve_entry_held()
        # (attr, lock) guarded iff some non-exempt held write exists.
        writes: list[tuple[str, str, ast.AST, frozenset[str]]] = []
        for m, mi in self.methods.items():
            regions = {
                lock: self._held_regions[(m, lock)] for lock in self.locks
            }
            for sw in self.facts.defuse(mi).self_writes:
                held = frozenset(
                    lock for lock in self.locks
                    if id(sw.node) in regions[lock]
                    or self.entry_held.get((m, lock), False)
                )
                writes.append((m, sw.attr, sw.node, held))
        guarded: dict[str, set[str]] = {}
        for m, attr, node, held in writes:
            if m in _EXEMPT_METHODS:
                continue
            for lock in held:
                guarded.setdefault(attr, set()).add(lock)
        out: list[TaintFinding] = []
        for m, attr, node, held in writes:
            if m in _EXEMPT_METHODS or attr in self.locks:
                continue
            needed = guarded.get(attr, set())
            if needed and not (needed & held):
                lock = sorted(needed)[0]
                out.append(
                    TaintFinding(
                        self.path, node, RULE,
                        f"{self.class_name}.{m} writes "
                        f"'self.{attr}' without holding 'self.{lock}', "
                        f"which guards every other write to it; take the "
                        f"lock (or prove every call path holds it)",
                    )
                )
        return out


def run(facts: FactsStore) -> list[TaintFinding]:
    """CHK010 over every class that owns at least one lock attribute."""
    findings: list[TaintFinding] = []
    for name, infos in facts.model.classes.items():
        for ci in infos:
            analysis = _ClassLockAnalysis(facts, name, ci.path)
            if analysis.locks:
                findings.extend(analysis.findings())
    return findings
