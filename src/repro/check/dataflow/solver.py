"""Worklist-based forward dataflow / taint solver.

The solver is a generic interprocedural engine; a rule instantiates it
with a :class:`TaintConfig` (what creates taint, what cleans it, what
must never receive it).  Facts it maintains to a fixpoint:

* **function summaries** -- for every function, the set of taint
  origins its return value may carry, including symbolic *parameter
  markers* ("returns whatever flows in through parameter *i*"), so
  source -> helper -> sink chains across any number of calls resolve;
* **parameter taint** -- origins observed flowing into each parameter
  across all call sites;
* **class-attribute taint** -- origins ever stored into
  ``self.<attr>`` (or ``instance.<attr>`` where the instance's class
  is known from a constructor call), read back at every method entry.

Within one function the walk is flow-sensitive in statement order: a
call to an allowlisted *sanitizer* clears the taint of its arguments
-- and, for argument-less method sanitizers like
``self._ensure_verified()``, marks the whole receiver state clean for
the rest of the body (the verify-then-serve idiom).  Branches are
walked sequentially (path-insensitive): taint survives an ``if``, so a
flow is only considered clean when a sanitizer dominates it textually.

Origins are tuples: ``("src", label)`` for concrete sources and
``("param", qualname, i)`` for symbolic parameter flow.  A sink only
reports when a concrete ``("src", ...)`` origin reaches it -- a flow
that depends solely on a caller's parameter is the *caller's* flow and
is accounted for there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable

from .model import CallSite, FunctionInfo, ProjectModel, call_name

Origin = tuple  # ("src", label) | ("param", qualname, index)

_MAX_ROUNDS = 40


@dataclass
class TaintConfig:
    """One rule's instantiation of the solver."""

    rule: str
    #: call-expression source: return an origin label or None
    source_call: Callable[[ast.Call, FunctionInfo | None, str], str | None]
    #: sink: return a sink label or None (checked against arg taint,
    #: plus receiver taint when ``sink_on_receiver``)
    sink: Callable[[ast.Call, str | None, FunctionInfo | None, str], str | None]
    #: calls to these names clean their arguments / receiver state
    sanitizers: frozenset = frozenset()
    sink_on_receiver: bool = True
    #: interprocedural scope: when set, only functions in these files
    #: are interpreted and propagated through -- everything else is
    #: opaque (taint passes through its calls unchanged).  Keeps a
    #: package-scoped rule's taint from riding shared core helpers
    #: (e.g. FlatPlan methods) into unrelated call sites.
    scope: Callable[[str], bool] | None = None
    message: Callable[[str, str], str] = (
        lambda sink, origin: f"{origin} reaches {sink} unverified"
    )


@dataclass
class TaintFinding:
    """A raw (pre-pragma) finding from one solver run."""

    path: str
    node: ast.AST
    rule: str
    message: str


@dataclass
class _Summary:
    ret: set = field(default_factory=set)


class TaintSolver:
    """Run one :class:`TaintConfig` over a project to a fixpoint."""

    def __init__(self, model: ProjectModel, config: TaintConfig) -> None:
        self.model = model
        self.config = config
        self.summaries: dict[str, _Summary] = {
            f.qualname: _Summary() for f in model.functions
        }
        self.param_taint: dict[tuple[str, str], set] = {}
        self.attr_taint: dict[tuple[str, str], set] = {}
        self._changed = False

    # -- driver -------------------------------------------------------

    def run(self) -> list[TaintFinding]:
        scope = self.config.scope
        active = [
            fi for fi in self.model.functions
            if scope is None or scope(fi.path)
        ]
        for _ in range(_MAX_ROUNDS):
            self._changed = False
            for fi in active:
                _Interp(self, fi).walk()
            if not self._changed:
                break
        findings: list[TaintFinding] = []
        for fi in active:
            findings.extend(_Interp(self, fi, findings=True).walk())
        return findings

    # -- fact mutation (monotone) -------------------------------------

    def add_param(self, qualname: str, param: str, origins: set) -> None:
        slot = self.param_taint.setdefault((qualname, param), set())
        if origins - slot:
            slot.update(origins)
            self._changed = True

    def add_attr(self, class_name: str, attr: str, origins: set) -> None:
        slot = self.attr_taint.setdefault((class_name, attr), set())
        if origins - slot:
            slot.update(origins)
            self._changed = True

    def add_return(self, qualname: str, origins: set) -> None:
        slot = self.summaries[qualname].ret
        if origins - slot:
            slot.update(origins)
            self._changed = True


class _Interp:
    """One flow-sensitive pass over one function body."""

    def __init__(
        self, solver: TaintSolver, fi: FunctionInfo, findings: bool = False
    ) -> None:
        self.s = solver
        self.fi = fi
        self.report = findings
        self.found: list[TaintFinding] = []
        self.env: dict[str, set] = {}
        self.instance_of: dict[str, str] = {}
        self.self_cleared = False
        for i, p in enumerate(fi.params):
            taint = {("param", fi.qualname, i)}
            taint |= solver.param_taint.get((fi.qualname, p), set())
            self.env[p] = taint
        if fi.params and fi.is_method and fi.params[0] in ("self", "cls"):
            # The receiver itself is never a taint carrier; its state
            # is modeled per-attribute (attr_taint).
            self.env[fi.params[0]] = set()

    def walk(self) -> list[TaintFinding]:
        self._block(self.fi.node.body)
        return self.found

    # -- statements ---------------------------------------------------

    def _block(self, stmts) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            t = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, t, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            t = self._eval(stmt.value) | self._read_target(stmt.target)
            self._assign(stmt.target, t, stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.s.add_return(self.fi.qualname, self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                t = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, t, item.context_expr)
            self._block(stmt.body)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._eval(stmt.iter), stmt.iter)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)

    def _read_target(self, target: ast.expr) -> set:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, set())
        return self._eval(target) if isinstance(target, ast.expr) else set()

    def _assign(self, target: ast.expr, taint: set, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(taint)
            cls = self._constructed_class(value)
            if cls is not None:
                self.instance_of[target.id] = cls
            elif target.id in self.instance_of:
                del self.instance_of[target.id]
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._assign(el, taint, value)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, value)
        elif isinstance(target, ast.Attribute):
            cls = self._receiver_class(target.value)
            if cls is not None:
                self.s.add_attr(cls, target.attr, set(taint))
        elif isinstance(target, ast.Subscript):
            # A tainted element taints the container.
            if isinstance(target.value, ast.Name):
                self.env.setdefault(target.value.id, set()).update(taint)
            elif isinstance(target.value, ast.Attribute):
                cls = self._receiver_class(target.value.value)
                if cls is not None:
                    self.s.add_attr(cls, target.value.attr, set(taint))

    def _constructed_class(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name):
            if func.id == "cls" and self.fi.class_name:
                return self.fi.class_name
            if func.id in self.s.model.classes:
                return func.id
        if isinstance(func, ast.Attribute) and func.attr in self.s.model.classes:
            return func.attr
        return None

    def _receiver_class(self, receiver: ast.expr) -> str | None:
        """Class owning ``receiver.attr`` slots, when inferable."""
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls"):
                return self.fi.class_name
            return self.instance_of.get(receiver.id)
        return None

    # -- expressions --------------------------------------------------

    def _eval(self, node: ast.expr) -> set:
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, set()))
        if isinstance(node, ast.Attribute):
            cls = self._receiver_class(node.value)
            if cls is not None:
                if self.self_cleared and cls == self.fi.class_name:
                    return set()
                return set(self.s.attr_taint.get((cls, node.attr), set()))
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.Lambda, ast.FunctionDef)):
            return set()
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self._eval(child)
            elif isinstance(child, ast.comprehension):
                t = self._eval(child.iter)
                self._assign(child.target, t, child.iter)
                out |= t
        return out

    def _call(self, node: ast.Call) -> set:
        cfg = self.s.config
        name = call_name(node.func)
        receiver = (
            node.func.value if isinstance(node.func, ast.Attribute) else None
        )
        arg_taints = [self._eval(a) for a in node.args]
        kw_taints = {kw.arg: self._eval(kw.value) for kw in node.keywords}
        recv_taint = self._eval(receiver) if receiver is not None else set()

        # Sinks (reported only when a concrete source origin arrives).
        # A sink inside an allowlisted verifier is exempt: the flow
        # *into* the verifier is the sanctioned one (read_delta_file
        # CRC-checks the payload, then unpickles it).
        if self.report and self.fi.name not in cfg.sanitizers:
            sink_label = cfg.sink(node, name, self.fi, self.fi.path)
            if sink_label is not None:
                incoming: set = set()
                for t in arg_taints:
                    incoming |= t
                for t in kw_taints.values():
                    incoming |= t
                if cfg.sink_on_receiver:
                    incoming |= recv_taint
                src_origins = sorted(
                    o[1] for o in incoming if o and o[0] == "src"
                )
                if src_origins:
                    self.found.append(
                        TaintFinding(
                            self.fi.path, node, cfg.rule,
                            cfg.message(sink_label, src_origins[0]),
                        )
                    )

        # Sanitizers: the call's result is clean, its named arguments
        # are cleaned, and an argument-less method form blesses the
        # whole receiver state for the rest of the body.
        if name in cfg.sanitizers:
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    self.env[arg.id] = set()
            if receiver is not None:
                if isinstance(receiver, ast.Name):
                    if receiver.id == "self":
                        self.self_cleared = True
                    else:
                        self.env[receiver.id] = set()
            elif not node.args:
                self.self_cleared = True
            return set()

        # Sources.
        label = cfg.source_call(node, self.fi, self.fi.path)
        if label is not None:
            return {("src", label)}

        # Known callees: propagate into parameters, return summary.
        # Out-of-scope callees are opaque (handled by the pass-through
        # fallthrough below) -- their bodies are never interpreted, so
        # their summaries would read as spuriously clean.
        site = self._resolve(node)
        callees = [] if site is None else [
            c for c in site.callees
            if cfg.scope is None or cfg.scope(c.path)
        ]
        if callees:
            out: set = set()
            for callee in callees:
                offset = 1 if (
                    callee.is_method
                    and callee.params
                    and callee.params[0] in ("self", "cls")
                    and receiver is not None
                ) else 0
                for i, t in enumerate(arg_taints):
                    idx = i + offset
                    if idx < len(callee.params) and t:
                        self.s.add_param(
                            callee.qualname, callee.params[idx], t
                        )
                for kw, t in kw_taints.items():
                    if kw in (callee.params or ()) and t:
                        self.s.add_param(callee.qualname, kw, t)
                for origin in self.s.summaries[callee.qualname].ret:
                    if origin[0] == "param" and origin[1] == callee.qualname:
                        idx = origin[2] - offset
                        if 0 <= idx < len(arg_taints):
                            out |= arg_taints[idx]
                    else:
                        out.add(origin)
            return out

        # Unknown callee (numpy, stdlib, ...): taint passes through.
        out = recv_taint
        for t in arg_taints:
            out = out | t
        for t in kw_taints.values():
            out = out | t
        return out

    def _resolve(self, node: ast.Call) -> CallSite | None:
        for site in self.fi.calls:
            if site.node is node:
                return site
        return None
