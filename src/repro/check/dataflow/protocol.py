"""CHK013 -- coordinator/worker pipe-protocol conformance.

The sharding layer speaks a tiny RPC over multiprocessing pipes:
requests are ``(req_id, method, args)``, responses ``(req_id, ok,
payload)``, and the worker's ``dispatch`` maps the ``method`` tag to a
public :class:`ShardWorker` method.  Nothing ties the two sides
together at runtime except string equality, so drift (a renamed verb,
a payload-shape change, a handler nobody can reach) ships silently.
This rule cross-checks the two sides statically, for every file under
``repro/sharding``:

* **worker side**: the handler set is every public method of the
  worker class (any class whose ``dispatch`` does ``getattr(self,
  method)``), plus the special tags the transport handles inline
  (``method == "stop"``-style comparisons), minus lifecycle methods
  called directly rather than dispatched (``close``);
* **coordinator side**: every string-literal tag passed to a send
  function (``call`` / ``send`` / ``_call`` / ``_send_retry`` /
  ``_recv_retry`` / ``_fan_out``), including tags that flow through
  one forwarding hop (a function whose ``method`` parameter it passes
  on, e.g. ``_write_batch("insert_batch", ...)``).  ``_fan_out`` is a
  send function in its own right, not a hop, so a tag that reaches it
  through ``_write_batch`` is still one hop from a send function;
* **checks**: every sent tag has a handler; a literal payload tuple's
  arity fits the handler's signature; every handler verb is sent (or
  invoked directly) somewhere; request/response frames sent on a pipe
  (``conn.send(...)``) are literal 3-tuples.

Dynamic tags (a variable the analysis cannot resolve to a literal) are
not checked -- the seeded-violation tests pin the literal paths.
"""

from __future__ import annotations

import ast

from .facts import FactsStore
from .model import ClassInfo, FunctionInfo, ProjectModel, call_name
from .solver import TaintFinding

RULE = "CHK013"

SEND_FUNCS = frozenset(
    {"call", "send", "_call", "_send_retry", "_recv_retry", "_fan_out"}
)

#: lifecycle methods invoked directly on the worker object, never
#: dispatched by tag
_LIFECYCLE = frozenset({"close"})


def in_scope(path: str) -> bool:
    return "/sharding/" in path.replace("\\", "/")


def _is_dispatcher(method: FunctionInfo) -> bool:
    """Does this method do ``getattr(self, <var>)(...)``?"""
    for node in ast.walk(method.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        ):
            return True
    return False


def _worker_classes(model: ProjectModel) -> list[ClassInfo]:
    out = []
    for infos in model.classes.values():
        for ci in infos:
            if not in_scope(ci.path):
                continue
            dispatch = ci.methods.get("dispatch")
            if dispatch is not None and _is_dispatcher(dispatch):
                out.append(ci)
    return out


def _handler_signature(mi: FunctionInfo) -> tuple[int, float]:
    """(min, max) positional payload arity, ``self`` excluded."""
    lo = max(0, mi.required - 1)
    hi = float("inf") if mi.has_varargs else max(0, len(mi.params) - 1)
    return lo, hi


def _special_tags(model: ProjectModel, paths: set[str]) -> set[str]:
    """Tags handled inline by the transport (``method == "stop"``)."""
    tags: set[str] = set()
    for pf in model.files:
        if pf.path not in paths:
            continue
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            names = {
                o.id for o in operands if isinstance(o, ast.Name)
            }
            if "method" not in names:
                continue
            for o in operands:
                if isinstance(o, ast.Constant) and isinstance(o.value, str):
                    tags.add(o.value)
    return tags


def _forwarders(model: ProjectModel) -> dict[str, int]:
    """name -> index of its ``method`` param, for one-hop forwarders."""
    out: dict[str, int] = {}
    for fi in model.functions:
        if not in_scope(fi.path) or "method" not in fi.params:
            continue
        forwards = any(
            site.name in (SEND_FUNCS | {"dispatch"})
            and any(
                isinstance(a, ast.Name) and a.id == "method"
                for a in site.node.args
            )
            for site in fi.calls
        )
        if forwards:
            out[fi.name] = fi.params.index("method")
    return out


def _tag_of(site_node: ast.Call, method_pos: int | None) -> tuple[str, int] | None:
    """(tag, positional index) of the literal tag, if any."""
    if method_pos is not None:
        if method_pos < len(site_node.args):
            arg = site_node.args[method_pos]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value, method_pos
        for kw in site_node.keywords:
            if kw.arg == "method" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                return kw.value.value, len(site_node.args)
        return None
    for i, arg in enumerate(site_node.args):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value, i
    return None


def _payload_tuple(site_node: ast.Call, tag_index: int) -> ast.Tuple | None:
    for arg in site_node.args[tag_index + 1:]:
        if isinstance(arg, ast.Tuple):
            return arg
    return None


def run(facts: FactsStore) -> list[TaintFinding]:
    model = facts.model
    workers = _worker_classes(model)
    if not workers:
        return []
    handlers: dict[str, FunctionInfo] = {}
    worker_paths: set[str] = set()
    for ci in workers:
        worker_paths.add(ci.path)
        for name, mi in ci.methods.items():
            if name.startswith("_") or name == "dispatch" or name in _LIFECYCLE:
                continue
            handlers[name] = mi
    specials = _special_tags(model, worker_paths)
    forwarders = _forwarders(model)

    findings: list[TaintFinding] = []
    sent_tags: set[str] = set()
    direct_calls: set[str] = set()

    for fi in model.functions:
        if not in_scope(fi.path):
            continue
        inside_worker = any(
            fi.class_name == ci.name and fi.path == ci.path for ci in workers
        )
        for site in fi.calls:
            name = site.name
            if name is None:
                continue
            if site.receiver is not None:
                direct_calls.add(name)
            is_sender = name in SEND_FUNCS or name in forwarders
            if not is_sender or inside_worker:
                # the worker's own conn.send(...) responses are checked
                # by the frame-shape pass below, not as tag sends
                continue
            offset = 0
            if name in forwarders:
                method_pos = forwarders[name]
                if site.receiver is not None and method_pos > 0:
                    offset = 1  # self consumed by the bound call
                got = _tag_of(site.node, method_pos - offset)
            else:
                got = _tag_of(site.node, None)
            if got is None:
                continue
            tag, tag_index = got
            sent_tags.add(tag)
            if tag not in handlers and tag not in specials:
                known = sorted(set(handlers) | specials)
                findings.append(
                    TaintFinding(
                        fi.path, site.node, RULE,
                        f"sent message tag {tag!r} has no worker handler; "
                        f"known verbs: {', '.join(known)}",
                    )
                )
                continue
            payload = _payload_tuple(site.node, tag_index)
            if payload is not None and tag in handlers:
                lo, hi = _handler_signature(handlers[tag])
                n = len(payload.elts)
                if not (lo <= n <= hi):
                    hi_txt = "*" if hi == float("inf") else int(hi)
                    findings.append(
                        TaintFinding(
                            fi.path, site.node, RULE,
                            f"message {tag!r} sent with {n} payload "
                            f"field(s) but the worker handler takes "
                            f"{lo}..{hi_txt}",
                        )
                    )

    for name, mi in sorted(handlers.items()):
        if name not in sent_tags and name not in direct_calls:
            findings.append(
                TaintFinding(
                    mi.path, mi.node, RULE,
                    f"worker handler {name!r} is never sent by any "
                    f"coordinator send site (and never called directly); "
                    f"dead protocol verbs drift silently -- remove it or "
                    f"wire up a sender",
                )
            )

    # Frame shape: anything sent on a raw pipe must be a 3-tuple.
    for fi in model.functions:
        if not in_scope(fi.path):
            continue
        for site in fi.calls:
            if (
                site.name == "send"
                and site.receiver is not None
                and call_name(site.receiver) == "conn"
                and len(site.node.args) == 1
                and isinstance(site.node.args[0], ast.Tuple)
                and len(site.node.args[0].elts) != 3
            ):
                n = len(site.node.args[0].elts)
                findings.append(
                    TaintFinding(
                        fi.path, site.node, RULE,
                        f"pipe frame is a {n}-tuple; the protocol is "
                        f"(req_id, method, args) / (req_id, ok, payload)",
                    )
                )
    return findings
