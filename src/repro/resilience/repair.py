"""Online repair engine: quarantine, rebuild, re-verify -- no downtime.

The engine maps any sanitizer finding to the smallest subtree that
contains it, opens a :class:`RepairTicket` quarantining that subtree
(the serving layer routes reads around it and redirects its writes to
the authoritative pair table), then repairs it incrementally:

1. **quarantine** -- :meth:`RepairEngine.scan` runs the scoped
   ``repro.check`` verifiers (internal models first, then each
   top-level leaf's structure and content, then the flat plan) and
   opens one ticket per damaged subtree.  Health goes DEGRADED.
2. **rebuild** -- :meth:`RepairEngine.repair_step` restores the
   ticket's subtree from authoritative state: internal models are
   recomputed exactly (Eq. 1 is a pure function of ``[lb, ub)`` and
   fanout), leaves are rebuilt **bulk-load-identically** via
   :meth:`repro.core.dili.DILI.rebuild_leaf` from the authoritative
   pairs routed to them, which also re-emits the leaf into the
   compiled flat plan through the index's own plan-maintenance path
   -- never a full-index rebuild.
3. **verify** -- the same step re-runs the scoped verifiers over just
   the repaired subtree (structure, content vs. authority, plan
   answers).  Pass closes the ticket; the last closed ticket restores
   HEALTHY.  Fail reopens the rebuild stage (bounded attempts).

Because leaves are rebuilt with the exact bulk-load construction path,
a repaired subtree is *bit-identical* (models, slot layout,
bookkeeping) to what a fresh ``bulk_load`` of the surviving pairs would
build for the same range -- the property the identity oracle
(:mod:`repro.resilience.oracle`) checks and CI enforces.

Quarantine membership is decided by **routing, not key ranges**: a key
is quarantined iff the root-to-leaf descent reaches the ticket's node.
The walk compares node identity *before* using a node's model, so it is
exact even when the target's own model is the thing that is poisoned,
and it inherits the tree's boundary behaviour (clamping) for free.
"""

from __future__ import annotations

from repro.check import SanitizerViolation, verify_internal, verify_subtree
from repro.check.errors import InvariantError
from repro.core.linear_model import LinearModel
from repro.core.nodes import DenseLeafNode, InternalNode
from repro.resilience.faults import _internal_nodes, _top_nodes
from repro.resilience.health import Health, HealthMonitor

__all__ = ["Finding", "RepairTicket", "RepairEngine"]

#: Rebuild attempts per ticket before the engine gives up loudly.
_MAX_ATTEMPTS = 5


class Finding:
    """One detected violation, localized to its containing subtree.

    Attributes:
        kind: ``"internal"`` | ``"leaf"`` | ``"dense"`` | ``"plan"``.
        node: The damaged subtree's root: an :class:`InternalNode` for
            model poisoning, otherwise the containing *top-level* leaf
            (for ``"plan"`` findings the tree node is intact; the
            plan's extent for it is what diverged).
        message: The verifier's diagnostic.
    """

    __slots__ = ("kind", "node", "message")

    def __init__(self, kind: str, node, message: str) -> None:
        self.kind = kind
        self.node = node
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self.kind!r}, {self.message!r})"


class RepairTicket:
    """Quarantine + repair state for one finding."""

    __slots__ = ("finding", "stage", "attempts", "buffered")

    def __init__(self, finding: Finding) -> None:
        self.finding = finding
        #: ``"quarantined"`` (awaiting rebuild) or ``"verify"``
        #: (rebuilt, awaiting re-verification).
        self.stage = "quarantined"
        self.attempts = 0
        #: Write operations redirected to authority while quarantined,
        #: as ``(op, key)`` tuples -- observability, not replay state:
        #: the authoritative table already absorbed them.
        self.buffered: list[tuple[str, float]] = []

    def covers(self, index, key: float) -> bool:
        """Would a correct root-to-leaf descent for ``key`` pass through
        this ticket's subtree?

        Node identity is compared *before* a node's model is evaluated,
        so the answer is exact even when the target itself is poisoned;
        ancestors of the target are trusted (the scan opens internal
        tickets first and :meth:`RepairEngine.repair_step` closes them
        first, so by the time a deeper ticket's membership matters its
        ancestors are clean).
        """
        target = self.finding.node
        node = index.root
        while type(node) is InternalNode:
            if node is target:
                return True
            node = node.children[node.child_index(key)]
        return node is target


class RepairEngine:
    """Scans for damage, quarantines it, and repairs it online.

    Args:
        index: The :class:`repro.core.dili.DILI` being protected.
        auth: The authoritative :class:`repro.resilience.serving.PairTable`
            (ground truth for rebuilds and content checks).
        monitor: The shared :class:`HealthMonitor`.
    """

    def __init__(self, index, auth, monitor: HealthMonitor) -> None:
        self.index = index
        self.auth = auth
        self.monitor = monitor
        self.tickets: list[RepairTicket] = []
        self.counters = {
            "scans": 0,
            "findings": {"internal": 0, "leaf": 0, "dense": 0, "plan": 0},
            "repairs": {"internal": 0, "leaf": 0, "dense": 0, "plan": 0},
            "plan_splices": 0,
            "plan_drops": 0,
            "reverify_failures": 0,
            "full_rebuilds": 0,  # stays zero: repairs are always scoped
        }
        # The suite-wide TreeSanitizer is suspended while any ticket is
        # open (the tree is *known* damaged; the engine's scoped checks
        # take over) and restored on return to HEALTHY.
        self._suspended_sanitizer = None

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def scan(self) -> int:
        """Run the detection pass; returns the number of new tickets.

        Order matters: internal models are checked first because leaf
        content attribution routes authoritative keys through them; if
        any internal node is poisoned, leaf/plan findings are deferred
        to the rescan that follows its repair.
        """
        self.counters["scans"] += 1
        index = self.index
        if index.root is None:
            return 0
        ticketed = {id(t.finding.node) for t in self.tickets}
        new: list[Finding] = []

        for node in _internal_nodes(index.root):
            try:
                verify_internal(node)
            except SanitizerViolation as exc:
                if id(node) not in ticketed:
                    new.append(Finding("internal", node, str(exc)))
        if not new and not any(
            t.finding.kind == "internal" for t in self.tickets
        ):
            new.extend(self._scan_leaves(ticketed))
            if not new and not self.tickets:
                finding = self._scan_plan()
                if finding is not None and id(finding.node) not in ticketed:
                    new.append(finding)

        for finding in new:
            self.counters["findings"][finding.kind] += 1
            self.tickets.append(RepairTicket(finding))
        if self.tickets:
            if self._suspended_sanitizer is None:
                self._suspended_sanitizer = index.sanitizer
                index.sanitizer = None
            self.monitor.to(Health.DEGRADED)
        return len(new)

    def _scan_leaves(self, ticketed: set[int]) -> list[Finding]:
        """Structure + content findings for every top-level leaf."""
        findings: list[Finding] = []
        groups = self._route_authority()
        for leaf, expected in groups:
            if id(leaf) in ticketed:
                continue
            kind = "dense" if type(leaf) is DenseLeafNode else "leaf"
            try:
                verify_subtree(leaf)
            except SanitizerViolation as exc:
                findings.append(Finding(kind, leaf, str(exc)))
                continue
            message = self._content_mismatch(leaf, expected)
            if message is not None:
                findings.append(Finding(kind, leaf, message))
        return findings

    def _scan_plan(self) -> Finding | None:
        """Cross-check a live flat plan against the authoritative table.

        Only reached when the object tree itself verified clean, so any
        divergence is plan-side; the finding is attributed to the
        top-level leaf whose extent holds the first divergent position.
        """
        index = self.index
        plan = index.peek_plan()
        if plan is None:
            return None
        auth = self.auth
        keys = auth.keys
        try:
            plan.self_check()
            if len(plan.sorted_keys) != len(keys):
                raise SanitizerViolation(
                    f"plan holds {len(plan.sorted_keys)} keys, authority "
                    f"holds {len(keys)}"
                )
            import numpy as np

            diff = np.flatnonzero(plan.sorted_keys != keys)
            if len(diff):
                raise SanitizerViolation(
                    f"plan key table diverged at position {int(diff[0])}"
                )
            got = plan.get_batch(keys)
            values = auth.values
            for i, actual in enumerate(got):
                if actual is not values[i] and actual != values[i]:
                    raise SanitizerViolation(
                        f"plan answers {actual!r} for key {keys[i]!r}, "
                        f"authority holds {values[i]!r}"
                    )
        except InvariantError as exc:
            leaf = self._leaf_of_first_divergence(exc)
            return Finding("plan", leaf, str(exc))
        return None

    def _leaf_of_first_divergence(self, exc) -> object:
        """Containing top-level leaf for a plan divergence.

        Routes every authoritative key through the (verified-clean)
        object tree and, where plan and authority key tables disagree,
        descends for the first divergent key; falls back to the first
        top-level leaf for table-shape mismatches.
        """
        import numpy as np

        index = self.index
        plan = index.peek_plan()
        keys = self.auth.keys
        n = min(len(plan.sorted_keys), len(keys))
        if n:
            diff = np.flatnonzero(plan.sorted_keys[:n] != keys[:n])
            pos = int(diff[0]) if len(diff) else None
            if pos is None:
                # Same key table: the divergence was a value/extent
                # answer; find it by re-asking per key.
                got = plan.get_batch(keys)
                values = self.auth.values
                pos = 0
                for i, actual in enumerate(got):
                    if actual is not values[i] and actual != values[i]:
                        pos = i
                        break
            probe = float(keys[pos]) if pos < len(keys) else float(
                plan.sorted_keys[pos]
            )
            node = index.root
            while type(node) is InternalNode:
                node = node.children[node.child_index(probe)]
            return node
        return _top_nodes(index.root)[0]

    def _route_authority(self) -> list[tuple[object, list]]:
        """Authoritative pairs grouped by the top-level leaf that owns
        them, in DFS leaf order (leaves with no keys get empty groups).

        Uses the index's cached :class:`InternalRouter` -- internal
        nodes must be clean (the scan ordering guarantees it).
        """
        import numpy as np

        index = self.index
        auth = self.auth
        tops = _top_nodes(index.root)
        groups: dict[int, list] = {id(leaf): [] for leaf in tops}
        keys = auth.keys
        if len(keys):
            router = index._get_router()
            leaf_of, _ = router.route(keys)
            values = auth.values
            leaves = router.leaves
            for i, li in enumerate(leaf_of.tolist()):
                groups[id(leaves[li])].append((float(keys[i]), values[i]))
        return [(leaf, groups[id(leaf)]) for leaf in tops]

    @staticmethod
    def _content_mismatch(leaf, expected: list) -> str | None:
        """First content divergence between a leaf walk and authority."""
        actual = list(leaf.iter_pairs())
        if len(actual) != len(expected):
            return (
                f"leaf [{leaf.lb}, {leaf.ub}) holds {len(actual)} pairs, "
                f"authority routes {len(expected)} to it"
            )
        for (ak, av), (ek, ev) in zip(actual, expected):
            if ak != ek:
                return f"leaf key {ak!r} diverged from authority {ek!r}"
            if av is not ev and av != ev:
                return (
                    f"leaf value {av!r} under key {ak!r} diverged from "
                    f"authority {ev!r}"
                )
        return None

    # ------------------------------------------------------------------
    # Quarantine membership (used by the serving layer)
    # ------------------------------------------------------------------

    def is_quarantined(self, key: float) -> bool:
        key = float(key)
        return any(t.covers(self.index, key) for t in self.tickets)

    def note_buffered(self, key: float, op: str) -> None:
        """Record a redirected write on the ticket that quarantines it."""
        key = float(key)
        for ticket in self.tickets:
            if ticket.covers(self.index, key):
                ticket.buffered.append((op, key))
                return

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def repair_step(self) -> bool:
        """Rebuild and re-verify the oldest open ticket's subtree.

        Returns True while there is repair work left.  One call does
        one bounded unit of work (one subtree), which is what keeps
        repair latency bounded and lets the serving layer interleave
        traffic between steps.  Rebuild and re-verification happen in
        the *same* step: a write redirected to authority between them
        would otherwise move the ground truth under the verifier and
        fail an actually-correct rebuild.
        """
        if not self.tickets:
            return False
        self.monitor.to(Health.REPAIRING)
        ticket = self.tickets[0]
        self._rebuild(ticket)
        ticket.stage = "verify"
        try:
            self._reverify(ticket)
        except SanitizerViolation:
            self.counters["reverify_failures"] += 1
            ticket.attempts += 1
            if ticket.attempts >= _MAX_ATTEMPTS:
                raise InvariantError(
                    f"repair of {ticket.finding.kind} subtree failed "
                    f"{ticket.attempts} times: {ticket.finding.message}"
                ) from None
            ticket.stage = "quarantined"
            self.monitor.to(Health.DEGRADED)
            return True
        self.counters["repairs"][ticket.finding.kind] += 1
        self.tickets.pop(0)
        if not self.tickets:
            # Bookkeeping that scoped rebuilds cannot restore leaf by
            # leaf: the tree-wide pair count.
            self.index._count = len(self.auth)
            self.monitor.to(Health.HEALTHY)
            if self._suspended_sanitizer is not None:
                self.index.sanitizer = self._suspended_sanitizer
                self._suspended_sanitizer = None
        else:
            self.monitor.to(Health.DEGRADED)
        return True

    def repair_all(self, max_steps: int = 1000) -> int:
        """Drive :meth:`repair_step` to quiescence; returns steps taken."""
        steps = 0
        while self.repair_step():
            steps += 1
            if steps >= max_steps:
                raise InvariantError(
                    f"repair did not converge within {max_steps} steps"
                )
        return steps

    def _rebuild(self, ticket: RepairTicket) -> None:
        finding = ticket.finding
        if finding.kind == "internal":
            node = finding.node
            model = LinearModel.from_range(
                node.lb, node.ub, len(node.children)
            )
            node.slope = model.slope
            node.intercept = model.intercept
            # Writes routed around this subtree only reached authority;
            # reconcile every leaf under it so the tree catches up.
            self._reconcile_leaves(_top_nodes(node))
        else:
            self._reconcile_leaves([finding.node], force=True)

    def _reconcile_leaves(self, leaves: list, *, force: bool = False) -> None:
        """Rebuild (bulk-load-identically) each leaf whose content
        diverged from authority -- or unconditionally with ``force`` --
        and re-emit it into the flat plan."""
        groups = {
            id(leaf): expected for leaf, expected in self._route_authority()
        }
        index = self.index
        for leaf in leaves:
            expected = groups[id(leaf)]
            if not force and self._content_mismatch(leaf, expected) is None:
                continue
            had_plan = index.peek_plan() is not None
            if type(leaf) is DenseLeafNode:
                index.rebuild_dense_leaf(
                    leaf,
                    [k for k, _ in expected],
                    [v for _, v in expected],
                )
            else:
                index.rebuild_leaf(leaf, expected)
            # The rebuild maintained a live plan itself: a successor
            # re-emitted the leaf (counted as a splice) or it dropped.
            if had_plan:
                if index.peek_plan() is None:
                    self.counters["plan_drops"] += 1
                else:
                    self.counters["plan_splices"] += 1

    def _reverify(self, ticket: RepairTicket) -> None:
        """Scoped post-repair verification; raises on residual damage."""
        finding = ticket.finding
        if finding.kind == "internal":
            verify_internal(finding.node)
            leaves = _top_nodes(finding.node)
        else:
            leaves = [finding.node]
        groups = {
            id(leaf): expected for leaf, expected in self._route_authority()
        }
        for leaf in leaves:
            verify_subtree(leaf)
            message = self._content_mismatch(leaf, groups[id(leaf)])
            if message is not None:
                raise SanitizerViolation(message)
        plan = self.index.peek_plan()
        if plan is not None:
            import numpy as np

            for leaf in leaves:
                expected = groups[id(leaf)]
                if not expected:
                    continue
                keys = np.fromiter(
                    (k for k, _ in expected),
                    dtype=np.float64,
                    count=len(expected),
                )
                got = plan.get_batch(keys)
                for (k, v), actual in zip(expected, got):
                    if actual is not v and actual != v:
                        raise SanitizerViolation(
                            f"plan still answers {actual!r} for key {k!r} "
                            f"after repair; authority holds {v!r}"
                        )
