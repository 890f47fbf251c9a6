"""Offline plan-store auditor: base files, delta chains, staleness.

Sibling of :class:`repro.check.wal_audit.WalAuditor` for the ``plans/``
subdirectory: verifies every artifact the serving ladder would consult,
*eagerly* (full buffer CRCs, full delta payload CRCs -- the offline
auditor pays the O(n) read the O(1) open defers) and without building a
:class:`~repro.planstore.store.PlanStore`:

* base files: framed-header structure, then every buffer's bytes
  against its recorded CRC32, then the sorted-key view's order (a
  file whose view is out of order answers range counts wrongly);
* delta chains and staleness: each generation's
  :meth:`~repro.planstore.serve.PlanDirectory.walk` -- the one chain
  rule the publisher and the serving ladder also follow -- turned into
  findings: where the walk stopped (a gap, an unreadable delta, one
  written for another generation, an LSN regress) and whether the
  chain predates the snapshot's ``last_seqno``;
* quarantined artifacts are reported (they are evidence of past
  damage), never touched.

Every plan finding is *recoverable* by construction: the ladder falls
back past any damaged generation, and rung 3 rebuilds from
snapshot + WAL -- whose own (possibly unrecoverable) problems are
:class:`WalAuditor`'s to report.  ``repro audit DIR`` combines both.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from repro.check.wal_audit import AuditFinding
from repro.planstore.format import PlanStoreError
from repro.planstore.serve import PlanDirectory


@dataclass(frozen=True)
class PlanAuditReport:
    """Outcome of :meth:`PlanAuditor.audit`.

    Attributes:
        directory: The audited ``plans/`` directory.
        findings: Every problem found (:class:`AuditFinding`).
        generations: Base generations present (quarantined excluded).
        verified_generations: Generations whose base and full chain
            verified clean.
        deltas: Delta files examined.
        quarantined: Quarantined artifacts present.
    """

    directory: str
    findings: list
    generations: int
    verified_generations: int
    deltas: int
    quarantined: int

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def damaged(self) -> bool:
        return any(not f.recoverable for f in self.findings)


class PlanAuditor:
    """Audit a state directory's ``plans/`` subdirectory.

    Args:
        dirpath: The *state* directory (the one holding
            ``snapshot.dili`` / ``wal.log`` / ``plans/``), matching
            :class:`WalAuditor`'s convention.
    """

    def __init__(self, dirpath) -> None:
        self.dirpath = os.fspath(dirpath)
        self.plans = PlanDirectory.for_state_dir(self.dirpath)

    def audit(self) -> PlanAuditReport:
        findings: list[AuditFinding] = []
        generations = self.plans.generations()
        verified = 0
        deltas = 0
        for generation in generations:
            gen_clean, gen_deltas = self._audit_generation(
                generation, findings
            )
            deltas += gen_deltas
            if gen_clean:
                verified += 1
        quarantined = self.plans.quarantined()
        if quarantined:
            findings.append(
                AuditFinding(
                    "plan-quarantined",
                    f"{len(quarantined)} quarantined artifact(s) present "
                    f"(evidence of past damage): "
                    + ", ".join(
                        os.path.basename(p) for p in quarantined[:5]
                    )
                    + ("..." if len(quarantined) > 5 else ""),
                    recoverable=True,
                )
            )
        return PlanAuditReport(
            directory=self.plans.dirpath,
            findings=findings,
            generations=len(generations),
            verified_generations=verified,
            deltas=deltas,
            quarantined=len(quarantined),
        )

    # ------------------------------------------------------------------

    def _audit_generation(
        self, generation: int, findings: list
    ) -> tuple[bool, int]:
        """Audit one base + chain; returns ``(clean, deltas_seen)``."""
        try:
            walk = self.plans.walk(generation)
        except PlanStoreError as exc:
            findings.append(
                AuditFinding("plan-header", str(exc), recoverable=True)
            )
            return False, 0
        clean = self._audit_buffers(
            self.plans.base_path(generation), walk.header, findings
        )
        if walk.stop is not None:
            findings.append(
                AuditFinding(
                    walk.stop.kind, walk.stop.detail, recoverable=True
                )
            )
            clean = False
        if walk.stale:
            findings.append(
                AuditFinding(
                    "plan-stale",
                    f"generation {generation} chain LSN {walk.lsn} "
                    f"predates snapshot seqno {walk.snapshot_seqno}; the "
                    f"gap was truncated from the WAL",
                    recoverable=True,
                )
            )
            clean = False
        return clean, walk.listed

    def _audit_buffers(
        self, base: str, header: dict, findings: list
    ) -> bool:
        """Eagerly check every buffer's CRC32, then that the sorted-key
        view (what range counts bisect) is strictly ascending; returns
        cleanliness."""
        clean = True
        data_start = header["data_start"]
        view = "pair_keys" if header["sorted_is_pair"] else "sorted_keys"
        keys = None
        with open(base, "rb") as fh:
            for desc in header["buffers"]:
                fh.seek(data_start + desc["offset"])
                raw = fh.read(desc["nbytes"])
                checksum = zlib.crc32(raw)
                if checksum != desc["crc32"]:
                    findings.append(
                        AuditFinding(
                            "plan-buffer-crc",
                            f"{os.path.basename(base)}: buffer "
                            f"{desc['name']!r} checksum {checksum:#010x} "
                            f"!= recorded {desc['crc32']:#010x}",
                            recoverable=True,
                        )
                    )
                    clean = False
                elif desc["name"] == view:
                    keys = np.frombuffer(raw, dtype=desc["dtype"])
        if clean and keys is not None and not bool(
            np.all(keys[1:] > keys[:-1])
        ):
            findings.append(
                AuditFinding(
                    "plan-key-order",
                    f"{os.path.basename(base)}: sorted-key view {view!r} "
                    f"is not strictly ascending",
                    recoverable=True,
                )
            )
            clean = False
        return clean


def audit_plans(dirpath) -> PlanAuditReport:
    """Convenience wrapper: ``PlanAuditor(dirpath).audit()``."""
    return PlanAuditor(dirpath).audit()
