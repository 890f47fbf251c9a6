"""Offline durability-directory auditor (no replay, no unpickling).

:class:`WalAuditor` points at a directory written by
:class:`repro.durability.DurableDILI` (``snapshot.dili`` + ``wal.log``)
and reports every framing-level problem that crash recovery would have
to work around -- without constructing an index:

* snapshot: magic/version/header shape, payload length, payload CRC
  (checked over the raw bytes, the payload is never unpickled);
* WAL: magic, per-record frame integrity and CRC, torn tail, and
  strict LSN monotonicity (``scan_wal`` enforces consecutive seqnos);
* cross-file: the WAL's first surviving record must not leave an LSN
  gap after the snapshot's ``last_seqno`` (records in the gap are
  lost forever; overlap is fine -- replay skips it).

A *torn tail* (truncated final record) is reported as recoverable --
that is the crash pattern the WAL is designed for -- while everything
else is flagged as damage.  ``repro audit DIR`` runs it beside the
plan-store audit (:mod:`repro.check.plan_audit`).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

from repro.durability.recovery import SNAPSHOT_NAME, WAL_NAME
from repro.durability.snapshot import (
    HEADER_SIZE,
    SnapshotError,
    read_snapshot_header,
)
from repro.durability.wal import scan_wal


@dataclass(frozen=True)
class AuditFinding:
    """One problem found in a durability directory."""

    kind: str
    detail: str
    recoverable: bool

    def format(self) -> str:
        tag = "recoverable" if self.recoverable else "DAMAGE"
        return f"[{tag}] {self.kind}: {self.detail}"


@dataclass(frozen=True)
class AuditReport:
    """Outcome of :meth:`WalAuditor.audit`."""

    directory: str
    findings: list
    snapshot_seqno: int | None  # None when no snapshot exists
    wal_records: int
    wal_valid_bytes: int

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def damaged(self) -> bool:
        return any(not f.recoverable for f in self.findings)


class WalAuditor:
    """Audit ``dirpath`` for WAL/snapshot framing violations."""

    def __init__(self, dirpath) -> None:
        self.dirpath = os.fspath(dirpath)

    def audit(self) -> AuditReport:
        findings: list[AuditFinding] = []
        snapshot_seqno = self._audit_snapshot(findings)
        records, valid = self._audit_wal(findings, snapshot_seqno)
        return AuditReport(
            directory=self.dirpath,
            findings=findings,
            snapshot_seqno=snapshot_seqno,
            wal_records=records,
            wal_valid_bytes=valid,
        )

    # -- snapshot ------------------------------------------------------

    def _audit_snapshot(self, findings: list) -> int | None:
        path = os.path.join(self.dirpath, SNAPSHOT_NAME)
        if not os.path.exists(path):
            return None
        try:
            _, last_seqno, payload_len, crc = read_snapshot_header(path)
        except SnapshotError as exc:
            findings.append(
                AuditFinding("snapshot-header", str(exc), recoverable=False)
            )
            return None
        actual = os.path.getsize(path) - HEADER_SIZE
        if actual != payload_len:
            findings.append(
                AuditFinding(
                    "snapshot-length",
                    f"header promises {payload_len} payload bytes, file "
                    f"holds {actual}",
                    recoverable=False,
                )
            )
            return last_seqno
        with open(path, "rb") as fh:
            fh.seek(HEADER_SIZE)
            checksum = zlib.crc32(fh.read())
        if checksum != crc:
            findings.append(
                AuditFinding(
                    "snapshot-crc",
                    f"payload checksum {checksum:#010x} != recorded "
                    f"{crc:#010x}",
                    recoverable=False,
                )
            )
        return last_seqno

    # -- WAL -----------------------------------------------------------

    def _audit_wal(
        self, findings: list, snapshot_seqno: int | None
    ) -> tuple[int, int]:
        path = os.path.join(self.dirpath, WAL_NAME)
        if not os.path.exists(path):
            return 0, 0
        try:
            scan = scan_wal(path)
        except ValueError as exc:  # foreign magic / not a WAL at all
            findings.append(
                AuditFinding("wal-foreign", str(exc), recoverable=False)
            )
            return 0, 0
        if scan.truncated:
            reason = scan.reason or "unknown"
            tail = os.path.getsize(path) - scan.valid_offset
            # A torn final record is the expected crash artifact; CRC
            # or sequencing damage mid-log is not.
            recoverable = reason in (
                "short file header",
                "torn record header",
                "torn record body",
            )
            findings.append(
                AuditFinding(
                    "wal-torn-tail" if recoverable else "wal-damage",
                    f"{reason}: {tail} trailing byte(s) after the last "
                    f"valid record (offset {scan.valid_offset})",
                    recoverable=recoverable,
                )
            )
        if scan.records:
            first = scan.records[0].seqno
            expected = 1 if snapshot_seqno is None else snapshot_seqno + 1
            if first > expected:
                findings.append(
                    AuditFinding(
                        "lsn-gap",
                        f"WAL starts at seqno {first} but the snapshot "
                        f"covers only <= {expected - 1}; records "
                        f"{expected}..{first - 1} are lost",
                        recoverable=False,
                    )
                )
        return len(scan.records), scan.valid_offset


def audit_directory(dirpath) -> AuditReport:
    """Convenience wrapper: ``WalAuditor(dirpath).audit()``."""
    return WalAuditor(dirpath).audit()
