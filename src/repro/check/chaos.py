"""The one chaos contract: what every chaos schedule reports.

Each schedule (``repro chaos --schedule tree|lock|plan|kill|supervision``)
drives its own scenario -- a per-kind sweep, rounds of a mixed
workload, scripted supervision phases -- and returns one
:class:`ChaosReport`.  The rule is the same for all of them: no wrong
read, no lost acknowledged write, and every schedule-specific check
true.  :meth:`ChaosReport.audit` is the one place a checked read is
counted and compared with its expected answer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class ChaosReport:
    """Outcome of one chaos schedule.

    Attributes:
        schedule: Schedule name (``tree``, ``lock``, ``plan``, ``kill``
            or ``supervision``).
        seed: Seed the schedule ran from.
        reads: Reads checked through :meth:`audit` (plus, in partial
            mode, keys the schedule expected to be unavailable).
        wrong_reads: Checked reads whose answer differed.
        writes: Writes the schedule issued.
        lost_writes: Acknowledged writes missing afterwards.
        checks: Schedule-specific contract terms, name -> held.
        counts: Schedule-specific counters, name -> number.
        events: Human-readable log of what the schedule did.
    """

    schedule: str
    seed: int
    reads: int = 0
    wrong_reads: int = 0
    writes: int = 0
    lost_writes: int = 0
    checks: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The contract: no wrong read, no lost write, every check held."""
        return (
            self.wrong_reads == 0
            and self.lost_writes == 0
            and all(self.checks.values())
        )

    def audit(self, got, expected) -> int:
        """Count ``expected``'s reads; return how many ``got`` gets wrong.

        Answers compare by identity, then equality; a missing or extra
        answer counts as wrong.
        """
        got = list(got)
        expected = list(expected)
        wrong = abs(len(got) - len(expected)) + sum(
            1 for g, w in zip(got, expected) if g is not w and g != w
        )
        self.reads += len(expected)
        self.wrong_reads += wrong
        return wrong

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}
