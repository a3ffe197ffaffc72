"""Three-valued certification outcomes with machine-checkable witnesses.

Witnesses and diagnostics hold JSON values only: str, int, float, bool,
None, lists, tuples and dicts with str keys.  Producers build them that way
(``int(...)``, ``str(...)``, ``.tolist()``), and nothing converts them later:
``Verdict.to_json`` puts the same objects into the report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

CERTIFIED = "certified"
OBSTRUCTION = "obstruction-certified"
INCONCLUSIVE = "inconclusive"

_STATUSES = (CERTIFIED, OBSTRUCTION, INCONCLUSIVE)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one certification step.

    A definite outcome (certified either way) always carries at least one
    witness that a verifier can recheck; inconclusive outcomes explain what
    is missing in ``diagnostics``.
    """

    status: str
    witnesses: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.status in (CERTIFIED, OBSTRUCTION) and not self.witnesses:
            raise ValueError(f"{self.status} verdict requires at least one witness")

    @property
    def is_certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def is_obstruction(self) -> bool:
        return self.status == OBSTRUCTION

    @property
    def is_inconclusive(self) -> bool:
        return self.status == INCONCLUSIVE

    def to_json(self) -> dict[str, Any]:
        """The report dict, which ``json.dumps`` writes as is.  It shares the
        witness tuple and the diagnostic values with this verdict (only the
        diagnostics dict is copied), so it costs the same whatever they hold."""
        return {
            "status": self.status,
            "witnesses": self.witnesses,
            "diagnostics": dict(self.diagnostics),
        }


def certified(*witnesses, **diagnostics) -> Verdict:
    return Verdict(CERTIFIED, tuple(witnesses), diagnostics)


def obstruction(*witnesses, **diagnostics) -> Verdict:
    return Verdict(OBSTRUCTION, tuple(witnesses), diagnostics)


def inconclusive(**diagnostics) -> Verdict:
    return Verdict(INCONCLUSIVE, (), diagnostics)
