"""Three-valued certification outcomes with machine-checkable witnesses."""
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
        return {
            "status": self.status,
            "witnesses": _jsonable(self.witnesses),
            "diagnostics": {k: _jsonable(v) for k, v in self.diagnostics.items()},
        }


def certified(*witnesses, **diagnostics) -> Verdict:
    return Verdict(CERTIFIED, tuple(witnesses), diagnostics)


def obstruction(*witnesses, **diagnostics) -> Verdict:
    return Verdict(OBSTRUCTION, tuple(witnesses), diagnostics)


def inconclusive(**diagnostics) -> Verdict:
    return Verdict(INCONCLUSIVE, (), diagnostics)


def _jsonable(v):
    """v as values json.dumps writes.  A list, tuple or dict with nothing
    inside to convert is returned as itself, and tuples stay tuples (written
    as arrays), so reports share witness data instead of copying it."""
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, dict):
        out = {str(k): _jsonable(x) for k, x in v.items()}
        return v if all(isinstance(k, str) and out[k] is x for k, x in v.items()) else out
    if isinstance(v, (list, tuple, set, frozenset)):
        out = [_jsonable(x) for x in v]
        if isinstance(v, (list, tuple)) and all(y is x for x, y in zip(v, out)):
            return v
        return tuple(out) if isinstance(v, tuple) else out
    if hasattr(v, "to_json"):
        return v.to_json()
    return repr(v)
