"""Structured decision reports shared by the weight checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalar_power import NotA2Error

VERDICT_A2 = "a2"
VERDICT_NOT_A2 = "not_a2"
VERDICT_NOT_PD_AE = "not_positive_definite_ae"
VERDICT_NOT_INTEGRABLE = "not_locally_integrable"
VERDICT_PD_AE = "positive_definite_ae"
VERDICT_NECESSARY_PASSED = "inconclusive_necessary_passed"

__all__ = [
    "Finding",
    "A2Report",
    "VERDICT_A2",
    "VERDICT_NOT_A2",
    "VERDICT_NOT_PD_AE",
    "VERDICT_NOT_INTEGRABLE",
    "VERDICT_PD_AE",
    "VERDICT_NECESSARY_PASSED",
]


@dataclass(frozen=True)
class Finding:
    """One structured reason behind a verdict.

    kind is a stable machine-readable tag; where holds the 0-based entry or
    index tuple the finding points at (empty when global).
    """

    kind: str
    where: tuple[int, ...]
    detail: str

    def to_payload(self) -> dict:
        return {"kind": self.kind, "where": list(self.where), "detail": self.detail}


@dataclass(frozen=True)
class A2Report:
    """Decision outcome with every violated condition listed, not just the first."""

    verdict: str
    findings: tuple[Finding, ...] = ()
    witness: float | None = None
    notes: tuple[str, ...] = field(default=())

    @property
    def reasons(self) -> str:
        """' (detail; detail; ...)' of the findings, '' when there are none."""
        details = "; ".join(f.detail for f in self.findings)
        return f" ({details})" if details else ""

    def require_a2(self) -> None:
        """The gate of every estimate: NotA2Error(verdict + reasons) unless a2."""
        if self.verdict != VERDICT_A2:
            raise NotA2Error(self.verdict + self.reasons)

    def to_payload(self) -> dict:
        out: dict = {
            "verdict": self.verdict,
            "findings": [f.to_payload() for f in self.findings],
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = list(self.notes)
        return out
