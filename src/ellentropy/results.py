"""Shared result types."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

# Tags for EntropyResult.kind.
CERTIFIED_LOWER = "certified-lower"
CERTIFIED_UPPER = "certified-upper"


class EntropyResult(NamedTuple):
    """An entropy value in bits, tagged with what it certifies.

    ``epsilon`` is the covering radius the value refers to (which may be
    an inflated radius for some certified bounds).
    """

    bits: float
    kind: str
    epsilon: float


class BoundCertificate(NamedTuple):
    """The data backing a certified bound, for auditability."""

    effective_dimension: int
    block_sizes: Tuple[int, ...]
    inner_radii: Tuple[float, ...]
    tail_radius: float
    omega_count: int
    tail_case: str = "I"
    eta: Optional[float] = None
    kappa: Optional[float] = None
    notes: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {
            "effective_dimension": self.effective_dimension,
            "block_sizes": list(self.block_sizes),
            "inner_radii": list(self.inner_radii),
            "tail_radius": self.tail_radius,
            "omega_count": self.omega_count,
            "tail_case": self.tail_case,
        }
        if self.eta is not None:
            out["eta"] = self.eta
        if self.kappa is not None:
            out["kappa"] = self.kappa
        if self.notes:
            out["notes"] = list(self.notes)
        return out
