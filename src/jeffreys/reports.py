"""Machine-readable run reports for centroid computations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .errors import NumericError, ValidationError


@dataclass(frozen=True)
class RunReport:
    """One centroid run: the result vector plus solver diagnostics.

    Serialized with shortest round-trip decimals, so a report survives a
    JSON round trip bit for bit.  A non-finite number, which JSON cannot
    hold, is refused in both formats with :class:`NumericError`.
    ``fallback`` is True when a fixed-point run did not contract and its
    rescue produced the centroid.
    """

    mode: str
    kind: str
    centroid: list[float]
    iterations: int
    objective: float
    wall_clock_seconds: float
    w_c: float | None = None
    lambda_star: float | None = None
    bound_factor: float | None = None
    alpha_vs_exact: float | None = None
    simplex_defect: float | None = None
    epsilon_scale: float | None = None
    fallback: bool = False

    def _fields(self) -> dict:
        # A shallow dict: dataclasses.asdict would deep-copy the centroid list.
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in values.items():
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise NumericError(f"report field {name} is not finite: {v!r}")
        return values

    def to_json(self) -> str:
        return json.dumps(self._fields())

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed report JSON: {exc}") from exc
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ValidationError(f"bad report JSON: {exc}") from exc

    def to_csv(self) -> str:
        scalars = {k: v for k, v in self._fields().items() if k != "centroid"}
        header = list(scalars) + [f"bin_{i}" for i in range(len(self.centroid))]
        row = [_cell(v) for v in scalars.values()] + [repr(v) for v in self.centroid]
        return ",".join(header) + "\n" + ",".join(row) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
