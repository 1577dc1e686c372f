"""Numerical tolerances used across the kernel.

All tolerances are relative unless noted. The environment variable
``LIECHANNEL_TOL`` multiplies every default by a common factor, which is the
supported way to loosen (or tighten) the whole suite at once on unusually
scaled input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    contact: float = 1e-9          # oriented-contact test, scale-invariant
    rank: float = 1e-8             # SVD rank cutoff relative to largest sv
    signature: float = 1e-8        # eigenvalue null cutoff relative to max |eig|
    null: float = 1e-9             # (v,v) ~ 0 test on auxiliary-normalized vectors
    constancy: float = 1e-9        # projective constancy of curvature spheres
    membership: float = 1e-8       # vector-in-subspace residual
    agreement: float = 1e-8        # left/right circle agreement, residual checks
    identity: float = 1e-7         # face curvature identity residual
    cosphericity: float = 1e-6     # nowhere-spherical cutoff (9-point patches)

    def scaled(self, factor: float) -> "Tolerances":
        return Tolerances(**{f.name: getattr(self, f.name) * factor for f in fields(self)})


def _from_env() -> Tolerances:
    base = Tolerances()
    raw = os.environ.get("LIECHANNEL_TOL")
    if raw is None:
        return base
    try:
        factor = float(raw)
    except ValueError:
        raise ValueError(f"LIECHANNEL_TOL must be a float, got {raw!r}")
    if factor <= 0:
        raise ValueError("LIECHANNEL_TOL must be positive")
    return base.scaled(factor)


TOL = _from_env()
