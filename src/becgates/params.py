"""Physical and derived parameters of the coupled two-mode condensate.

All frequency-like quantities (trap frequencies, collision strengths, the
two-photon coupling ``g`` and detuning ``delta``) are angular frequencies in
one consistent unit system.  Every formula here is scale invariant, so the
same code serves both rad/s inputs and the dimensionless g = 1 units used by
the sweep and CLI layers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NoReturn

__all__ = [
    "ValidationError",
    "PhysicalParams",
    "DerivedParams",
    "derive_params",
    "params_from_dict",
    "params_to_dict",
]

PARAM_FIELDS = (
    "omega_a",
    "omega_b",
    "gamma_a",
    "gamma_b",
    "gamma_ab",
    "g",
    "delta",
    "n_atoms",
)


class ValidationError(ValueError):
    """Raised when an input parameter set fails validation."""


def _reject(name: str, value, expected: str) -> NoReturn:
    if value is None:
        raise ValidationError(f"field '{name}' is missing")
    raise ValidationError(f"field '{name}' must be {expected}, got {value!r}")


def _number(name: str, value, minimum: float = -math.inf, strict: bool = False) -> float:
    """A finite number, not a bool, that is >= minimum (> minimum when strict)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # the bound also keeps JSON integers too large for a float out
    x = float(value) if number and abs(value) <= sys.float_info.max else math.nan
    if not (x > minimum if strict else x >= minimum):  # NaN fails both
        bound = "" if minimum == -math.inf else f" {'>' if strict else '>='} {minimum:g}"
        _reject(name, value, "a finite number" + bound)
    return x


@dataclass(frozen=True)
class PhysicalParams:
    """Raw model parameters.

    Attributes:
        omega_a, omega_b: trap mode frequencies for the two hyperfine modes.
        gamma_a, gamma_b: intra-species collision strengths.
        gamma_ab: inter-species collision strength.
        g: two-photon coupling strength, g >= 0.
        delta: two-photon detuning.
        n_atoms: total boson number N >= 1 (conserved by the dynamics).
    """

    omega_a: float
    omega_b: float
    gamma_a: float
    gamma_b: float
    gamma_ab: float
    g: float
    delta: float
    n_atoms: int

    def __post_init__(self) -> None:
        for name in PARAM_FIELDS[:-1]:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"field '{name}' must be a finite number, got {value!r}")
        if self.g < 0:
            raise ValidationError(f"field 'g' must be >= 0, got {self.g!r}")
        n = self.n_atoms
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"field 'n_atoms' must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from :class:`PhysicalParams`.

    ``sin_xi`` and ``cos_xi`` are exact polar companions of ``xi``: they are
    computed directly from (2g, gamma_fs - delta) so that, e.g., ``sin_xi``
    is exactly 0.0 when g = 0 even though ``sin(xi)`` would round to ~1e-16
    on the xi = pi branch.
    """

    lambda_nl: float  # nonlinear parameter, (gamma_a + gamma_b - 2*gamma_ab)/4
    gamma_fs: float  # frequency-scattering detuning
    omega0: float
    omega1: float
    omega2: float
    xi: float  # mixing angle, in (0, pi) for g > 0
    varpi: float  # effective precession rate
    eta: float  # global-phase rate
    sin_xi: float
    cos_xi: float


def derive_params(p: PhysicalParams) -> DerivedParams:
    """Compute the derived parameter set for a physical configuration.

    The mixing angle is fixed on the branch xi = atan2(2g, gamma_fs - delta),
    which lies in (0, pi) whenever g > 0.  On that branch the precession rate
    equals hypot(gamma_fs - delta, 2g), so it is always >= 0.
    """
    n = p.n_atoms
    omt_a = p.omega_a - p.gamma_a
    omt_b = p.omega_b - p.gamma_b

    lambda_nl = 0.25 * (p.gamma_a + p.gamma_b - 2.0 * p.gamma_ab)
    gamma_fs = (p.omega_a - p.omega_b) + (p.gamma_a - p.gamma_b) * (n - 1)
    omega0 = 0.5 * (omt_a + omt_b)
    omega1 = 0.5 * (omt_a - omt_b - p.delta)
    omega2 = 0.5 * (p.gamma_a - p.gamma_b)

    mismatch = gamma_fs - p.delta
    xi = math.atan2(2.0 * p.g, mismatch)
    h = math.hypot(2.0 * p.g, mismatch)
    if h > 0.0:
        sin_xi = 2.0 * p.g / h
        cos_xi = mismatch / h
    else:
        # uncoupled and exactly matched: no rotation at all
        sin_xi, cos_xi = 0.0, 1.0
    varpi = mismatch * cos_xi + 2.0 * p.g * sin_xi
    eta = 0.5 * ((p.omega_a + p.omega_b) + (p.gamma_a + p.gamma_b) * (n - 1)) * n

    return DerivedParams(
        lambda_nl=lambda_nl,
        gamma_fs=gamma_fs,
        omega0=omega0,
        omega1=omega1,
        omega2=omega2,
        xi=xi,
        varpi=varpi,
        eta=eta,
        sin_xi=sin_xi,
        cos_xi=cos_xi,
    )


def params_from_dict(data: dict) -> PhysicalParams:
    """Build PhysicalParams from a JSON-style dict with exactly the schema keys."""
    if not isinstance(data, dict):
        raise ValidationError(f"parameter set must be an object, got {type(data).__name__}")
    missing = [k for k in PARAM_FIELDS if k not in data]
    if missing:
        raise ValidationError(f"field '{missing[0]}' is missing from parameter set")
    extra = [k for k in data if k not in PARAM_FIELDS]
    if extra:
        raise ValidationError(f"field '{extra[0]}' is not a recognized parameter")
    kwargs = {name: _number(name, data[name]) for name in PARAM_FIELDS[:-1]}
    return PhysicalParams(**kwargs, n_atoms=data["n_atoms"])  # which checks n_atoms


def params_to_dict(p: PhysicalParams) -> dict:
    return {name: getattr(p, name) for name in PARAM_FIELDS}
