"""Closed forms and parameter-regime classification.

The spatial maximum of a solution is dominated by the logistic ODE
m' = m (a - (b - chi) m): chemotaxis weakens the damping by exactly chi
at a maximum, where v <= u makes the drift term act like +chi u (u - v).
That comparison powers ``upper_envelope`` and motivates most of the
thresholds reported by ``classify``:

* chi <  b       : solutions stay globally bounded
* chi <= b       : solutions exist globally
* dim/2 < chi/(chi - b)_+ : global existence via moment estimates, with
                   (x / 0_+ read as +inf), so the flag also covers every
                   chi <= b
* b > 2 chi      : the uniform state a/b attracts strictly positive data
* chi < 2 b / (3 + sqrt(1 + a dim)) : compactly supported data spreads

``cstar_lower_bound_formula`` evaluates the predicted floor on the
spreading speed; it degenerates to the classical pulled-front value
2 sqrt(a) when chi = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .params import Params

__all__ = [
    "RegimeReport",
    "logistic_exact",
    "upper_envelope",
    "classify",
    "cstar_lower_bound_formula",
]


def logistic_exact(u0: float, a0: float, b0: float, t: float) -> float:
    """Solution at time t of m' = m (a0 - b0 m), m(0) = u0.

    Valid for u0 >= 0, b0 > 0, any real a0.  Arranged so that no
    intermediate overflows for large a0 * t of either sign, and so that
    no small a0 is divided by another: the growth enters only through
    s = (e^(a0 t) - 1)/a0 at a0 <= 0 and s = (1 - e^(-a0 t))/a0 at
    a0 > 0, both formed as t * expm1(x)/x with x = -|a0| t.
    """
    if u0 < 0:
        raise ValueError(f"u0 must be nonnegative, got {u0}")
    if not b0 > 0:
        raise ValueError(f"b0 must be positive, got {b0}")
    u0 = float(u0)
    if u0 == 0.0:
        return 0.0
    x = -abs(a0) * t
    # expm1(x)/x -> 1 as x -> 0, and is exactly 1 when x underflowed
    s = t if x == 0.0 else t * (math.expm1(x) / x)
    if a0 > 0:
        return u0 / (math.exp(x) + b0 * u0 * s)
    return u0 * math.exp(x) / (1.0 + b0 * u0 * s)


def upper_envelope(t: float, m0: float, p: Params) -> float:
    """Upper bound on sup_x u(., t) given sup_x u(., 0) = m0.

    Requires chi <= b.  For chi < b this is the logistic flow with
    damping b - chi; at chi = b the damping vanishes and only the
    exponential bound m0 e^(a t) survives.
    """
    if m0 < 0:
        raise ValueError(f"m0 must be nonnegative, got {m0}")
    if p.chi > p.b:
        raise ValueError(
            f"no envelope available for chi > b (chi={p.chi}, b={p.b})"
        )
    if p.chi == p.b:
        return m0 * math.exp(p.a * t)
    return logistic_exact(m0, p.a, p.b - p.chi, t)


@dataclass(frozen=True)
class RegimeReport:
    """Boolean regime flags with the threshold values that decided them."""

    params: Params
    global_exists: bool
    global_bounded: bool
    moment_route_bounded: bool
    stability: bool
    spreading: bool
    max_safe_r: float
    thresholds: dict

    def to_dict(self) -> dict:
        return asdict(self)


def classify(p: Params) -> RegimeReport:
    """Evaluate every parameter-regime flag for p."""
    excess = p.chi - p.b
    max_safe_r = math.inf if excess <= 0 else p.chi / excess
    spreading_threshold = 2.0 * p.b / (3.0 + math.sqrt(1.0 + p.a * p.dim))
    thresholds = {
        "boundedness_chi_below": p.b,
        "stability_chi_below": p.b / 2.0,
        "spreading_chi_below": spreading_threshold,
        "moment_sup": max_safe_r,
        "half_dim": p.dim / 2.0,
    }
    return RegimeReport(
        params=p,
        global_exists=p.chi <= p.b,
        global_bounded=p.chi < p.b,
        moment_route_bounded=p.dim / 2.0 < max_safe_r,
        stability=p.b > 2.0 * p.chi,
        spreading=p.chi < spreading_threshold,
        max_safe_r=max_safe_r,
        thresholds=thresholds,
    )


def cstar_lower_bound_formula(p: Params) -> Optional[float]:
    """Predicted floor on the spreading speed, or None when no floor holds.

    With q = a/(b - chi) the asymptotic attractant level, the floor
    2 sqrt(a - chi q) - chi sqrt(dim) q is positive exactly when
    4 (a - chi q) - dim chi^2 q^2 > 0; outside that regime (including
    chi >= b and a = 0) no floor is predicted and None is returned.
    """
    if p.chi >= p.b:
        return None
    q = p.a / (p.b - p.chi)
    margin = 4.0 * (p.a - p.chi * q) - p.dim * (p.chi * q) ** 2
    if not margin > 0.0:
        return None
    return 2.0 * math.sqrt(p.a - p.chi * q) - p.chi * math.sqrt(p.dim) * q
