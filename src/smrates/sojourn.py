"""Parametric holding-time distributions for the renewal kernel.

Every family is absolutely continuous on (0, inf) with closed-form cdf
and density, so kernel entries p_ij * G_ij(t) stay differentiable and
the renewal solvers can evaluate the kernel derivative exactly.
Times are in years.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported inside the gamma branches, the only ones that
# use it: it costs more at start-up than numpy, and the other laws never
# call it

_FAMILIES = ("exponential", "weibull", "gamma", "uniform")

_EPS = 2.0**-53
# a cap no finite value reaches: near z = a the series needs about
# sqrt(73 a) terms, and z^a e^-z overflows there once a exceeds 172
_MAX_TERMS = 1000


def lower_gamma(a: float, z) -> np.ndarray:
    """Unnormalised lower incomplete gamma function
    gamma(a, z) = int_0^z u^(a-1) e^-u du, for a > 1 and z >= 0,
    vectorized over z; inf where the value overflows.

    Below z = a + 1 it sums the power series
    e^-z z^a sum_n z^n / (a (a+1) ... (a+n)); above, it takes Gamma(a, z)
    from its continued fraction (modified Lentz) off Gamma(a) (DiDonato &
    Morris, ACM TOMS 12, 1986).  The series stops once its term is below
    2^-53 of the sum, the fraction once its factor is within 2^-52 of 1:
    the factor is a rounded number, and one ulp above 1 is 2^-52.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    series = z < a + 1.0
    # beyond z = 2^11, Gamma(a, z) < 2^-53 Gamma(a) for every a whose
    # Gamma(a) is finite, so larger z (inf too) read as 2^11
    zs, zc = z[series], np.minimum(z[~series], 2.0**11)
    term = np.full_like(zs, 1.0 / a)
    total = term.copy()
    for n in range(1, _MAX_TERMS + 1):
        if not (term > _EPS * total).any():
            break
        term *= zs / (a + n)
        total += term
    out[series] = _power_decay(a, zs) * total
    try:
        gamma_a = math.gamma(a)
    except OverflowError:
        gamma_a = math.inf
    if math.isinf(gamma_a):
        # z >= a + 1 lies above the median, so gamma(a, z) > Gamma(a) / 2,
        # which overflows but for a in (171.62, 171.76); NaN stays NaN
        out[~series] = np.where(np.isnan(zc), zc, math.inf)
        return out
    b = zc + (1.0 - a)
    c = np.full_like(zc, 1.0 / np.finfo(float).tiny)
    d = 1.0 / b
    frac = d.copy()
    for i in range(1, _MAX_TERMS + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        frac *= delta
        if not (abs(delta - 1.0) > 2.0 * _EPS).any():
            break
    out[~series] = gamma_a - _power_decay(a, zc) * frac
    return out


def _power_decay(a: float, z: np.ndarray) -> np.ndarray:
    """z^a e^-z for 1-d z >= 0, as the square of z^(a/2) e^(-z/2) from pow
    and exp (a few ulps); where a half factor leaves the float range, one
    exp of a log z - z takes its place, and the value either overflows or
    is below 2^-53 of the Gamma(a) it is taken from."""
    with np.errstate(over="ignore"):
        power, decay = z ** (a / 2), np.exp(-z / 2)
        far = np.isinf(power) | (decay == 0.0)
        power[far] = np.exp(0.5 * (a * np.log(z[far]) - z[far]))
        decay[far] = 1.0
        half = power * decay
        return half * half


@dataclass(frozen=True)
class SojournDistribution:
    """Law of the waiting time between two jumps, for one kernel edge.

    family: one of "exponential", "weibull", "gamma", "uniform".
    params: family-specific positive reals:
        exponential -> (rate,)
        weibull     -> (shape, scale)
        gamma       -> (shape, scale)
        uniform     -> (lo, hi) with 0 <= lo < hi
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown sojourn family {self.family!r}")
        p = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", p)
        if not np.isfinite(p).all():
            raise ValueError(f"{self.family} sojourn parameters must be finite, got {p}")
        if self.family == "exponential":
            if len(p) != 1 or p[0] <= 0:
                raise ValueError("exponential sojourn needs a positive rate")
        elif self.family in ("weibull", "gamma"):
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ValueError(f"{self.family} sojourn needs positive shape and scale")
        else:  # uniform
            if len(p) != 2 or p[0] < 0 or p[1] <= p[0]:
                raise ValueError("uniform sojourn needs bounds 0 <= lo < hi")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "SojournDistribution":
        return cls("exponential", (rate,))

    @classmethod
    def weibull(cls, shape: float, scale: float) -> "SojournDistribution":
        return cls("weibull", (shape, scale))

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "SojournDistribution":
        return cls("gamma", (shape, scale))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "SojournDistribution":
        return cls("uniform", (lo, hi))

    # -- law ---------------------------------------------------------------

    def cdf(self, t):
        """P(W <= t); vanishes for t <= 0, vectorized over t."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        if self.family == "exponential":
            (rate,) = self.params
            out = np.where(pos, -np.expm1(-rate * np.maximum(t, 0.0)), 0.0)
        elif self.family == "weibull":
            k, lam = self.params
            z = np.maximum(t, 0.0) / lam
            out = np.where(pos, -np.expm1(-(z**k)), 0.0)
        elif self.family == "gamma":
            from scipy import special as sp_special

            k, lam = self.params
            out = np.where(pos, sp_special.gammainc(k, np.maximum(t, 0.0) / lam), 0.0)
        else:
            lo, hi = self.params
            out = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
            out = np.where(pos, out, 0.0)
        return out if out.ndim else float(out)

    def pdf(self, t):
        """Density of W (per year); at t = 0 returns the right limit."""
        t = np.asarray(t, dtype=float)
        tm = np.maximum(t, 0.0)
        if self.family == "exponential":
            (rate,) = self.params
            out = rate * np.exp(-rate * tm)
        elif self.family == "weibull":
            k, lam = self.params
            z = tm / lam
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(
                    z > 0,
                    (k / lam) * z ** (k - 1.0) * np.exp(-(z**k)),
                    # right limit at 0: 0 for k>1, rate 1/lam for k=1, inf for k<1
                    np.inf if k < 1 else (1.0 / lam if k == 1 else 0.0),
                )
        elif self.family == "gamma":
            from scipy import special as sp_special

            k, lam = self.params
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(
                    tm > 0,
                    np.exp(
                        (k - 1.0) * np.log(np.where(tm > 0, tm, 1.0))
                        - tm / lam
                        - k * np.log(lam)
                        - sp_special.gammaln(k)
                    ),
                    np.inf if k < 1 else (1.0 / lam if k == 1 else 0.0),
                )
        else:
            lo, hi = self.params
            out = np.where((tm >= lo) & (tm <= hi), 1.0 / (hi - lo), 0.0)
        out = np.where(t < 0, 0.0, out)
        return out if out.ndim else float(out)

    def ppf(self, q):
        """Quantile function, exact inverse of cdf; vectorized over q in [0, 1)."""
        q = np.asarray(q, dtype=float)
        if self.family == "exponential":
            (rate,) = self.params
            out = -np.log1p(-q) / rate
        elif self.family == "weibull":
            k, lam = self.params
            # a small shape puts quantiles beyond the float range: an
            # infinite wait, as for an absorbing state
            with np.errstate(over="ignore"):
                out = lam * (-np.log1p(-q)) ** (1.0 / k)
        elif self.family == "gamma":
            from scipy import special as sp_special

            k, lam = self.params
            out = lam * sp_special.gammaincinv(k, q)
        else:
            lo, hi = self.params
            out = lo + q * (hi - lo)
        return out if out.ndim else float(out)

    def partial_mean(self, t):
        """E[W 1(W <= t)], the truncated first moment; closed form per
        family so kernel integrals against linear interpolants are exact.
        Weibull: lam gamma(1 + 1/k, (t/lam)^k) by `lower_gamma`, finite for
        every shape, with no Gamma(1 + 1/k) factor to overflow."""
        t = np.asarray(t, dtype=float)
        tm = np.maximum(t, 0.0)
        if self.family == "exponential":
            (rate,) = self.params
            out = (1.0 - np.exp(-rate * tm) * (1.0 + rate * tm)) / rate
        elif self.family == "weibull":
            k, lam = self.params
            out = lam * lower_gamma(1.0 + 1.0 / k, (tm / lam) ** k)
        elif self.family == "gamma":
            from scipy import special as sp_special

            k, lam = self.params
            out = k * lam * sp_special.gammainc(k + 1.0, tm / lam)
        else:
            lo, hi = self.params
            tc = np.clip(tm, lo, hi)
            out = (tc * tc - lo * lo) / (2.0 * (hi - lo))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        """E[W]; Weibull lam Gamma(1 + 1/k), inf where that overflows
        (shapes below about 0.0059)."""
        if self.family == "exponential":
            return 1.0 / self.params[0]
        if self.family == "weibull":
            k, lam = self.params
            try:
                return lam * math.gamma(1.0 + 1.0 / k)
            except OverflowError:
                return math.inf
        if self.family == "gamma":
            k, lam = self.params
            return k * lam
        lo, hi = self.params
        return 0.5 * (lo + hi)

    def to_dict(self) -> dict:
        if self.family == "exponential":
            return {"family": "exponential", "rate": self.params[0]}
        if self.family in ("weibull", "gamma"):
            return {"family": self.family, "shape": self.params[0], "scale": self.params[1]}
        return {"family": "uniform", "lo": self.params[0], "hi": self.params[1]}

    @classmethod
    def from_dict(cls, spec: dict) -> "SojournDistribution":
        fam = spec.get("family")
        if fam == "exponential":
            return cls.exponential(spec["rate"])
        if fam == "weibull":
            return cls.weibull(spec["shape"], spec["scale"])
        if fam == "gamma":
            return cls.gamma(spec["shape"], spec["scale"])
        if fam == "uniform":
            return cls.uniform(spec["lo"], spec["hi"])
        raise ValueError(f"unknown sojourn family {fam!r}")
