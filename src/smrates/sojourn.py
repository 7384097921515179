"""Parametric holding-time distributions for the renewal kernel.

Every family is absolutely continuous on (0, inf) with closed-form cdf
and density, so kernel entries p_ij * G_ij(t) stay differentiable and
the renewal solvers can evaluate the kernel derivative exactly.
Times are in years.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy.special is imported inside the gamma and Weibull branches that use
# it: it costs more at start-up than numpy, and the other laws never call it

_FAMILIES = ("exponential", "weibull", "gamma", "uniform")


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
        family so kernel integrals against linear interpolants are exact."""
        t = np.asarray(t, dtype=float)
        tm = np.maximum(t, 0.0)
        if self.family == "exponential":
            (rate,) = self.params
            out = (1.0 - np.exp(-rate * tm) * (1.0 + rate * tm)) / rate
        elif self.family == "weibull":
            from scipy import special as sp_special

            k, lam = self.params
            z = (tm / lam) ** k
            out = lam * sp_special.gamma(1.0 + 1.0 / k) * sp_special.gammainc(1.0 + 1.0 / k, z)
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
        if self.family == "exponential":
            return 1.0 / self.params[0]
        if self.family == "weibull":
            from scipy import special as sp_special

            k, lam = self.params
            return lam * float(sp_special.gamma(1.0 + 1.0 / k))
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
