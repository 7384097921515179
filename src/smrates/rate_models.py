"""Regime-conditional short-rate diffusions.

Three model kinds sit behind one interface: mean-reverting Gaussian
(Vasicek), its time-dependent Gaussian generalization (Hull-White with
piecewise-linear coefficient tables), and the square-root diffusion
(CIR).  Each exposes, per regime state i and start rate r0:

  * the transition law of r(t): mean, variance, and exact sampling of
    one step (the solvers' quadrature of it is assembled from the
    Gauss-Hermite and chi-square rule builders below);
  * the law of the integrated rate: mean/variance (Gaussian kinds) and
    the Laplace transform E[exp(-n * int_0^s r)] used as the no-switch
    building block of the renewal solvers;
  * the two-point product moment E[r(s) r(s+h)].

Every operation broadcasts over numpy arrays of start rates so the
lattice solvers can evaluate whole rate grids in one call.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as sp_special

from .errors import NumericsError

VASICEK = "vasicek"
HULL_WHITE = "hull_white"
CIR = "cir"

# exact steps at most this long leave the rate unchanged and take no draw
_STILL = 1e-15
# smallest normal float: a Bessel factor below it has lost precision
_TINY = np.finfo(float).tiny
# a relative change at most this large rounds away in double precision
_EPS = 2.0**-53
# terms kept of each Bessel series in ncx2_pdf
_BESSEL_TERMS = 40


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VasicekParams:
    """dr = a (b - r) dt + sigma dW."""

    a: float
    b: float
    sigma: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("mean-reversion speed a must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class CIRParams:
    """dr = (a - b r) dt + sigma sqrt(r) dW; b may be any real."""

    a: float
    b: float
    sigma: float

    def __post_init__(self):
        if self.a < 0 or self.sigma < 0:
            raise ValueError("a and sigma must be nonnegative")
        if self.sigma > 0 and self.feller_ratio < 1.0:
            warnings.warn(
                f"CIR params a={self.a}, sigma={self.sigma}: 2a/sigma^2 = "
                f"{self.feller_ratio:.3f} < 1, the origin is attainable",
                stacklevel=2,
            )

    @property
    def feller_ratio(self) -> float:
        return np.inf if self.sigma == 0 else 2.0 * self.a / self.sigma**2


_GL_ORDER = 24
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def _gl_panels(fn, lo, width):
    """Gauss-Legendre integrals of fn over the panels [lo, lo + width]."""
    nodes = lo[:, None] + width[:, None] * _GL_X[None, :]
    return (fn(nodes) * _GL_W[None, :]).sum(axis=1) * width


def gl_cumulative(fn, knots, t):
    """int_0^t fn(u) du for each t, by panel-wise Gauss-Legendre.

    fn must be vectorized and smooth between consecutive knots.  Each
    integral is the sum of the whole knot panels below t plus one panel
    from the last knot below t to t, so table kinks never cross a
    quadrature panel and each value depends on its own t alone (equal
    times are integrated once).  Returns floats/arrays shaped like t.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size == 0:
        return np.zeros_like(t_arr)
    flat, back = np.unique(np.ravel(t_arr), return_inverse=True)
    if flat[0] < 0:
        raise ValueError("gl_cumulative expects nonnegative times")
    knots = np.unique(np.asarray(knots, dtype=float))
    knots = np.concatenate([[0.0], knots[(knots > 0.0) & (knots < flat.max())]])
    cum = np.concatenate([[0.0], np.cumsum(_gl_panels(fn, knots[:-1], np.diff(knots)))])
    last = np.maximum(np.searchsorted(knots, flat) - 1, 0)
    out = (cum[last] + _gl_panels(fn, knots[last], flat - knots[last]))[back]
    return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])


class PiecewiseLinear:
    """Piecewise-linear function on a knot table, constant beyond the ends,
    with an exact (piecewise quadratic) antiderivative."""

    def __init__(self, ts, vs):
        ts = np.asarray(ts, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 1:
            raise ValueError("knot table needs matching 1-d time/value arrays")
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if ts[0] != 0.0:
            raise ValueError("knot table must start at t = 0")
        self.ts = ts
        self.vs = vs
        if ts.size > 1:
            seg = 0.5 * (vs[:-1] + vs[1:]) * np.diff(ts)
            self._anti_knots = np.concatenate([[0.0], np.cumsum(seg)])
        else:
            self._anti_knots = np.zeros(1)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls([0.0], [value])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.ts, self.vs)
        return out if out.ndim else float(out)

    def antiderivative(self, t):
        """Exact int_0^t of the table (constant extension outside)."""
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, self.ts[0], self.ts[-1])
        idx = np.clip(np.searchsorted(self.ts, tc, side="right") - 1, 0, max(self.ts.size - 2, 0))
        t0 = self.ts[idx]
        v0 = self.vs[idx]
        if self.ts.size > 1:
            slope = (self.vs[idx + 1] - self.vs[idx]) / (self.ts[idx + 1] - self.ts[idx])
        else:
            slope = np.zeros_like(tc)
        dt = tc - t0
        out = self._anti_knots[idx] + v0 * dt + 0.5 * slope * dt * dt
        # beyond the table the function is constant
        out = out + np.where(t > self.ts[-1], (t - self.ts[-1]) * self.vs[-1], 0.0)
        out = out + np.where(t < self.ts[0], (t - self.ts[0]) * self.vs[0], 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class HullWhiteParams:
    """dr = (alpha(t) - beta(t) r) dt + sigma(t) dW with tabled coefficients.

    Times inside the tables are regime-local: the clock restarts at 0
    whenever the switching process enters the state.
    """

    alpha: PiecewiseLinear
    beta: PiecewiseLinear
    sigma: PiecewiseLinear

    @classmethod
    def from_constants(cls, alpha: float, beta: float, sigma: float) -> "HullWhiteParams":
        return cls(
            PiecewiseLinear.constant(alpha),
            PiecewiseLinear.constant(beta),
            PiecewiseLinear.constant(sigma),
        )

    @property
    def knots(self) -> np.ndarray:
        return np.unique(np.concatenate([self.alpha.ts, self.beta.ts, self.sigma.ts]))

    def k(self, t):
        """Accumulated reversion int_0^t beta(u) du."""
        return self.beta.antiderivative(t)

    def drift_integral(self, t):
        """int_0^t exp(k(u)) alpha(u) du."""
        return gl_cumulative(lambda u: np.exp(self.k(u)) * self.alpha(u), self.knots, t)

    def variance_integral(self, t):
        """int_0^t exp(2 k(u)) sigma(u)^2 du."""
        return gl_cumulative(
            lambda u: np.exp(2.0 * self.k(u)) * self.sigma(u) ** 2, self.knots, t
        )

    def discount_integral(self, t):
        """int_0^t exp(-k(u)) du."""
        return gl_cumulative(lambda u: np.exp(-self.k(u)), self.knots, t)


# ---------------------------------------------------------------------------
# CIR closed forms
# ---------------------------------------------------------------------------

def cir_joint_laplace(params: CIRParams, lam: float, mu: float, t, r0):
    """E[exp(-lam r(t)) exp(-mu int_0^t r)] for the square-root diffusion.

    Evaluated as exp(-a*A(t) - r0*B(t)) with the closed-form exponents
    written in terms of exp(-gamma t), gamma = sqrt(b^2 + 2 sigma^2 mu),
    so large gamma*t never overflows.  The gamma = 0 case (b = 0 and
    mu = 0) uses the analytic limit.  Broadcasts over t and r0.
    """
    if lam < 0 or mu < 0:
        raise ValueError("lam and mu must be nonnegative")
    t = np.asarray(t, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    a, b, sig = params.a, params.b, params.sigma

    if sig == 0.0:
        # deterministic rate: dr = (a - b r) dt
        if b != 0.0:
            e = np.exp(-b * t)
            r_t = a / b + (r0 - a / b) * e
            integral = (a / b) * t + (r0 - a / b) * (1.0 - e) / b
        else:
            r_t = r0 + a * t
            integral = r0 * t + 0.5 * a * t * t
        out = np.exp(-lam * r_t - mu * integral)
        return out if out.ndim else float(out)

    gamma = np.sqrt(b * b + 2.0 * sig * sig * mu)
    if gamma == 0.0:  # b = 0 and mu = 0
        z = 1.0 + 0.5 * sig * sig * lam * t
        exp_a = (2.0 / sig**2) * np.log(z)
        exp_r = lam / z
    else:
        e = np.exp(-gamma * t)
        denom = (sig * sig * lam + gamma + b) + (gamma - b - sig * sig * lam) * e
        exp_r = (lam * (gamma - b) + 2.0 * mu + (lam * (gamma + b) - 2.0 * mu) * e) / denom
        exp_a = -(2.0 / sig**2) * (
            np.log(2.0 * gamma) - 0.5 * t * (gamma - b) - np.log(denom)
        )
    out = np.exp(-a * exp_a - r0 * exp_r)
    # pin the empty integration interval exactly (the closed form only
    # reaches it to rounding)
    out = np.where(t == 0.0, np.exp(-lam * r0) * np.ones_like(out), out)
    if np.any(np.isnan(out)):
        raise NumericsError("CIR Laplace transform produced NaN")
    return out if out.ndim else float(out)


def cir_laplace_rate(params: CIRParams, lam: float, t, r0):
    """Marginal Laplace transform E[exp(-lam r(t))]."""
    return cir_joint_laplace(params, lam, 0.0, t, r0)


def cir_transition_constants(params: CIRParams, dt):
    """(scale c, degrees of freedom, noncentrality per unit r0).

    r(t+dt) | r(t)=r equals c * X with X noncentral chi-square of
    df = 4a/sigma^2 and noncentrality r * e^{-b dt} / c.
    """
    a, b, sig = params.a, params.b, params.sigma
    if sig == 0.0:
        raise ValueError("no chi-square transition for sigma = 0")
    dt = np.asarray(dt, dtype=float)
    # sigma^2 (1 - e^{-b dt}) / (4b), written through exprel so that it
    # tends to its b = 0 limit instead of underflowing for a tiny b
    c = sig * sig * dt / 4.0 * sp_special.exprel(-b * dt)
    df = 4.0 * a / sig**2
    decay = np.exp(-b * dt)
    return c, df, decay


def cir_discounted_transition_constants(params: CIRParams, n: float, t):
    """Transition-law constants under the discount tilt exp(-n int_0^t r).

    The measure E[exp(-n I(t)); r(t) in dx] / E[exp(-n I(t))] is again a
    scaled noncentral chi-square with the same degrees of freedom:
    matching its joint Laplace transform in the rate argument gives
    scale ct = C/(2D) and noncentrality r0 * 2(AD - BC)/(C D), with
    A = (g+b)e^{-gt} + (g-b),  B = 2n(1 - e^{-gt}),
    C = s^2 (1 - e^{-gt}),     D = (g-b)e^{-gt} + (g+b),
    g = sqrt(b^2 + 2 s^2 n).  At n = 0 this reduces to the plain
    transition law.  Broadcasts over t.  Returns (scale, df,
    noncentrality per unit r0).
    """
    a, b, sig = params.a, params.b, params.sigma
    if sig == 0.0:
        raise ValueError("no chi-square transition for sigma = 0")
    gamma = np.sqrt(b * b + 2.0 * sig * sig * n)
    e = np.exp(-gamma * t)
    a_c = (gamma + b) * e + (gamma - b)
    b_c = 2.0 * n * (1.0 - e)
    c_c = sig * sig * (1.0 - e)
    d_c = (gamma - b) * e + (gamma + b)
    if np.any(t <= 0.0) or np.any(c_c == 0.0):
        raise ValueError("tilted constants need t > 0")
    scale = c_c / (2.0 * d_c)
    df = 4.0 * a / sig**2
    nc_coef = 2.0 * (a_c * d_c - b_c * c_c) / (d_c * c_c)
    return scale, df, nc_coef


# ---------------------------------------------------------------------------
# Quadrature rules for transition laws
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def gauss_hermite_rule(order: int):
    """Probabilists' Gauss-Hermite rule: nodes/weights for N(0,1).

    Computed once per order; the cached arrays are read-only."""
    x, w = np.polynomial.hermite.hermgauss(order)
    nodes, weights = x * np.sqrt(2.0), w / np.sqrt(np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def gauss_legendre_rule(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], computed once per order;
    the cached arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gaussian_quadrature_batch(means, stds, order: int):
    """Gauss-Hermite nodes/weights through mean/std arrays.

    means, stds broadcast; returns (nodes, weights) of shape
    broadcast_shape + (order,).  A zero std collapses to the mean with
    all mass on the first node.
    """
    g, w = gauss_hermite_rule(order)
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    nodes = means[..., None] + stds[..., None] * g
    weights = np.broadcast_to(w, nodes.shape).copy()
    zero = stds <= 0.0
    if np.any(zero):
        nodes[zero] = means[zero][..., None]
        weights[zero] = 0.0
        weights[zero, 0] = 1.0
    return nodes, weights


@functools.lru_cache(maxsize=128)   # bounded: nu is a float from the model
def _bessel_series(nu: float):
    """The two series ``ncx2_pdf`` evaluates I_nu by, computed once per
    order nu > -1: (power, z_power, hankel, z_hankel).

    power[k] = 1 / (k! (nu+1)_k), so that I_nu(z) = (z/2)^nu / Gamma(nu+1)
    sum_k power[k] (z^2/4)^k (DLMF 10.25.2).  Every term is positive, and
    for z <= z_power the first omitted term is below 2^-54, so the sum,
    which is at least 1, is exact to rounding.
    hankel[k] = (-1)^k a_k(nu), so that e^-z I_nu(z) ~ (2 pi z)^-1/2
    sum_k hankel[k] z^-k (DLMF 10.40.1).  For z >= z_hankel no kept term
    exceeds the leading 1, so large nu cannot cancel, and the first
    omitted term is below 2^-53; the exponentially small part of I_nu is
    e^-2z below the sum.  The arrays are read-only.
    """
    k = np.arange(1, _BESSEL_TERMS + 1)
    power = np.concatenate([[1.0], np.cumprod(1.0 / (k * (nu + k)))])
    log_next = -(sp_special.gammaln(_BESSEL_TERMS + 1.0)
                 + sp_special.gammaln(nu + 1.0 + _BESSEL_TERMS) - sp_special.gammaln(nu + 1.0))
    z_power = 2.0 * np.exp(0.5 * (np.log(0.5 * _EPS) - log_next) / _BESSEL_TERMS)
    hankel = np.concatenate([[1.0], np.cumprod(-(4.0 * nu * nu - (2.0 * k - 1.0) ** 2)
                                                / (8.0 * k))])
    with np.errstate(divide="ignore"):   # a_k = 0 for half-integer nu
        log_a = np.log(np.abs(hankel[1:]))
    z_hankel = max(np.exp(log_a[:-1] / k[:-1]).max(),
                   np.exp((log_a[-1] - np.log(_EPS)) / _BESSEL_TERMS))
    power, hankel = power[:-1], hankel[:-1]
    power.flags.writeable = False
    hankel.flags.writeable = False
    return power, float(z_power), hankel, float(z_hankel)


def _horner(coefs, t):
    """sum_k coefs[k] t^k."""
    out = np.full_like(t, coefs[-1])
    for c in coefs[-2::-1]:
        out *= t
        out += c
    return out


def ncx2_pdf(x, df: float, nc):
    """Noncentral chi-square density (df > 0), nc broadcasting against x.

    With nu = df/2 - 1 and z = sqrt(nc x) the density is
    0.5 exp(-(sqrt(x) - sqrt(nc))^2 / 2) (x/nc)^(nu/2) ive(nu, z) (Johnson,
    Kotz & Balakrishnan, vol. 2, ch. 29), and the Bessel factor is
    evaluated three ways (``_bessel_series`` holds the series and their
    ranges):
      * z <= z_power: the power series, which turns the density into
        exp(nu log x - (x + nc)/2 - log Gamma(df/2) - (df/2) log 2) times
        a sum of positive terms in nc x/4.  It never underflows, and at
        nc = 0 it is the central density bit for bit;
      * z >= z_hankel: the Hankel expansion of ive;
      * in between (large nu only): ``scipy.special.ive``.  Where that
        leaves the normal floats while the power factor is large (df
        above about 1000) the entry is NaN rather than inexact.
    """
    nu = 0.5 * df - 1.0
    power, z_power, hankel, z_hankel = _bessel_series(nu)
    x, nc = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(nc, dtype=float))
    z = np.sqrt(x) * np.sqrt(nc)
    dens = np.empty(z.shape)
    low = z <= z_power
    xl, nl = x[low], nc[low]
    dens[low] = np.exp(sp_special.xlogy(nu, xl) - 0.5 * (xl + nl) - sp_special.gammaln(0.5 * df)
                       - 0.5 * np.log(2.0) * df) * _horner(power, 0.25 * xl * nl)
    high = ~low
    if high.any():
        xh, nh, zh = x[high], nc[high], z[high]
        log_f = sp_special.xlogy(0.5 * nu, xh / nh) - 0.5 * (np.sqrt(xh) - np.sqrt(nh)) ** 2
        hank = zh >= z_hankel
        bessel = np.empty(zh.shape)
        bessel[hank] = _horner(hankel, 1.0 / zh[hank]) / np.sqrt(2.0 * np.pi * zh[hank])
        bessel[~hank] = sp_special.ive(nu, zh[~hank])
        with np.errstate(over="ignore", invalid="ignore"):
            dens_h = np.exp(log_f) * (0.5 * bessel)
        dens_h[(bessel < _TINY) & (log_f > 0.0)] = np.nan
        dens[high] = dens_h
    return dens


def ncx2_ppf(q, df: float, nc):
    """Noncentral chi-square quantiles, q broadcasting against nc:
    ``chndtrix`` where nc > 0 and the central 2 gammaincinv(df/2, q)
    where nc = 0."""
    q, nc = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(nc, dtype=float))
    out = np.asarray(sp_special.chndtrix(q, df, nc))
    central = nc == 0.0
    if central.any():
        out[central] = 2.0 * sp_special.gammaincinv(0.5 * df, q[central])
    return out


def ncx2_rule_batch(scale, df: float, nc, order: int):
    """Quadrature rules against scaled noncentral chi-square laws.

    Gauss-Legendre applied to each density on a wide bracket of its
    support, weights normalized to total mass 1; valid when the density
    is bounded (df >= 2).  nc is the noncentrality of each rule (a scalar
    gives one rule) and scale broadcasts against it; returns (nodes,
    weights) of shape rules + (order,) in rate units.
    """
    nc = np.atleast_1d(np.asarray(nc, dtype=float))[..., None]
    scale = np.asarray(scale, dtype=float)[..., None]
    mean = scale * (df + nc)
    std = scale * np.sqrt(2.0 * df + 4.0 * nc)

    # bracket tight enough that the rule resolves the density bump:
    # Gauss-Legendre node spacing at mid-interval is ~pi*width/(2*order)
    lo = np.maximum(mean - 10.0 * std, 0.0)
    hi = mean + 12.0 * std
    x, w = gauss_legendre_rule(order)
    half = 0.5 * (hi - lo)
    nodes = lo + half * (x + 1.0)
    dens = ncx2_pdf(nodes / scale, df, nc) / scale
    weights = dens * (half * w)
    total = weights.sum(axis=-1)
    finite = np.isfinite(total)
    short = finite & (total < 0.999)
    if short.any() or not finite.all():
        # no reduction over a NaN row: it would warn and print nan
        least = (f"min finite captured {total[finite].min():.6f}" if finite.any()
                 else "no finite captured mass")
        raise NumericsError(
            "noncentral chi-square quadrature lost probability mass: of "
            f"{total.size} rows, {int((~finite).sum())} non-finite and "
            f"{int(short.sum())} short of mass ({least}); widen the bracket or order"
        )
    weights /= total[..., None]
    return nodes, weights


# ---------------------------------------------------------------------------
# The model facade
# ---------------------------------------------------------------------------

class RegimeRateModel:
    """Per-state diffusion parameters plus the analytic operations the
    renewal solvers and the simulator need.  Immutable after construction."""

    def __init__(self, kind: str, params: list):
        if kind not in (VASICEK, HULL_WHITE, CIR):
            raise ValueError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.params = list(params)
        expected = {VASICEK: VasicekParams, HULL_WHITE: HullWhiteParams, CIR: CIRParams}[kind]
        for p in self.params:
            if not isinstance(p, expected):
                raise ValueError(f"{kind} model needs {expected.__name__} entries")
        if kind == VASICEK:
            self._vasicek_coefs = tuple(np.array([getattr(p, name) for p in self.params])
                                        for name in ("a", "b", "sigma"))

    @classmethod
    def vasicek(cls, params) -> "RegimeRateModel":
        return cls(VASICEK, [p if isinstance(p, VasicekParams) else VasicekParams(**p) for p in params])

    @classmethod
    def hull_white(cls, params) -> "RegimeRateModel":
        return cls(HULL_WHITE, list(params))

    @classmethod
    def cir(cls, params) -> "RegimeRateModel":
        return cls(CIR, [p if isinstance(p, CIRParams) else CIRParams(**p) for p in params])

    @property
    def n_states(self) -> int:
        return len(self.params)

    @property
    def gaussian_transition(self) -> bool:
        return self.kind in (VASICEK, HULL_WHITE)

    def _p(self, i: int):
        return self.params[i]

    # -- transition law ---------------------------------------------------

    def mean(self, i: int, r0, t):
        """E[r(t) | r(0) = r0] in regime i; broadcasts over r0 and t."""
        p = self._p(i)
        r0 = np.asarray(r0, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == VASICEK:
            out = p.b + (r0 - p.b) * np.exp(-p.a * t)
        elif self.kind == CIR:
            if p.b != 0.0:
                e = np.exp(-p.b * t)
                out = p.a / p.b + (r0 - p.a / p.b) * e
            else:
                out = r0 + p.a * t
        else:
            k_t = p.k(t)
            out = np.exp(-k_t) * (r0 + p.drift_integral(t))
        return out if np.ndim(out) else float(out)

    def variance(self, i: int, r0, t):
        """Var[r(t) | r(0) = r0]; zero at t = 0."""
        p = self._p(i)
        t = np.asarray(t, dtype=float)
        if self.kind == VASICEK:
            out = p.sigma**2 / (2.0 * p.a) * -np.expm1(-2.0 * p.a * t)
            out = out * np.ones_like(np.asarray(r0, dtype=float) * np.ones_like(t))
        elif self.kind == CIR:
            r0 = np.asarray(r0, dtype=float)
            if p.b != 0.0:
                e = np.exp(-p.b * t)
                out = (
                    r0 * p.sigma**2 / p.b * (e - e * e)
                    + p.a * p.sigma**2 / (2.0 * p.b**2) * (1.0 - e) ** 2
                )
            else:
                out = r0 * p.sigma**2 * t + 0.5 * p.a * p.sigma**2 * t * t
        else:
            out = np.exp(-2.0 * p.k(t)) * p.variance_integral(t)
            out = out * np.ones_like(np.asarray(r0, dtype=float) * np.ones_like(t))
        return out if np.ndim(out) else float(out)

    def std(self, i: int, r0, t):
        return np.sqrt(self.variance(i, r0, t))

    def mean_decay(self, i: int, s, h):
        """Covariance decay factor: Cov[r(s), r(s+h)] = decay * Var[r(s)]."""
        p = self._p(i)
        s = np.asarray(s, dtype=float)
        h = np.asarray(h, dtype=float)
        if self.kind == VASICEK:
            out = np.exp(-p.a * h) * np.ones_like(s)
        elif self.kind == CIR:
            out = np.exp(-p.b * h) * np.ones_like(s)
        else:
            out = np.exp(-(p.k(s + h) - p.k(s)))
        return out if np.ndim(out) else float(out)

    def product_mean(self, i: int, r0, s, h):
        """E[r(s) r(s+h)] = m(s) m(s+h) + decay(s, h) Var(s).

        Exact for all three kinds: the conditional mean of r(s+h) given
        r(s) is affine with slope decay(s, h), so the tower property
        gives the covariance directly.
        """
        s = np.asarray(s, dtype=float)
        h = np.asarray(h, dtype=float)
        if np.any(s < 0) or np.any(h < 0):
            raise ValueError("s and h must be nonnegative")
        m_s = self.mean(i, r0, s)
        m_sh = self.mean(i, r0, s + h)
        return m_s * m_sh + self.mean_decay(i, s, h) * self.variance(i, r0, s)

    # -- integrated rate ----------------------------------------------------

    def integrated_mean(self, i: int, r0, s):
        """E[int_0^s r(u) du]."""
        p = self._p(i)
        s = np.asarray(s, dtype=float)
        r0 = np.asarray(r0, dtype=float)
        if self.kind == VASICEK:
            out = p.b * s + (r0 - p.b) / p.a * -np.expm1(-p.a * s)
        elif self.kind == CIR:
            raise NotImplementedError(
                "integrated-rate mean is not exposed for the CIR kind; "
                "bond_laplace carries the integrated law"
            )
        else:
            disc = p.discount_integral(s)
            drift = gl_cumulative(
                lambda u: np.exp(-p.k(u)) * p.drift_integral(u), p.knots, s
            )
            out = r0 * disc + drift
        return out if np.ndim(out) else float(out)

    def integrated_rate_cov(self, i: int, r0, t):
        """Cov[int_0^t r(u) du, r(t)] for the Gaussian kinds.

        This is the cross term of the joint normal law of the
        integrated and the terminal rate; the discount-tilted
        transition measure used by the moment solver shifts the
        terminal-rate mean by -n times this quantity.
        """
        p = self._p(i)
        t = np.asarray(t, dtype=float)
        if self.kind == VASICEK:
            x = -np.expm1(-p.a * t)
            out = p.sigma**2 * x * x / (2.0 * p.a**2)
        elif self.kind == CIR:
            raise NotImplementedError(
                "CIR handles the discount tilt through its own chi-square "
                "constants, not a Gaussian covariance"
            )
        else:
            cum = gl_cumulative(
                lambda u: np.exp(-p.k(u)) * p.variance_integral(u), p.knots, t
            )
            out = np.exp(-p.k(t)) * cum
        return out if np.ndim(out) else float(out)

    def integrated_variance(self, i: int, r0, s):
        """Var[int_0^s r(u) du]; independent of r0 for the Gaussian kinds."""
        p = self._p(i)
        s = np.asarray(s, dtype=float)
        if self.kind == VASICEK:
            x = -np.expm1(-p.a * s)
            out = (
                p.sigma**2 * s / p.a**2
                - p.sigma**2 / p.a**3 * x
                - p.sigma**2 / (2.0 * p.a**3) * x * x
            )
        elif self.kind == CIR:
            raise NotImplementedError(
                "integrated-rate variance is not exposed for the CIR kind"
            )
        else:
            # int_0^s e^{2k} sigma^2 (D(s) - D(u))^2 du expanded so every
            # piece is one cumulative integral queried at all maturities
            def base(u, power):
                return np.exp(2.0 * p.k(u)) * p.sigma(u) ** 2 \
                    * p.discount_integral(u) ** power

            d_s = p.discount_integral(s)
            a0 = gl_cumulative(lambda u: base(u, 0), p.knots, s)
            a1 = gl_cumulative(lambda u: base(u, 1), p.knots, s)
            a2 = gl_cumulative(lambda u: base(u, 2), p.knots, s)
            out = d_s * d_s * a0 - 2.0 * d_s * a1 + a2
        return out if np.ndim(out) else float(out)

    def bond_laplace(self, i: int, r0, n: int, s):
        """E[exp(-n int_0^s r(u) du)], the no-switch discount block.

        Gaussian kinds: the integrated rate is normal, so the value is
        exp(-n * mean + n^2/2 * variance) of the integral.  CIR: the
        joint Laplace transform at (lam=0, mu=n).
        """
        if n < 1 or int(n) != n:
            raise ValueError("moment order n must be a positive integer")
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("s must be nonnegative")
        if self.kind == CIR:
            return cir_joint_laplace(self._p(i), 0.0, float(n), s, r0)
        exponent = -n * self.integrated_mean(i, r0, s) + 0.5 * n * n * self.integrated_variance(i, r0, s)
        out = np.exp(exponent)
        if np.any(np.isnan(np.asarray(out))):
            raise NumericsError("bond Laplace transform produced NaN")
        return out

    # -- sampling -------------------------------------------------------------

    def step(self, i, r, dt, rng: np.random.Generator, t0=0.0, z=None):
        """Exact draw of r(t0+dt) given r(t0) = r; the one transition draw.

        The regime i, the step dt and the regime-local start time t0
        broadcast against r, so one call moves every entry in its own
        regime by its own step (t0 only matters for the time-dependent
        Hull-White coefficients).  Gaussian kinds use the standard
        normals z, one per entry, and draw them from rng when z is not
        given; CIR draws the scaled noncentral chi-square from rng,
        regime by regime in index order.  Entries with dt ~ 0 keep their
        rate and take no draw.  Composing steps is bias-free at any step
        size.
        """
        r = np.asarray(r, dtype=float)
        dt = np.asarray(dt, dtype=float)
        if np.any(dt < 0):
            raise ValueError("dt must be nonnegative")
        shape = np.broadcast_shapes(np.shape(i), r.shape, dt.shape, np.shape(t0), np.shape(z))
        moving = np.broadcast_to(dt > _STILL, shape)
        if not moving.all():
            out = np.array(np.broadcast_to(r, shape))
            if moving.any():
                i, dt, t0, z = (None if x is None else np.broadcast_to(x, shape)[moving]
                                for x in (i, dt, t0, z))
                out[moving] = self.step(i, out[moving], dt, rng, t0=t0, z=z)
            return out if out.ndim else float(out)
        if self.kind == CIR:
            if z is not None:
                raise ValueError("CIR steps draw from rng; normals are for Gaussian kinds")
            out = self._per_regime(i, lambda p, r_, dt_: cir_exact_step(p, r_, dt_, rng),
                                   r, dt)
        else:
            if z is None:
                z = rng.standard_normal(shape or None)
            if self.kind == VASICEK:
                a, b, sg = (coef[i] for coef in self._vasicek_coefs)
                mean = b + (r - b) * np.exp(-a * dt)
                sd = np.sqrt(sg * sg / (2.0 * a) * -np.expm1(-2.0 * a * dt))
                out = mean + sd * z
            else:
                out = self._per_regime(i, _hull_white_draw, r, dt, t0, z)
        return out if np.ndim(out) else float(out)

    def _per_regime(self, i, fn, *arrays):
        """fn(params, *arrays) evaluated regime by regime, in index order,
        on the entries of each regime; a scalar i takes the arrays whole."""
        if np.ndim(i) == 0:
            return fn(self._p(int(i)), *arrays)
        shape = np.broadcast_shapes(np.shape(i), *(np.shape(x) for x in arrays))
        i = np.broadcast_to(i, shape)
        arrays = [np.broadcast_to(x, shape) for x in arrays]
        out = np.empty(shape)
        for k, p in enumerate(self.params):
            here = i == k
            if here.all():
                return fn(p, *arrays)
            if here.any():
                out[here] = fn(p, *(x[here] for x in arrays))
        return out

    def long_run_mean(self, i: int) -> float | None:
        p = self._p(i)
        if self.kind == VASICEK:
            return p.b
        if self.kind == CIR:
            return p.a / p.b if p.b > 0 else None
        return None

    def long_run_std(self, i: int) -> float | None:
        p = self._p(i)
        if self.kind == VASICEK:
            return p.sigma / np.sqrt(2.0 * p.a)
        if self.kind == CIR:
            return np.sqrt(p.a * p.sigma**2 / (2.0 * p.b**2)) if p.b > 0 else None
        return None


def _hull_white_draw(p: HullWhiteParams, r, dt, t0, z):
    """Gaussian Hull-White transition from regime-local time t0 to t0 + dt
    driven by the standard normals z."""
    t1 = t0 + dt
    k0, k1 = p.k(t0), p.k(t1)
    mean = np.exp(-k1) * (np.exp(k0) * r + p.drift_integral(t1) - p.drift_integral(t0))
    var = np.exp(-2.0 * k1) * (p.variance_integral(t1) - p.variance_integral(t0))
    return mean + np.sqrt(np.maximum(var, 0.0)) * z


def cir_exact_step(params: CIRParams, r, dt, rng: np.random.Generator):
    """One exact CIR transition draw; vectorized over r and over dt (a
    scalar step or one step per rate), never negative."""
    r = np.asarray(r, dtype=float)
    if params.sigma == 0.0:
        if params.b != 0.0:
            out = params.a / params.b + (r - params.a / params.b) * np.exp(-params.b * dt)
        else:
            out = r + params.a * dt
        return out
    c, df, decay = cir_transition_constants(params, dt)
    nc = r * decay / c
    if df > 0:
        draw = rng.noncentral_chisquare(df, np.maximum(nc, 0.0), size=r.shape if r.ndim else None)
    else:
        # df = 0: Poisson mixture of central chi-squares with mass at 0
        k = rng.poisson(np.maximum(nc, 0.0) / 2.0, size=r.shape if r.ndim else None)
        k = np.atleast_1d(k)
        draw = np.zeros(k.shape)
        pos = k > 0
        if pos.any():
            draw[pos] = rng.chisquare(2.0 * k[pos])
        if not r.ndim:
            draw = draw[0]
    return c * draw
