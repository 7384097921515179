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
    building block of the renewal solvers; for the Gaussian kinds one
    step also draws the integral over it, jointly with the rate;
  * the two-point product moment E[r(s) r(s+h)].

Every operation broadcasts over numpy arrays of start rates so the
lattice solvers can evaluate whole rate grids in one call.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

# scipy.special is imported inside the CIR functions that use it: it
# costs more at start-up than numpy, and Gaussian runs never call it

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
# Taylor coefficients of (z - x - x^2 / 2) / z^3, x = 1 - e^-z: the
# coefficient of z^(k-3) is (-1)^k (2 - 2^(k-1)) / k!, k >= 3; 23 terms reach
# rounding at z = 1
_VASICEK_VARIANCE_SERIES = np.array([(-1) ** k * (2 - 2 ** (k - 1)) / math.factorial(k)
                                     for k in range(3, 26)])


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

def _require_finite(params):
    """Refuse a NaN or infinite parameter of a (a, b, sigma) container."""
    for name in ("a", "b", "sigma"):
        if not np.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite, got {getattr(params, name)!r}")


@dataclass(frozen=True)
class VasicekParams:
    """dr = a (b - r) dt + sigma dW."""

    a: float
    b: float
    sigma: float

    def __post_init__(self):
        _require_finite(self)
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
        _require_finite(self)
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


class PiecewiseLinear:
    """Piecewise-linear function on a knot table, constant beyond the ends,
    with an exact (piecewise quadratic) antiderivative."""

    def __init__(self, ts, vs):
        ts = np.asarray(ts, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 1:
            raise ValueError("knot table needs matching 1-d time/value arrays")
        if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
            raise ValueError("knot times and values must be finite")
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
    whenever the switching process enters the state.  Every law of the
    rate and its integral, from time 0 or over one step, is a closed
    composition of the accumulated reversion k and the six sums of
    ``step_integrals``; no other quadrature integrates the tables.
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

    def step_integrals(self, t0, dt):
        """The six integrals over each step [t0, t0 + dt] that every law
        of the rate and its integral reads.  With e = exp(k),
        D(u) = int_t0^u 1/e and A(u) = int_t0^u e alpha, they are
        (D, A, int A/e, a0 = int e^2 sigma^2, a1 = int e^2 sigma^2 D,
        a2 = int e^2 sigma^2 D^2), each over the step and each shaped
        like t0 and dt broadcast.  From r(t0) = r, with k0 = k(t0) and
        k1 = k(t0 + dt), the rate has mean e^-k1 (e^k0 r + A) and
        variance e^-2k1 a0, and its integral over the step has mean
        e^k0 r D + int A/e, variance D^2 a0 - 2 D a1 + a2 and covariance
        e^-k1 (D a0 - a1) with the rate; t0 = 0 gives the laws from the
        regime clock's 0.

        Every knot panel of a step takes one 24-point Gauss-Legendre
        rule, and D and A at its nodes come from the integrands at the
        same nodes through the Legendre integration matrix, so no
        quadrature is nested.  A step inside one panel is integrated
        over dt as given, so a short step keeps dt's bits where
        (t0 + dt) - t0 would round them away.  Each distinct (t0, dt)
        pair is computed once, and its values depend on that pair alone.
        """
        t0, dt = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(dt, dtype=float))
        if np.any(t0 < 0) or np.any(dt < 0):
            raise ValueError("step_integrals expects nonnegative times and steps")
        pairs, back = np.unique(np.stack([t0.ravel(), dt.ravel()], axis=1), axis=0,
                                return_inverse=True)
        lo_t, step = pairs[:, 0], pairs[:, 1]
        hi_t = lo_t + step
        x, w = gauss_jacobi_rule(24, 0.0)
        lift = _legendre_lift(24)
        sums = np.zeros((6, pairs.shape[0]))   # D, A, int A/e, then the three noise integrals
        edges = np.append(self.knots, np.inf)
        for start, end in zip(edges[:-1], edges[1:]):
            lo = np.clip(lo_t, start, end)
            inside = (lo_t >= start) & (hi_t <= end)
            half = 0.5 * np.where(inside, step, np.clip(hi_t, start, end) - lo)[:, None]
            if not half.any():
                continue   # a panel no step reaches would add exact zeros
            u = lo[:, None] + half * (x + 1.0)
            e = np.exp(self.k(u))
            inv_e, drift, noise = 1.0 / e, e * self.alpha(u), (e * self.sigma(u)) ** 2
            d = sums[0][:, None] + half * _lift_rows(lift, inv_e)
            a = sums[1][:, None] + half * _lift_rows(lift, drift)
            for row, f in enumerate((inv_e, drift, a * inv_e, noise, noise * d, noise * d * d)):
                sums[row] += half[:, 0] * (f * w).sum(axis=1)
        return tuple(row[back].reshape(t0.shape) for row in sums)

    def laws(self, r, t0, dt):
        """The joint normal law of the rate at t0 + dt and its integral
        over the step from r(t0) = r, broadcast over r, t0 and dt:
        (rate mean, rate variance, integral mean, their covariance,
        integral variance), the compositions ``step_integrals`` lists,
        all from one call of it."""
        k0, k1 = self.k(t0), self.k(t0 + dt)
        d, drift, drift_mean, a0, a1, a2 = self.step_integrals(t0, dt)
        # the integral's variance, int e^{2k} sigma^2 (D - D(u))^2 du, is
        # expanded in powers of D(u)
        return (np.exp(-k1) * (np.exp(k0) * r + drift), np.exp(-2.0 * k1) * a0,
                np.exp(k0) * r * d + drift_mean, np.exp(-k1) * (d * a0 - a1),
                d * d * a0 - 2.0 * d * a1 + a2)


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
    from scipy import special as sp_special

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


@functools.lru_cache(maxsize=128)   # bounded: beta is a float from the model
def gauss_jacobi_rule(order: int, beta: float):
    """Gauss-Jacobi nodes/weights on [-1, 1] for the weight (1 + x)^beta
    (beta > -1), with (1 + x)^-beta folded into the weights: sum_k w_k
    f(x_k) approximates int_{-1}^{1} f(x) dx and is exact when f is
    (1 + x)^beta times a polynomial of degree below 2 order.  beta = 0
    is Gauss-Legendre, ``leggauss`` bit for bit.  Computed once per
    (order, beta); the cached arrays are read-only."""
    if beta == 0.0:
        x, w = np.polynomial.legendre.leggauss(order)
    else:
        from scipy import special as sp_special

        x, w = sp_special.roots_jacobi(order, 0.0, beta)
        w = w * (1.0 + x) ** -beta
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _legendre_lift(order: int):
    """The Gauss-Legendre integration matrix: lift[j, m] is the integral
    over [-1, x_j] of the m-th Lagrange polynomial on the nodes x, so
    lift @ f integrates the interpolant of the values f from -1 to every
    node.  Computed once per order; the cached array is read-only."""
    legendre = np.polynomial.legendre
    x, w = gauss_jacobi_rule(order, 0.0)
    # by discrete orthogonality the m-th Lagrange polynomial is
    # sum_i (i + 1/2) w_m P_i(x_m) P_i
    coefs = (np.arange(order) + 0.5)[:, None] * legendre.legvander(x, order - 1).T * w
    lift = legendre.legval(x, legendre.legint(coefs, lbnd=-1.0)).T
    lift.flags.writeable = False
    return lift


def _lift_rows(lift, f):
    """f @ lift.T, summed term by term in a fixed order, so that each
    row's bits do not depend on the other rows."""
    out = f[:, :1] * lift[:, 0]
    for m in range(1, lift.shape[1]):
        out += f[:, m:m + 1] * lift[:, m]
    return out


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
    from scipy import special as sp_special

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


def _horner(coefs, x):
    """sum_e coefs[..., e] x^e, elementwise, with coefs[..., e] and x
    broadcast: one multiply, then one add, per coefficient, in place."""
    out = np.full(np.broadcast_shapes(coefs.shape[:-1], np.shape(x)), coefs[..., -1])
    for e in range(coefs.shape[-1] - 2, -1, -1):
        out *= x
        out += coefs[..., e]
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
    from scipy import special as sp_special

    nu = 0.5 * df - 1.0
    power, z_power, hankel, z_hankel = _bessel_series(nu)
    x, nc = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(nc, dtype=float))
    root_x, root_nc = np.sqrt(x), np.sqrt(nc)
    z = root_x * root_nc
    dens = np.empty(z.shape)
    low = z <= z_power
    high = ~low
    # the log of the Hankel and ive branches' factor
    # exp(-(sqrt(x) - sqrt(nc))^2 / 2) (x/nc)^(nu/2), from the roots taken
    # for z, which are dropped before either series runs
    log_f = (sp_special.xlogy(0.5 * nu, x[high] / nc[high])
             - 0.5 * (root_x[high] - root_nc[high]) ** 2)
    del root_x, root_nc
    xl, nl = x[low], nc[low]
    dens[low] = np.exp(sp_special.xlogy(nu, xl) - 0.5 * (xl + nl) - sp_special.gammaln(0.5 * df)
                       - 0.5 * np.log(2.0) * df) * _horner(power, 0.25 * xl * nl)
    if high.any():
        zh = z[high]
        hank = zh >= z_hankel
        bessel = np.empty(zh.shape)
        bessel[hank] = _horner(hankel, 1.0 / zh[hank]) / np.sqrt(2.0 * np.pi * zh[hank])
        if not hank.all():
            bessel[~hank] = sp_special.ive(nu, zh[~hank])
        with np.errstate(over="ignore", invalid="ignore"):
            dens_h = np.exp(log_f) * (0.5 * bessel)
        dens_h[(bessel < _TINY) & (log_f > 0.0)] = np.nan
        dens[high] = dens_h
    return dens


def ncx2_rule_batch(scale, df: float, nc, order: int):
    """Quadrature rules against scaled noncentral chi-square laws (df > 0).

    Each density is integrated over a bracket of its support with weights
    normalized to total mass 1.  The density is x^nu times an entire
    function of x, nu = df/2 - 1, so a bracket that starts at the origin
    takes Gauss-Jacobi in the weight x^nu while nu < 2, which integrates
    the cusp or pole there exactly; every other bracket, and every
    bracket once nu >= 2, takes Gauss-Legendre.  nc is the
    noncentrality of each rule (a scalar gives one rule) and scale
    broadcasts against it; returns (nodes, weights) of shape rules +
    (order,) in rate units.
    """
    if not df > 0.0:
        raise NumericsError(f"a chi-square rule needs df > 0, got {df}: the law has "
                            "an atom at the origin")
    nc = np.atleast_1d(np.asarray(nc, dtype=float))[..., None]
    scale = np.asarray(scale, dtype=float)[..., None]
    mean = scale * (df + nc)
    std = scale * np.sqrt(2.0 * df + 4.0 * nc)

    # the bracket resolves the density bump (Gauss-Legendre node spacing
    # at mid-interval is ~pi*width/(2*order)) and reaches `reach` above
    # sqrt(nc) on the scale of sqrt(x), whose spread is about 1: 9 below
    # df = 6, where 8 would dominate the Jacobi rule's error (1.8e-9 of
    # the variance at df 5.85), and 8 above, where df = 16
    # (single_regime_cir) stays on mean + 12 std, at least 0.12 clear
    nu = 0.5 * df - 1.0
    reach = 9.0 if nu < 2.0 else 8.0
    lo = np.maximum(mean - 10.0 * std, 0.0)
    hi = np.maximum(mean + 12.0 * std, scale * (np.sqrt(nc) + reach) ** 2)
    x, w = gauss_jacobi_rule(order, 0.0)
    if nu < 2.0:
        origin = lo == 0.0
        x_o, w_o = gauss_jacobi_rule(order, nu)
        x, w = np.where(origin, x_o, x), np.where(origin, w_o, w)
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
        """E[r(t) | r(0) = r0] in regime i; broadcasts over r0 and t.
        Hull-White: e^-k(t) (r0 + A), from ``laws``."""
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
            out = p.laws(r0, 0.0, t)[0]
        return out if np.ndim(out) else float(out)

    def variance(self, i: int, r0, t):
        """Var[r(t) | r(0) = r0]; zero at t = 0.  Hull-White:
        e^-2k(t) a0, from ``laws``."""
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
            out = p.laws(0.0, 0.0, t)[1]
            out = out * np.ones_like(np.asarray(r0, dtype=float) * np.ones_like(t))
        return out if np.ndim(out) else float(out)

    def transition_law(self, i: int, r0, t, tilt: int = 0):
        """Mean and variance of r(t) | r(0) = r0, both shaped like r0 and
        t broadcast; with tilt = n > 0 the mean is the Gaussian kinds'
        under the discount tilt exp(-n int_0^t r), shifted by
        -n Cov[int_0^t r, r(t)].  Hull-White reads both from one
        ``laws`` call."""
        if self.kind != HULL_WHITE:
            mean, var = self.mean(i, r0, t), self.variance(i, r0, t)
            return (mean - tilt * self.integrated_rate_cov(i, r0, t) if tilt else mean), var
        mean, var, _, cov, _ = self._p(i).laws(np.asarray(r0, dtype=float), 0.0, t)
        return (mean - tilt * cov if tilt else mean), var * np.ones_like(mean)

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
        """E[int_0^s r(u) du].  Hull-White: r0 D + int A/e, from
        ``laws``."""
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
            out = p.laws(r0, 0.0, s)[2]
        return out if np.ndim(out) else float(out)

    def integrated_rate_cov(self, i: int, r0, t):
        """Cov[int_0^t r(u) du, r(t)] for the Gaussian kinds.

        This is the cross term of the joint normal law of the
        integrated and the terminal rate; the discount-tilted
        transition measure used by the moment solver shifts the
        terminal-rate mean by -n times this quantity.  Hull-White:
        e^-k(t) (D a0 - a1), from ``laws``.
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
            out = p.laws(0.0, 0.0, t)[3]
        return out if np.ndim(out) else float(out)

    def integrated_variance(self, i: int, r0, s):
        """Var[int_0^s r(u) du]; independent of r0 for the Gaussian kinds.
        Hull-White: D^2 a0 - 2 D a1 + a2, from ``laws``."""
        p = self._p(i)
        s = np.asarray(s, dtype=float)
        if self.kind == VASICEK:
            z = p.a * s
            x = -np.expm1(-z)
            out = (
                p.sigma**2 * s / p.a**2
                - p.sigma**2 / p.a**3 * x
                - p.sigma**2 / (2.0 * p.a**3) * x * x
            )
            # the three terms cancel to sigma^2 s^3 / 3 as a s -> 0; below
            # a s = 1 sum the Taylor series of their sum instead
            out = np.where(z < 1.0, p.sigma**2 * s**3 * _horner(_VASICEK_VARIANCE_SERIES, z),
                           out)
        elif self.kind == CIR:
            raise NotImplementedError(
                "integrated-rate variance is not exposed for the CIR kind"
            )
        else:
            out = p.laws(0.0, 0.0, s)[4]
        return out if np.ndim(out) else float(out)

    def bond_laplace(self, i: int, r0, n: int, s):
        """E[exp(-n int_0^s r(u) du)], the no-switch discount block.

        Gaussian kinds: the integrated rate is normal, so the value is
        exp(-n * mean + n^2/2 * variance) of the integral.  CIR: the
        joint Laplace transform at (lam=0, mu=n).  Hull-White reads both
        moments of the integral from one ``laws`` call.
        """
        if n < 1 or int(n) != n:
            raise ValueError("moment order n must be a positive integer")
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("s must be nonnegative")
        if self.kind == CIR:
            return cir_joint_laplace(self._p(i), 0.0, float(n), s, r0)
        if self.kind == HULL_WHITE:
            _, _, mean, _, var = self._p(i).laws(np.asarray(r0, dtype=float), 0.0, s)
        else:
            mean, var = self.integrated_mean(i, r0, s), self.integrated_variance(i, r0, s)
        exponent = -n * mean + 0.5 * n * n * var
        out = np.exp(exponent)
        if np.any(np.isnan(np.asarray(out))):
            raise NumericsError("bond Laplace transform produced NaN")
        return out

    # -- sampling -------------------------------------------------------------

    def step(self, i, r, dt, rng: np.random.Generator, t0=0.0, z=None, z_integral=None):
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

        Given the normals z_integral as well (Gaussian kinds only), the
        step returns (rate, integral of the rate over the step), drawn
        from their exact joint normal law (Glasserman 2003, sec. 3.3):
        the integral is m_I + (c / s_r) z + sqrt(v_I - c^2 / s_r^2)
        z_integral, with m_I, v_I its mean and variance, c its
        covariance with the rate and s_r the rate's standard deviation,
        so the rate is the draw it is without z_integral.  A still entry
        holds its rate over the step.
        """
        r = np.asarray(r, dtype=float)
        dt = np.asarray(dt, dtype=float)
        if np.any(dt < 0):
            raise ValueError("dt must be nonnegative")
        joint = z_integral is not None
        shape = np.broadcast_shapes(np.shape(i), r.shape, dt.shape, np.shape(t0), np.shape(z),
                                    np.shape(z_integral))
        moving = np.broadcast_to(dt > _STILL, shape)
        if not moving.all():
            out = np.array(np.broadcast_to(r, shape))
            integral = out * dt
            if moving.any():
                i, dt, t0, z, z_integral = (None if x is None else np.broadcast_to(x, shape)[moving]
                                            for x in (i, dt, t0, z, z_integral))
                moved = self.step(i, out[moving], dt, rng, t0=t0, z=z, z_integral=z_integral)
                if joint:
                    out[moving], integral[moving] = moved
                else:
                    out[moving] = moved
            return (_float(out), _float(integral)) if joint else _float(out)
        if self.kind == CIR:
            if z is not None or joint:
                raise ValueError("CIR steps draw from rng; normals are for Gaussian kinds")
            return _float(self._per_regime(
                i, lambda k, r_, dt_: cir_exact_step(self._p(k), r_, dt_, rng), r, dt))
        if z is None:
            z = rng.standard_normal(shape or None)
        law = self._per_regime(i, lambda k, *a: self._gaussian_law(k, *a, joint), r, dt, t0)
        out = law[0] + law[1] * z
        if not joint:
            return _float(out)
        m_i, cov, var_i = law[2:]
        beta = cov / np.where(law[1] > 0.0, law[1], 1.0)
        integral = m_i + beta * z + np.sqrt(np.maximum(var_i - beta * beta, 0.0)) * z_integral
        return _float(out), _float(integral)

    def _gaussian_law(self, k: int, r, dt, t0, joint: bool):
        """The law of one Gaussian step in regime k from regime-local time
        t0: the rate's mean and standard deviation, and with joint also
        the mean of the integral over the step, its covariance with the
        rate and its variance."""
        p = self._p(k)
        if self.kind == VASICEK:
            mean = p.b + (r - p.b) * np.exp(-p.a * dt)
            sd = np.sqrt(p.sigma * p.sigma / (2.0 * p.a) * -np.expm1(-2.0 * p.a * dt))
            if not joint:
                return mean, sd
            return (mean, sd, self.integrated_mean(k, r, dt), self.integrated_rate_cov(k, r, dt),
                    self.integrated_variance(k, r, dt))
        mean, var, *joint_law = p.laws(r, t0, dt)
        return (mean, np.sqrt(var), *joint_law) if joint else (mean, np.sqrt(var))

    def _per_regime(self, i, fn, *arrays):
        """fn(k, *arrays) evaluated regime by regime, in index order, on
        the entries of each regime k; a scalar i takes the arrays whole.
        fn returns an array or a tuple of arrays, and so does this."""
        if np.ndim(i) == 0:
            return fn(int(i), *arrays)
        shape = np.broadcast_shapes(np.shape(i), *(np.shape(x) for x in arrays))
        i = np.broadcast_to(i, shape)
        arrays = [np.broadcast_to(x, shape) for x in arrays]
        out = None
        for k in range(self.n_states):
            here = i == k
            if here.all():
                return fn(k, *arrays)
            if here.any():
                part = np.asarray(fn(k, *(x[here] for x in arrays)))
                if out is None:
                    out = np.empty(part.shape[:-1] + shape)
                out[..., here] = part
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


def _float(x):
    """A 0-d result as a Python float, any other array as it is."""
    return x if np.ndim(x) else float(x)


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
