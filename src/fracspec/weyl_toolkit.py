"""Weyl function, two-potential Wronskian, spectral products, and their quotient.

For left solutions phi_j(x; lambda) of -u'' - q_j u = lambda u with
phi_j(0) = 1, phi_j'(0) = h_j:

    m_-(x, lambda) = -phi'(x; lambda) / phi(x; lambda)
    U(x; lambda)   = phi_1 phi_2' - phi_2 phi_1'          (2x2 determinant)
    g(lambda)      = prod (1 - lambda/lambda_n)            (truncated)
    F(lambda)      = U(d; lambda) / g^2(lambda)

U is constant in x wherever q_1 = q_2 (dU/dx = (q_1 - q_2) phi_1 phi_2), and
F(iy) decays along the imaginary axis when the retained spectrum is dense
enough; both are scanned numerically here.  Ray scans are capped at
sqrt(|lambda|) <= 40 so the exp(|Im sqrt(lambda)|) solution growth stays
inside double range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FitFailure,
    NearPole,
    NearZeroDenominator,
    NonFiniteBlowup,
    ZeroEigenvalue,
)
from .sl_core import PotentialSpec, _check_finite, _propagate

RAY_SQRT_CAP = 40.0
POLE_GUARD = 1e-10
EIG_GUARD = 1e-8
_LOG_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class ComplexRay:
    """Sampling ray |lambda| -> infinity: imaginary axis or a fixed sector angle."""

    magnitudes: np.ndarray
    direction: str = "imaginary-axis"
    angle: float = np.pi / 2.0

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=float)
        if mags.ndim != 1 or mags.size < 2 or np.any(np.diff(mags) <= 0) \
                or mags[0] <= 0:
            raise DomainError("magnitudes must be increasing and positive")
        if np.sqrt(mags[-1]) > RAY_SQRT_CAP:
            raise DomainError(
                f"|lambda|^(1/2) capped at {RAY_SQRT_CAP} (overflow-safe range)")
        if self.direction not in ("imaginary-axis", "sector"):
            raise DomainError("direction must be 'imaginary-axis' or 'sector'")
        object.__setattr__(self, "magnitudes", mags)

    def points(self) -> np.ndarray:
        if self.direction == "imaginary-axis":
            return 1j * self.magnitudes
        return self.magnitudes * np.exp(1j * self.angle)


@dataclass(frozen=True)
class ProductSpec:
    """Retained positive eigenvalues for a truncated spectral product."""

    spectrum: np.ndarray
    truncation: int
    exclusion: frozenset = frozenset()

    def __post_init__(self):
        spec = np.asarray(self.spectrum, dtype=float)
        if self.truncation > spec.size:
            raise DomainError("truncation exceeds the supplied spectrum")
        object.__setattr__(self, "spectrum", spec)
        object.__setattr__(self, "exclusion", frozenset(self.exclusion))

    def retained(self) -> np.ndarray:
        keep = [lam for i, lam in enumerate(self.spectrum[:self.truncation])
                if i not in self.exclusion]
        out = np.asarray(keep, dtype=float)
        if np.any(out == 0.0):
            raise ZeroEigenvalue("product form (1 - lambda/lambda_n) requires "
                                 "nonzero eigenvalues")
        return out


@dataclass
class ExponentFit:
    """Least-squares power-law fit |f(lambda)| ~ coefficient * |lambda|^exponent."""

    exponent: float
    coefficient: float
    residual: float
    reference_exponent: float | None = None

    def to_json(self) -> str:
        return json.dumps({"exponent": self.exponent,
                           "coefficient": self.coefficient,
                           "residual": self.residual})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _left_terminal(q: PotentialSpec, h: float, lams, x: float):
    if not (0.0 < x <= 1.0):
        raise DomainError("x must lie in (0, 1]")
    v, d = _propagate(q.samples, 1.0, h, lams, x=x)
    _check_finite(v, d)
    return v, d


def _shaped(out: np.ndarray, lam):
    """A Python scalar for a scalar lambda, else an array of lambda's shape."""
    if np.ndim(lam) == 0:
        return complex(out[0]) if np.iscomplexobj(out) else float(out[0])
    return out.reshape(np.shape(lam))


def weyl_m_minus(q: PotentialSpec, h: float, lam, x: float):
    """m_-(x, lambda) = -phi'(x; lambda)/phi(x; lambda) from the left solution.

    lam is a scalar or an array.  Raises NearPole, naming the lambda, when
    |phi(x)| falls under the pole guard (lambda close to a Dirichlet
    eigenvalue of the truncated interval).
    """
    lams = np.ravel(lam)
    v, d = _left_terminal(q, h, lams, x)
    bad = np.abs(v) < POLE_GUARD * np.maximum(1.0, np.abs(d))
    if bad.any():
        raise NearPole(f"|phi({x}; {lams[bad][0]})| below pole guard")
    return _shaped(-d / v, lam)


def m_asymptotic_scan(q: PotentialSpec, h: float, x: float,
                      ray: ComplexRay) -> ExponentFit:
    """Fit |m_-(x, lambda)| ~ c |lambda|^p along the ray.

    The fitted exponent and coefficient are reported next to the classical
    expansion's exponent -1/2 (reference_exponent) without asserting either:
    the closed form at q = 0 behaves like sqrt(lambda) tan(sqrt(lambda) x),
    i.e. exponent +1/2 on the imaginary axis.
    """
    lams = ray.points()
    mags = np.abs(weyl_m_minus(q, h, lams, x))
    if np.any(mags <= 0) or lams.size < 3:
        raise FitFailure("degenerate scan data")
    lx = np.log(np.abs(lams))
    ly = np.log(mags)
    A = np.vstack([np.ones_like(lx), lx]).T
    coef, _, rank, _ = np.linalg.lstsq(A, ly, rcond=None)
    if rank < 2:
        raise FitFailure("rank-deficient log-log fit")
    resid = float(np.max(np.abs(ly - A @ coef)))
    return ExponentFit(exponent=float(coef[1]),
                       coefficient=float(np.exp(coef[0])),
                       residual=resid,
                       reference_exponent=-0.5)


def wronskian_U(q1: PotentialSpec, q2: PotentialSpec, h1: float, h2: float,
                lam, x: float):
    """U(x; lambda) = phi_1 phi_2' - phi_2 phi_1' for the two left solutions.

    lam is a scalar or an array; all of it is marched at once.
    """
    lams = np.ravel(lam)
    v1, d1 = _left_terminal(q1, h1, lams, x)
    v2, d2 = _left_terminal(q2, h2, lams, x)
    return _shaped(v1 * d2 - v2 * d1, lam)


def _log_product(retained: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """log g(lambda) = sum_n log(1 - lambda/lambda_n) for each lambda.

    Complex, so the real part is log|g| (overflow-free) and the imaginary part
    carries the phase; a real lambda past lambda_n adds +i pi per factor.  An
    exact eigenvalue gives -inf.
    """
    with np.errstate(divide="ignore"):
        return np.log1p(lams[:, None] / -retained + 0j).sum(axis=1)


def product_eval(spec: ProductSpec, lam):
    """Truncated product prod (1 - lambda/lambda_n) at a scalar or array lambda.

    Summed in the log domain; a real lambda gives a real value whose sign comes
    from the factors.  Raises NonFiniteBlowup when |g| exceeds double range and
    ZeroEigenvalue when the retained set contains 0.
    """
    log_g = _log_product(spec.retained(), np.ravel(lam))
    if np.any(log_g.real > _LOG_MAX):
        raise NonFiniteBlowup(f"spectral product overflow: log|g| = "
                              f"{log_g.real.max():.4g} exceeds {_LOG_MAX:.4g}")
    g = np.exp(log_g)
    return _shaped(g if np.iscomplexobj(lam) else g.real, lam)


def _check_matched_tail(q1: PotentialSpec, q2: PotentialSpec, d: float):
    # skip the grid cell straddling d: a kink there leaks O(h) past d in the
    # piecewise-linear representation without breaking the matched tail
    h = max(1.0 / q1.grid_size, 1.0 / q2.grid_size)
    x = np.linspace(min(d + h, 1.0), 1.0, 257)
    scale = 1.0 + max(np.abs(q1.samples).max(), np.abs(q2.samples).max())
    if np.max(np.abs(q1(x) - q2(x))) > 1e-9 * scale:
        raise DomainError("potentials differ on [d, 1]; F requires matched tails")
    if abs(q1(d) - q2(d)) > 0.05 * scale:
        raise DomainError("potentials discontinuously mismatched at d")


def F_eval(q1: PotentialSpec, q2: PotentialSpec, h1: float, h2: float,
           d: float, lambda_set, product: ProductSpec,
           near_eigenvalue: str = "raise") -> np.ndarray:
    """F(lambda) = U(d; lambda) / g^2(lambda) at each requested lambda.

    Points within guard distance of a retained eigenvalue raise
    NearZeroDenominator before any point is marched, or with
    near_eigenvalue="fit" are evaluated by a local quadratic fit of F off the
    eigenvalue (removable-singularity path).
    """
    _check_matched_tail(q1, q2, d)
    retained = product.retained()
    lams = np.atleast_1d(np.asarray(lambda_set, dtype=complex))
    dist = np.abs(lams[:, None] - retained) / (1.0 + retained)
    near = (dist < EIG_GUARD).any(axis=1)
    if near.any() and near_eigenvalue != "fit":
        raise NearZeroDenominator(f"lambda = {lams[near][0]} within guard "
                                  "distance of a retained eigenvalue")
    out = np.empty(lams.size, dtype=complex)
    far = lams[~near]
    out[~near] = (wronskian_U(q1, q2, h1, h2, far, d)
                  * np.exp(-2.0 * _log_product(retained, far)))
    for i in np.flatnonzero(near):
        lam_star = retained[np.argmin(dist[i])]
        delta = 1e-3 * (1.0 + abs(lam_star))
        stencil = lam_star + delta * np.array([-3, -2, -1, 1, 2, 3])
        fvals = F_eval(q1, q2, h1, h2, d, stencil, product)
        coef = np.polyfit(stencil - lam_star, fvals, 2)
        out[i] = np.polyval(coef, lams[i] - lam_star)
    return out


@dataclass
class DecayScan:
    """|F(iy)| scan along the imaginary axis with its fitted log-log slope."""

    y_values: np.ndarray
    f_magnitudes: np.ndarray
    slope: float
    decreasing_trend: bool


def f_decay_scan(q1: PotentialSpec, q2: PotentialSpec, h1: float, h2: float,
                 d: float, product: ProductSpec, y_values) -> DecayScan:
    """Magnitude scan of F(iy) over y_values, which pass ComplexRay's checks
    (log-domain, overflow-free)."""
    ray = ComplexRay(y_values)
    _check_matched_tail(q1, q2, d)
    retained = product.retained()
    lams = ray.points()
    U = wronskian_U(q1, q2, h1, h2, lams, d)
    log_f = np.log(np.abs(U) + 1e-300) - 2.0 * _log_product(retained, lams).real
    y = ray.magnitudes
    mags = np.exp(log_f)
    A = np.vstack([np.ones_like(y), np.log(y)]).T
    coef, _, _, _ = np.linalg.lstsq(A, log_f, rcond=None)
    slope = float(coef[1])
    return DecayScan(y_values=y, f_magnitudes=mags, slope=slope,
                     decreasing_trend=slope < 0.0)
