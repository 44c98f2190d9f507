"""Eigenvalue counting and the interior-observation uniqueness regions.

N_I(s) counts sequence members <= s.  The observation point x0 splits the
spectrum into the set where the eigenfunction trace e_n(x0) is (relatively)
nonzero and its complement; the complement embeds into the split Dirichlet
spectra of the two subintervals, which bounds the counting function of the
retained set from below:

    N(s) >= (1 - min(1 - x0, x0)) sqrt(s) / pi     for large s.

complement_inclusion_check tests that embedding on a computed spectrum.  It
solves each split problem only up to the first eigenvalue above the largest
complement eigenvalue (a Sturm comparison with the constant potential
max(q) sizes the solve, never deeper than the system's own modes), since no
higher split eigenvalue can be the nearest to a complement member, and on
cells no wider than the system's.

A sufficient density criterion (liminf N(s) s^{-1/2} > A/pi, admissible
tail length d <= A/2) and the two uniqueness-region conditions

    case i:   0 < d <= x0 <= 1
    case ii:  0 <= x0 < min(d, 1 - 2d),  0 < d < 1/2
    conditional: 1 - 2d < x0 < d, 1/3 < d < 1/2, with a certificate
                 (A >= 2d together with a lower bound B on the counting
                 excess; the classifier enforces B >= 1/2 - d, the variant
                 B >= -1/4 - d appearing in the statement is recorded in the
                 verdict note)

are evaluated as pure set arithmetic on (d, x0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .sl_core import (MIN_GRID, EigenSystem, PotentialSpec, RobinPair, eval_modes_at,
                      split_spectra)

TRACE_TAU = 1e-6  # mode n vanishes at x0 when |e_n(x0)| <= TRACE_TAU max_x |e_n(x)|
MATCH_TOL = 1e-6  # relative distance at which a complement eigenvalue is matched
MIN_S_POINTS = 4  # fewest points of a counting grid s_grid
MIN_RESOLUTION = 10  # fewest cells per side of a region map
_LABELS = ("full-spectrum", "lambda-set", "lambda-complement", "mu-minus", "mu-plus")


@dataclass(frozen=True)
class CountedSet:
    """Increasing nonnegative sequence with a provenance label."""

    values: np.ndarray
    label: str = "full-spectrum"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size and (np.any(~np.isfinite(vals)) or np.any(vals < 0)
                          or np.any(np.diff(vals) <= 0)):
            raise DomainError("values must be finite, nonnegative, strictly increasing")
        if self.label not in _LABELS:
            raise DomainError(f"unknown label {self.label!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return int(self.values.size)


@dataclass(frozen=True)
class RegionVerdict:
    d: float
    x0: float
    verdict: str  # theorem1-case-i | theorem1-case-ii | theorem2-conditional | unknown
    condition_note: str = ""


@dataclass
class LambdaSplit:
    """Observation-point split of a computed spectrum, with audit traces."""

    lambda_set: CountedSet
    complement: CountedSet
    traces: np.ndarray                 # |e_n(x0)| per mode
    relative_traces: np.ndarray        # |e_n(x0)| / max_x |e_n|
    kept: np.ndarray                   # mode n is in lambda_set
    tau: float
    near_threshold: list = field(default_factory=list)

    def __iter__(self):
        return iter((self.lambda_set, self.complement))


@dataclass
class InclusionReport:
    """Distance of each complement eigenvalue to the split spectra."""

    entries: list
    tolerance: float
    violations: list
    passed: bool


@dataclass
class BoundCheckReport:
    s_values: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray
    passed: bool


@dataclass
class DensityReport:
    liminf_estimate: float
    threshold: float
    passed: bool
    implied_d_max: float


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def counting(counted: CountedSet, s: float) -> int:
    """N(s) = number of members <= s (nondecreasing step function of s)."""
    return int(np.searchsorted(counted.values, s, side="right"))


def free_lambda_set(n_modes: int, x0: float) -> CountedSet:
    """lambda_set of q = 0 with h = H = 0 in closed form: (n pi)^2 for each
    n < n_modes with |cos(n pi x0)| > TRACE_TAU, the relative trace of
    e_n = sqrt(2) cos(n pi x) (so n = 0 always stays)."""
    n = np.arange(n_modes)
    keep = np.abs(np.cos(n * np.pi * x0)) > TRACE_TAU
    return CountedSet((n[keep] * np.pi) ** 2, "lambda-set")


def lambda_set(es: EigenSystem, x0: float, tau: float = TRACE_TAU) -> LambdaSplit:
    """Split modes by the relative size of e_n(x0).

    Mode n is retained iff |e_n(x0)| > tau * max_x |e_n(x)|; traces come
    from eval_modes_at (no interpolation error at off-grid x0).
    Modes within a decade of the threshold are flagged for audit.
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    neg = np.flatnonzero(es.lambdas < 0.0)
    if neg.size:
        raise DomainError(f"mode {neg[0]} has eigenvalue {es.lambdas[neg[0]]:.6g}; the "
                          "counting split needs every lambda >= 0")
    traces = np.abs(eval_modes_at(es, x0)[0])
    rel = traces / np.abs(es.efuncs).max(axis=1)
    keep = rel > tau
    near = [int(n) for n in np.flatnonzero((rel > tau / 10) & (rel < tau * 10))]
    lam_in = CountedSet(es.lambdas[keep], "lambda-set")
    lam_out = CountedSet(es.lambdas[~keep], "lambda-complement")
    return LambdaSplit(lambda_set=lam_in, complement=lam_out, traces=traces,
                       relative_traces=rel, kept=keep, tau=tau, near_threshold=near)


def complement_inclusion_check(es: EigenSystem, x0: float, robin: RobinPair,
                               q: PotentialSpec) -> InclusionReport:
    """Verify that complement eigenvalues appear in both split spectra.

    The complement is lambda_set's at tau = TRACE_TAU.  Each of its lambdas
    must lie within MATCH_TOL * (1 + lambda) of a member of the left
    (Robin-Dirichlet) and right (Dirichlet-Robin) spectra at x0.

    Both split spectra run from mode 0 to mode k, capped at es.n_max, with
    k = floor(l sqrt(max(lam_top + q_max, 0)) / pi - 1/2) + 1, where
    lam_top = max(complement) (1 + MATCH_TOL) + MATCH_TOL, l = max(x0, 1 - x0)
    and q_max = max(q.samples).  By Sturm comparison (Zettl, Sturm-Liouville
    Theory, 2005) k is at least the number of split eigenvalues at or below
    lam_top: each side has a Robin coefficient >= 0 at its outer end and
    Dirichlet at x0, and its mu_j does not fall as that coefficient grows or
    as q falls, so mu_j >= ((j + 1/2) pi / l_side)^2 - q_max, the
    Neumann-Dirichlet value for the constant q_max, which the side's linear
    resampling of q never exceeds; the longer side gives the larger count.
    Any split eigenvalue nearest to a complement lambda lies at or below
    lambda or is the first one above it, so it has index <= k: the modes
    past k cannot change an entry.  The march's mu_k can sit below the
    continuous bound by its discretisation error; should lam_top fall in
    that gap, mu_k lies within that error of lam_top and is still solved,
    while mode k + 1 lies a whole spacing higher and is never the nearest.
    Each side gets ceil(l es.grid_size) cells, so the longer side has the
    system's cell width and the shorter a finer one; for a grid node x0 the
    longer side's cells are the system's own.  Against both sides solved to
    es.n_max on es.grid_size cells the distances move only at rounding level.
    """
    split = lambda_set(es, x0)
    comp = split.complement.values
    entries, violations = [], []
    if comp.size:
        lam_top = float(comp[-1]) * (1.0 + MATCH_TOL) + MATCH_TOL
        length = max(x0, 1.0 - x0)
        grid = max(MIN_GRID, int(np.ceil(length * es.grid_size)))
        reach = length * np.sqrt(max(lam_top + q.samples.max(), 0.0)) / np.pi
        n_max = min(int(np.floor(reach - 0.5)) + 1, es.n_max)
        mu_minus, mu_plus = split_spectra(q, x0, robin, n_max, grid_size=grid,
                                          allow_inadmissible=True)
        for lam in comp:
            d_minus = float(np.min(np.abs(mu_minus - lam)))
            d_plus = float(np.min(np.abs(mu_plus - lam)))
            entries.append((float(lam), d_minus, d_plus))
            if max(d_minus, d_plus) > MATCH_TOL * (1.0 + lam):
                violations.append(float(lam))
    return InclusionReport(entries=entries, tolerance=MATCH_TOL,
                           violations=violations, passed=not violations)


def _upper_counts(lam: CountedSet, s_grid):
    """The upper half s of s_grid, from its middle point on, and N(s) there."""
    s = np.asarray(s_grid, dtype=float)
    if s.ndim != 1 or s.size < MIN_S_POINTS or np.any(np.diff(s) <= 0) or s[0] <= 0:
        raise DomainError(f"s_grid must be positive increasing with >= {MIN_S_POINTS} points")
    s_up = s[s >= s[s.size // 2]]
    return s_up, np.searchsorted(lam.values, s_up, side="right").astype(float)


def counting_bound_check(lam: CountedSet, x0: float, s_grid) -> BoundCheckReport:
    """Check N(s) >= (1 - min(1 - x0, x0)) sqrt(s)/pi on the upper half of s_grid."""
    s_up, counts = _upper_counts(lam, s_grid)
    factor = 1.0 - min(1.0 - x0, x0)
    bounds = factor * np.sqrt(s_up) / np.pi
    return BoundCheckReport(s_values=s_up, counts=counts, bounds=bounds,
                            passed=bool(np.all(counts >= bounds)))


def density_criterion(lam: CountedSet, A: float, s_grid) -> DensityReport:
    """Estimate liminf N(s) s^{-1/2} by the minimum over the upper half of s_grid.

    Passes when the estimate exceeds A/pi; a pass admits any known tail
    length d <= A/2.
    """
    if A <= 0:
        raise DomainError("A must be positive")
    s_up, counts = _upper_counts(lam, s_grid)
    est = float((counts / np.sqrt(s_up)).min())
    return DensityReport(liminf_estimate=est, threshold=A / np.pi,
                         passed=est > A / np.pi, implied_d_max=A / 2.0)


def classify_region(d: float, x0: float, certificate=None) -> RegionVerdict:
    """Uniqueness-region verdict for tail length d and observation point x0.

    certificate, when supplied, is a pair (A, B) backing the conditional
    region; exactly one verdict applies to every admissible (d, x0).
    """
    if not (0.0 < d < 1.0):
        raise DomainError("d must lie in (0, 1)")
    if not (0.0 <= x0 <= 1.0):
        raise DomainError("x0 must lie in [0, 1]")
    if d <= x0:
        return RegionVerdict(d, x0, "theorem1-case-i")
    if x0 < min(d, 1.0 - 2.0 * d) and d < 0.5:
        return RegionVerdict(d, x0, "theorem1-case-ii")
    if 1.0 - 2.0 * d < x0 < d and 1.0 / 3.0 < d < 0.5:
        if certificate is not None:
            A, B = certificate
            needed_b = 0.5 - d
            if A >= 2.0 * d and B >= needed_b:
                note = (f"certificate A={A} >= 2d={2 * d:.6g}, "
                        f"B={B} >= 1/2-d={needed_b:.6g} "
                        f"(statement variant would ask B >= -1/4-d={-0.25 - d:.6g})")
                return RegionVerdict(d, x0, "theorem2-conditional", note)
        return RegionVerdict(d, x0, "unknown",
                             "conditional region requires a certificate "
                             "(A >= 2d, B >= 1/2-d)")
    return RegionVerdict(d, x0, "unknown")


def region_map(grid_resolution: int, certificate=None) -> list[RegionVerdict]:
    """Verdicts at cell centers of a grid_resolution^2 lattice over (0,1)^2."""
    if grid_resolution < MIN_RESOLUTION:
        raise DomainError(f"grid_resolution must be at least {MIN_RESOLUTION}")
    out = []
    for i in range(grid_resolution):
        d = (i + 0.5) / grid_resolution
        for j in range(grid_resolution):
            x0 = (j + 0.5) / grid_resolution
            out.append(classify_region(d, x0, certificate))
    return out
