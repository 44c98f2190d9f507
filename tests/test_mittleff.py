import mpmath
import numpy as np
import pytest
from scipy.special import gamma, rgamma

from fracspec import mittleff
from fracspec.errors import DomainError, QuadratureNonConvergence
from fracspec.mittleff import (
    ALPHA_MAX,
    ALPHA_MIN,
    ASYMPTOTIC_TERMS,
    NODE_CAP,
    SERIES_GUARD,
    SERIES_TERMS,
    Z_BIG,
    Z_SWITCH,
    L1Weights,
    _antiderivative_dlam,
    _asymptotic,
    _asymptotic_coeffs,
    _integral,
    _integral_nodes,
    _rgamma,
    _series,
    _series_coeffs,
    l1_weights,
    ml,
    ml_asymptotic_residual,
    ml_closed_form_errors,
    ml_laplace_residual,
    relax_antiderivative,
    relax_primitive,
)

# frozen oracle values: 120-digit power series (small args) and 30-digit
# Talbot inverse Laplace transform of s^{a-b}/(s^a + 1) (larger args)
ORACLE = [
    (0.5, 0.5, 0.0, 0.5641895835477563),
    (0.5, 1.0, 1.0, 0.4275835761558070),
    (0.3, 1.0, 2.0, 0.29023222616787536),
    (0.7, 1.0, 5.0, 0.07756935776476981),
    (0.7, 0.7, 5.0, 0.012201124167156127),
    (0.5, 2.0, 3.0, 0.28490429471865863),
    (0.3, 0.3, 1.5, 0.047618600826987016),
    (0.9, 1.0, 4.0, 0.0504111033144346163),
    (0.5, 0.5, 2.0, 0.053398230926744799),
    (0.5, 1.0, 10.0, 0.0561409927438225859),
    (0.3, 1.0, 10.0, 0.0726497290727720862),
    (0.7, 1.0, 20.0, 0.01739569829160398),
    (0.5, 1.0, 49.0, 0.0115116768638829631),
    (0.3, 1.0, 30.0, 0.0251826175029276634),
    (0.5, 0.5, 8.0, 0.004308253940708865),
    (0.5, 2.0, 8.0, 0.1265159141088278),
    (0.3, 1.0, 20.0, 0.03740622621388445),
    (0.7, 0.7, 30.0, 0.0002741428200864545),
]


def integral_all_nodes(alpha, beta, x):
    """Reference for _integral: the same trapezoid sum over every node.

    Where t = x^{1/a} rho overflows, every term is exactly 0; where rho
    underflows to 0, expm1(-t)/(-t) takes its limit 1.
    """
    nodes = _integral_nodes(alpha)
    vals = np.empty_like(x)
    rows = max(1, 2 ** 22 // nodes.rho.size)  # bounds the memory of t
    for i in range(0, x.size, rows):
        with np.errstate(over="ignore"):
            t = np.multiply.outer(x[i:i + rows] ** (1.0 / alpha), nodes.rho)
        terms = (np.divide(-np.expm1(-t), t, out=np.ones_like(t), where=t > 0.0)
                 if beta == 2.0 else np.exp(-t))
        vals[i:i + rows] = terms @ (nodes.rwd if beta == alpha else nodes.wd) * nodes.pref
    return vals * x ** ((1.0 - alpha) / alpha) if beta == alpha else vals


def sequential_series(alpha, beta, x):
    """Reference for _series: every point stays in the batch to the end."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    comp = np.zeros_like(x)
    zk = np.ones_like(x)
    maxterm = np.zeros_like(x)
    done = np.zeros(x.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(SERIES_TERMS):
            term = np.where(done, 0.0, zk * _rgamma(alpha * k + beta))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            maxterm = np.maximum(maxterm, np.abs(term))
            zk = zk * np.where(done, 0.0, -x)
            done |= (k > 2) & (np.abs(term) <= 1e-17 * (np.abs(total) + 1e-300))
            if done.all():
                break
    ok = done & np.isfinite(total) & (maxterm <= SERIES_GUARD * np.abs(total))
    return total, ok


def leave_terms(alpha, beta, x):
    """Term index where each point leaves _series's batch: its stopping test,
    or its largest term passing the early-rejection limit."""
    x = np.asarray(x, dtype=float)
    rgamma, reject = _series_coeffs(alpha, beta)
    total = np.zeros_like(x)
    comp = np.zeros_like(x)
    zk = np.ones_like(x)
    peak = np.zeros_like(x)
    leave = np.full(x.shape, SERIES_TERMS)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(SERIES_TERMS):
            term = zk * rgamma[k]
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            peak = np.maximum(peak, np.abs(term))
            zk = zk * -x
            hit = ((k > 2) & (np.abs(term) <= 1e-17 * (np.abs(total) + 1e-300))) | (peak > reject)
            leave = np.where(hit & (leave == SERIES_TERMS), k, leave)
    return leave


def sequential_asymptotic(alpha, beta, x):
    """Reference for _asymptotic: the truncation test runs on every term.

    Returns the values and where truncation stopped the sum.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    xk = 1.0 / x
    last_mag = np.full_like(x, np.inf)
    dead = np.zeros(x.shape, dtype=bool)
    for c in _asymptotic_coeffs(float(alpha), float(beta)).coeffs:
        term = xk * c
        mag = np.abs(term)
        dead |= (mag > last_mag) & (mag > 0)
        term = np.where(dead, 0.0, term)
        total += term
        keep = (mag > 0) & ~dead
        last_mag = np.where(keep, mag, last_mag)
        xk = xk / x
    return total, dead


def sequential_relax(alpha, order, lam, t):
    """Reference for _relax: powers on the broadcast arrays, y = 0 in the series."""
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.maximum(np.asarray(t, dtype=float), 0.0))
    y = lam * t ** alpha
    out = np.empty_like(y)
    small = y <= 0.5
    if small.any():
        acc, _ = sequential_series(alpha, alpha + order, y[small])
        out[small] = t[small] ** (order - 1.0 + alpha) * acc
    big = ~small
    if big.any():
        E = ml(alpha, float(order), -y[big])
        if order == 1:
            out[big] = (1.0 - E) / lam[big]
        else:
            out[big] = t[big] / lam[big] * (1.0 - E)
    return out


def edge(accept, lo, hi):
    """Adjacent floats (a, b) with accept(a) != accept(b); accept maps arrays."""
    flag = accept(np.array([lo]))[0]
    while np.nextafter(lo, hi) < hi:
        pts = np.unique(np.append(np.linspace(lo, hi, 33)[1:-1], 0.5 * (lo + hi)))
        flip = np.flatnonzero(accept(pts) != flag)
        if flip.size:
            hi = pts[flip[0]]
            lo = pts[flip[0] - 1] if flip[0] else lo
        else:
            lo = pts[-1]
    return lo, hi


def around(points, steps=(1e-6, 1e-9)):
    """Each point, its float neighbours and relative offsets of both signs."""
    p = np.asarray(points, dtype=float)
    rel = np.concatenate([[0.0], steps, np.negative(steps)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
                           np.multiply.outer(p, 1.0 + rel).ravel()])


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


ALPHAS = (0.01, 0.05, 0.3, 0.5, 0.7, 0.97, ALPHA_MAX, 1.0)


def betas(alpha):
    return sorted({1.0, alpha, 2.0, alpha + 1.0, alpha + 2.0, 0.5, 1.5})


class TestRgamma:
    """_rgamma against mpmath and scipy's rgamma at every argument it gets."""

    @staticmethod
    def arguments():
        """alpha k + beta of the series, beta - alpha k of the expansion, and
        the 1 - alpha, 2 - alpha and alpha + order of the residual check, the
        L1 weights and the relaxation at y = 0 (betas holds alpha + order)."""
        args = set()
        for alpha in ALPHAS:
            args.update([1.0 - alpha, 2.0 - alpha])
            for beta in betas(alpha):
                args.update(alpha * np.arange(SERIES_TERMS) + beta)
                args.update(beta - alpha * np.arange(1, ASYMPTOTIC_TERMS))
        return np.array(sorted(args))

    def test_matches_mpmath_and_scipy(self):
        x = self.arguments()
        ours = _rgamma(x)
        with mpmath.workprec(100):
            exact = np.array([float(mpmath.rgamma(v)) for v in x])
        eps = np.finfo(float).eps
        normal = np.abs(exact) >= np.finfo(float).tiny
        gap = np.abs(ours - exact)[normal] / np.abs(exact[normal])
        assert gap.max() <= 4.0 * eps
        gap = np.abs(ours - rgamma(x))[normal] / np.abs(exact[normal])
        assert gap.max() <= 8.0 * eps

    def test_zero_at_poles_and_past_overflow(self):
        poles = np.arange(0.0, -41.0, -1.0)
        assert np.array_equal(bits(_rgamma(poles)), bits(np.zeros_like(poles)))
        x = self.arguments()
        on_pole = (x <= 0.0) & (x == np.rint(x))
        assert on_pole.any() and not _rgamma(x[on_pole]).any()
        # Gamma overflows just above 171.62, where 1/Gamma is below 2^-1022
        past = np.array([171.7, 180.0, 402.0, 1e300, np.inf])
        assert not _rgamma(past).any() and not rgamma(past).any()
        assert 0.0 < _rgamma(171.6) < np.finfo(float).tiny

    def test_scalar_and_shape(self):
        assert _rgamma(-3.0) == 0.0 and _rgamma(3.0) == 0.5
        assert isinstance(_rgamma(np.float64(0.5)), float)
        x = np.linspace(0.5, 3.0, 6).reshape(2, 3)
        assert np.array_equal(_rgamma(x), [[_rgamma(v) for v in row] for row in x])


class TestBatchedBranches:
    """_series and _asymptotic against loops that keep every point to the end."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_series_matches_sequential(self, alpha):
        grid = np.linspace(0.0, Z_SWITCH, 201)
        for beta in betas(alpha):
            ok = sequential_series(alpha, beta, grid)[1]
            # where the guard flips, and where the largest term passes the
            # early-rejection limit (SERIES_GUARD / Gamma(beta), a hair over)
            edges = [edge(lambda v: sequential_series(alpha, beta, v)[1], grid[i], grid[i + 1])[0]
                     for i in np.flatnonzero(ok[1:] != ok[:-1])]
            k = np.arange(SERIES_TERMS)
            limit = SERIES_GUARD * _rgamma(beta)
            def big(v):
                return np.abs(np.power.outer(v, k) * _rgamma(alpha * k + beta)).max(axis=1) > limit
            over = np.flatnonzero(big(grid))
            if over.size and over[0] > 0:
                edges.append(edge(big, grid[over[0] - 1], grid[over[0]])[0])
            x = np.concatenate([grid, np.clip(around(edges), 0.0, Z_SWITCH),
                                np.random.default_rng(11).uniform(0.0, Z_SWITCH, 300)])
            ref, ref_ok = sequential_series(alpha, beta, x)
            val, ok = _series(alpha, beta, x)
            assert np.array_equal(ok, ref_ok), (alpha, beta)
            assert np.array_equal(bits(val[ok]), bits(ref[ok])), (alpha, beta)
            if alpha <= 0.5:  # both edges lie inside [0, Z_SWITCH] here
                assert len(edges) >= 2, (alpha, beta)

    @pytest.mark.parametrize("buf", (mittleff.BUF_VALUES, 3 * 8000))
    @pytest.mark.parametrize("alpha", (0.3, 0.8))
    def test_series_bits_across_block_edges(self, alpha, buf, monkeypatch):
        # one batch whose points leave at every term index from 3 to its
        # last, so a point leaves at every position of a block, trusted and
        # rejected alike (the guard rejects from x ~ 4.5 on at alpha = 0.8;
        # at alpha = 0.3 the last indices sit on [1.6, 2.3]); the smaller
        # buffer starts at 3 terms a block and grows them as points leave
        monkeypatch.setattr(mittleff, "BUF_VALUES", buf)
        x = np.concatenate([np.geomspace(1e-7, 3.0 * Z_SWITCH, 4000), np.linspace(1.5, 2.5, 4000)])
        for beta in (1.0, alpha, 2.0, alpha + 1.0, alpha + 2.0):
            leave = leave_terms(alpha, beta, x)
            assert set(leave) == set(range(3, leave.max() + 1)), (alpha, beta)
            ref, ref_ok = sequential_series(alpha, beta, x)
            val, ok = _series(alpha, beta, x)
            assert ok.any() and not ok.all(), (alpha, beta)
            assert np.array_equal(ok, ref_ok), (alpha, beta)
            assert np.array_equal(bits(val[ok]), bits(ref[ok])), (alpha, beta)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_asymptotic_matches_sequential(self, alpha):
        for beta in betas(alpha):
            exp = _asymptotic_coeffs(alpha, beta)
            x = np.concatenate([np.geomspace(Z_BIG, 1e12, 400),
                                around([exp.steady, exp.normal], (1e-3, 1e-12))])
            x = x[(x >= Z_BIG) & (x <= 1e12)]
            assert np.array_equal(bits(_asymptotic(alpha, beta, x)),
                                  bits(sequential_asymptotic(alpha, beta, x)[0])), (alpha, beta)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_truncation_stops_only_below_steady(self, alpha):
        checked = 0
        for beta in betas(alpha):
            exp = _asymptotic_coeffs(alpha, beta)
            if not 0.0 < exp.steady < exp.normal:
                continue
            x = np.append(np.geomspace(exp.steady, exp.normal, 200), exp.steady * (1.0 - 1e-9))
            dead = sequential_asymptotic(alpha, beta, x)[1]
            assert not dead[:-1].any() and dead[-1], (alpha, beta)
            checked += 1
        assert checked or alpha == 1.0

    def test_pole_coefficients_are_exact_zeros(self):
        # beta - alpha k (k = 11, 21, 31) misses a pole of 1/Gamma by rounding
        # here; the coefficient is 0, so every x >= Z_BIG sums every term
        x = np.geomspace(Z_BIG, 1e6, 200)
        for alpha, beta in ((0.7, 0.7), (0.3, 0.3), (0.3, 1.3)):
            exp = _asymptotic_coeffs(alpha, beta)
            assert exp.coeffs[[10, 20, 30]].tolist() == [0.0, 0.0, 0.0]
            assert exp.steady < Z_BIG
            # E_{a,1+a}(-x) = (1 - E_{a,1}(-x)) / x
            ref = (_integral(alpha, beta, x) if beta == alpha
                   else (1.0 - _integral(alpha, 1.0, x)) / x)
            assert np.max(np.abs(ml(alpha, beta, -x) - ref) / np.abs(ref)) < 1e-10

    def test_thresholds_fall_inside_the_checked_range(self):
        # the checks above straddle steady wherever it lies above Z_BIG
        steady = [_asymptotic_coeffs(a, b).steady for a in ALPHAS for b in betas(a)]
        assert any(Z_BIG < s < 1e12 for s in steady)
        assert Z_BIG < _asymptotic_coeffs(0.5, 1.0).normal < 1e12


class TestML:
    @pytest.mark.parametrize("alpha,beta,x,expected", ORACLE)
    def test_oracle_values(self, alpha, beta, x, expected):
        val = ml(alpha, beta, -x)
        assert abs(val - expected) <= 1e-10 * abs(expected)

    def test_at_zero(self):
        assert abs(ml(0.5, 0.5, 0.0) - 1.0 / gamma(0.5)) < 1e-14
        assert abs(ml(0.3, 1.0, 0.0) - 1.0) < 1e-14

    def test_exponential_identity(self):
        assert ml_closed_form_errors(101)[0] < 1e-13
        assert abs(ml(1.0, 1.0, -1.0) - np.exp(-1.0)) < 1e-14

    def test_half_order_erfc_identity(self):
        assert ml_closed_form_errors(201)[1] < 1e-9

    def test_array_shape_roundtrip(self):
        z = -np.linspace(0, 60, 7).reshape(7, 1)
        out = ml(0.5, 1.0, z)
        assert out.shape == z.shape

    def test_two_dimensional_argument(self):
        z = -np.linspace(0.0, 60.0, 12).reshape(3, 4)
        out = ml(0.5, 2.0, z)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), ml(0.5, 2.0, z.ravel()))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml(0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            ml(1.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            ml(0.5, -1.0, -1.0)
        with pytest.raises(DomainError):
            ml(0.0, 1.0, -1.0)

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError, match="z must not be NaN"):
            ml(0.5, 1.0, np.nan)
        with pytest.raises(DomainError, match="z must not be NaN"):
            ml(0.5, 2.0, np.array([-1.0, np.nan]))
        assert ml(0.5, 1.0, -np.inf) == 0.0

    def test_exotic_beta_best_effort(self):
        # E_{1/2, 3/2}(-x) = (1 - exp(x^2) erfc(x)) / (x sqrt(pi) / sqrt(pi))...
        # check against the series directly in its safe range
        val = ml(0.5, 1.5, -0.5)
        ref, ok = _series(0.5, 1.5, np.array([0.5]))
        assert ok[0] and abs(val - ref[0]) < 1e-12

    def test_exotic_beta_mid_range_rejected(self):
        assert np.isfinite(ml(0.5, 1.5, -60.0))
        with pytest.raises(DomainError, match="beta must be 1, alpha or 2"):
            ml(0.5, 1.5, -20.0)

    def test_alpha_one_other_beta_by_its_series(self):
        # E_{1,3}(-x) = (e^-x - 1 + x)/x^2 where the series holds, and the
        # alpha = 1 branch names its limit past it
        x = np.linspace(0.0, 5.0, 101)[1:]
        ref = (np.expm1(-x) + x) / x ** 2
        assert np.max(np.abs(ml(1.0, 3.0, -x) - ref) / ref) <= 1e-13
        with pytest.raises(DomainError, match="alpha = 1 supports only beta in"):
            ml(1.0, 3.0, -60.0)

    def test_complete_monotonicity_samples(self):
        x = np.linspace(0.0, 100.0, 401)
        for alpha in (0.3, 0.5, 0.7, 0.9):
            vals = ml(alpha, 1.0, -x)
            assert vals[0] == pytest.approx(1.0, abs=1e-14)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    def test_branch_agreement_series_integral(self):
        # overlap window below the switch point, restricted to points where
        # the cancellation guard still trusts the double-precision series
        x = np.linspace(2.5, 5.0, 26)
        for alpha in (0.6, 0.7, 0.8, 0.93, 0.97):
            for beta in (1.0, alpha, 2.0):
                ser, ok = _series(alpha, beta, x)
                assert ok.any()
                integ = _integral(alpha, beta, x[ok])
                assert np.max(np.abs(ser[ok] - integ) / np.abs(integ)) < 1e-9

    def test_branch_agreement_integral_asymptotic(self):
        x = np.linspace(45.0, 55.0, 11)
        for alpha in (0.3, 0.5, 0.7, 0.9, 0.93, 0.97):
            for beta in (1.0, alpha, 2.0):
                integ = _integral(alpha, beta, x)
                asym = _asymptotic(alpha, beta, x)
                assert np.max(np.abs(asym - integ) / np.abs(integ)) < 1e-9

    def test_integral_accurate_near_alpha_ends(self):
        # steps set by the analyticity strip: the fixed steps gave NaN at
        # alpha <= 0.05 and errors of 6e-8 at 0.1 and 4e-2 at 0.999
        x = np.linspace(45.0, 55.0, 11)
        for alpha in (0.02, 0.05, 0.1, 0.99, 0.999):
            for beta in (1.0, alpha, 2.0):
                integ = _integral(alpha, beta, x)
                assert np.all(np.isfinite(integ))
                asym = _asymptotic(alpha, beta, x)
                assert np.max(np.abs(asym - integ) / np.abs(integ)) < 1e-9

    def test_integral_window_matches_all_nodes(self):
        # unsorted, spread over several chunks from alpha = 0.97 on, some
        # below the series switch; near both ends of alpha rho leaves the
        # double range, or the nodes number up to NODE_CAP (a prefix of x
        # keeps the reference's cost down there)
        x = np.random.default_rng(3).permutation(
            np.concatenate([np.geomspace(0.5, Z_SWITCH, 300), np.linspace(5.0, 50.0, 1700)]))
        for alpha in (0.01, 0.02, 0.05, 0.3, 0.5, 0.8, 0.97, 0.999, ALPHA_MAX):
            xs = x[:max(128, 2 ** 25 // _integral_nodes(alpha).rho.size)]
            assert np.any(xs < Z_SWITCH)
            for beta in (1.0, alpha, 2.0):
                ref = integral_all_nodes(alpha, beta, xs)
                integ = _integral(alpha, beta, xs)
                assert np.max(np.abs(integ - ref) / np.abs(ref)) <= 1e-14, (alpha, beta)

    def test_head_moments_stay_small(self):
        # moments at anchors only: one row per node would take ~29 MB an
        # entry near ALPHA_MAX
        for alpha in (ALPHA_MIN, 0.5, ALPHA_MAX):
            nodes = _integral_nodes(alpha)
            assert nodes.moments.nbytes + nodes.anchors.nbytes <= 2 ** 20, alpha

    def test_alpha_outside_node_cap(self):
        assert _integral_nodes(ALPHA_MAX).rho.size <= NODE_CAP + 2
        for alpha in (0.005, 0.9999):
            with pytest.raises(DomainError, match=r"alpha in \[0\.01, 0\.9995\]"):
                ml(alpha, 1.0, -20.0)
            # the series and the asymptotic expansion still answer
            small, ok = _series(alpha, 1.0, np.array([0.5]))
            assert ok[0] and ml(alpha, 1.0, -0.5) == small[0]
            assert ml(alpha, 2.0, -60.0) == _asymptotic(alpha, 2.0, np.array([60.0]))[0]


class TestAsymptoticResidual:
    def test_bounded_sequence(self):
        t = np.array([10.0, 100.0, 1000.0])
        res = ml_asymptotic_residual(0.5, 1.0, t)
        assert np.all(np.isfinite(res))
        assert res[-1] <= max(2.0 * res[0], 1.0)

    def test_alpha_one_limit_finite(self):
        res = ml_asymptotic_residual(1.0, 1.0, np.array([1.0, 10.0]))
        assert np.all(np.isfinite(res))

    def test_order_of_magnitude(self):
        res = ml_asymptotic_residual(0.3, np.pi ** 2, np.array([100.0]))
        assert res[0] <= 1.0

    def test_three_alphas_bounded(self):
        t = np.geomspace(1.0, 1e4, 9)
        for alpha in (0.3, 0.5, 0.7):
            res = ml_asymptotic_residual(alpha, 4.0, t)
            assert res.max() < 10.0


class TestRelaxPrimitive:
    def test_zero_lambda_power_law(self):
        assert abs(relax_primitive(0.5, 0.0, 1.0) - 1.1283791670955126) < 1e-12
        t = np.linspace(0, 2, 9)
        ref = t ** 0.3 / gamma(1.3)
        assert np.max(np.abs(relax_primitive(0.3, 0.0, t) - ref)) < 1e-12

    def test_exponential_case(self):
        assert abs(relax_primitive(1.0, 2.0, 1.0) - 0.4323323583816936) < 1e-12

    def test_half_order_value(self):
        # 1 - e*erfc(1), frozen from the high-precision series oracle
        assert abs(relax_primitive(0.5, 1.0, 1.0) - 0.5724164238441930) < 1e-11

    def test_continuity_in_lambda(self):
        for k in range(4, 9):
            lam = 10.0 ** (-k)
            gap = abs(relax_primitive(0.5, lam, 1.0) - 1.0 / gamma(1.5))
            assert gap < 2.0 * lam

    def test_derivative_recovers_kernel(self):
        alpha, lam = 0.6, 3.0
        for t in (0.5, 1.0, 2.0):
            dt = 1e-5 * t
            num = (relax_primitive(alpha, lam, t + dt)
                   - relax_primitive(alpha, lam, t - dt)) / (2 * dt)
            ref = t ** (alpha - 1.0) * ml(alpha, alpha, -lam * t ** alpha)
            assert abs(num - ref) < 1e-6 * abs(ref)

    def test_antiderivative_consistency(self):
        alpha, lam = 0.5, 2.0
        for t in (0.4, 1.0, 3.0):
            dt = 1e-5 * t
            num = (relax_antiderivative(alpha, lam, t + dt)
                   - relax_antiderivative(alpha, lam, t - dt)) / (2 * dt)
            ref = relax_primitive(alpha, lam, t)
            assert abs(num - ref) < 1e-7 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.97, 1.0])
    def test_array_lambda_matches_scalar_calls(self, alpha):
        lams = np.array([0.0, 1e-6, 0.7, 40.0, 3e3, 2e5])
        t = np.concatenate([[-0.3, 0.0], np.geomspace(1e-8, 3.0, 40)])
        for fn, ts in ((relax_antiderivative, t), (relax_primitive, t[1:])):
            batch = fn(alpha, lams[:, None], ts[None, :])
            assert batch.shape == (lams.size, ts.size)
            ref = np.array([fn(alpha, lam, ts) for lam in lams])
            assert np.all(np.abs(batch - ref) <= 1e-15 * np.abs(ref))
        # a clamped negative time is time zero; a scalar pair stays a float
        assert relax_antiderivative(alpha, lams[:, None], t[None, :])[:, 0].max() == 0.0
        assert isinstance(relax_primitive(alpha, np.float64(2.0), 1.0), float)

    def test_array_lambda_domain_errors(self):
        with pytest.raises(DomainError, match="lambda must be nonnegative"):
            relax_antiderivative(0.5, np.array([[1.0], [-2.0]]), np.ones(3))
        with pytest.raises(DomainError, match="t must be nonnegative"):
            relax_primitive(0.5, np.array([[1.0], [2.0]]), np.array([0.5, -1.0]))

    def test_alpha_outside_the_unit_interval_rejected(self):
        # without the check, relax_primitive(1.5, 1.0, 0.1) returns 0.0236
        for fn in (relax_primitive, relax_antiderivative):
            with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\]"):
                fn(1.5, 1.0, 0.1)

    def test_nan_rejected(self):
        for fn in (relax_primitive, relax_antiderivative):
            with pytest.raises(DomainError, match="lambda must not be NaN"):
                fn(0.5, np.nan, 1.0)
            with pytest.raises(DomainError, match="lambda must not be NaN"):
                fn(0.5, np.array([[1.0], [np.nan]]), np.ones(3))
            with pytest.raises(DomainError, match="t must not be NaN"):
                fn(0.5, 1.0, np.array([0.5, np.nan]))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.97, 1.0])
    def test_broadcast_matches_sequential(self, alpha):
        # y = lam t^a on both sides of 0.5, lam = 0, t = 0 and (antiderivative) t < 0
        lams = np.array([0.0, 1e-300, 1e-6, 0.5, 2.0, 40.0, 3e3, 2e5])[:, None]
        t = np.concatenate([[0.0, -0.0, 5e-324], np.geomspace(1e-8, 3.0, 60),
                            (0.5 / 2.0) ** (1.0 / alpha) * np.array([1 - 1e-12, 1.0, 1 + 1e-12])])
        for order, ts in ((1, t), (2, np.concatenate([[-0.7, -1e-300], t]))):
            y = lams * np.maximum(ts, 0.0) ** alpha
            assert (y <= 0.5).any() and (y > 0.5).any() and (y == 0.0).any()
            fn = relax_primitive if order == 1 else relax_antiderivative
            out = fn(alpha, lams, ts[None, :])
            assert np.array_equal(bits(out), bits(sequential_relax(alpha, order, lams, ts[None, :])))
            # a knot-offset cube, most of it clipped to t = 0
            offs = np.maximum(ts[:, None] - ts[None, ::7], 0.0)
            out = fn(alpha, lams[:, :, None], offs)
            assert np.array_equal(bits(out), bits(sequential_relax(alpha, order, lams[:, :, None], offs)))

    def test_infinite_lambda_rejected(self):
        for fn in (relax_primitive, relax_antiderivative):
            with pytest.raises(DomainError, match="lambda must be finite"):
                fn(0.5, np.inf, 0.0)
            with pytest.raises(DomainError, match="lambda must be finite"):
                fn(0.5, np.array([[1.0], [np.inf]]), np.ones(3))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.97, 1.0])
    def test_antiderivative_dlam_matches_central_differences(self, alpha):
        # y = lam t^a from 1e-5 to 1e3, on both sides of the series switch;
        # a central difference at step d = 1e-5 lam carries the noise of S
        # over d, about 1e-13 S / d where ml takes its spectral integral,
        # which dominates where S barely depends on lam
        lams = np.array([0.05, 0.7, 3.0, 40.0, 900.0])[:, None]
        t = np.geomspace(1e-3, 4.0, 40)[None, :]
        y = lams * t ** alpha
        assert (y <= 0.5).any() and (y > 0.5).any()
        d = 1e-5 * lams
        num = (relax_antiderivative(alpha, lams + d, t)
               - relax_antiderivative(alpha, lams - d, t)) / (2.0 * d)
        ours = _antiderivative_dlam(alpha, lams, t)
        assert np.all(ours < 0.0)
        noise = 1e-12 * relax_antiderivative(alpha, lams, t) / d
        assert np.all(np.abs(ours - num) <= 1e-9 * np.abs(num) + noise)

    def test_antiderivative_dlam_exponential_case(self):
        # alpha = 1: S = t/lam - (1 - e^{-lam t})/lam^2, so dS/dlam =
        # -t/lam^2 + 2 (1 - e^{-lam t})/lam^3 - t e^{-lam t}/lam^2
        lam = np.array([0.6, 2.0, 15.0, 300.0])[:, None]
        t = np.geomspace(1.0, 4.0, 7)[None, :]
        e = np.exp(-lam * t)
        ref = -t / lam ** 2 + 2.0 * (-np.expm1(-lam * t)) / lam ** 3 - t * e / lam ** 2
        assert np.all(np.abs(_antiderivative_dlam(1.0, lam, t) - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.97, 1.0])
    def test_antiderivative_dlam_at_zero_lambda_and_the_switch(self, alpha):
        # exact at lam = 0, -t^(1+2a)/Gamma(2a+2), and continuous where the
        # series hands over to the Mittag-Leffler form at y = 0.5
        t = np.geomspace(1e-3, 4.0, 9)
        ref = -t ** (1.0 + 2.0 * alpha) / gamma(2.0 * alpha + 2.0)
        assert np.all(np.abs(_antiderivative_dlam(alpha, 0.0, t) - ref) <= 4e-16 * np.abs(ref))
        lam = 0.5 / t ** alpha
        below = _antiderivative_dlam(alpha, lam * (1.0 - 1e-12), t)
        above = _antiderivative_dlam(alpha, lam * (1.0 + 1e-12), t)
        assert np.all(np.abs(above - below) <= 1e-11 * np.abs(below))

    def test_antiderivative_zero_lambda(self):
        assert abs(relax_antiderivative(0.5, 0.0, 1.0) - 1.0 / gamma(2.5)) < 1e-13

    def test_zero_lambda_infinite_time(self):
        # the lam = 0 limit t^(order-1+a)/Gamma(a+order) is inf at t = inf,
        # taken without forming 0 * inf (the suite turns warnings into errors)
        for fn in (relax_primitive, relax_antiderivative):
            assert fn(0.5, 0.0, np.inf) == np.inf
            out = fn(0.5, np.array([0.0, 1.0]), np.array([[np.inf], [1.0]]))
            assert out[0, 0] == np.inf and out[1, 0] == fn(0.5, 0.0, 1.0)
        assert relax_primitive(0.5, 1.0, np.inf) == 1.0


class TestLaplaceResidual:
    def test_exponential_case(self):
        assert ml_laplace_residual(1.0, 1.0, 1.0) < 1e-7

    def test_half_order(self):
        assert ml_laplace_residual(0.5, 1.0, 1.0) < 1e-6

    def test_offgrid_case(self):
        assert ml_laplace_residual(0.7, 4 * np.pi ** 2, 0.5) < 1e-6

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.9, 0.99])
    @pytest.mark.parametrize("zeta", [0.01, 0.05, 50.0])
    def test_wide_inputs(self, alpha, zeta):
        assert ml_laplace_residual(alpha, 1e4, zeta) < 1e-6

    def test_step_halving_estimate_fires(self, monkeypatch):
        # a +-1e-6 node-alternating error cancels in the rule at step h but
        # not in the one at 2h, which sums every other node
        exact_ml = mittleff.ml

        def perturbed(alpha, beta, z):
            out = exact_ml(alpha, beta, z)
            if np.ndim(out):
                out = out + 1e-6 * (-1.0) ** np.arange(out.size)
            return out

        monkeypatch.setattr(mittleff, "ml", perturbed)
        with pytest.raises(QuadratureNonConvergence, match="error estimate"):
            ml_laplace_residual(0.5, 1.0, 1.0)

    def test_rounding_past_budget_names_the_case(self):
        # the sum's rounding passes the absolute budget once the transform
        # reaches a few thousand
        with pytest.raises(QuadratureNonConvergence,
                           match=r"^alpha = 0\.5, lambda = 1, zeta = 3\.2e-10 \(transform "
                                 r"5\.59e\+04\): the quadrature error estimate \S+ is above "
                                 r"the budget 0\.5 \* LAPLACE_TOL = 5e-09$"):
            ml_laplace_residual(0.5, 1.0, 3.2e-10)

    def test_tail_past_budget_names_the_case(self, monkeypatch):
        # E = 3 at every node puts the tail bound at 0.75 LAPLACE_TOL
        monkeypatch.setattr(mittleff, "ml", lambda alpha, beta, z: np.full(np.shape(z), 3.0))
        with pytest.raises(QuadratureNonConvergence,
                           match=r"^alpha = 0\.5, lambda = 1, zeta = 1 \(transform 0\.5\): "
                                 r"the tail bound \S+ is above the budget"):
            ml_laplace_residual(0.5, 1.0, 1.0)


class TestL1Weights:
    def test_backward_difference_limit(self):
        w = l1_weights(1.0, 0.25, 5)
        assert abs(w.weights[0] - 4.0) < 1e-12
        assert np.max(np.abs(w.weights[1:])) < 1e-12

    def test_leading_coefficient(self):
        w = l1_weights(0.5, 1.0, 3)
        assert abs(w.weights[0] - 1.1283791670955126) < 1e-12

    def test_monotone_positive(self):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            w = l1_weights(alpha, 0.1, 50).weights
            assert w[0] > 0
            assert np.all(np.diff(w) < 0)
            assert np.all(w > 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            l1_weights(0.5, 0.0, 3)
        with pytest.raises(DomainError):
            l1_weights(0.5, 1.0, 0)
        assert isinstance(l1_weights(0.5, 1.0, 1), L1Weights)


@pytest.mark.parametrize("fn, args, name", [
    (ml_laplace_residual, (0.5, np.inf, 1.0), "lambda"),
    (ml_laplace_residual, (0.5, np.nan, 1.0), "lambda"),
    (ml_laplace_residual, (0.5, 1.0, np.inf), "zeta"),
    (ml_laplace_residual, (0.5, 1.0, np.nan), "zeta"),
    (ml_asymptotic_residual, (0.5, np.inf, [1.0, 10.0]), "lambda"),
    (ml_asymptotic_residual, (0.5, np.nan, [1.0, 10.0]), "lambda"),
    (ml_asymptotic_residual, (0.5, 1.0, [1.0, np.inf]), "t_values"),
    (ml_asymptotic_residual, (0.5, 1.0, [1.0, np.nan]), "t_values"),
    (l1_weights, (0.5, np.nan, 4), "tau"),
    (l1_weights, (0.5, np.inf, 4), "tau"),
])
def test_non_finite_arguments_named(fn, args, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        fn(*args)


@pytest.mark.parametrize("fn, args, cause", [
    (ml_laplace_residual, (0.5, 1.0, 5e-324), "zeta = 4.94e-324 is too small"),
    (ml_laplace_residual, (0.5, 1.0, 1e-300), "zeta = 1e-300 is too small"),
    (ml_laplace_residual, (1.0, 1.0, 5e-324), "zeta = 4.94e-324 is too small"),
    (ml_asymptotic_residual, (0.5, 1e300, [1.0, 1e300]), "lambda t\\^alpha spans"),
    (ml_asymptotic_residual, (0.5, 1e200, [1.0, 1e200]), "lambda t\\^alpha spans"),
    (ml_asymptotic_residual, (0.5, 5e-324, [1.0, 2.0]), "lambda t\\^alpha spans"),
    (relax_antiderivative, (0.3, 5e-324, 1e300),
     "^relax_antiderivative at t = 1e\\+300, lambda = 4.94e-324 leaves the double range"),
    (relax_antiderivative, (0.5, 1e-100, 1e300),
     "^relax_antiderivative at t = 1e\\+300, lambda = 1e-100 leaves the double range"),
])
def test_finite_extremes_named(fn, args, cause):
    # finite arguments past what the check can resolve name the cause; the
    # suite would turn a bare RuntimeWarning into a failure
    with pytest.raises(DomainError, match=cause):
        fn(*args)
