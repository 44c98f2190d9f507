import numpy as np
import pytest
from scipy.special import erfc, gamma

from fracspec.errors import DomainError
from fracspec.mittleff import (
    ALPHA_MAX,
    NODE_CAP,
    Z_SWITCH,
    L1Weights,
    _asymptotic,
    _integral,
    _integral_nodes,
    _series,
    l1_weights,
    ml,
    ml_asymptotic_residual,
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
    """Reference for _integral: the same trapezoid sum over every node."""
    nodes = _integral_nodes(alpha)
    t = np.multiply.outer(x ** (1.0 / alpha), nodes.rho)
    terms = -np.expm1(-t) / t if beta == 2.0 else np.exp(-t)
    vals = terms @ (nodes.rwd if beta == alpha else nodes.wd) * nodes.pref
    return vals * x ** ((1.0 - alpha) / alpha) if beta == alpha else vals


class TestML:
    @pytest.mark.parametrize("alpha,beta,x,expected", ORACLE)
    def test_oracle_values(self, alpha, beta, x, expected):
        val = ml(alpha, beta, -x)
        assert abs(val - expected) <= 1e-10 * abs(expected)

    def test_at_zero(self):
        assert abs(ml(0.5, 0.5, 0.0) - 1.0 / gamma(0.5)) < 1e-14
        assert abs(ml(0.3, 1.0, 0.0) - 1.0) < 1e-14

    def test_exponential_identity(self):
        x = np.linspace(0.0, 50.0, 101)
        assert np.max(np.abs(ml(1.0, 1.0, -x) - np.exp(-x))) < 1e-13
        assert abs(ml(1.0, 1.0, -1.0) - np.exp(-1.0)) < 1e-14

    def test_half_order_erfc_identity(self):
        x = np.linspace(0.0, 10.0, 201)
        ref = np.exp(x ** 2) * erfc(x)
        vals = ml(0.5, 1.0, -x)
        assert np.max(np.abs(vals - ref) / ref) < 1e-9

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
        # unsorted, spread over several chunks, some below the series switch
        x = np.random.default_rng(3).permutation(
            np.concatenate([np.geomspace(0.5, Z_SWITCH, 300), np.linspace(5.0, 50.0, 1700)]))
        assert np.any(x < Z_SWITCH)
        for alpha in (0.3, 0.5, 0.8):
            for beta in (1.0, alpha, 2.0):
                ref = integral_all_nodes(alpha, beta, x)
                integ = _integral(alpha, beta, x)
                assert np.max(np.abs(integ - ref) / np.abs(ref)) <= 1e-14

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

    def test_nan_rejected(self):
        for fn in (relax_primitive, relax_antiderivative):
            with pytest.raises(DomainError, match="lambda must not be NaN"):
                fn(0.5, np.nan, 1.0)
            with pytest.raises(DomainError, match="lambda must not be NaN"):
                fn(0.5, np.array([[1.0], [np.nan]]), np.ones(3))
            with pytest.raises(DomainError, match="t must not be NaN"):
                fn(0.5, 1.0, np.array([0.5, np.nan]))

    def test_antiderivative_zero_lambda(self):
        assert abs(relax_antiderivative(0.5, 0.0, 1.0) - 1.0 / gamma(2.5)) < 1e-13


class TestLaplaceResidual:
    def test_exponential_case(self):
        assert ml_laplace_residual(1.0, 1.0, 1.0) < 1e-7

    def test_half_order(self):
        assert ml_laplace_residual(0.5, 1.0, 1.0) < 1e-6

    def test_offgrid_case(self):
        assert ml_laplace_residual(0.7, 4 * np.pi ** 2, 0.5) < 1e-6


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
