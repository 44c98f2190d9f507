import warnings

import numpy as np
import pytest
from scipy.special import polygamma

from fracspec import weyl_toolkit
from fracspec.errors import (
    DomainError,
    NearPole,
    NearZeroDenominator,
    NonFiniteBlowup,
    ZeroEigenvalue,
)
from fracspec.sl_core import (
    PotentialSpec,
    RobinPair,
    _propagate,
    char_delta,
    eigen_system,
)
from fracspec.weyl_toolkit import (
    ComplexRay,
    DecayScan,
    F_eval,
    ProductSpec,
    f_decay_scan,
    m_asymptotic_scan,
    product_eval,
    weyl_m_minus,
    wronskian_U,
)

Q0 = PotentialSpec.constant(0.0, 1024)


def bump_potential(depth, d, grid=1024):
    """Admissible potential supported on [0, d), zero on [d, 1]."""
    return PotentialSpec.from_callable(
        lambda x: -depth * max(0.0, 1.0 - x / d) ** 2, grid)


def rescaled_product(spec, lam):
    """Oracle for product_eval: the ascending product of the factors, with
    decimal-exponent rescaling so no partial product overflows."""
    prod = complex(1.0)
    exp10 = 0
    for lam_n in spec.retained():
        prod *= 1.0 - lam / lam_n
        mag = abs(prod)
        if mag > 1e150:
            prod *= 1e-150
            exp10 += 150
        elif 0 < mag < 1e-150:
            prod *= 1e150
            exp10 -= 150
    prod = prod * 10.0 ** exp10
    return prod if isinstance(lam, complex) else prod.real


def per_lambda_F(q1, q2, h1, h2, d, lambda_set, product, near_eigenvalue="raise"):
    """Oracle for F_eval: one scalar U and one rescaled product per lambda,
    and the same removable-singularity fit."""
    retained = product.retained()
    lams = np.atleast_1d(np.asarray(lambda_set, dtype=complex))
    out = np.empty(lams.size, dtype=complex)
    for i, lam in enumerate(lams):
        dist = np.abs(lam - retained) / (1.0 + retained)
        if dist.min() < weyl_toolkit.EIG_GUARD:
            assert near_eigenvalue == "fit"
            lam_star = retained[np.argmin(dist)]
            delta = 1e-3 * (1.0 + abs(lam_star))
            stencil = lam_star + delta * np.array([-3, -2, -1, 1, 2, 3])
            fvals = per_lambda_F(q1, q2, h1, h2, d, stencil, product)
            coef = np.polyfit(stencil - lam_star, fvals, 2)
            out[i] = np.polyval(coef, lam - lam_star)
        else:
            U = wronskian_U(q1, q2, h1, h2, complex(lam), d)
            out[i] = U / rescaled_product(product, complex(lam)) ** 2
    return out


def cancellation_scale(q1, q2, h1, h2, lams, x):
    """max(|phi_1 phi_2'|, |phi_2 phi_1'|): the size of the products U cancels."""
    v1, d1 = _propagate(q1.samples, 1.0, h1, lams, x=x)
    v2, d2 = _propagate(q2.samples, 1.0, h2, lams, x=x)
    return np.maximum(np.abs(v1 * d2), np.abs(v2 * d1))


class TestWeylM:
    def test_negative_axis_closed_form(self):
        val = weyl_m_minus(Q0, 0.0, -1.0, 1.0)
        assert abs(val - (-np.tanh(1.0))) < 1e-11

    def test_tangent_closed_form(self):
        for lam, x in ((7.3, 0.4), (29.0, 0.25), (150.0, 0.55)):
            ref = np.sqrt(lam) * np.tan(np.sqrt(lam) * x)
            val = weyl_m_minus(Q0, 0.0, lam, x)
            assert abs(val - ref) < 1e-8 * max(1.0, abs(ref))

    def test_pole_detected(self):
        with pytest.raises(NearPole):
            weyl_m_minus(Q0, 0.0, np.pi ** 2, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            weyl_m_minus(Q0, 0.0, 1.0, 0.0)


class TestMScan:
    def test_reference_exponent_fit(self):
        ray = ComplexRay(np.geomspace(100.0, 1500.0, 12))
        fit = m_asymptotic_scan(Q0, 0.0, 0.5, ray)
        assert abs(fit.exponent - 0.5) < 0.02
        assert abs(fit.coefficient - 1.0) < 0.05
        assert fit.reference_exponent == -0.5

    def test_sector_direction(self):
        ray = ComplexRay(np.geomspace(50.0, 800.0, 10),
                         direction="sector", angle=np.pi / 3)
        fit = m_asymptotic_scan(Q0, 0.3, 0.5, ray)
        assert abs(fit.exponent - 0.5) < 0.05

    def test_json_fields(self):
        ray = ComplexRay(np.geomspace(100.0, 900.0, 8))
        fit = m_asymptotic_scan(Q0, 0.0, 0.5, ray)
        import json
        obj = json.loads(fit.to_json())
        assert set(obj) == {"exponent", "coefficient", "residual"}

    def test_reciprocal_difference_decays(self):
        # potentials equal near x = 0.7: 1/m_2 - 1/m_1 -> 0 along the ray
        q1 = bump_potential(0.5, 0.3)
        q2 = bump_potential(0.2, 0.3)
        ys = np.array([100.0, 400.0, 1600.0])
        gaps = []
        for y in ys:
            m1 = weyl_m_minus(q1, 0.0, 1j * y, 0.7)
            m2 = weyl_m_minus(q2, 0.0, 1j * y, 0.7)
            gaps.append(abs(1.0 / m2 - 1.0 / m1))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_ray_cap(self):
        with pytest.raises(DomainError):
            ComplexRay(np.array([100.0, 1e7]))

    def test_fit_failure_on_degenerate_ray(self):
        from fracspec.errors import FitFailure
        ray = ComplexRay(np.array([100.0, 200.0]))
        with pytest.raises(FitFailure):
            m_asymptotic_scan(Q0, 0.0, 0.5, ray)


class TestWronskian:
    def test_identical_inputs_vanish(self):
        q = bump_potential(0.7, 0.5)
        for lam in (3.0, 40.0, 1j * 25.0):
            for x in (0.2, 0.6, 1.0):
                assert abs(wronskian_U(q, q, 0.4, 0.4, lam, x)) < 1e-10

    def test_constant_on_matched_tail(self):
        d = 0.4
        q1 = bump_potential(0.8, d)
        q2 = bump_potential(0.3, d)
        for lam in (5.0, 60.0, 1j * 30.0, 200.0):
            u_ref = wronskian_U(q1, q2, 0.0, 0.0, lam, 1.0)
            for x in (d, 0.55, 0.7, 0.9):
                u = wronskian_U(q1, q2, 0.0, 0.0, lam, x)
                assert abs(u - u_ref) <= 1e-8 * (1.0 + abs(u_ref))

    def test_antisymmetry(self):
        q1 = bump_potential(0.8, 0.4)
        q2 = bump_potential(0.3, 0.4)
        for lam in (7.0, 1j * 12.0):
            a = wronskian_U(q1, q2, 0.1, 0.9, lam, 0.8)
            b = wronskian_U(q2, q1, 0.9, 0.1, lam, 0.8)
            assert abs(a + b) < 1e-10 * (1.0 + abs(a))

    def test_derivative_law(self):
        # dU/dx = (q1 - q2) phi_1 phi_2, checked by centered differences
        from fracspec.sl_core import solve_ivp_left
        q1 = bump_potential(0.8, 0.6)
        q2 = PotentialSpec.constant(-0.2, 1024)
        lam = 11.0
        tr1 = solve_ivp_left(q1, 0.0, lam)
        tr2 = solve_ivp_left(q2, 0.0, lam)
        xg = tr1.x_grid
        for x in (0.2, 0.35, 0.5):
            dx = 1e-4
            du = (wronskian_U(q1, q2, 0.0, 0.0, lam, x + dx)
                  - wronskian_U(q1, q2, 0.0, 0.0, lam, x - dx)) / (2 * dx)
            p1 = np.interp(x, xg, tr1.values.real)
            p2 = np.interp(x, xg, tr2.values.real)
            ref = (q1(x) - q2(x)) * p1 * p2
            assert abs(du - ref) < 1e-6 * (1.0 + abs(ref))

    # first cell, mid-cell, on a node, right end: the part-cell carries the slope
    @pytest.mark.parametrize("x", [0.4 / 512, 0.37, 0.5, 1.0])
    def test_sloped_potential_closed_form(self, x, linear_left_solution):
        kappa = 8.0
        q1 = PotentialSpec.from_callable(lambda s: -kappa * s, 512)
        q2 = PotentialSpec.constant(-2.0, 512)
        for lam in (5.0, 60.0, 3.0 + 4.0j):
            v1, d1 = linear_left_solution(kappa, 0.2, lam, x)
            k = np.sqrt(lam - 2.0 + 0j)
            v2 = np.cos(k * x) + 0.9 * np.sin(k * x) / k
            d2 = -k * np.sin(k * x) + 0.9 * np.cos(k * x)
            ref = v1 * d2 - v2 * d1
            u = wronskian_U(q1, q2, 0.2, 0.9, lam, x)
            assert abs(u - ref) < 1e-9 * (1.0 + abs(ref))

    def test_boundary_kill_at_common_eigenvalue(self):
        # lambda = pi^2 is an eigenvalue of both q = 0 and q = 3 pi^2 problems
        # (free Robin pair); the Robin rows become proportional at x = 1
        q2 = PotentialSpec.constant(3.0 * np.pi ** 2, 1024)
        u = wronskian_U(Q0, q2, 0.0, 0.0, np.pi ** 2, 1.0)
        assert abs(u) < 1e-7


class TestBatchedLambda:
    D = 0.4
    Q1 = bump_potential(0.8, D, 2560)
    Q2 = bump_potential(0.3, D, 2560)
    REAL = np.array([-50.0, 5.0, 7.3, 60.0, 200.0, 1500.0])
    COMPLEX = np.array([3.0 + 4.0j, 100.0 + 50.0j, 400.0 + 100.0j, 30.0j,
                        120.0j, 1600.0j])

    @pytest.mark.parametrize("x", [0.4 / 512, 0.4, 0.73, 1.0])
    def test_real_array_is_bit_identical_to_scalars(self, x):
        u = wronskian_U(self.Q1, self.Q2, 0.2, 0.9, self.REAL, x)
        ref = [wronskian_U(self.Q1, self.Q2, 0.2, 0.9, lam, x) for lam in self.REAL]
        assert u.dtype == float and np.array_equal(u, ref)
        m = weyl_m_minus(self.Q1, 0.2, self.REAL[:3], x)
        assert np.array_equal(m, [weyl_m_minus(self.Q1, 0.2, lam, x)
                                  for lam in self.REAL[:3]])

    @pytest.mark.parametrize("x", [0.4 / 512, 0.4, 0.73, 1.0])
    def test_complex_array_matches_scalars(self, x):
        u = wronskian_U(self.Q1, self.Q2, 0.2, 0.9, self.COMPLEX, x)
        ref = np.array([wronskian_U(self.Q1, self.Q2, 0.2, 0.9, lam, x)
                        for lam in self.COMPLEX])
        scale = cancellation_scale(self.Q1, self.Q2, 0.2, 0.9, self.COMPLEX, x)
        assert np.all(np.abs(u - ref) <= 1e-15 * scale)
        m = weyl_m_minus(self.Q1, 0.2, self.COMPLEX, x)
        m_ref = np.array([weyl_m_minus(self.Q1, 0.2, lam, x) for lam in self.COMPLEX])
        assert np.all(np.abs(m - m_ref) <= 1e-15 * np.abs(m_ref))

    def test_scalar_in_scalar_out_and_shape_kept(self):
        assert type(wronskian_U(self.Q1, self.Q2, 0.2, 0.9, 5.0, 0.7)) is float
        assert type(wronskian_U(self.Q1, self.Q2, 0.2, 0.9, 5j, 0.7)) is complex
        assert type(weyl_m_minus(Q0, 0.0, 7.3, 0.4)) is float
        grid = self.COMPLEX.reshape(2, 3)
        assert wronskian_U(self.Q1, self.Q2, 0.2, 0.9, grid, 0.7).shape == (2, 3)
        assert weyl_m_minus(Q0, 0.0, grid, 0.7).shape == (2, 3)

    def test_array_near_pole_names_the_lambda(self):
        lams = np.array([1.0, np.pi ** 2, 50.0])
        with pytest.raises(NearPole, match=str(np.pi ** 2)):
            weyl_m_minus(Q0, 0.0, lams, 0.5)


class TestXRange:
    """x (or d) outside (0, 1] is a DomainError at every public entry point."""

    @pytest.fixture(scope="class")
    def spec(self):
        es = eigen_system(Q0, RobinPair(0.0, 1.0), 20, grid_size=1024)
        return ProductSpec(es.lambdas, 21)

    @pytest.mark.parametrize("x", [1.5, -0.1, -0.2])
    def test_every_entry_point(self, x, spec):
        q2 = bump_potential(0.5, 0.4)
        ray = ComplexRay(np.geomspace(100.0, 900.0, 6))
        calls = (lambda: wronskian_U(Q0, q2, 0.0, 0.0, 5.0, x),
                 lambda: weyl_m_minus(Q0, 0.0, 5.0, x),
                 lambda: m_asymptotic_scan(Q0, 0.0, x, ray),
                 lambda: F_eval(Q0, Q0, 0.0, 0.0, x, [30.0], spec),
                 lambda: f_decay_scan(Q0, Q0, 0.0, 0.0, x, spec, [100.0, 400.0]))
        for call in calls:
            with pytest.raises(DomainError):
                call()


class TestProducts:
    def test_unit_at_zero(self):
        spec = ProductSpec(np.array([1.0, 4.0, 9.0]), 3)
        assert product_eval(spec, 0.0) == 1.0

    def test_sine_product_identity(self):
        n = np.arange(1, 200001, dtype=float)
        spec = ProductSpec((n * np.pi) ** 2, n.size)
        lam = np.pi ** 2 / 4.0
        raw = product_eval(spec, lam)
        tail = float(polygamma(1, n.size + 1)) / np.pi ** 2
        corrected = raw * np.exp(-lam * tail)
        assert abs(corrected - 2.0 / np.pi) < 1e-9

    def test_zero_eigenvalue_rejected(self):
        spec = ProductSpec(np.array([0.0, np.pi ** 2]), 2)
        with pytest.raises(ZeroEigenvalue):
            product_eval(spec, 1.0)

    def test_exclusion_set(self):
        spec = ProductSpec(np.array([1.0, 2.0, 3.0]), 3, exclusion=frozenset({1}))
        val = product_eval(spec, 0.5)
        assert abs(val - (1 - 0.5) * (1 - 0.5 / 3.0)) < 1e-14

    def test_truncation_stability(self):
        n = np.arange(1, 4001, dtype=float)
        spectrum = (n * np.pi) ** 2
        lam = 30.0 + 10.0j
        p1 = product_eval(ProductSpec(spectrum, 2000), lam)
        p2 = product_eval(ProductSpec(spectrum, 4000), lam)
        analytic_tail = abs(lam) * np.sum(1.0 / spectrum[2000:])
        assert abs(np.log(abs(p2)) - np.log(abs(p1))) <= analytic_tail

    def test_hadamard_proportionality(self):
        q = PotentialSpec.constant(-0.5, 1024)
        rb = RobinPair(0.3, 0.7)
        es = eigen_system(q, rb, 120, grid_size=1024)
        spec = ProductSpec(es.lambdas, 121)
        # analytic tail estimate with lam_n ~ (n pi)^2 + c
        c = float(np.mean(es.lambdas[-20:] - (np.arange(101, 121) * np.pi) ** 2))
        n_tail = np.arange(121, 200000, dtype=float)
        tail_sum = np.sum(1.0 / ((n_tail * np.pi) ** 2 + c))
        ratios = []
        for lam in np.linspace(-40.0, -5.0, 8):
            g = product_eval(spec, lam) * np.exp(-lam * tail_sum)
            ratios.append(g / char_delta(q, rb, lam))
        ratios = np.asarray(ratios)
        spread = (ratios.max() - ratios.min()) / abs(ratios.mean())
        assert spread < 0.01


    @staticmethod
    def _existing_inputs():
        n = np.arange(1, 200001, dtype=float)
        yield ProductSpec(np.array([1.0, 4.0, 9.0]), 3), 0.0
        yield ProductSpec((n * np.pi) ** 2, n.size), np.pi ** 2 / 4.0
        yield ProductSpec(np.array([1.0, 2.0, 3.0]), 3, exclusion=frozenset({1})), 0.5
        spectrum = (n[:4000] * np.pi) ** 2
        yield ProductSpec(spectrum, 2000), 30.0 + 10.0j
        yield ProductSpec(spectrum, 4000), 30.0 + 10.0j
        es = eigen_system(PotentialSpec.constant(-0.5, 1024), RobinPair(0.3, 0.7),
                          120, grid_size=1024)
        for lam in np.linspace(-40.0, -5.0, 8):
            yield ProductSpec(es.lambdas, 121), lam
        # real lambda past some eigenvalues: the sign comes from the factors
        for lam in (50.0, 300.0, 1e4, 3e5, 1e3 + 1e3j):
            yield ProductSpec(spectrum, 100), lam
        # |g| near 1e240: the oracle's partial products need the rescale
        yield ProductSpec(np.full(40, 1e-3), 40), 1e3

    def test_matches_rescaled_product(self):
        for spec, lam in self._existing_inputs():
            val = product_eval(spec, lam)
            ref = rescaled_product(spec, lam)
            assert type(val) is type(ref)
            assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_array_matches_scalars(self):
        spec = ProductSpec((np.arange(1, 101) * np.pi) ** 2, 100)
        lams = np.array([-40.0, 5.0, 50.0, 300.0, 1e4])
        vals = product_eval(spec, lams)
        assert vals.dtype == float
        assert np.array_equal(vals, [product_eval(spec, lam) for lam in lams])

    def test_exact_eigenvalue_is_zero_without_warning(self):
        spec = ProductSpec(np.array([1.0, 4.0, 9.0]), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert product_eval(spec, 4.0) == 0.0
            assert product_eval(spec, 4.0 + 0.0j) == 0.0

    def test_overflow_raises_without_warning(self):
        spec = ProductSpec(np.full(60, 1e-3), 60)  # |g| ~ 1e360
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteBlowup):
                product_eval(spec, 1e3)


class TestF:
    def setup_method(self):
        self.d = 0.4
        self.q1 = Q0
        self.q2 = bump_potential(0.5, self.d)
        rb = RobinPair(0.0, 1.0)  # H > 0 keeps the spectrum positive
        self.es = eigen_system(self.q1, rb, 60, grid_size=1024)
        self.spec = ProductSpec(self.es.lambdas, 61)

    def test_identical_pair_zero(self):
        vals = F_eval(self.q1, self.q1, 0.0, 0.0, self.d,
                      [3.3, 17.0 + 2.0j], self.spec)
        assert np.max(np.abs(vals)) < 1e-12

    def test_mismatched_tail_rejected(self):
        q_bad = PotentialSpec.constant(-0.1, 1024)
        with pytest.raises(DomainError):
            F_eval(self.q1, q_bad, 0.0, 0.0, self.d, [1.0], self.spec)

    def test_near_eigenvalue_guard(self):
        lam_star = self.es.lambdas[3]
        with pytest.raises(NearZeroDenominator):
            F_eval(self.q1, self.q2, 0.0, 0.0, self.d,
                   [lam_star * (1 + 1e-12)], self.spec)

    def test_removable_singularity_fit(self):
        lam_star = self.es.lambdas[3]
        vals = F_eval(self.q1, self.q2, 0.0, 0.0, self.d,
                      [lam_star * (1 + 1e-12)], self.spec,
                      near_eigenvalue="fit")
        assert np.all(np.isfinite(vals))

    def test_decay_scan_negative_slope(self):
        scan = f_decay_scan(self.q1, self.q2, 0.0, 0.0, self.d,
                            self.spec, np.geomspace(100.0, 1600.0, 25))
        assert isinstance(scan, DecayScan)
        assert scan.slope < 0.0
        assert scan.decreasing_trend

    def _tolerance(self, lams, ref):
        """1e-12 of |F|, plus 1e-15 of the products U cancels, over |g|^2."""
        lams = np.asarray(lams, dtype=complex)
        g = np.array([rescaled_product(self.spec, complex(lam)) for lam in lams])
        scale = cancellation_scale(self.q1, self.q2, 0.0, 0.0, lams, self.d)
        return 1e-12 * np.abs(ref) + 1e-15 * scale / np.abs(g) ** 2

    def test_matches_per_lambda_oracle(self):
        lams = [3.3, 17.0 + 2.0j, 100.0j, 50.0 + 5.0j, 1600.0j, 200.0, -20.0,
                1000.0 + 1000.0j]
        vals = F_eval(self.q1, self.q2, 0.0, 0.0, self.d, lams, self.spec)
        ref = per_lambda_F(self.q1, self.q2, 0.0, 0.0, self.d, lams, self.spec)
        assert np.all(np.abs(vals - ref) <= self._tolerance(lams, ref))
        lams = [self.es.lambdas[3] * (1 + 1e-12), 30.0, self.es.lambdas[7]]
        vals = F_eval(self.q1, self.q2, 0.0, 0.0, self.d, lams, self.spec,
                      near_eigenvalue="fit")
        ref = per_lambda_F(self.q1, self.q2, 0.0, 0.0, self.d, lams, self.spec,
                           near_eigenvalue="fit")
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))

    def test_empty_product_is_one(self):
        lams = np.array([30.0, 5.0j])
        vals = F_eval(self.q1, self.q2, 0.0, 0.0, self.d, lams,
                      ProductSpec(self.es.lambdas, 0))
        assert np.array_equal(vals, wronskian_U(self.q1, self.q2, 0.0, 0.0,
                                                lams, self.d))

    def test_guard_raises_before_any_march(self, monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("marched before the eigenvalue guard")

        monkeypatch.setattr(weyl_toolkit, "_propagate", no_march)
        lam_star = self.es.lambdas[3] * (1 + 1e-12)
        with pytest.raises(NearZeroDenominator, match="lambda = "):
            F_eval(self.q1, self.q2, 0.0, 0.0, self.d,
                   np.array([30.0, lam_star, 50.0]), self.spec)

    def test_decay_scan_matches_per_lambda_oracle(self):
        y = np.geomspace(100.0, 1600.0, 25)
        scan = f_decay_scan(self.q1, self.q2, 0.0, 0.0, self.d, self.spec, y)
        ref = np.abs(per_lambda_F(self.q1, self.q2, 0.0, 0.0, self.d, 1j * y,
                                  self.spec))
        assert np.all(np.abs(scan.f_magnitudes - ref) <= self._tolerance(1j * y, ref))

    @pytest.mark.parametrize("y", [[100.0], [400.0, 100.0], [0.0, 100.0],
                                   [100.0, 1e4]])
    def test_decay_scan_rejects_bad_y_values(self, y):
        with pytest.raises(DomainError):
            f_decay_scan(self.q1, self.q2, 0.0, 0.0, self.d, self.spec, y)
