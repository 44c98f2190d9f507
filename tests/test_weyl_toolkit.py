import json
import warnings

import numpy as np
import pytest
from scipy.special import polygamma

from fracspec.cli import ExperimentConfig, run
from fracspec.errors import DomainError, NearPole, ZeroEigenvalue
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
    ProductSpec,
    _log_product,
    f_decay_scan,
    m_exponent_fit,
    weyl_m_minus,
    wronskian_U,
    wronskian_deviation,
)

Q0 = PotentialSpec.constant(0.0, 1024)


def bump_potential(depth, d, grid=1024):
    """Admissible potential supported on [0, d), zero on [d, 1]."""
    return PotentialSpec.from_callable(
        lambda x: -depth * max(0.0, 1.0 - x / d) ** 2, grid)


def rescaled_product(spec, lam):
    """Oracle for the spectral product g: the ascending product of the
    factors, with decimal-exponent rescaling so no partial product overflows."""
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


def per_lambda_F(q1, q2, h1, h2, d, lambda_set, product):
    """Oracle for F = U/g^2: one scalar U and one rescaled product per lambda."""
    return np.array([wronskian_U(q1, q2, h1, h2, complex(lam), d)
                     / rescaled_product(product, complex(lam)) ** 2
                     for lam in lambda_set])


def spectral_product(spec, lam):
    """g(lambda) = exp(_log_product) at one lambda, on the retained set."""
    return complex(np.exp(_log_product(spec.retained(), np.array([lam]))[0]))


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

    def test_pole_guard_scales_with_the_derivative(self):
        # |phi(0.5)| = 1e-9 and |phi'(0.5)| = 311: inside the guard
        # 1e-10 * |phi'|; kills POLE_GUARD * max(1, |phi'|) -> /
        lam = (2.0 * (99.0 * np.pi / 2.0 - 1e-9)) ** 2
        with pytest.raises(NearPole):
            weyl_m_minus(Q0, 0.0, lam, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            weyl_m_minus(Q0, 0.0, 1.0, 0.0)


class TestMScan:
    def test_reference_exponent_fit(self):
        lams = ComplexRay(np.geomspace(100.0, 1500.0, 12)).points()
        fit = m_exponent_fit(lams, weyl_m_minus(Q0, 0.0, lams, 0.5))
        assert abs(fit.exponent - 0.5) < 0.02
        assert abs(fit.coefficient - 1.0) < 0.05
        assert fit.reference_exponent == -0.5

    def test_sector_direction(self):
        lams = ComplexRay(np.geomspace(50.0, 800.0, 10),
                          direction="sector", angle=np.pi / 3).points()
        fit = m_exponent_fit(lams, weyl_m_minus(Q0, 0.3, lams, 0.5))
        assert abs(fit.exponent - 0.5) < 0.05

    def test_json_fields(self, tmp_path):
        # the CLI's fit.json holds the fit's fields
        params = {"q": {"type": "constant", "value": 0.0}, "h": 0.0, "x": 0.5,
                  "mag_lo": 100.0, "mag_hi": 900.0, "count": 8}
        assert run(ExperimentConfig("weyl-scan", params, tmp_path)).all_passed
        obj = json.loads((tmp_path / "fit.json").read_text())
        assert list(obj) == ["exponent", "coefficient", "residual"]

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
        lams = ComplexRay(np.array([100.0, 200.0])).points()
        with pytest.raises(FitFailure):
            m_exponent_fit(lams, weyl_m_minus(Q0, 0.0, lams, 0.5))
        # a vanishing |m| has no logarithm; kills mags <= 0 -> < 0
        lams = ComplexRay(np.array([100.0, 200.0, 400.0])).points()
        with pytest.raises(FitFailure):
            m_exponent_fit(lams, np.array([1.0, 0.0, 2.0]))

    def test_fewest_fit_points(self):
        # MIN_FIT_POINTS = 3 points are enough; kills lams.size < 3 -> <=
        lams = ComplexRay(np.array([100.0, 200.0, 400.0])).points()
        fit = m_exponent_fit(lams, np.abs(lams) ** 0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)

    def test_sector_ray_points(self):
        # lambda = |lambda| e^{i angle}, and a sector ray's default angle is
        # the imaginary axis; kills magnitudes * exp -> /, 1j * angle -> /
        # and the default pi / 2 -> pi * 2
        mags = np.array([100.0, 400.0])
        ray = ComplexRay(mags, direction="sector", angle=np.pi / 3)
        assert np.allclose(ray.points(), mags * (0.5 + 0.5j * np.sqrt(3.0)),
                           rtol=1e-14, atol=0.0)
        assert np.allclose(ComplexRay(mags, direction="sector").points(), 1j * mags,
                           rtol=0.0, atol=1e-12)


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
        lams = [5.0, 60.0, 1j * 30.0, 200.0]
        assert wronskian_deviation(q1, q2, 0.0, 0.0, lams, (d, 0.55, 0.7, 0.9)) <= 1e-8

    def test_antisymmetry(self):
        q1 = bump_potential(0.8, 0.4)
        q2 = bump_potential(0.3, 0.4)
        for lam in (7.0, 1j * 12.0):
            a = wronskian_U(q1, q2, 0.1, 0.9, lam, 0.8)
            b = wronskian_U(q2, q1, 0.9, 0.1, lam, 0.8)
            assert abs(a + b) < 1e-10 * (1.0 + abs(a))

    def test_derivative_law(self):
        # dU/dx = (q1 - q2) phi_1 phi_2, checked by centered differences
        q1 = bump_potential(0.8, 0.6)
        q2 = PotentialSpec.constant(-0.2, 1024)
        lam = 11.0
        (phi1,), _ = _propagate(q1.samples, 1.0, 0.0, [lam], keep_trace=True)
        (phi2,), _ = _propagate(q2.samples, 1.0, 0.0, [lam], keep_trace=True)
        xg = q1.x_grid
        for x in (0.2, 0.35, 0.5):
            dx = 1e-4
            du = (wronskian_U(q1, q2, 0.0, 0.0, lam, x + dx)
                  - wronskian_U(q1, q2, 0.0, 0.0, lam, x - dx)) / (2 * dx)
            p1 = np.interp(x, xg, phi1)
            p2 = np.interp(x, xg, phi2)
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
        calls = (lambda: wronskian_U(Q0, q2, 0.0, 0.0, 5.0, x),
                 lambda: weyl_m_minus(Q0, 0.0, 5.0, x),
                 lambda: f_decay_scan(Q0, Q0, 0.0, 0.0, x, spec, [100.0, 400.0]))
        for call in calls:
            with pytest.raises(DomainError):
                call()


class TestProducts:
    """g(lambda) = prod (1 - lambda/lambda_n) from _log_product on the retained set."""

    def test_unit_at_zero(self):
        spec = ProductSpec(np.array([1.0, 4.0, 9.0]), 3)
        assert spectral_product(spec, 0.0) == 1.0

    def test_sine_product_identity(self):
        n = np.arange(1, 200001, dtype=float)
        spec = ProductSpec((n * np.pi) ** 2, n.size)
        lam = np.pi ** 2 / 4.0
        raw = spectral_product(spec, lam)
        tail = float(polygamma(1, n.size + 1)) / np.pi ** 2
        corrected = raw * np.exp(-lam * tail)
        assert abs(corrected - 2.0 / np.pi) < 1e-9

    def test_zero_eigenvalue_rejected(self):
        spec = ProductSpec(np.array([0.0, np.pi ** 2]), 2)
        with pytest.raises(ZeroEigenvalue):
            spec.retained()

    def test_exclusion_set(self):
        spec = ProductSpec(np.array([1.0, 2.0, 3.0]), 3, exclusion=frozenset({1}))
        assert np.array_equal(spec.retained(), [1.0, 3.0])
        val = spectral_product(spec, 0.5)
        assert abs(val - (1 - 0.5) * (1 - 0.5 / 3.0)) < 1e-14

    def test_truncation_stability(self):
        n = np.arange(1, 4001, dtype=float)
        spectrum = (n * np.pi) ** 2
        lam = np.array([30.0 + 10.0j])
        p1, p2 = (_log_product(ProductSpec(spectrum, m).retained(), lam)[0].real
                  for m in (2000, 4000))
        analytic_tail = abs(lam[0]) * np.sum(1.0 / spectrum[2000:])
        assert abs(p2 - p1) <= analytic_tail

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
            g = spectral_product(spec, lam).real * np.exp(-lam * tail_sum)
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
            ref = rescaled_product(spec, lam)
            assert abs(spectral_product(spec, lam) - ref) <= 1e-12 * abs(ref)

    def test_array_matches_scalars(self):
        retained = ProductSpec((np.arange(1, 101) * np.pi) ** 2, 100).retained()
        for lams in (np.array([-40.0, 5.0, 50.0, 300.0, 1e4]),
                     np.array([30.0 + 10.0j, 100.0j, 1600.0j])):
            vals = _log_product(retained, lams)
            assert np.array_equal(vals, [_log_product(retained, lams[i:i + 1])[0]
                                         for i in range(lams.size)])

    def test_exact_eigenvalue_is_zero_without_warning(self):
        spec = ProductSpec(np.array([1.0, 4.0, 9.0]), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_product(spec, 4.0) == 0.0
            assert spectral_product(spec, 4.0 + 0.0j) == 0.0


class TestF:
    def setup_method(self):
        self.d = 0.4
        self.q1 = Q0
        self.q2 = bump_potential(0.5, self.d)
        rb = RobinPair(0.0, 1.0)  # H > 0 keeps the spectrum positive
        self.es = eigen_system(self.q1, rb, 60, grid_size=1024)
        self.spec = ProductSpec(self.es.lambdas, 61)

    def test_identical_pair_zero(self):
        scan = f_decay_scan(self.q1, self.q1, 0.0, 0.0, self.d, self.spec,
                            [100.0, 400.0, 1600.0])
        assert np.max(scan.f_magnitudes) < 1e-12

    def test_mismatched_tail_rejected(self):
        q_bad = PotentialSpec.constant(-0.1, 1024)
        with pytest.raises(DomainError, match="matched tails"):
            f_decay_scan(self.q1, q_bad, 0.0, 0.0, self.d, self.spec, [100.0, 400.0])

    @staticmethod
    def _deep_pair(grid=256, d=0.375):
        """A deep common tail base = -20 (1 + x), max|q| near 40, and q2 =
        base minus a head bump, 0.1 below base at d and 1e-8 above it on
        (d, 1]: both gaps are inside the tolerances 0.05 (1 + max|q|) at d and
        1e-9 (1 + max|q|) on the tail, and outside them without the 1 +."""
        x = np.linspace(0.0, 1.0, grid + 1)
        base = -20.0 * (1.0 + x)
        q2 = base - 0.5 * np.maximum(0.0, 1.0 - x / d) ** 2 + 1e-8 * (x > d)
        q2[np.isclose(x, d)] -= 0.1
        return PotentialSpec(base, grid), PotentialSpec(q2, grid), x

    def test_matched_tail_tolerance_scales_with_q(self):
        # kills scale = 1 + max|q| -> 1 - max|q|, 1e-9 * scale -> /,
        # 0.05 * scale -> /, q1(x) - q2(x) -> + and q1(d) - q2(d) -> +
        q1, q2, _ = self._deep_pair()
        spec = ProductSpec((np.arange(1, 21) * np.pi) ** 2, 20)
        scan = f_decay_scan(q1, q2, 0.0, 0.0, 0.375, spec, [100.0, 200.0, 400.0])
        assert np.all(np.isfinite(scan.f_magnitudes))

    def test_tail_mismatch_between_its_ends_rejected(self):
        # equal at d and at 1, apart in between; kills 1.0 / grid_size -> *
        q1, _, x = self._deep_pair()
        q2 = q1.samples + 0.1 * np.sin(np.pi * (x - 0.375) / 0.625) * (x > 0.375)
        spec = ProductSpec((np.arange(1, 21) * np.pi) ** 2, 20)
        with pytest.raises(DomainError, match="matched tails"):
            f_decay_scan(q1, PotentialSpec(q2, 256), 0.0, 0.0, 0.375, spec,
                         [100.0, 200.0])

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

    def test_empty_product_is_one(self):
        y = np.array([30.0, 500.0])
        scan = f_decay_scan(self.q1, self.q2, 0.0, 0.0, self.d,
                            ProductSpec(self.es.lambdas, 0), y)
        U = wronskian_U(self.q1, self.q2, 0.0, 0.0, 1j * y, self.d)
        assert np.allclose(scan.f_magnitudes, np.abs(U), rtol=1e-13, atol=0.0)

    def test_decay_scan_matches_per_lambda_oracle(self):
        y = np.geomspace(100.0, 1600.0, 25)
        scan = f_decay_scan(self.q1, self.q2, 0.0, 0.0, self.d, self.spec, y)
        ref = np.abs(per_lambda_F(self.q1, self.q2, 0.0, 0.0, self.d, 1j * y,
                                  self.spec))
        assert np.all(np.abs(scan.f_magnitudes - ref) <= self._tolerance(1j * y, ref))

    @pytest.mark.parametrize("y", [[100.0], [400.0, 100.0], [0.0, 100.0],
                                   [100.0, 1e4], [100.0, 100.0, 400.0]])
    def test_decay_scan_rejects_bad_y_values(self, y):
        with pytest.raises(DomainError):
            f_decay_scan(self.q1, self.q2, 0.0, 0.0, self.d, self.spec, y)
