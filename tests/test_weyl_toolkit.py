import numpy as np
import pytest
from scipy.special import polygamma

from fracspec.errors import (
    DomainError,
    NearPole,
    NearZeroDenominator,
    ZeroEigenvalue,
)
from fracspec.sl_core import PotentialSpec, RobinPair, char_delta, eigen_system
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
