import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.sl_core import PotentialSpec, RobinPair, eigen_system, eval_modes_at
from fracspec.tangents import eigen_tangents


class TestEigenTangents:
    """eigen_tangents against difference quotients of eigen_system itself and
    against the Hellmann-Feynman formulas of the continuous problem."""

    GRID, D, H = 256, 0.5, 1.0
    C0, H0 = np.array([-0.2, 0.1, -0.05]), 0.4

    def directions(self):
        x = np.linspace(0.0, 1.0, self.GRID + 1)
        dq = np.zeros((self.C0.size, x.size))
        head = x <= self.D
        dq[:, head] = np.cos((np.arange(self.C0.size)[:, None] + 0.5) * np.pi * x[head] / self.D)
        return x, dq

    def outputs(self, c, h, x0):
        x, dq = self.directions()
        q = PotentialSpec(-0.3 - 0.2 * np.cos(np.pi * x) + c @ dq, self.GRID)
        es = eigen_system(q, RobinPair(h, self.H), 12)
        return es, es.lambdas, eval_modes_at(es, x0)[0] * es.efuncs[:, -1]

    @pytest.mark.parametrize("x0", [0.0, 0.3, 0.5, 0.6, 1.0])
    def test_matches_central_differences(self, x0):
        # x0 at 0, inside the head, on its end node (no part cell), past it,
        # and at 1; steps of 1e-5 in every coefficient and in h
        es, _, _ = self.outputs(self.C0, self.H0, x0)
        dlam, da = eigen_tangents(es, x0, self.directions()[1])
        assert dlam.shape == da.shape == (13, self.C0.size + 1)
        step = 1e-5
        for p, e in enumerate(np.eye(self.C0.size + 1) * step):
            _, lam_up, a_up = self.outputs(self.C0 + e[:-1], self.H0 + e[-1], x0)
            _, lam_dn, a_dn = self.outputs(self.C0 - e[:-1], self.H0 - e[-1], x0)
            num_lam = (lam_up - lam_dn) / (2.0 * step)
            assert np.all(np.abs(dlam[:, p] - num_lam) <= 1e-7 * (1.0 + np.abs(num_lam)))
            assert np.all(np.abs(da[:, p] - (a_up - a_dn) / (2.0 * step)) <= 1e-8)

    def test_rejects_a_direction_off_the_grid_and_x0_outside(self):
        es, _, _ = self.outputs(self.C0, self.H0, 0.6)
        dq = self.directions()[1]
        with pytest.raises(DomainError, match=r"shape \(P, 257\)"):
            eigen_tangents(es, 0.6, dq[:, ::2])
        with pytest.raises(DomainError, match=r"shape \(P, 257\)"):
            eigen_tangents(es, 0.6, dq[0])
        with pytest.raises(DomainError, match="x0 must lie in"):
            eigen_tangents(es, 1.5, dq)

    def test_hellmann_feynman(self):
        # dlambda_n/dh = e_n(0)^2 and dlambda_n/dc_m = -int b_m e_n^2, to the
        # discretization error of 256 cells
        es, _, _ = self.outputs(self.C0, self.H0, 0.6)
        x, dq = self.directions()
        dlam, _ = eigen_tangents(es, 0.6, dq)
        assert np.abs(dlam[:, -1] - es.efuncs[:, 0] ** 2).max() <= 1e-6
        hf = -np.trapezoid(dq[None] * es.efuncs[:, None] ** 2, x, axis=2)
        assert np.abs(dlam[:, :-1] - hf).max() <= 5e-4


def difference_errors(grid, base, dq, h, H, x0, n_max, step=1e-4):
    """Largest gaps of eigen_tangents from central differences of eigen_system
    at q = base: relative for lambda_n, absolute for a_n = e_n(x0) e_n(1)."""
    def outputs(c, h):
        q = PotentialSpec(base + c @ dq, grid)
        es = eigen_system(q, RobinPair(h, H), n_max, allow_inadmissible=True)
        return es, es.lambdas, eval_modes_at(es, x0)[0] * es.efuncs[:, -1]

    es, _, _ = outputs(np.zeros(len(dq)), h)
    dlam, da = eigen_tangents(es, x0, dq)
    err_lam = err_a = 0.0
    for p, e in enumerate(np.eye(len(dq) + 1) * step):
        _, lam_up, a_up = outputs(e[:-1], h + e[-1])
        _, lam_dn, a_dn = outputs(-e[:-1], h - e[-1])
        num_lam = (lam_up - lam_dn) / (2.0 * step)
        err_lam = max(err_lam, np.max(np.abs(dlam[:, p] - num_lam) / (1.0 + np.abs(num_lam))))
        err_a = max(err_a, np.max(np.abs(da[:, p] - (a_up - a_dn) / (2.0 * step))))
    return es, err_lam, err_a


class TestEigenTangentsOffTheTestGrid:
    """The cell formulas where the 256-cell tests keep them small: mu^2 past
    the Taylor branch, and a = slope h^3/12 not small."""

    def test_high_modes_on_a_coarse_grid(self):
        # 64 cells and 20 modes take mu^2 = a^2 - h^2 (lambda + q) to -0.96,
        # onto _cell_tangents' closed form (c - s)/(2 mu^2); c - s -> c + s
        # fails here
        x = np.linspace(0.0, 1.0, 65)
        dq = np.cos((np.arange(3)[:, None] + 0.5) * np.pi * x / 0.5) * (x <= 0.5)
        es, err_lam, err_a = difference_errors(64, -0.3 - 0.2 * np.cos(np.pi * x), dq,
                                               0.4, 1.0, 0.6, 20)
        musq = -(es.lambdas - 0.5) / 64 ** 2
        assert musq.min() < -0.9
        assert err_lam <= 1e-7 and err_a <= 1e-8

    def test_steep_potential_on_few_cells(self):
        # q swings by 400 over 16 cells, so a = slope h^3/12 reaches 0.07, and
        # node-to-node directions give each cell's slope its own tangent: the
        # a-terms of _cell_tangents and the cells' slope (hi - lo)/hc count
        x = np.linspace(0.0, 1.0, 17)
        base = -200.0 * (1.0 + np.sin(6.0 * np.pi * x))
        dq = np.vstack([(-1.0) ** np.arange(17),
                        np.random.default_rng(0).uniform(-1.0, 1.0, 17)])
        slope = np.diff(base) * 16
        assert np.abs(slope).max() / 16 ** 3 / 12 > 0.05
        _, err_lam, err_a = difference_errors(16, base, dq, 0.4, 1.0, 0.55, 4)
        assert err_lam <= 1e-7 and err_a <= 1e-8
