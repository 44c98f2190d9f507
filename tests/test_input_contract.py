"""Arguments outside the library's domain raise a DomainError that names them."""

import numpy as np
import pytest

from fracspec.errors import DomainError
from fracspec.sl_core import PotentialSpec, RobinPair, char_delta, eigen_system
from fracspec.weyl_toolkit import weyl_m_minus, wronskian_U

Q = PotentialSpec.constant(0.0, 64)
ROBIN = RobinPair(0.5, 1.0)
NON_FINITE = [np.nan, np.inf, -np.inf, complex(1.0, np.inf), complex(np.nan, 1.0)]


@pytest.mark.parametrize("lam", NON_FINITE)
class TestNonFiniteLambda:
    """The march names a non-finite lambda before it starts."""

    def test_char_delta(self, lam):
        with pytest.raises(DomainError, match="lambda must be finite"):
            char_delta(Q, ROBIN, lam)

    def test_wronskian_U(self, lam):
        with pytest.raises(DomainError, match="lambda must be finite"):
            wronskian_U(Q, Q, 0.5, 0.2, lam, 1.0)
        with pytest.raises(DomainError, match="lambda must be finite"):
            wronskian_U(Q, Q, 0.5, 0.2, np.array([1.0, lam, 2.0]), 1.0)

    def test_weyl_m_minus(self, lam):
        with pytest.raises(DomainError, match="lambda must be finite"):
            weyl_m_minus(Q, 0.5, lam, 0.5)


@pytest.mark.parametrize("h, H, name", [(np.inf, 1.0, "h"), (1.0, np.inf, "H"),
                                        (-np.inf, 1.0, "h"), (1.0, np.nan, "H")])
def test_robin_pair_names_a_non_finite_coefficient(h, H, name):
    with pytest.raises(DomainError, match=f"Robin coefficient {name} must be in"):
        RobinPair(h, H)


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
def test_bare_robin_coefficient_is_named(h):
    # the Weyl toolkit takes h as a float, not a RobinPair; no sign check
    with pytest.raises(DomainError, match="Robin coefficient h must be finite"):
        wronskian_U(Q, Q, h, 0.2, 3.0, 1.0)
    with pytest.raises(DomainError, match="Robin coefficient h must be finite"):
        wronskian_U(Q, Q, 0.2, h, 3.0, 1.0)
    with pytest.raises(DomainError, match="Robin coefficient h must be finite"):
        weyl_m_minus(Q, h, 3.0, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigen_system_names_a_non_finite_guess(bad):
    guess = (np.arange(9) * np.pi) ** 2
    guess[3] = bad
    with pytest.raises(DomainError, match="lambda_guess must be finite"):
        eigen_system(Q, RobinPair(0.0, 0.0), 8, lambda_guess=guess)


def test_grid_limit_follows_the_potential():
    # q = -A shifts the Neumann spectrum to (n pi)^2 + A, which a constant q's
    # exact cell matrices reproduce; winding_bracket's turn rate reads lam_hi
    # + mean(q) and lam_hi + max(q), so the stated minimum grid depends on A
    A, n_max = 5000.0, 100
    q = PotentialSpec.constant(-A, 103)
    with pytest.raises(DomainError, match=r"101 modes need grid_size >= 103 \(got 102\)"):
        eigen_system(q, RobinPair(0.0, 0.0), n_max, grid_size=102)
    lams = eigen_system(q, RobinPair(0.0, 0.0), n_max).lambdas
    exact = (np.arange(n_max + 1) * np.pi) ** 2 + A
    assert np.max(np.abs(lams - exact) / exact) < 1e-12
