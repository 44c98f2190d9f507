import numpy as np
import pytest
from scipy.special import airy


@pytest.fixture
def linear_left_solution():
    """Closed-form left solution for the linear potential q(x) = -kappa x.

    Returns phi(x; lambda) with phi(0) = 1, phi'(0) = h, as (phi, phi'),
    from -u'' + kappa x u = lambda u, i.e. Airy's equation in
    z = kappa^(1/3) (x - lambda/kappa).
    """
    def solution(kappa, h, lam, x):
        s = kappa ** (1.0 / 3.0)
        lam = np.asarray(lam)
        ai0, aip0, bi0, bip0 = airy(-s * lam / kappa)
        # Wronskian Ai Bi' - Ai' Bi = 1/pi fixes the coefficients
        a = np.pi * (bip0 - h / s * bi0)
        b = np.pi * (h / s * ai0 - aip0)
        ai, aip, bi, bip = airy(s * (x - lam / kappa))
        return a * ai + b * bi, s * (a * aip + b * bip)
    return solution
