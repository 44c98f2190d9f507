"""The Magnus cell functions cosh(mu) and sinh(mu)/mu against a 40-digit reference.

sl_core._cosh_sinhc takes sinh(mu)/mu from its Taylor polynomial in mu^2 and
cosh(mu) from the determinant identity cosh^2 - mu^2 (sinh(mu)/mu)^2 = 1
where |mu^2| <= _SERIES_RADIUS, and libm past it.
"""

import math

import mpmath
import numpy as np
import pytest

from fracspec.sl_core import _SERIES_RADIUS as R, _SERIES_TERMS as K, _SINHC_TAYLOR, _cosh_sinhc

ANGLES = np.exp(2j * np.pi * np.arange(64) / 64)
REAL = np.concatenate([
    [0.0, R, -R, np.nextafter(R, 0.0), -np.nextafter(R, 0.0),
     np.nextafter(R, 1.0), -np.nextafter(R, 1.0), 1e-300, -1e-300, 1e-17, -1e-17,
     1e-8, -1e-8, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0, 7.0, -7.0],
    np.linspace(-R, R, 401)])
COMPLEX = np.concatenate([
    [0j, 1e-20j, 1e-8 + 1e-8j, R * 1j, -R * 1j, 0.3j, 0.2 + 0.2j, 0.5 - 0.5j, 1j,
     -7.0 + 1.0j],
    R * ANGLES, 0.99 * R * ANGLES, 0.5 * R * ANGLES, 1.01 * R * ANGLES,
    np.random.default_rng(7).uniform(0.0, R, 200) ** 0.5 * np.sqrt(R)
    * np.exp(2j * np.pi * np.random.default_rng(8).uniform(0.0, 1.0, 200))])


def tail_bound(k):
    """Bound on |sum_{j >= k} z^j/(2j+1)!| over |z| <= R (a geometric majorant)."""
    return R ** k / math.factorial(2 * k + 1) / (1.0 - R / ((2 * k + 2) * (2 * k + 3)))


def ulps(values, musq):
    """Largest error of each value against mpmath, in units of the spacing of
    doubles at the reference's modulus."""
    out = []
    with mpmath.workdps(40):
        for value, z in zip(values, musq):
            z = mpmath.mpc(complex(z))
            mu = mpmath.sqrt(z)
            ref = (1, 1) if z == 0 else (mpmath.cosh(mu), mpmath.sinh(mu) / mu)
            out.append(max(float(abs(mpmath.mpc(complex(v)) - r) / np.spacing(float(abs(r))))
                           for v, r in zip(value, ref)))
    return np.array(out)


@pytest.mark.parametrize("musq", [REAL, COMPLEX], ids=["real", "complex"])
def test_within_two_ulps_of_the_reference(musq):
    c, s = _cosh_sinhc(musq)
    assert c.dtype == s.dtype == musq.dtype
    err = ulps(zip(c, s), musq)
    series = np.abs(musq) <= R
    assert err[series].max() <= 2.0
    # past R libm serves as it always has: 2.1 ulps at mu^2 = -7 (sin(rho)/rho
    # rounds twice) and 3 at complex |mu^2| = 1.01 R.  Far out, near a zero of
    # cos(rho), the rounding of rho alone moves c by hundreds of its ulps, so
    # the points past R stay where the functions are well conditioned
    assert err[~series].max() <= 4.0


def test_each_value_depends_on_its_own_argument_alone():
    # a real batch holding points on both sides of R gives each point's own
    # bits (complex products may round differently in numpy's vector loops)
    c, s = _cosh_sinhc(REAL)
    for i, z in enumerate(REAL):
        ci, si = _cosh_sinhc(REAL[i:i + 1])
        assert ci[0] == c[i] and si[0] == s[i], z


def test_series_terms_meet_the_remainder_bound():
    # K is the fewest terms whose tail stays under 2^-56 times the least
    # |sinh(mu)/mu| over |mu^2| <= R, sin(sqrt R)/sqrt R
    least = math.sin(math.sqrt(R)) / math.sqrt(R)
    assert tail_bound(K) <= 2.0 ** -56 * least < tail_bound(K - 1)
    assert len(_SINHC_TAYLOR) == K
    with mpmath.workdps(40):
        for z in (R, -R, R * 1j):
            z = mpmath.mpmathify(z)
            tail = mpmath.sinh(mpmath.sqrt(z)) / mpmath.sqrt(z) - sum(
                z ** k / mpmath.factorial(2 * k + 1) for k in range(K))
            assert abs(tail) <= tail_bound(K)
