"""Exact derivatives of eigen_system's discrete outputs: the factor S of the
inverse problem's Jacobian J = J_spec S.

For directions of the potential's node samples and of the left Robin
coefficient h, eigen_tangents gives the derivatives of lambda_n and of the
observation weights a_n = e_n(x0) e_n(1), from an eigensystem's stored trace
and one more traced march (the solution started from (0, 1)).  They are the
derivatives of the discrete outputs themselves, the Magnus march, the
corrected-trapezoid beta and eval_modes_at's part cell, not of the continuous
problem, so they match difference quotients of eigen_system to their own
truncation error.  The Hellmann-Feynman formulas dlambda_n/dh = e_n(0)^2 and
dlambda_n/dq = -e_n^2 (Poeschel & Trubowitz, Inverse Spectral Theory, 1987)
hold to the discretization error.

inverse loads this module with its first Jacobian, not at import fracspec,
which then reads and compiles none of it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .sl_core import (_SERIES_RADIUS, _SINHC_TAYLOR, EigenSystem, _cell_factors, _cosh_sinhc,
                      _horner, _part_cell, _propagate)


def _cell_tangents(qmid, slope, width, lams):
    """Derivatives of _cell_factors' entries in the cell mean w = lambda + qmid
    and in a = slope width^3 / 12, each stacked like _cell_factors.

    From dc/dmu^2 = s/2 and ds/dmu^2 = (c - s)/(2 mu^2), the latter by the
    derivative of _cosh_sinhc's Taylor table where |mu^2| <= its radius.
    """
    w2 = np.add.outer(lams, qmid)
    a = slope * width ** 3 / 12.0
    musq = a ** 2 - (width * width) * w2
    c, s = _cosh_sinhc(musq)
    near = np.abs(musq) <= _SERIES_RADIUS
    ds = _horner(np.where(near, musq, 0.0), [k * t for k, t in enumerate(_SINHC_TAYLOR)][1:])
    ds = np.divide(c - s, 2.0 * musq, out=ds, where=~near)
    dc = 0.5 * s
    up, dn, sw = dc + ds * a, dc - ds * a, ds * width
    # mu^2 moves by -width^2 per unit of w and by 2a per unit of a; t10 =
    # -w s width also holds w itself
    dw = -width * width
    by_w = np.stack([up * dw, sw * dw, -w2 * sw * dw - s * width, dn * dw])
    by_a = np.stack([2.0 * a * up + s, 2.0 * a * sw, -2.0 * a * w2 * sw, 2.0 * a * dn - s])
    return by_w, by_a


def eigen_tangents(es: EigenSystem, x0: float, dq):
    """Exact derivatives of eigen_system's lambda_n and a_n = e_n(x0) e_n(1).

    dq holds P directions of the node samples of q, shape (P, grid_size + 1);
    the left Robin coefficient h is appended as direction P.  Returns
    (dlambda, da), each (n_modes, P + 1).

    With Y_k = [phi_k chi_k; phi'_k chi'_k] (chi started from (0, 1); det
    Y_k = 1, as every cell matrix has det 1) the march's tangent in a
    direction is z_k = Y_k (W_0 + sum_{i<k} Y_{i+1}^-1 dT_i y_i): W_0 = (0, 1)
    for h, 0 otherwise.  A shift of lambda moves every cell like a unit shift
    of q, so dlambda_n = -dDelta/dDelta_lambda, and the total tangent is the
    direction's own plus dlambda_n times that of a unit shift.  The node sums
    of beta are sums over cells by parts, (modes x cells) @ (cells x P).
    """
    qs = es.q.samples
    dq = np.asarray(dq, dtype=float)
    if dq.ndim != 2 or dq.shape[1] != qs.size:
        raise DomainError(f"dq must have shape (P, {qs.size}), got {dq.shape}")
    if not 0.0 <= x0 <= 1.0:
        raise DomainError("x0 must lie in [0, 1]")
    n_cells = es.grid_size
    hc = 1.0 / n_cells
    lams = es.lambdas
    root_beta = np.sqrt(es.beta)[:, None]
    phi, dphi = es.efuncs * root_beta, es.defuncs * root_beta
    chi, dchi = _propagate(qs, 0.0, 1.0, lams, keep_trace=True)
    # directions: the given ones, then a unit shift of q (= of lambda)
    dq = np.vstack([dq, np.ones(qs.size)])
    n_dir = dq.shape[0]
    lo, hi = qs[:-1], qs[1:]
    by_w, by_a = _cell_tangents(0.5 * (lo + hi), (hi - lo) / hc, np.full(n_cells, hc), lams)
    dw_cells = 0.5 * (dq[:, :-1] + dq[:, 1:]).T
    da_cells = ((dq[:, 1:] - dq[:, :-1]) * (hc * hc / 12.0)).T

    def inverse_y(t):
        # Y_{i+1}^-1 t y_i for every cell, shape (2, n_modes, n_cells)
        g0 = t[0] * phi[:, :-1] + t[1] * dphi[:, :-1]
        g1 = t[2] * phi[:, :-1] + t[3] * dphi[:, :-1]
        return np.stack([dchi[:, 1:] * g0 - chi[:, 1:] * g1,
                         phi[:, 1:] * g1 - dphi[:, 1:] * g0])

    gw, ga = inverse_y(by_w), inverse_y(by_a)

    def tangent(k):
        # (z_k, z'_k) for every direction, then h, each (n_modes, n_dir + 1),
        # from W_k: the cells below node k, and W = (0, 1) for h
        w = gw[:, :, :k] @ dw_cells[:k] + ga[:, :, :k] @ da_cells[:k]
        w = np.concatenate([w, np.broadcast_to([[[0.0]], [[1.0]]], w.shape[:2] + (1,))], axis=2)
        return (phi[:, k, None] * w[0] + chi[:, k, None] * w[1],
                dphi[:, k, None] * w[0] + dchi[:, k, None] * w[1])

    z_end, dz_end = tangent(n_cells)
    ddelta = -(dz_end + es.robin.H * z_end)
    dlam = -np.delete(ddelta, n_dir - 1, axis=1) / ddelta[:, n_dir - 1, None]

    def total(raw):
        return np.delete(raw, n_dir - 1, axis=1) + dlam * raw[:, n_dir - 1, None]

    # e_n(x0): the part cell's factor on the trace at node n0; the part's
    # mean and slope follow the direction's samples at n0 and n0 + 1
    n0, qmid, slope, part = _part_cell(qs, np.asarray(x0, dtype=float))
    n1 = min(int(n0) + 1, n_cells)
    t = _cell_factors(qmid, slope, part, lams)
    pw, pa = _cell_tangents(qmid, slope, part, lams)
    dw_part = dq[:, n0] + (dq[:, n1] - dq[:, n0]) * part / (2.0 * hc)
    da_part = (dq[:, n1] - dq[:, n0]) / hc * part ** 3 / 12.0
    dt = pw[..., None] * np.append(dw_part, 0.0) + pa[..., None] * np.append(da_part, 0.0)
    z, dz = tangent(int(n0))
    phi_x0 = t[0] * phi[:, n0] + t[1] * dphi[:, n0]
    dphi_x0 = (t[0, :, None] * z + t[1, :, None] * dz
               + dt[0] * phi[:, n0, None] + dt[1] * dphi[:, n0, None])

    # beta = trapezoid of phi^2 minus (hc^2/12)[2 phi phi'] over the ends;
    # sum_k v_k phi_k z_k = W_0 . sums + sum_i w_i . (sum_{k>i} v_k phi_k (phi_k, chi_k))
    v = np.full(n_cells + 1, hc)
    v[[0, -1]] = 0.5 * hc
    vp, vc = v * phi * phi, v * phi * chi
    rev = [np.cumsum(f[:, :0:-1], axis=1)[:, ::-1] for f in (vp, vc)]
    by_parts = ((gw[0] * rev[0] + gw[1] * rev[1]) @ dw_cells
                + (ga[0] * rev[0] + ga[1] * rev[1]) @ da_cells)
    sum_pz = np.concatenate([by_parts, vc.sum(axis=1)[:, None]], axis=1)
    dz_start = np.zeros_like(sum_pz)
    dz_start[:, -1] = 1.0  # z_0 = (0, 1) for h, 0 otherwise
    dbeta = 2.0 * sum_pz - (hc * hc / 6.0) * (
        z_end * dphi[:, -1, None] + phi[:, -1, None] * dz_end
        - phi[:, 0, None] * dz_start)
    beta = es.beta[:, None]
    a = (phi_x0 * phi[:, -1])[:, None] / beta
    da = (total(dphi_x0) * phi[:, -1, None] + phi_x0[:, None] * total(z_end)) / beta \
        - a * total(dbeta) / beta
    return dlam, da
