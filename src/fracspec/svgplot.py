"""Deterministic SVG rendering for line plots and heatmaps.

Pure text assembly with fixed float formatting: identical inputs produce
byte-identical files, so plot artifacts participate in manifest digesting.
"""

from __future__ import annotations

import math

from .errors import EmptyData

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 30.0, 50.0

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

CATEGORY_COLORS = {
    "theorem1-case-i": "#2166ac",
    "theorem1-case-ii": "#67a9cf",
    "theorem2-conditional": "#ef8a62",
    "unknown": "#f7f7f7",
}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:  # step below the spacing of doubles at t
            break
        t += step
    return out


def _labelled_ticks(lo: float, hi: float, log: bool):
    """(tick, label) pairs of _ticks(lo, hi); labels give the ticks (10^tick when
    log) to the fewest significant digits, 6 to 17, that tell neighbours apart."""
    ticks = _ticks(lo, hi)
    for digits in range(6, 18):
        labels = [f"{10.0 ** t if log else t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return zip(ticks, labels)


def _span(values):
    """(min, max) of values, all equal ones widened by max(1, |v| 2^-50)."""
    lo, hi = min(values), max(values)
    pad = max(1.0, abs(lo) * 2.0 ** -50)
    return (lo - pad, hi + pad) if lo == hi else (lo, hi)


def _axes(x_lo, x_hi, y_lo, y_hi, title, x_label, y_label, logx, logy):
    for label, lo, hi in ((x_label, x_lo, x_hi), (y_label, y_lo, y_hi)):
        if not 0.0 < hi - lo < math.inf:
            raise ValueError(f"column {label!r}: no axis spans {lo:g} to {hi:g} "
                             "in double precision")

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(v):
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = []
    parts.append(f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" '
                 f'width="{_fmt(WIDTH - MARGIN_L - MARGIN_R)}" '
                 f'height="{_fmt(HEIGHT - MARGIN_T - MARGIN_B)}" '
                 'fill="none" stroke="#333333" stroke-width="1"/>')
    for t, label in _labelled_ticks(x_lo, x_hi, logx):
        px = sx(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(HEIGHT - MARGIN_B + 5)}" stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                     f'font-size="11" text-anchor="middle">{label}</text>')
    for t, label in _labelled_ticks(y_lo, y_hi, logy):
        py = sy(t)
        parts.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(py + 4)}" '
                     f'font-size="11" text-anchor="end">{label}</text>')
    if title:
        parts.append(f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(MARGIN_T - 10)}" '
                     f'font-size="14" text-anchor="middle">{title}</text>')
    if x_label:
        parts.append(f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 12)}" '
                     f'font-size="12" text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="14" y="{_fmt(HEIGHT / 2)}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 14 {_fmt(HEIGHT / 2)})">'
                     f'{y_label}</text>')
    return parts, sx, sy


def _document(parts) -> str:
    body = "\n".join(parts)
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
            f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">\n'
            '<rect width="100%" height="100%" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n")


def render_line(series: dict[str, tuple], title="", x_label="", y_label="",
                logx=False, logy=False) -> str:
    """Polyline plot; series maps name -> (x array-like, y array-like)."""
    if not series or all(len(vals[0]) == 0 for vals in series.values()):
        raise EmptyData("nothing to plot")
    txs, tys = [], []
    transformed = {}
    for name, (xs, ys) in series.items():
        pts = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            if logx:
                if x <= 0:
                    raise EmptyData(f"series {name!r} row {i}: x = {x} not "
                                    "positive under log scaling")
                x = math.log10(x)
            if logy:
                if y <= 0:
                    raise EmptyData(f"series {name!r} row {i}: y = {y} not "
                                    "positive under log scaling")
                y = math.log10(y)
            pts.append((x, y))
            txs.append(x)
            tys.append(y)
        transformed[name] = pts
    x_lo, x_hi = _span(txs)
    y_lo, y_hi = _span(tys)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    parts, sx, sy = _axes(x_lo, x_hi, y_lo, y_hi, title, x_label, y_label,
                          logx, logy)
    for k, (name, pts) in enumerate(transformed.items()):
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        color = PALETTE[k % len(PALETTE)]
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_fmt(WIDTH - MARGIN_R - 6)}" '
                     f'y="{_fmt(MARGIN_T + 16 + 14 * k)}" font-size="11" '
                     f'text-anchor="end" fill="{color}">{name}</text>')
    return _document(parts)


def _value_color(v: float, lo: float, hi: float) -> str:
    """Five-stop blue-to-red linear colormap.  Values are halved before they
    are subtracted, so a span past the double range stays finite."""
    stops = [(0.0, (5, 48, 97)), (0.25, (67, 147, 195)), (0.5, (247, 247, 247)),
             (0.75, (214, 96, 77)), (1.0, (103, 0, 31))]
    u = 0.5 if hi == lo else (0.5 * v - 0.5 * lo) / (0.5 * hi - 0.5 * lo)
    u = min(max(u, 0.0), 1.0)
    for (u0, c0), (u1, c1) in zip(stops[:-1], stops[1:]):
        if u <= u1:
            w = 0.0 if u1 == u0 else (u - u0) / (u1 - u0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"
    return "rgb(103,0,31)"


def _cells(values):
    """Half-width of each unique value's cell (half the gap to its nearer
    neighbour, 1 for a lone value) and the axis span the cells cover."""
    u = sorted(set(values))
    gaps = [b - a for a, b in zip(u[:-1], u[1:])]
    half = [0.5 * min(g) for g in zip([math.inf] + gaps, gaps + [math.inf])] if gaps else [1.0]
    return dict(zip(u, half)), u[0] - half[0], u[-1] + half[-1]


def render_heatmap(xs, ys, values, title="", x_label="", y_label="") -> str:
    """Cell heatmap over the lattice of unique (x, y); values numeric or
    categorical strings (fixed palette).  Each cell is centred on its (x, y)
    on the same linear axes as the ticks."""
    if len(values) == 0:
        raise EmptyData("nothing to plot")
    x_half, x_lo, x_hi = _cells(xs)
    y_half, y_lo, y_hi = _cells(ys)
    parts, sx, sy = _axes(x_lo, x_hi, y_lo, y_hi, title, x_label, y_label,
                          False, False)
    categorical = isinstance(values[0], str)
    if not categorical:
        lo, hi = min(values), max(values)
    cells = []
    for x, y, v in zip(xs, ys, values):
        px, qx = sx(x - x_half[x]), sx(x + x_half[x])
        py, qy = sy(y + y_half[y]), sy(y - y_half[y])
        if categorical:
            color = CATEGORY_COLORS.get(v, "#999999")
        else:
            color = _value_color(float(v), lo, hi)
        cells.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(qx - px)}" '
                     f'height="{_fmt(qy - py)}" fill="{color}"/>')
    # cells under the frame, frame on top
    return _document(cells + parts)
