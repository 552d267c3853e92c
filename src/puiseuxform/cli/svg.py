"""Render a Newton polygon (cloud, hull, support lines) as standalone SVG."""

from __future__ import annotations

import math

from ..algebra import rat_str

_SCALE = 60.0
_PAD = 40.0
# Most units the view may span on an axis: it draws a grid line a unit.  A side
# of an integer cloud in such a view has a co-slope between 1/_MAX_VIEW and
# _MAX_VIEW, and every coordinate and co-slope drawn is at most _MAX_VIEW in size.
_MAX_VIEW = 1000

_STYLE = (
    ".grid{stroke:#ddd;stroke-width:0.5}"
    ".axis{stroke:#888;stroke-width:1}"
    ".cloud{fill:#1f77b4}"
    ".polygon{fill:none;stroke:#d62728;stroke-width:2}"
    ".ray{stroke:#d62728;stroke-width:1.5;stroke-dasharray:5 4}"
    ".support{stroke:#2ca02c;stroke-width:1}"
    "text{font:10px sans-serif;fill:#333}"
)


def _span(xs, ys):
    return max(max(xs) - min(xs), max(ys) - min(ys))


def build_svg(pts, vertices, contacts) -> str:
    """The SVG of the cloud ``pts``, the polygon's ``vertices`` and the contacts' lines.

    The view holds the origin, the cloud and each line's intercepts ``tau`` and
    ``tau/mu``.  A view wider than ``_MAX_VIEW`` units, or a co-slope that no
    side in it can have, raises ``ValueError`` before any float is made."""
    xs = [p.i for p in pts] + [0]
    ys = [p.j for p in pts] + [0]
    if _span(xs, ys) > _MAX_VIEW:
        raise ValueError("--svg: the cloud's view spans more than %d units" % _MAX_VIEW)
    for con in contacts:
        if con.mu > _MAX_VIEW or con.mu * _MAX_VIEW < 1:
            raise ValueError("--support co-slopes must be between 1/%d and %d"
                             % (_MAX_VIEW, _MAX_VIEW))
        xs.append(con.tau)
        ys.append(con.tau / con.mu)
    if _span(xs, ys) > _MAX_VIEW:
        raise ValueError("--support: the support lines stretch the view beyond %d units"
                         % _MAX_VIEW)
    xlo, xhi = float(min(xs)) - 0.7, float(max(xs)) + 0.7
    ylo, yhi = float(min(ys)) - 0.7, float(max(ys)) + 0.7

    width = (xhi - xlo) * _SCALE + 2 * _PAD
    height = (yhi - ylo) * _SCALE + 2 * _PAD

    def X(x: float) -> float:
        return _PAD + (x - xlo) * _SCALE

    def Y(y: float) -> float:
        return height - _PAD - (y - ylo) * _SCALE

    def line(x1, y1, x2, y2, cls, extra="") -> str:
        return '<line class="%s" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"%s/>' % (
            cls, X(x1), Y(y1), X(x2), Y(y2), extra,
        )

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.2f" height="%.2f" '
        'viewBox="0 0 %.2f %.2f">' % (width, height, width, height),
        "<style>%s</style>" % _STYLE,
        "<title>Newton polygon</title>",
    ]

    for gx in range(math.ceil(xlo), math.floor(xhi) + 1):
        parts.append(line(gx, ylo, gx, yhi, "axis" if gx == 0 else "grid"))
    for gy in range(math.ceil(ylo), math.floor(yhi) + 1):
        parts.append(line(xlo, gy, xhi, gy, "axis" if gy == 0 else "grid"))

    for con in contacts:
        mu = con.mu  # the support line i + mu*j = tau, clipped to the view box
        ja = max(ylo, (float(con.tau) - xhi) / float(mu))
        jb = min(yhi, (float(con.tau) - xlo) / float(mu))
        if ja < jb:
            extra = ' data-mu="%s" data-tau="%s"' % (rat_str(mu), rat_str(con.tau))
            parts.append(
                line(
                    float(con.tau) - float(mu) * ja, ja,
                    float(con.tau) - float(mu) * jb, jb,
                    "support", extra,
                )
            )
            parts.append(
                '<text x="%.2f" y="%.2f">mu=%s tau=%s</text>'
                % (X(float(con.tau)) + 4, Y(0) - 4, rat_str(mu), rat_str(con.tau))
            )

    if len(vertices) > 1:
        coords = " ".join(
            "%.2f,%.2f" % (X(float(v.i)), Y(float(v.j))) for v in vertices
        )
        parts.append('<polyline class="polygon" points="%s"/>' % coords)
    top, bottom = vertices[0], vertices[-1]
    parts.append(line(float(top.i), float(top.j), float(top.i), yhi, "ray"))
    parts.append(line(float(bottom.i), float(bottom.j), xhi, float(bottom.j), "ray"))

    for p in pts:
        parts.append(
            '<circle class="cloud" cx="%.2f" cy="%.2f" r="3.5"/>'
            % (X(float(p.i)), Y(float(p.j)))
        )
        parts.append(
            '<text x="%.2f" y="%.2f">(%s, %d)</text>'
            % (X(float(p.i)) + 5, Y(float(p.j)) - 5, rat_str(p.i), p.j)
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
