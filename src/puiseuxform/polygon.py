"""Newton polygon of a 1-form: point cloud, lower-left hull, support lines.

The cloud of ``w = a dx + b dy`` collects a point ``(i, j)`` whenever
``a`` has the term ``x^i y^j`` or ``b`` has the term ``x^(i+1) y^(j-1)``;
its abscissas never fall left of ``i = -1``.  The Newton polygon is the
lower-left boundary of the convex envelope of the cloud propagated up and
to the right, i.e. of the union of quadrants ``(i, j) + R>=0 x R>=0``.

A support line of co-slope ``mu`` (line slope ``-1/mu``) touches the
polygon where ``i + mu*j`` is minimal over the cloud; the minimum is the
``tau`` intercept on the OX axis.  Only the cloud's staircase can touch
it (see ``NewtonPolygon``), so ``cloud(w)`` is built only where it is shown.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .algebra import INFINITY, OneForm, RatLike, _rescale, order


class MalformedFormError(ValueError):
    """The form would place a cloud point left of the line i = -1."""


class CloudPoint(NamedTuple):
    i: Fraction
    j: int


class Side(NamedTuple):
    start: CloudPoint
    end: CloudPoint
    coslope: Fraction  # the side lies on i + coslope*j = const


class SupportContact(NamedTuple):
    """Where the support line of co-slope ``mu`` touches the polygon.

    ``points`` is the full argmin set of ``i + mu*j`` over the cloud,
    sorted by abscissa; the contact is a side exactly when it has at
    least two points, otherwise a vertex.  ``highest`` is the contact
    point of maximal ordinate.
    """

    mu: Fraction
    tau: Fraction
    points: tuple[CloudPoint, ...]
    kind: str  # "vertex" | "side"
    highest: CloudPoint


class NewtonPolygon(NamedTuple):
    """A cloud's staircase, the points that no other point lies below-left
    of (one per row at most, by increasing abscissa), and its hull.  For
    ``mu > 0`` a point below-left of ``(i, j)`` is lower on ``i + mu*j``, so
    a dominated point is never in an argmin: every vertex, side and support
    contact comes from the staircase (Walker, *Algebraic Curves*, ch. IV)."""

    staircase: tuple[CloudPoint, ...]
    vertices: tuple[CloudPoint, ...]
    sides: tuple[Side, ...]


def _cross(o: CloudPoint, a: CloudPoint, b: CloudPoint) -> Fraction:
    return (a.i - o.i) * (b.j - o.j) - (a.j - o.j) * (b.i - o.i)


def _row_minima(points: Iterable[tuple]) -> dict:
    """``{j: the least i}`` over ``points``; ``i`` may be any exact number."""
    rows = {}
    for i, j in points:
        if j not in rows or i < rows[j]:
            rows[j] = i
    return rows


def _polygon(rows: dict[int, Fraction]) -> NewtonPolygon:
    """The polygon of a cloud given by the least abscissa of each row."""
    if not rows:
        raise ValueError("empty cloud")
    # up the rows, a row minimum is on the staircase if left of all below
    stair: list[CloudPoint] = []
    for j in sorted(rows):
        if not stair or rows[j] < stair[-1].i:
            stair.append(CloudPoint(rows[j], j))
    stair.reverse()
    if stair[0].i < -1:  # the least abscissa, with the least ordinate among ties
        raise MalformedFormError("cloud point (%s, %d) lies left of i = -1" % stair[0])
    # Monotone chain over the staircase with exact cross products.
    hull: list[CloudPoint] = []
    for p in stair:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    sides = tuple(
        Side(v1, v2, (v2.i - v1.i) / (v1.j - v2.j))
        for v1, v2 in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(stair), tuple(hull), sides)


def newton_polygon(points: Iterable[CloudPoint | tuple[RatLike, int]]) -> NewtonPolygon:
    """Lower-left boundary of the convex envelope of ``points + R>=0^2``.

    Each ``i`` is read as a rational, ``"p/q"`` included.  Vertices come out
    with strictly increasing abscissa and strictly decreasing ordinate; side
    co-slopes strictly increase left to right.  Cloud points interior to a
    side are not vertices (they reappear in support contacts).
    """
    return _polygon(_row_minima((Fraction(i), int(j)) for i, j in points))


def support(np: NewtonPolygon, mu: RatLike) -> SupportContact:
    """Contact of the support line of co-slope ``mu >= 1`` with the polygon."""
    mu = Fraction(mu)
    if mu < 1:
        raise ValueError("support queries require mu >= 1")
    heights = [p.i + mu * p.j for p in np.staircase]
    tau = min(heights)
    pts = tuple(p for p, h in zip(np.staircase, heights) if h == tau)
    # the staircase descends, so its first contact point is the highest
    return SupportContact(mu, tau, pts, "side" if len(pts) >= 2 else "vertex", pts[0])


def polygon_of(w: OneForm) -> NewtonPolygon:
    """Newton polygon of the form, its cloud scanned in integers on the grid
    ``d`` of both coefficients (``x^i`` at ``i*d``); only row minima are ``Fraction``s."""
    d = math.lcm(w.a.d, w.b.d)  # only the keys are read: no numerator is lifted
    a, b = _rescale(w.a.grid, d // w.a.d), _rescale(w.b.grid, d // w.b.d)
    rows = _row_minima(itertools.chain(a, ((n - d, ey + 1) for n, ey in b)))
    return _polygon({j: Fraction(n, d) for j, n in rows.items()})


def cloud(w: OneForm) -> tuple[CloudPoint, ...]:
    """The form's whole cloud, sorted by abscissa, then ordinate."""
    return tuple(sorted({*map(CloudPoint._make, w.a.terms),
                         *(CloudPoint(ex - 1, ey + 1) for ex, ey in w.b.terms)}))


def y_order(w: OneForm) -> int:
    """Ordinate of the highest contact point of the co-slope-1 support line."""
    return support(polygon_of(w), Fraction(1)).highest.j


def multiplicity(w: OneForm) -> int:
    """``min(order(a), order(b)) + 1`` for a form with integer exponents."""
    orders = []
    for p in (w.a, w.b):
        if any(n % p.d for n, _ey in p.grid):
            raise ValueError("multiplicity requires integer exponents")
        o = order(p)
        if o is not INFINITY:
            orders.append(o)
    if not orders:
        raise ValueError("the zero form has no multiplicity")
    return int(min(orders)) + 1
