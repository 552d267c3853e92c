"""Newton polygon of a 1-form: point cloud, lower-left hull, support lines.

The cloud of ``w = a dx + b dy`` collects a point ``(i, j)`` whenever
``a`` has the term ``x^i y^j`` or ``b`` has the term ``x^(i+1) y^(j-1)``;
its abscissas never fall left of ``i = -1``.  The Newton polygon is the
lower-left boundary of the convex envelope of the cloud propagated up and
to the right, i.e. of the union of quadrants ``(i, j) + R>=0 x R>=0``.

A support line of co-slope ``mu`` (line slope ``-1/mu``) touches the
polygon where ``i + mu*j`` is minimal over the cloud; the minimum is the
``tau`` intercept on the OX axis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .algebra import INFINITY, OneForm, RatLike, order


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
    cloud: tuple[CloudPoint, ...]
    vertices: tuple[CloudPoint, ...]
    sides: tuple[Side, ...]


def _cross(o: CloudPoint, a: CloudPoint, b: CloudPoint) -> Fraction:
    return (a.i - o.i) * (b.j - o.j) - (a.j - o.j) * (b.i - o.i)


def newton_polygon(points: Iterable[CloudPoint | tuple[RatLike, int]]) -> NewtonPolygon:
    """Lower-left boundary of the convex envelope of ``points + R>=0^2``.

    Vertices come out with strictly increasing abscissa and strictly
    decreasing ordinate; side co-slopes strictly increase left to right.
    Cloud points interior to a side are not vertices (they reappear in
    support contacts).
    """
    pts = tuple(sorted({CloudPoint(Fraction(i), int(j)) for (i, j) in points}))
    if not pts:
        raise ValueError("empty cloud")
    for p in pts:
        if p.i < -1:
            raise MalformedFormError(
                "cloud point (%s, %d) lies left of i = -1" % (p.i, p.j)
            )
    # Pareto frontier: keep points not dominated from the lower left.
    frontier: list[CloudPoint] = []
    best_j: int | None = None
    for p in pts:
        if best_j is None or p.j < best_j:
            frontier.append(p)
            best_j = p.j
    # Monotone chain over the frontier with exact cross products.
    hull: list[CloudPoint] = []
    for p in frontier:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    sides = tuple(
        Side(v1, v2, (v2.i - v1.i) / (v1.j - v2.j))
        for v1, v2 in zip(hull, hull[1:])
    )
    return NewtonPolygon(pts, tuple(hull), sides)


def support(np: NewtonPolygon, mu: RatLike) -> SupportContact:
    """Contact of the support line of co-slope ``mu >= 1`` with the polygon."""
    mu = Fraction(mu)
    if mu < 1:
        raise ValueError("support queries require mu >= 1")
    heights = [p.i + mu * p.j for p in np.cloud]
    tau = min(heights)
    pts = tuple(p for p, h in zip(np.cloud, heights) if h == tau)
    kind = "side" if len(pts) >= 2 else "vertex"
    highest = max(pts, key=lambda p: p.j)
    return SupportContact(mu, tau, pts, kind, highest)


def polygon_of(w: OneForm) -> NewtonPolygon:
    """Newton polygon of the form; its ``cloud`` is the form's cloud."""
    return newton_polygon(
        [*w.a.terms, *((ex - 1, ey + 1) for (ex, ey) in w.b.terms)]
    )


def y_order(w: OneForm, np: NewtonPolygon | None = None) -> int:
    """Ordinate of the highest contact point of the co-slope-1 support line.

    ``np`` is the polygon of ``w`` when the caller already holds it.
    """
    np = np if np is not None else polygon_of(w)
    return support(np, Fraction(1)).highest.j


def multiplicity(w: OneForm) -> int:
    """``min(order(a), order(b)) + 1`` for a form with integer exponents."""
    orders = []
    for p in (w.a, w.b):
        for (ex, _ey) in p.terms:
            if ex.denominator != 1:
                raise ValueError("multiplicity requires integer exponents")
        o = order(p)
        if o is not INFINITY:
            orders.append(o)
    if not orders:
        raise ValueError("the zero form has no multiplicity")
    return int(min(orders)) + 1
