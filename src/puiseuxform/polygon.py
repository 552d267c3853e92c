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

from .algebra import OneForm, RatLike, _rational, _rescale


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
    contact comes from the staircase (Walker, *Algebraic Curves*, ch. IV).

    Vertices come with strictly increasing abscissa and strictly decreasing
    ordinate, and side co-slopes strictly increase left to right.  Cloud
    points interior to a side are not vertices; they reappear in support
    contacts."""

    staircase: tuple[CloudPoint, ...]
    vertices: tuple[CloudPoint, ...]
    sides: tuple[Side, ...]


def _cross(o: tuple, a: tuple, b: tuple) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _polygon(points: Iterable[tuple[int, int]], d: int) -> NewtonPolygon:
    """The polygon of the cloud of points ``(n/d, j)``, given as the ints
    ``(n, j)``: the hull is built on them, and only the staircase points and
    the co-slopes become ``Fraction``s."""
    rows: dict[int, int] = {}  # {j: the least n}
    for n, j in points:
        if j not in rows or n < rows[j]:
            rows[j] = n
    if not rows:
        raise ValueError("empty cloud")
    # up the rows, a row minimum is on the staircase if left of all below
    stair: list[tuple[int, int]] = []
    for j in sorted(rows):
        if not stair or rows[j] < stair[-1][0]:
            stair.append((rows[j], j))
    stair.reverse()
    point = {p: CloudPoint(Fraction(p[0], d), p[1]) for p in stair}
    if stair[0][0] < -d:  # the least abscissa, with the least ordinate among ties
        raise MalformedFormError("cloud point (%s, %d) lies left of i = -1" % point[stair[0]])
    # Monotone chain over the staircase with integer cross products.
    hull: list[tuple[int, int]] = []
    for p in stair:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    sides = tuple(
        Side(point[v1], point[v2], Fraction(v2[0] - v1[0], d * (v1[1] - v2[1])))
        for v1, v2 in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(point.values()), tuple(point[v] for v in hull), sides)


def support(np: NewtonPolygon, mu: RatLike) -> SupportContact:
    """Contact of the support line of co-slope ``mu > 0`` with the polygon.

    For ``mu = a/b`` and ``L`` the lcm of the staircase's denominators, the
    heights ``i + mu*j`` are compared as the ints ``L*b*(i + mu*j)``; only
    ``tau`` becomes a ``Fraction``.
    """
    mu = _rational(mu)
    if mu <= 0:
        raise ValueError("support queries require mu > 0")
    b, stair = mu.denominator, np.staircase
    L = math.lcm(*(p.i.denominator for p in stair))
    aL = mu.numerator * L
    heights = [p.i.numerator * (L // p.i.denominator) * b + aL * p.j for p in stair]
    low = min(heights)
    pts = tuple(p for p, h in zip(stair, heights) if h == low)
    kind = "side" if len(pts) >= 2 else "vertex"
    # the staircase descends, so its first contact point is the highest
    return SupportContact(mu, Fraction(low, L * b), pts, kind, pts[0])


def _scan(w: OneForm) -> tuple[Iterable[tuple[int, int]], int]:
    """The cloud's points ``(n, j)`` on the grid ``d`` of both coefficients, and
    ``d``: ``a``'s ``x^i y^j`` and ``b``'s ``x^(i+1) y^(j-1)`` at ``(i*d, j)``."""
    d = math.lcm(w.a.d, w.b.d)  # only the keys are read: no numerator is lifted
    a, b = _rescale(w.a.grid, d // w.a.d), _rescale(w.b.grid, d // w.b.d)
    return itertools.chain(a, ((n - d, ey + 1) for n, ey in b)), d


def polygon_of(w: OneForm) -> NewtonPolygon:
    """Newton polygon of the form, its hull built in integers on the cloud's grid."""
    return _polygon(*_scan(w))


def cloud(w: OneForm) -> tuple[CloudPoint, ...]:
    """The form's whole cloud, sorted by abscissa, then ordinate."""
    points, d = _scan(w)
    return tuple(CloudPoint(Fraction(n, d), j) for n, j in sorted(set(points)))


def cloud_pair(w: OneForm, i: Fraction, j: int) -> tuple[int, int]:
    """The two terms that put the point ``(i, j)`` in the cloud: the numerator
    of ``a``'s ``x^i y^j`` over ``a.den`` and that of ``b``'s ``x^(i+1) y^(j-1)``
    over ``b.den``, 0 for an absent term."""
    n, q = i.numerator, i.denominator
    return w.a._numerator(n, q, j) or 0, w.b._numerator(n + q, q, j - 1) or 0


def y_order(w: OneForm) -> int:
    """Ordinate of the highest cloud point of least ``i + j``.  No dominated
    point is least, so it is the co-slope-1 support line's highest contact."""
    points, d = _scan(w)
    return min(points, key=lambda p: (p[0] + d * p[1], -p[1]))[1]


def _check_polynomial(w: OneForm) -> None:
    """Refuse a form with a fractional exponent, or the zero form: neither has
    a multiplicity, so neither can be held to the bound."""
    for p in (w.a, w.b):
        if any(n % p.d for n, _ey in p.grid):
            raise ValueError("multiplicity requires integer exponents")
    if w.a.is_zero() and w.b.is_zero():
        raise ValueError("the zero form has no multiplicity")


def multiplicity(w: OneForm) -> int:
    """The least ``i + j`` over the cloud plus 1, ``min(order(a), order(b)) + 1``,
    for a form with integer exponents."""
    _check_polynomial(w)
    points, d = _scan(w)
    return min(n + d * j for n, j in points) // d + 1
