"""Independent cross-checks for the expansion pipeline.

The expansion code decides admissible exponents from a Newton polygon and
coefficients from characteristic polynomials.  Everything here goes the
other way around, so agreement is meaningful:

* ``branch_to_curve`` rebuilds the monic curve f(x, y) whose root the
  branch is, from the power sums of the branch's m conjugates and
  Newton's identities, in exact arithmetic over Q[x].  The expansion of
  d(f) must then rediscover the branch term by term.
* ``gen_case`` plants a branch with a prescribed ladder of characteristic
  exponents and hands back the differential form, the curve, and the
  expected step list, so the steps the expansion finds, and the
  characteristic exponents among them, can be tested against a known answer.
* ``STANDARD_SIGNATURES`` lists the eight signatures of the planted corpus.

The reference oracles that only the tests call live in ``tests/reference.py``.

Nothing in this module calls the polygon hull or the branch search.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .algebra import INFINITY, OneForm, PuiseuxPoly, _rational, _record, _sum, _to_grid, differential
from .expansion import BranchStep, PuiseuxBranch


def branch_to_curve(coeffs: dict[int, Fraction], m: int) -> PuiseuxPoly:
    """Monic degree-m curve vanishing on ``y = sum f_k x^(k/m)``.

    ``coeffs`` maps k to f_k; every k must be an int >= m (so the branch
    has order >= 1), every f_k a rational that ``algebra._rational`` reads,
    and the representation must be primitive: gcd(m, k over nonzero f_k) == 1.

    With gamma = sum f_k x^(k/m), the k-th power sum of the m conjugates
    gamma(zeta * x^(1/m)) keeps only the integer x-exponents of gamma^k:
    p_k = m * (those terms of gamma^k), a polynomial in Q[x].  Newton's
    identities e_k = (1/k) sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i give the
    curve f(x, y) = sum_k (-1)^k e_k y^(m-k).  The code keeps its
    coefficients c_k = (-1)^k e_k and q_k = p_k / m, for which the
    identities read c_k = -(m/k) (q_k + sum_{i=1..k-1} c_(k-i) q_i).
    """
    if m < 1:
        raise ValueError("ramification m must be a positive integer")
    cleaned = {}
    for k, f in coeffs.items():
        if not isinstance(k, int):
            raise ValueError("exponent numerator %r is not an int" % (k,))
        if c := _rational(f):
            cleaned[k] = c
    if not cleaned:
        raise ValueError("branch must have at least one nonzero term")
    for k in cleaned:
        if k < m:
            raise ValueError("exponent %d/%d is below 1" % (k, m))
    if math.gcd(m, *cleaned) != 1:
        raise ValueError("non-primitive parametrisation: gcd(m, k's) > 1")

    gamma = PuiseuxPoly({(Fraction(k, m), 0): f for k, f in cleaned.items()})
    power, q, c = gamma, [None], [PuiseuxPoly.monomial(1)]
    for k in range(1, m + 1):
        if k > 1:
            power = power * gamma
        whole = {key: v for key, v in power.grid.items() if key[0] % power.d == 0}
        q.append(_record(power.d, power.den, whole))
        c.append(_sum(q[k], *(c[k - i] * q[i] for i in range(1, k))) * Fraction(-m, k))
    d, den, *grids = _to_grid(*c)
    return _record(d, den, {(n, m - k): v for k, g in enumerate(grids)
                            for (n, _ey), v in g.items()})


class GeneratedCase(NamedTuple):
    signature: tuple[Fraction, ...]
    seed: int
    form: OneForm
    curve: PuiseuxPoly
    branch: PuiseuxBranch
    extra_line: Fraction | None  # slope of a smooth factor added when m = 1


_COEFF_POOL = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2),
)


# Largest final ramification gen_case accepts.  branch_to_curve's cost
# grows steeply with it: a 63/32 tower takes about 0.15 s, 127/64 about 6 s.
MAX_GEN_RAMIFICATION = 32


def _validate_signature(signature: tuple[Fraction, ...]) -> int:
    q = 1
    prev = Fraction(1)
    for e in signature:
        if e <= prev:
            raise ValueError("characteristic exponents must increase from 1")
        if e.denominator % q != 0 or e.denominator == q:
            raise ValueError(
                "denominator of %s must properly enlarge the grid (q = %d)" % (e, q)
            )
        q = e.denominator
        prev = e
    if q > MAX_GEN_RAMIFICATION:
        raise ValueError(
            "ramification %d is above the limit %d" % (q, MAX_GEN_RAMIFICATION)
        )
    return q


def _grid_between(lo: Fraction, hi: Fraction, q: int) -> range:
    """Numerators ``k`` of the grid points ``lo < k/q < hi``, listing none of them."""
    return range(math.floor(lo * q) + 1, math.ceil(hi * q))


def gen_case(signature, seed: int) -> GeneratedCase:
    """A differential form with a planted branch of known signature.

    ``signature`` lists the characteristic exponents in order; each must
    be > 1 with a denominator that properly enlarges the ramification
    built so far.  Filler terms on the current grid are sprinkled between
    them (at most two per gap) from a deterministic seeded RNG.  For the
    unramified case (empty signature) the curve is smooth, so a second
    transverse line is multiplied in to make the differential singular.
    """
    signature = tuple(_rational(e) for e in signature)
    m = _validate_signature(signature)
    rng = random.Random("gen_case:%s:%d" % (signature, seed))

    exponents: list[Fraction] = []
    anchors = [Fraction(1)] + list(signature)
    q = 1
    if not signature:
        exponents.append(Fraction(1))
    else:
        if rng.random() < 0.5:
            exponents.append(Fraction(1))
        for t, e in enumerate(signature):
            gap = _grid_between(anchors[t], e, q)
            take = rng.randint(0, min(2, len(gap)))
            exponents.extend(Fraction(k, q) for k in sorted(rng.sample(gap, take)))
            exponents.append(e)
            q = e.denominator
    tail = _grid_between(anchors[-1], anchors[-1] + 2, m)
    take = rng.randint(0, min(2, len(tail)))
    exponents.extend(Fraction(k, m) for k in sorted(rng.sample(tail, take)))

    terms = [(e, rng.choice(_COEFF_POOL)) for e in exponents]
    coeffs = {int(e * m): c for e, c in terms}
    curve = branch_to_curve(coeffs, m)

    extra_line = None
    if m == 1:
        gamma_lin = dict(terms).get(Fraction(1), Fraction(0))
        extra_line = next(d for d in _COEFF_POOL if d != gamma_lin)
        curve = curve * (
            PuiseuxPoly.monomial(1, 0, 1) - PuiseuxPoly.monomial(extra_line, 1)
        )
    form = differential(curve)

    steps: list[BranchStep] = []
    for e, c in terms:
        steps.append(BranchStep(e, c, steps[-1].q_after if steps else 1, None, False))
    branch = PuiseuxBranch(tuple(steps), INFINITY)
    return GeneratedCase(signature, seed, form, curve, branch, extra_line)


STANDARD_SIGNATURES: tuple[tuple[Fraction, ...], ...] = (
    (),
    (Fraction(3, 2),),
    (Fraction(5, 2),),
    (Fraction(4, 3),),
    (Fraction(3, 2), Fraction(7, 4)),
    (Fraction(3, 2), Fraction(13, 6)),
    (Fraction(4, 3), Fraction(17, 6)),
    (Fraction(3, 2), Fraction(7, 4), Fraction(15, 8)),
)

