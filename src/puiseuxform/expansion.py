"""Term-by-term expansion of invariant branches of a singular 1-form.

A branch transverse to x = 0 is a series ``y = Gamma(x) = sum c_t x^mu_t``
with rational exponents ``1 <= mu_1 < mu_2 < ...``; it is invariant for
``w = a dx + b dy`` when ``a(x, Gamma) + b(x, Gamma) * Gamma'(x) = 0``.
Each admissible leading term comes from a support contact of the Newton
polygon: the candidate exponent ``mu`` is a side co-slope (or a special
vertex co-slope) and the candidate coefficient ``c`` is a nonzero root of
the characteristic polynomial

    Phi(c) = sum over contact points (i, j) of (a_ij + mu*b_(i+1)(j-1)) c^j.

When Phi vanishes identically the step is dicritical: every coefficient
works and configured sample values stand in for the family.

The expansion tracks the accumulated ramification q (lcm of the exponent
denominators seen so far).  A step is characteristic when it makes q grow;
the count r of characteristic steps is the number of Puiseux exponents of
the branch, and ``verify_bound`` checks r <= y-order <= multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    INFINITY,
    OneForm,
    RatLike,
    rat_str,
    signed_sum,
    transform_form,
)
from .polygon import (
    CloudPoint,
    NewtonPolygon,
    SupportContact,
    multiplicity,
    polygon_of,
    support,
    y_order,
)


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial of a support contact.

    ``coeffs`` holds the nonzero ``(j, a_ij + mu*b_(i+1)(j-1))`` pairs,
    sorted by ``j``; the contact is dicritical when every combination
    vanishes, i.e. when ``coeffs`` is empty.
    """

    mu: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]
    dicritical: bool

    def __call__(self, c: RatLike) -> Fraction:
        c = Fraction(c)
        return sum((co * c**j for j, co in self.coeffs), Fraction(0))


@dataclass(frozen=True)
class BranchStep:
    """One accepted term ``c * x^mu`` of a branch."""

    mu: Fraction
    c: Fraction
    q_before: int
    q_after: int  # lcm(q_before, denominator(mu))
    characteristic: bool  # q_after > q_before
    contact_kind: str  # "vertex" | "side" ("unknown" for planted branches)
    dicritical: bool


@dataclass(frozen=True)
class PuiseuxBranch:
    """A maximal or truncated invariant-branch expansion."""

    steps: tuple[BranchStep, ...]
    r: int  # number of characteristic steps
    truncated_at: Fraction | None  # last reached exponent when not exact
    exact: bool  # the remaining tail is identically zero


@dataclass(frozen=True)
class Limits:
    """Expansion cut-offs and the dicritical sampling policy."""

    max_exponent: Fraction = Fraction(40)
    max_ramification: int = 16
    max_branches: int = 64
    dicritical_samples: tuple[Fraction, ...] = (Fraction(1),)


class TraceStep(NamedTuple):
    contact: SupportContact  # the support contact the step was taken on
    step: BranchStep
    form_after: OneForm
    polygon_after: NewtonPolygon  # polygon_of(form_after), built by the search


@dataclass
class ExpansionResult:
    """Branches plus instrumentation from one expansion run.

    ``traces`` holds every maximal search path (including rational dead
    ends and limit truncations) as a tuple of trace steps; ``notes``
    records dead ends and pruning, in deterministic search order.
    """

    branches: list[PuiseuxBranch] = field(default_factory=list)
    traces: list[tuple[TraceStep, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def characteristic_poly(w: OneForm, contact: SupportContact) -> CharPoly:
    """The polynomial whose nonzero rational roots are admissible coefficients."""
    coeffs = []
    for p in contact.points:
        combo = w.a.coeff(p.i, p.j) + contact.mu * w.b.coeff(p.i + 1, p.j - 1)
        if combo != 0:
            coeffs.append((p.j, combo))
    return CharPoly(contact.mu, tuple(sorted(coeffs)), not coeffs)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(coeffs) -> tuple[Fraction, ...]:
    """Distinct nonzero rational roots of ``sum coeff_j * c**j``, sorted.

    ``coeffs`` is an iterable of ``(j, coeff)`` pairs.  Found by the
    rational root theorem on the integer-cleared polynomial, each
    candidate verified by exact evaluation.
    """
    pairs = [(int(j), Fraction(c)) for j, c in coeffs if c != 0]
    if not pairs:
        raise ValueError("the zero polynomial has every root")
    jmin = min(j for j, _ in pairs)
    shifted = {j - jmin: c for j, c in pairs}
    deg = max(shifted)
    if deg == 0:
        return ()
    den_lcm = math.lcm(*(c.denominator for c in shifted.values()))
    ints = {j: int(c * den_lcm) for j, c in shifted.items()}
    content = math.gcd(*ints.values())
    ints = {j: v // content for j, v in ints.items()}
    lead, const = ints[deg], ints[0]
    roots = set()
    for p in _divisors(const):
        for q in _divisors(lead):
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                value = sum(
                    (v * cand**j for j, v in ints.items()), Fraction(0)
                )
                if value == 0:
                    roots.add(cand)
    return tuple(sorted(roots))


@dataclass
class StepEnumeration:
    """The candidate steps at one search node, and why others were dropped."""

    steps: list[BranchStep]
    pruned: list[str]  # candidates cut by limits
    dead: list[str]  # sides whose characteristic polynomial has no rational root


def _mu_admissible(mu: Fraction, mu_min: Fraction, strict: bool) -> bool:
    if mu < 1:
        return False
    return mu > mu_min if strict else mu >= mu_min


def admissible_steps(
    w: OneForm,
    q_before: int = 1,
    mu_min: RatLike = 1,
    limits: Limits | None = None,
    strict: bool = False,
    np: NewtonPolygon | None = None,
) -> StepEnumeration:
    """Candidate steps ``(mu, c)`` at the current stage, ordered by (mu, c).

    Sides of co-slope >= ``mu_min`` (strictly greater with ``strict``)
    contribute the rational roots of their characteristic polynomial, or
    sampled coefficients when dicritical; eligible vertices contribute
    dicritical steps.  Steps beyond the limits are pruned.  The returned
    enumeration also notes the pruned candidates and the rational dead
    ends.  ``np`` is the polygon of ``w`` when the caller already holds it.
    """
    mu_min = Fraction(mu_min)
    if mu_min < 1:
        raise ValueError("mu_min must be >= 1")
    limits = limits or Limits()
    np = np if np is not None else polygon_of(w)
    cands: list[tuple[Fraction, Fraction, str, bool]] = []
    dead: list[str] = []

    for side in np.sides:
        mu = side.coslope
        if not _mu_admissible(mu, mu_min, strict):
            continue
        phi = characteristic_poly(w, support(np, mu))
        if phi.dicritical:
            cands += [(mu, Fraction(c), "side", True) for c in limits.dicritical_samples]
            continue
        roots = rational_roots(phi.coeffs)
        if roots:
            cands += [(mu, c, "side", False) for c in roots]
        else:
            dead.append(
                "no rational continuation on side mu=%s "
                "(characteristic polynomial has no nonzero rational root)"
                % rat_str(mu)
            )

    # A vertex (i, j) supports a step at the single co-slope solving
    # a_ij + mu*b_(i+1)(j-1) = 0, provided that co-slope falls strictly
    # inside the vertex's supporting interval; every coefficient works.
    for idx, v in enumerate(np.vertices):
        if v.j < 1:
            continue
        b_co = w.b.coeff(v.i + 1, v.j - 1)
        if b_co == 0:
            continue
        mu = -w.a.coeff(v.i, v.j) / b_co
        lo = np.sides[idx - 1].coslope if idx > 0 else None
        hi = np.sides[idx].coslope if idx < len(np.sides) else None
        if lo is not None and not mu > lo:
            continue
        if hi is not None and not mu < hi:
            continue
        if not _mu_admissible(mu, mu_min, strict):
            continue
        cands += [(mu, Fraction(c), "vertex", True) for c in limits.dicritical_samples]

    steps: list[BranchStep] = []
    pruned: list[str] = []
    for mu, c, kind, dicritical in sorted(cands, key=lambda t: (t[0], t[1])):
        if mu > limits.max_exponent:
            note = "step mu=%s pruned: exponent beyond limit %s" % (
                rat_str(mu),
                rat_str(limits.max_exponent),
            )
            if note not in pruned:
                pruned.append(note)
            continue
        q_after = math.lcm(q_before, mu.denominator)
        if q_after > limits.max_ramification:
            note = "step mu=%s pruned: ramification %d beyond limit %d" % (
                rat_str(mu),
                q_after,
                limits.max_ramification,
            )
            if note not in pruned:
                pruned.append(note)
            continue
        steps.append(
            BranchStep(mu, c, q_before, q_after, q_after > q_before, kind, dicritical)
        )
    return StepEnumeration(steps, pruned, dead)


def series_text(steps) -> str:
    """Human-readable series for a step sequence, e.g. ``x + 2*x^(3/2)``."""
    return signed_sum((s.c, _x_power(s.mu)) for s in steps if s.c != 0)


def _x_power(mu: Fraction) -> str:
    if mu.denominator > 1:
        return "x^(%s)" % rat_str(mu)
    return "x" if mu == 1 else "x^%s" % rat_str(mu)


def _axis_order(w: OneForm):
    # ord_x a(x, 0); INFINITY means the zero continuation is exactly invariant
    return min((ex for (ex, ey) in w.a.terms if ey == 0), default=INFINITY)


def _validate_expandable(w: OneForm) -> None:
    for p in (w.a, w.b):
        for (ex, _ey) in p.terms:
            if ex.denominator != 1:
                raise ValueError("expansion requires integer input exponents")
    if w.a.is_zero() and w.b.is_zero():
        raise ValueError("cannot expand the zero form")
    if w.a.coeff(0, 0) != 0 or w.b.coeff(0, 0) != 0:
        raise ValueError("expansion requires a singular form (a(0,0) = b(0,0) = 0)")


def expand_branches(w: OneForm, limits: Limits | None = None) -> ExpansionResult:
    """Depth-first enumeration of invariant branches of a singular form.

    A search node emits an exact branch when the transformed form's dx
    coefficient vanishes on y = 0 (the zero tail is invariant) — unless a
    dicritical step is available there, in which case the terminating
    branch is the c = 0 member of the sampled family.  Paths whose every
    continuation was pruned by the limits are emitted as truncated
    branches; rational dead ends are reported in the notes only.

    Output order is deterministic: children are explored by (mu, c)
    ascending.
    """
    limits = limits or Limits()
    _validate_expandable(w)
    result = ExpansionResult()
    capped = False

    def emit(steps, exact) -> None:
        nonlocal capped
        if len(result.branches) >= limits.max_branches:
            if not capped:
                result.notes.append(
                    "branch limit %d reached; enumeration truncated"
                    % limits.max_branches
                )
                capped = True
            return
        r = sum(1 for s in steps if s.characteristic)
        truncated_at = None if exact else (steps[-1].mu if steps else None)
        result.branches.append(PuiseuxBranch(tuple(steps), r, truncated_at, exact))

    # stack entries: (form, steps, trace, q, mu_min, strict, contact); contact
    # is where the last step touched the parent polygon (None at the root).
    # The step's trace entry is made on pop, with the polygon built there.
    stack = [(w, (), (), 1, Fraction(1), False, None)]
    while stack and not capped:
        form, steps, trace, q, mu_min, strict, contact = stack.pop()
        np = polygon_of(form)
        if contact is not None:
            trace += (TraceStep(contact, steps[-1], form, np),)
        enum = admissible_steps(form, q, mu_min, limits, strict, np)
        prefix = series_text(steps)
        for note in enum.dead + enum.pruned:
            result.notes.append("[y ~ %s] %s" % (prefix, note))
        exact_here = _axis_order(form) is INFINITY
        if exact_here and not any(s.dicritical for s in enum.steps):
            emit(steps, exact=True)
        if not enum.steps:
            if not exact_here:
                if enum.pruned:
                    emit(steps, exact=False)
                elif not enum.dead:
                    result.notes.append(
                        "[y ~ %s] dead end: no admissible steps" % prefix
                    )
            if trace:
                result.traces.append(trace)
            continue
        for child in reversed(enum.steps):
            contact = support(np, child.mu)
            form2 = transform_form(form, child.c, child.mu)
            stack.append(
                (form2, steps + (child,), trace, child.q_after, child.mu, True, contact)
            )
    return result


def invariance_residual(w: OneForm, branch: PuiseuxBranch):
    """x-valuation of ``a(x, Gamma) + b(x, Gamma) * Gamma'(x)``.

    Replays the branch's steps through ``transform_form``: after
    ``y -> Gamma + y`` the dx coefficient at ``y = 0`` is exactly that sum.
    Every step must have ``mu >= 1``, as ``transform_form`` requires.
    Returns ``INFINITY`` when the branch is exactly invariant.
    """
    form = w
    for s in branch.steps:
        form = transform_form(form, s.c, s.mu)
    return _axis_order(form)


class CheckOutcome(NamedTuple):
    status: str  # "pass" | "fail" | "vacuous"
    detail: str


@dataclass(frozen=True)
class StepLemmaReport:
    mu: Fraction
    l1: CheckOutcome
    l2: CheckOutcome
    l3: CheckOutcome
    corollary: CheckOutcome

    @property
    def ok(self) -> bool:
        return all(
            c.status != "fail" for c in (self.l1, self.l2, self.l3, self.corollary)
        )


@dataclass
class LemmaReport:
    steps: list[StepLemmaReport]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)


def _outcome(passed: bool, detail: str) -> CheckOutcome:
    return CheckOutcome("pass" if passed else "fail", detail)


_VACUOUS = CheckOutcome("vacuous", "hypothesis not met")


def lemma_checks(trace) -> LemmaReport:
    """Machine-check the per-step polygon facts along one expansion path.

    For each executed step (exponent mu = k/m on the accumulated grid,
    contact top P = (i, j), ramification jump s = q_after/q_before):

    * L1 — every j = 0 cloud point of the transformed form has abscissa
      strictly greater than tau (vacuous when there is none).
    * L2 — when the used support line still meets the transformed
      polygon on a side, the contact of the next grid line sits strictly
      below P.
    * L3 — on a characteristic step with j > 1, the transformed cloud
      contains P and the survivor at height t = max(1, j - (s - 1)),
      abscissa i + (j - t)*mu.
    * Corollary — under the same hypothesis, the next grid line's
      contact is no higher than t.

    Failures are report entries, never exceptions.
    """
    trace = tuple(trace)
    m_hat = trace[-1].step.q_after if trace else 1
    entries = []
    for entry in trace:
        step = entry.step
        P = entry.contact.highest
        tau = entry.contact.tau
        np_after = entry.polygon_after
        mu_next = step.mu + Fraction(1, m_hat)

        boundary = [p for p in np_after.cloud if p.j == 0]
        if boundary:
            worst = min(p.i for p in boundary)
            l1 = _outcome(
                all(p.i > tau for p in boundary),
                "min boundary abscissa %s vs tau %s" % (rat_str(worst), rat_str(tau)),
            )
        else:
            l1 = CheckOutcome("vacuous", "no j=0 cloud point")

        s = step.q_after // step.q_before
        l3_applies = s > 1 and P.j > 1 and step.c != 0
        on_side = support(np_after, step.mu).kind == "side"
        nxt = support(np_after, mu_next) if on_side or l3_applies else None
        if on_side:
            l2 = _outcome(
                nxt.highest.j < P.j,
                "next contact height %d vs previous %d" % (nxt.highest.j, P.j),
            )
        else:
            l2 = CheckOutcome("vacuous", "used line now meets a vertex")

        if l3_applies:
            t_height = max(1, P.j - (s - 1))
            survivor = CloudPoint(P.i + (P.j - t_height) * step.mu, t_height)
            cloud_set = set(np_after.cloud)
            l3 = _outcome(
                P in cloud_set and survivor in cloud_set,
                "expected (%s, %d) and (%s, %d) in transformed cloud"
                % (rat_str(P.i), P.j, rat_str(survivor.i), survivor.j),
            )
            corollary = _outcome(
                nxt.highest.j <= t_height,
                "next contact height %d vs bound %d" % (nxt.highest.j, t_height),
            )
        else:
            l3 = _VACUOUS
            corollary = _VACUOUS

        entries.append(StepLemmaReport(step.mu, l1, l2, l3, corollary))
    return LemmaReport(entries)


@dataclass(frozen=True)
class BoundReport:
    max_r: int
    y_order: int
    multiplicity: int
    ok: bool


def verify_bound(w: OneForm, branches) -> BoundReport:
    """Check ``max r <= y-order <= multiplicity`` for expanded branches."""
    max_r = max((b.r for b in branches), default=0)
    yo = y_order(w)
    mult = multiplicity(w)
    return BoundReport(max_r, yo, mult, max_r <= yo <= mult)
