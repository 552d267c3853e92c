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
denominators of the nonzero terms so far).  A step is characteristic when
it makes q grow; the count r of characteristic steps is the number of
Puiseux exponents of the branch, and ``verify_bound`` checks
r <= y-order <= multiplicity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    INFINITY,
    OneForm,
    _rational,
    _whole,
    power_text,
    rat_str,
    signed_sum,
    transform_form,
)
from .polygon import (
    CloudPoint,
    NewtonPolygon,
    SupportContact,
    _check_polynomial,
    cloud_pair,
    multiplicity,
    polygon_of,
    support,
    y_order,
)


class BranchStep(NamedTuple):
    """One accepted term ``c * x^mu`` of a branch."""

    mu: Fraction
    c: Fraction
    q_before: int
    contact: SupportContact | None  # where the step was taken; None if planted
    dicritical: bool

    @property
    def q_after(self) -> int:
        """The grid after the step."""
        return math.lcm(self.q_before, self.mu.denominator)

    @property
    def characteristic(self) -> bool:
        return self.q_after > self.q_before


class PuiseuxBranch(NamedTuple):
    """A maximal or truncated invariant-branch expansion."""

    steps: tuple[BranchStep, ...]
    residual: object  # ord_x(a(x, Gamma) + b(x, Gamma) * Gamma'), or INFINITY

    @property
    def exact(self) -> bool:
        """The remaining tail is identically zero."""
        return self.residual is INFINITY

    @property
    def r(self) -> int:
        """The number of characteristic steps."""
        return sum(1 for s in self.steps if s.characteristic)

    @property
    def truncated_at(self) -> Fraction | None:
        """The last reached exponent when not exact."""
        return None if self.exact or not self.steps else self.steps[-1].mu


class Limits(NamedTuple):
    """Expansion cut-offs and the dicritical sampling policy.  ``expand_branches``
    and ``admissible_steps`` refuse what the CLI refuses: a limit below 1, no
    sample or a repeated one."""

    max_exponent: Fraction = Fraction(40)
    max_ramification: int = 16
    max_branches: int = 64
    dicritical_samples: tuple[Fraction, ...] = (Fraction(1),)


_FIELD_NAMES = {field: "Limits." + field for field in Limits._fields}


def _checked(limits: Limits, names: dict[str, str] = _FIELD_NAMES) -> Limits:
    """``limits`` with every field read exactly, the two counts as whole numbers,
    or a ``ValueError`` naming the field at fault by ``names``: the samples are
    checked first, then ``max_ramification``, ``max_branches`` and ``max_exponent``."""
    samples = tuple(_rational(c, names["dicritical_samples"]) for c in limits.dicritical_samples)
    if not samples:
        raise ValueError("%s must list at least one coefficient" % names["dicritical_samples"])
    if len(set(samples)) != len(samples):
        raise ValueError("%s must not repeat a coefficient" % names["dicritical_samples"])
    values = {}
    for field, read in (("max_ramification", _whole), ("max_branches", _whole),
                        ("max_exponent", _rational)):
        values[field] = read(getattr(limits, field), names[field])
        if values[field] < 1:
            raise ValueError("%s must be at least 1" % names[field])
    return limits._replace(dicritical_samples=samples, **values)


class TraceStep(NamedTuple):
    step: BranchStep
    form_after: OneForm
    polygon_after: NewtonPolygon  # polygon_of(form_after), from admissible_steps


class ExpansionResult(NamedTuple):
    """Branches plus instrumentation from one expansion run.

    ``traces`` holds every maximal search path (including rational dead
    ends and limit truncations) as a tuple of trace steps; ``notes``
    records dead ends and pruning, in deterministic search order.
    """

    branches: list[PuiseuxBranch]
    traces: list[tuple[TraceStep, ...]]
    notes: list[str]


def characteristic_poly(
    w: OneForm, contact: SupportContact
) -> tuple[tuple[int, Fraction], ...]:
    """The polynomial whose nonzero rational roots are admissible coefficients.

    It is returned as its nonzero ``(j, a_ij + mu*b_(i+1)(j-1))`` pairs,
    sorted by ``j``; an empty tuple means the contact is dicritical.  Each
    pair is summed from the int numerators of ``a``, ``b`` and ``mu``.
    """
    a_den, b_den, m, k = w.a.den, w.b.den, contact.mu.numerator, contact.mu.denominator
    coeffs = []
    for p in contact.points:
        va, vb = cloud_pair(w, p.i, p.j)
        if combo := va * b_den * k + m * vb * a_den:
            coeffs.append((p.j, Fraction(combo, a_den * b_den * k)))
    return tuple(sorted(coeffs))


def _eval(f, n: int, q: int = 1) -> int:
    """``q**deg(f) * f(n/q)`` by Horner's rule; ``f`` lists int coefficients
    from degree 0 up, so ``f(n/q) = 0`` exactly when the result is 0."""
    value, qk = 0, 1
    for a in reversed(f):
        value = value * n + a * qk
        qk *= q
    return value


def _primitive(f: list[int]) -> list[int]:
    """``f`` divided by its content, the gcd of its coefficients."""
    content = math.gcd(*f)
    return [a // content for a in f]


def _pseudo_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """``(s, r)`` with ``k*f = s*g + r`` over Z for some nonzero int ``k`` and
    ``deg r < deg g``, lists from degree 0 up.  A step scales by ``g``'s
    leading coefficient only where it does not divide, so ``k = 1`` when
    ``g`` divides ``f`` over Z (Brown, J. ACM 18, 1971)."""
    rem, quot, lead = list(f), [], g[-1]
    while len(rem) >= len(g):
        if rem[-1] % lead:
            rem, quot = [a * lead for a in rem], [a * lead for a in quot]
        c = rem.pop() // lead
        quot.append(c)
        shift = len(rem) + 1 - len(g)
        for i, a in enumerate(g[:-1]):
            rem[shift + i] -= c * a
    while rem and rem[-1] == 0:
        rem.pop()
    return quot[::-1], rem


def _square_free_part(f: list[int]) -> list[int]:
    """``f / gcd(f, f')`` for a primitive ``f``: the roots of ``f``, each simple
    (Yun, 1976).  The gcd is the last term of the primitive pseudo-remainder
    sequence, and the quotient by it is exact over Z (Gauss's lemma)."""
    g, h = f, _primitive([i * a for i, a in enumerate(f)][1:])
    while h:
        g, h = h, _primitive(_pseudo_divmod(g, h)[1])
    return _primitive(_pseudo_divmod(f, g)[0])


def rational_roots(coeffs) -> tuple[Fraction, ...]:
    """Distinct nonzero rational roots of ``sum coeff_j * c**j``, sorted.

    ``coeffs`` is an iterable of ``(j, coeff)`` pairs.  With the lowest power
    of ``c`` divided out and denominators cleared once, everything runs on
    ints, and a linear polynomial gives its root at once.  Otherwise the
    roots of its square-free part ``f`` modulo the smallest odd prime ``p``
    that does not divide the leading coefficient ``lead`` and leaves them
    simple are lifted p-adically (Loos, SIAM J. Comput. 12, 1983) to a
    modulus ``M > 2B``, ``B = |lead| + max |a_i|``.  A rational root has a
    denominator dividing ``lead`` and ``|lead * root| <= B`` (Cauchy), so
    ``n = lead * root`` is the symmetric residue of ``lead * r`` mod ``M``;
    the candidate ``n/lead`` is kept only when ``sum a_i n^i lead^(k-i)``,
    ``k`` the degree, is 0.  The cost is polynomial in the number of digits.
    """
    pairs = [(int(j), _rational(c)) for j, c in coeffs if c != 0]
    if not pairs:
        raise ValueError("the zero polynomial has every root")
    jmin = min(j for j, _ in pairs)
    den = math.lcm(*(c.denominator for _j, c in pairs))
    shifted = {j - jmin: c.numerator * (den // c.denominator) for j, c in pairs}
    f = [shifted.get(j, 0) for j in range(max(shifted) + 1)]
    if len(f) == 1:
        return ()
    f = _primitive(f)
    if len(f) > 2:
        f = _square_free_part(f)
    if len(f) == 2:
        return (Fraction(-f[0], f[1]),)
    lead = f[-1]
    df = [i * a for i, a in enumerate(f)][1:]
    bound = 2 * (abs(lead) + max(abs(a) for a in f[:-1]))
    for p in itertools.count(3, 2):
        if lead % p and all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            residues = [r for r in range(p) if _eval(f, r) % p == 0]
            if all(_eval(df, r) % p for r in residues):
                break
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval(f, r) * pow(_eval(df, r), -1, m)) % m
        n = lead * r % m
        n = n - m if 2 * n > m else n
        if _eval(f, n, lead) == 0:
            roots.append(Fraction(n, lead))
    return tuple(sorted(roots))


class StepEnumeration(NamedTuple):
    """The candidate steps at one search node, and why others were dropped."""

    polygon: NewtonPolygon  # the node's polygon, polygon_of(w)
    steps: list[BranchStep]
    pruned: list[str]  # candidates cut by limits
    dead: list[str]  # sides whose characteristic polynomial has no rational root


def admissible_steps(
    w: OneForm,
    q_before: int = 1,
    after: Fraction | None = None,
    limits: Limits | None = None,
) -> StepEnumeration:
    """Candidate steps ``(mu, c)`` at the current stage, ordered by (mu, c).

    Sides of co-slope ``mu > after``, the exponent of the last step taken
    (``mu >= 1`` at the root, where ``after`` is None), contribute the
    rational roots of their characteristic polynomial, or the nonzero
    sampled coefficients when dicritical; eligible vertices contribute
    dicritical steps.  Each step keeps the support contact it was taken on.
    Steps beyond the limits, which it checks as ``expand_branches`` does, are
    pruned.  The returned enumeration holds the polygon of ``w``, and notes the
    pruned candidates and the rational dead ends.
    """
    if after is not None and after < 1:
        raise ValueError("after must be >= 1")
    limits = _checked(limits or Limits())
    np = polygon_of(w)

    # A side offers its co-slope.  A vertex (i, j) offers the single
    # co-slope solving a_ij + mu*b_(i+1)(j-1) = 0, provided that co-slope
    # lies in the open interior of the vertex's supporting interval: the
    # vertex is then the whole contact, so Phi vanishes and every
    # coefficient works.
    mus = [side.coslope for side in np.sides]
    for idx, v in enumerate(np.vertices):
        a_co, b_co = cloud_pair(w, v.i, v.j)  # b_co = 0 when j = 0
        if not b_co:
            continue
        mu = Fraction(-a_co * w.b.den, b_co * w.a.den)
        lo = np.sides[idx - 1].coslope if idx > 0 else None
        hi = np.sides[idx].coslope if idx < len(np.sides) else None
        if (lo is None or mu > lo) and (hi is None or mu < hi):
            mus.append(mu)

    cands: list[BranchStep] = []
    dead: list[str] = []
    for mu in mus:
        if not (mu >= 1 if after is None else mu > after):
            continue
        contact = support(np, mu)
        phi = characteristic_poly(w, contact)
        if not phi:
            cands += [BranchStep(mu, c, q_before, contact, True)
                      for c in limits.dicritical_samples if c]
        elif roots := rational_roots(phi):
            cands += [BranchStep(mu, c, q_before, contact, False) for c in roots]
        else:
            dead.append(
                "no rational continuation on side mu=%s "
                "(characteristic polynomial has no nonzero rational root)"
                % rat_str(mu)
            )

    steps: list[BranchStep] = []
    pruned: list[str] = []
    for step in sorted(cands, key=lambda s: (s.mu, s.c)):
        if step.mu > limits.max_exponent:
            why = "exponent beyond limit %s" % rat_str(limits.max_exponent)
        elif step.q_after > limits.max_ramification:
            why = "ramification %d beyond limit %d" % (
                step.q_after, limits.max_ramification)
        else:
            steps.append(step)
            continue
        note = "step mu=%s pruned: %s" % (rat_str(step.mu), why)
        if note not in pruned:
            pruned.append(note)
    return StepEnumeration(np, steps, pruned, dead)


def series_text(steps) -> str:
    """Human-readable series for a step sequence, e.g. ``x + 2*x^(3/2)``."""
    return signed_sum((s.c, power_text("x", s.mu)) for s in steps)


def _axis_order(w: OneForm):
    # ord_x a(x, 0); INFINITY means the zero continuation is exactly invariant
    n = min((n for (n, ey) in w.a.grid if ey == 0), default=None)
    return INFINITY if n is None else Fraction(n, w.a.d)


def expand_branches(w: OneForm, limits: Limits | None = None) -> ExpansionResult:
    """Depth-first enumeration of invariant branches of a singular form.

    A search node emits an exact branch when the transformed form's dx
    coefficient vanishes on y = 0 (the zero tail is invariant) — unless a
    dicritical step is available there and 0 is not a sample; a c = 0 step
    would repeat the node's own search, so the node stands for it.  Paths
    whose every continuation was pruned by the limits are emitted as
    truncated branches; rational dead ends are reported in the notes only.

    Output order is deterministic: children are explored by (mu, c)
    ascending.
    """
    limits = _checked(limits or Limits())
    _check_polynomial(w)
    if (0, 0) in w.a.grid or (0, 0) in w.b.grid:
        raise ValueError("expansion requires a singular form (a(0,0) = b(0,0) = 0)")
    result = ExpansionResult([], [], [])
    capped = False

    # stack entries: (trace, step, form); step is the one that led to form
    # (None at the root).  Its trace entry is made on pop, with the polygon.
    stack = [((), None, w)]
    while stack and not capped:
        trace, step, form = stack.pop()
        q, after = (step.q_after, step.mu) if step else (1, None)
        enum = admissible_steps(form, q, after, limits)
        if step is not None:
            trace += (TraceStep(step, form, enum.polygon),)
        steps = tuple(e.step for e in trace)
        residual = _axis_order(form)
        exact = residual is INFINITY
        notes = enum.dead + enum.pruned
        if not (enum.steps or exact or notes):
            notes = ["dead end: no admissible steps"]
        if notes:
            prefix = series_text(steps)
            result.notes.extend("[y ~ %s] %s" % (prefix, note) for note in notes)
        emits = (0 in limits.dicritical_samples
                 or not any(s.dicritical for s in enum.steps) if exact else bool(enum.pruned) and not enum.steps)
        capped = emits and len(result.branches) >= limits.max_branches
        if capped:
            result.notes.append(
                "branch limit %d reached; enumeration truncated" % limits.max_branches
            )
        elif emits:
            result.branches.append(PuiseuxBranch(steps, residual))
        if trace and not enum.steps:
            result.traces.append(trace)
        for child in reversed(enum.steps):
            stack.append((trace, child, transform_form(form, child.c, child.mu)))
    return result


def invariance_residual(w: OneForm, branch: PuiseuxBranch):
    """x-valuation of ``a(x, Gamma) + b(x, Gamma) * Gamma'(x)``.

    Replays the steps through the search's kernel ``transform_form`` and
    reads the search's own valuation (``branch.residual``): after
    ``y -> Gamma + y`` the dx coefficient at ``y = 0`` is exactly that sum.
    A ``c = 0`` step changes nothing; any other step needs ``mu >= 1``.
    Returns ``INFINITY`` when the branch is exactly invariant.
    """
    for s in branch.steps:
        w = transform_form(w, s.c, s.mu)
    return _axis_order(w)


class CheckOutcome(NamedTuple):
    status: str  # "pass" | "fail" | "vacuous"
    detail: str


class StepLemmaReport(NamedTuple):
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


class LemmaReport(NamedTuple):
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
      greater than tau, never equal (vacuous when there is none).
    * L2 — when the used support line still meets the transformed
      polygon on a side, the contact of the next grid line sits below P,
      never level with it.
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
        P = step.contact.highest
        tau = step.contact.tau
        np_after = entry.polygon_after
        mu_next = step.mu + Fraction(1, m_hat)

        last = np_after.vertices[-1]  # the row-0 minimum, if there is a row 0
        if last.j == 0:
            l1 = _outcome(last.i > tau, "min boundary abscissa %s vs tau %s"
                          % (rat_str(last.i), rat_str(tau)))
        else:
            l1 = CheckOutcome("vacuous", "no j=0 cloud point")

        s = step.q_after // step.q_before
        l3_applies = s > 1 and P.j > 1
        # for mu > 0 the support contact is a side exactly when mu is a side's co-slope
        on_side = any(side.coslope == step.mu for side in np_after.sides)
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
            l3 = _outcome(
                all(any(cloud_pair(entry.form_after, i, j)) for i, j in (P, survivor)),
                "expected (%s, %d) and (%s, %d) in transformed cloud"
                % (rat_str(P.i), P.j, rat_str(survivor.i), survivor.j),
            )
            corollary = _outcome(
                nxt.highest.j <= t_height,
                "next contact height %d vs bound %d" % (nxt.highest.j, t_height),
            )
        else:
            l3 = corollary = _VACUOUS

        entries.append(StepLemmaReport(step.mu, l1, l2, l3, corollary))
    return LemmaReport(entries)


class BoundReport(NamedTuple):
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
