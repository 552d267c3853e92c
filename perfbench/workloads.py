"""The benchmark's workloads: inputs made from the seed, one timed case at a time.

Each workload has a ``specs(seed, smoke)`` function, which builds during
set-up one pass of case descriptions and the list of known-defect cases,
and a ``run(spec)`` function, which runs one case and returns an
``Outcome``.  Every case is judged against a known answer;
``Outcome.problems`` lists what was wrong.  A pass is repeated; the
known-defect cases run once per run, before the passes, and count only
in ``fail_frac``, so a change in their speed cannot move a timing.

Workload choices (see README.md for the layer map):

* corpus -- the fixed 104-case planted corpus of the test suite
  (``STANDARD_SIGNATURES`` x seeds 0..12); the seed only shuffles the
  order.  Seed-to-seed spread is then machine noise, not corpus content:
  sums over 13-seed corpora starting elsewhere differ by 40 % or more.
* tower -- the one deep planted case named in ROADMAP.md
  (``gen --signature 3/2,7/4,15/8,31/16 --seed 1``).  Gen seeds 0 and 2
  cost about 50 s and 160 s, too much and too uneven for a run.  It runs
  by name but BENCHMARK.json does not declare it: a run takes close to a
  minute for one sample, whose time spreads by up to 0.20 over ten runs
  on a noisy VM (results/BENCH_tower.json).
* coeffs -- planted m = 2 and m = 3 branches whose characteristic
  coefficient has a given number of digits, plus the 19-digit cusp.
  Each numerator lies in [10^(d-1), 1.1 * 10^(d-1)), so the cost of a
  digit count is sharp, and the digit counts are spaced so that each
  case either finishes well inside ``COEFF_LIMIT_S`` or needs several
  times it.  The ones over the limit (``COEFF_DEFECT_RUNGS`` and the
  cusp) are the known rational-root defect.
* cli -- ``python -m puiseuxform ... --json`` subprocesses on the 24 small
  corpus forms (r <= 1, gen seeds 0..5), each checked byte for byte
  against in-process ``run()``; the seed shuffles the order.  Random
  forms made the slowest commands, and so the tail, differ from seed to
  seed.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from puiseuxform import INFINITY, Limits, expansion, oracle
from puiseuxform.algebra import differential, rat_str
from puiseuxform.cli import main as cli_main
from puiseuxform.cli import parser

from tracer import expansion_counts, lemma_counts, merge_counts

ROOT = Path(__file__).resolve().parent.parent
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
)

CORPUS_SEEDS = range(13)
TOWER_SIGNATURE = (Fraction(3, 2), Fraction(7, 4), Fraction(15, 8), Fraction(31, 16))
TOWER_SEED = 1
TOWER_LIMITS = Limits(max_ramification=32)
COEFF_LIMIT_S = 1.0
# (ramification m, digits of the characteristic coefficient's numerator,
# cases per pass).  m = 2 costs about 10^(d-1) trial divisions, m = 3
# about 10^(1.5(d-1)).  3/d5 is the most frequent heavy rung so that
# verdict_ms.tail, the eleventh-slowest case, is one of its cases.
COEFF_RUNGS = (
    (2, 1, 4), (2, 2, 4), (2, 3, 4), (2, 4, 4), (2, 5, 4), (2, 6, 2), (2, 7, 2),
    (3, 1, 4), (3, 2, 4), (3, 3, 4), (3, 4, 2), (3, 5, 8),
)
# Known-defect rungs, one case each per run: far over the limit at the seed
# commit.  2/d8 would need about 1.6 s, too close to the limit, so 2/d9
# stands in.
COEFF_DEFECT_RUNGS = ((2, 9), (3, 6))
CUSP = ("-1000000000000000003*x^2", "2*y")  # ROADMAP item 3
CLI_FORMS = [(sig, s) for sig in oracle.STANDARD_SIGNATURES[:4] for s in range(6)]  # r <= 1
CLI_COMMANDS = ("polygon", "expand", "verify", "check-lemmas", "gen")
CLI_SAMPLES = 30  # polygon --json calls that give cli_ms on other workloads
# Seconds one pass takes at the seed commit on a 2-vCPU VM.  A run makes
# round(--seconds / PASS_S) passes, at least one, so its work is fixed: a
# faster program does not change the sample counts or tail percentiles.
PASS_S = {"corpus": 16.0, "tower": 25.0, "coeffs": 1.6, "cli": 16.0}
CHILD_LIMIT_S = 120  # a child process still running after this is a hang
RUN_REPEATS = 3  # in-process run() calls per CLI call; verdict_s is their median


class CaseTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Raise ``CaseTimeout`` in the block once ``seconds`` have passed."""
    if seconds is None:
        yield
        return

    def on_alarm(_signum, _frame):
        raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    case: str
    gen_s: float | None = None
    verdict_s: float | None = None  # until the time limit, if it struck
    timed_out: bool = False
    cli_s: float | None = None
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    form: tuple[str, str] | None = None


def _sig_text(signature) -> str:
    return ",".join(rat_str(e) for e in signature)


def _step_keys(steps) -> list[tuple]:
    return [(s.mu, s.c, s.characteristic) for s in steps]


def _verdict(a_text: str, b_text: str, limits: Limits):
    """Form text to full verdict: parse, expand, bound, residuals, lemmas."""
    w = parser.parse_form(a_text, b_text)
    res = expansion.expand_branches(w, limits)
    bound = expansion.verify_bound(w, res.branches)
    residuals = [expansion.invariance_residual(w, b) for b in res.branches]
    reports = [expansion.lemma_checks(t) for t in res.traces]
    return res, bound, residuals, reports


def _problems(planted, r, res, bound, residuals, reports) -> list[str]:
    out = []
    if planted is None:
        if res.branches:
            out.append("expected no branch, found %d" % len(res.branches))
    else:
        hits = [b for b in res.branches if b.exact and _step_keys(b.steps) == planted]
        if not hits:
            out.append("planted branch not recovered as an exact branch")
        elif hits[0].r != r:
            out.append("r = %d, signature has %d exponents" % (hits[0].r, r))
    if not bound.ok:
        out.append("bound fails: max r %d, y-order %d, multiplicity %d"
                   % (bound.max_r, bound.y_order, bound.multiplicity))
    fails = sum(lemma_counts(rep)["lemma_fail"] for rep in reports)
    if fails:
        out.append("%d lemma checks fail" % fails)
    for b, value in zip(res.branches, residuals):
        if b.exact and value is not INFINITY:
            out.append("exact branch has residual %s" % value)
    return out


def _judge(case_id, a_text, b_text, planted, r, limits, limit_s=None, gen_s=None):
    t0 = time.perf_counter()
    try:
        with time_limit(limit_s):
            res, bound, residuals, reports = _verdict(a_text, b_text, limits)
    except CaseTimeout:
        return Outcome(case_id, gen_s, time.perf_counter() - t0, timed_out=True,
                       form=(a_text, b_text))
    verdict_s = time.perf_counter() - t0
    counts = expansion_counts(res)
    for rep in reports:
        merge_counts(counts, lemma_counts(rep))
    return Outcome(
        case_id, gen_s, verdict_s,
        problems=_problems(planted, r, res, bound, residuals, reports),
        counts=dict(counts), form=(a_text, b_text),
    )


def _generated(case_id, signature, seed, limits) -> Outcome:
    t0 = time.perf_counter()
    case = oracle.gen_case(signature, seed)
    gen_s = time.perf_counter() - t0
    return _judge(
        case_id, parser.poly_to_text(case.form.a), parser.poly_to_text(case.form.b),
        _step_keys(case.branch.steps), len(case.signature), limits, gen_s=gen_s,
    )


def cli_call(argv) -> Outcome:
    """One CLI subprocess, checked against in-process ``run()`` of the same argv.

    ``cli_s`` is the subprocess wall time and ``verdict_s`` the median time
    of ``RUN_REPEATS`` in-process runs: one run of a few milliseconds varied
    by half from one pass to the next, which made the tail unsteady.
    """
    times = []
    for _ in range(RUN_REPEATS):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = cli_main.run(argv)
        times.append(time.perf_counter() - t0)
    verdict_s = statistics.median(times)
    t0 = time.perf_counter()
    with time_limit(CHILD_LIMIT_S):
        proc = subprocess.run([sys.executable, "-m", "puiseuxform", *argv],
                              capture_output=True, env=CHILD_ENV, cwd=ROOT)
    cli_s = time.perf_counter() - t0
    problems = []
    if proc.returncode != 0 or code != 0:
        problems.append("exit codes %d (subprocess) and %d (run): %s"
                        % (proc.returncode, code, proc.stderr.decode()[-200:]))
    if proc.stdout != buf.getvalue().encode():
        problems.append("subprocess stdout differs from in-process run()")
    try:
        json.loads(proc.stdout)
    except ValueError:
        problems.append("subprocess stdout is not JSON")
    return Outcome(argv[0], verdict_s=verdict_s, cli_s=cli_s, problems=problems)


def polygon_call(form) -> Outcome:
    """``polygon --json`` on a form a workload just judged (cli_ms elsewhere)."""
    a, b = form
    return cli_call(["polygon", "--a=" + a, "--b=" + b, "--json"])


# --- corpus ---------------------------------------------------------------

def corpus_specs(seed: int, smoke: bool):
    if smoke:
        return [(oracle.STANDARD_SIGNATURES[1], 0)], []
    specs = [(sig, s) for sig in oracle.STANDARD_SIGNATURES for s in CORPUS_SEEDS]
    random.Random(seed).shuffle(specs)
    return specs, []


def corpus_run(spec) -> Outcome:
    sig, s = spec
    return _generated("%s@%d" % (_sig_text(sig) or "-", s), sig, s, Limits())


# --- tower ----------------------------------------------------------------

def tower_specs(seed: int, smoke: bool):
    return [TOWER_SIGNATURE[:2] if smoke else TOWER_SIGNATURE], []


def tower_run(signature) -> Outcome:
    return _generated("%s@%d" % (_sig_text(signature), TOWER_SEED),
                      signature, TOWER_SEED, TOWER_LIMITS)


# --- coeffs ---------------------------------------------------------------

def _coeff_spec(rng, m, digits):
    lo = 10 ** (digits - 1)
    n = rng.randrange(lo, lo + max(1, lo // 10)) if digits > 1 else rng.randint(1, 9)
    den = rng.choice([d for d in (1, 2, 3) if math.gcd(n, d) == 1])
    c1 = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 3))
    c2 = Fraction(rng.choice((1, -1)) * n, den)
    return m, digits, c1, c2


def coeff_specs(seed: int, smoke: bool):
    rng = random.Random(seed)
    rungs = ((2, 2, 1),) if smoke else COEFF_RUNGS
    specs = [_coeff_spec(rng, m, digits) for m, digits, count in rungs for _ in range(count)]
    rng.shuffle(specs)
    defects = [] if smoke else [_coeff_spec(rng, m, d) for m, d in COEFF_DEFECT_RUNGS]
    return specs, defects + [CUSP]


def coeff_run(spec) -> Outcome:
    if spec == CUSP:
        # Phi(c) = 3c^2 - N with 3N not a square: a rational dead end.
        return _judge("cusp-d19", *CUSP, None, 0, Limits(), COEFF_LIMIT_S)
    m, digits, c1, c2 = spec
    t0 = time.perf_counter()
    form = differential(oracle.branch_to_curve({m: c1, m + 1: c2}, m))
    gen_s = time.perf_counter() - t0
    planted = [(Fraction(1), c1, False), (Fraction(m + 1, m), c2, True)]
    return _judge(
        "m%d-d%d" % (m, digits), parser.poly_to_text(form.a), parser.poly_to_text(form.b),
        planted, 1, Limits(), COEFF_LIMIT_S, gen_s,
    )


# --- cli ------------------------------------------------------------------

def cli_specs(seed: int, smoke: bool):
    forms = CLI_FORMS[6:7] if smoke else list(CLI_FORMS)
    random.Random(seed).shuffle(forms)
    return [(sig, s, cmd) for sig, s in forms for cmd in CLI_COMMANDS], []


def timed_child(argv) -> float:
    """Wall time of one child interpreter running ``argv``.

    The wait blocks in waitpid: ``subprocess``'s own timeout polls with
    sleeps of up to 50 ms, which would quantise the times.
    """
    t0 = time.perf_counter()
    with time_limit(CHILD_LIMIT_S):
        subprocess.run([sys.executable, *argv], env=CHILD_ENV, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cli_run(spec) -> Outcome:
    sig, s, command = spec
    t0 = time.perf_counter()
    case = oracle.gen_case(sig, s)
    gen_s = time.perf_counter() - t0
    if command == "gen":
        argv = ["gen", "--signature=" + _sig_text(sig), "--seed=%d" % s, "--json"]
    else:
        argv = [command, "--a=" + parser.poly_to_text(case.form.a),
                "--b=" + parser.poly_to_text(case.form.b), "--json"]
    out = cli_call(argv)
    out.case = "%s:%s@%d" % (command, _sig_text(sig) or "-", s)
    out.gen_s = gen_s
    return out


WORKLOADS = {
    "corpus": (corpus_specs, corpus_run),
    "tower": (tower_specs, tower_run),
    "coeffs": (coeff_specs, coeff_run),
    "cli": (cli_specs, cli_run),
}
