"""Command line entry points: polygon, expand, verify, check-lemmas, gen.

Each command builds one payload dict.  ``--json`` prints it as is, and the
text output is rendered from the same payload.  The one exception is the
planted branch of ``gen``, which is built and replayed only for ``--json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from ..algebra import INFINITY, OneForm, _rational, power_text, rat_str, signed_sum
from ..expansion import (
    Limits,
    _checked,
    characteristic_poly,
    expand_branches,
    invariance_residual,
    lemma_checks,
    series_text,
    verify_bound,
)
from ..oracle import STANDARD_SIGNATURES, gen_case
from ..polygon import cloud, multiplicity, polygon_of, support, y_order
from .parser import FormError, parse_form, poly_to_text
from .svg import build_svg


def _add_form_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", default="0", help="dx coefficient, e.g. '-3*x^2'")
    sp.add_argument("--b", default="0", help="dy coefficient, e.g. '2*y'")
    sp.add_argument(
        "--form",
        metavar="FILE",
        help="read the dx coefficient from the first non-blank line "
        "of FILE and the dy coefficient from the second",
    )


def _add_limit_args(sp: argparse.ArgumentParser) -> None:
    d = Limits()
    sp.add_argument("--max-exp", default=rat_str(d.max_exponent), metavar="Q",
                    help="stop a branch once exponents exceed Q (default %(default)s)")
    sp.add_argument("--max-ram", type=int, default=d.max_ramification, metavar="N",
                    help="maximum accumulated ramification (default %(default)s)")
    sp.add_argument("--max-branches", type=int, default=d.max_branches, metavar="N",
                    help="maximum number of reported branches (default %(default)s)")
    sp.add_argument("--dicritical-samples", metavar="LIST",
                    default=",".join(map(rat_str, d.dicritical_samples)),
                    help="comma-separated coefficients sampled from dicritical "
                    "families (default '%(default)s')")


def _load_form(args) -> OneForm:
    if args.form:
        lines = [
            ln.strip()
            for ln in Path(args.form).read_text(encoding="utf-8").splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        if len(lines) != 2:
            raise FormError(
                "form file must hold exactly two coefficient lines, found %d"
                % len(lines)
            )
        return parse_form(lines[0], lines[1])
    return parse_form(args.a, args.b)


def _rat_list_flag(flag: str, text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(chunk.strip(), flag) for chunk in text.split(",") if chunk.strip())


_LIMIT_FLAGS = {"max_exponent": "--max-exp", "max_ramification": "--max-ram",
                "max_branches": "--max-branches", "dicritical_samples": "--dicritical-samples"}


def _limits(args) -> Limits:
    samples = _rat_list_flag("--dicritical-samples", args.dicritical_samples)
    return _checked(Limits(args.max_exp, args.max_ram, args.max_branches, samples), _LIMIT_FLAGS)


def _pt(p) -> list[str]:
    return [rat_str(p.i), rat_str(p.j)]


def _pts_text(pts) -> str:
    return ", ".join("(%s, %s)" % tuple(p) for p in pts)


def _emit_json(payload: dict, code: int) -> int:
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def _polygon_payload(w: OneForm, np, pts, contacts) -> dict:
    sides = []
    for s, contact in zip(np.sides, contacts):
        phi = characteristic_poly(w, contact)
        sides.append(
            {
                "start": _pt(s.start),
                "end": _pt(s.end),
                "coslope": rat_str(s.coslope),
                "phi": signed_sum((co, power_text("c", j)) for j, co in reversed(phi)),
                "dicritical": not phi,
            }
        )
    return {
        "cloud": [_pt(p) for p in pts],
        "polygon": {
            "vertices": [_pt(v) for v in np.vertices],
            "sides": sides,
        },
        "y_order": y_order(w),
        "multiplicity": multiplicity(w),
    }


def _step_payload(s) -> dict:
    return {
        "mu": rat_str(s.mu),
        "c": rat_str(s.c),
        "characteristic": s.characteristic,
        "dicritical": s.dicritical,
        "contact": "unknown" if s.contact is None else s.contact.kind,
        "q_before": s.q_before,
        "q_after": s.q_after,
    }


def _branch_payload(b) -> dict:
    return {
        "series": series_text(b.steps),
        "steps": [_step_payload(s) for s in b.steps],
        "r": b.r,
        "exact": b.exact,
        "truncated_at": None if b.truncated_at is None else rat_str(b.truncated_at),
        "residual": "infinity" if b.residual is INFINITY else rat_str(b.residual),
    }


def _expansion_payload(result) -> dict:
    return {
        "branches": [_branch_payload(b) for b in result.branches],
        "notes": list(result.notes),
    }


def _branch_status(b) -> str:
    if b["exact"]:
        return "exact"
    if b["truncated_at"] is None:
        return "truncated before the first term"
    return "truncated at mu=%s" % b["truncated_at"]


_LEMMAS = (("l1", "L1"), ("l2", "L2"), ("l3", "L3"), ("corollary", "corollary"))


def _lemma_payload(result) -> dict:
    reports = [lemma_checks(tr) for tr in result.traces]
    traces = []
    for tr, rep in zip(result.traces, reports):
        steps = []
        for entry in rep.steps:
            row = {key: getattr(entry, key)._asdict() for key, _label in _LEMMAS}
            steps.append(dict(row, mu=rat_str(entry.mu)))
        traces.append({"series": series_text(s.step for s in tr), "steps": steps})
    return {"traces": traces, "ok": all(rep.ok for rep in reports)}


def cmd_polygon(args) -> int:
    w = _load_form(args)
    np = polygon_of(w)
    if args.support and not args.svg:
        raise ValueError("--support requires --svg")
    pts = cloud(w)
    contacts = [support(np, s.coslope) for s in np.sides]
    if args.svg:
        mus = _rat_list_flag("--support", args.support) if args.support else []
        if any(mu <= 0 for mu in mus):
            raise ValueError("--support co-slopes must be above 0")
        lines = ([support(np, mu) for mu in mus] if args.support
                 else contacts or [support(np, Fraction(1))])
        Path(args.svg).write_text(build_svg(pts, np.vertices, lines), encoding="utf-8")
    payload = _polygon_payload(w, np, pts, contacts)
    if args.json:
        return _emit_json(payload, 0)
    print("cloud points:", _pts_text(payload["cloud"]))
    print("vertices:", _pts_text(payload["polygon"]["vertices"]))
    for s in payload["polygon"]["sides"]:
        print(
            "side (%s, %s) -- (%s, %s)  co-slope %s  Phi(c) = %s%s"
            % (
                *s["start"],
                *s["end"],
                s["coslope"],
                s["phi"],
                "  (dicritical)" if s["dicritical"] else "",
            )
        )
    if not payload["polygon"]["sides"]:
        print("sides: none")
    print("y-order:", payload["y_order"])
    print("multiplicity:", payload["multiplicity"])
    if args.svg:
        print("svg written to", args.svg)
    return 0


def cmd_expand(args) -> int:
    w = _load_form(args)
    result = expand_branches(w, _limits(args))
    payload = _expansion_payload(result)
    if args.json:
        return _emit_json(payload, 0)
    print("branches (%d):" % len(payload["branches"]))
    for i, b in enumerate(payload["branches"], 1):
        print("  [%d] y = %s" % (i, b["series"]))
        print("      r = %d (%s)" % (b["r"], _branch_status(b)))
        for s in b["steps"]:
            flags = [name for name in ("characteristic", "dicritical") if s[name]]
            print(
                "      mu=%s c=%s q:%d->%d [%s]%s"
                % (s["mu"], s["c"], s["q_before"], s["q_after"], s["contact"],
                   (" " + ", ".join(flags)) if flags else "")
            )
    if payload["notes"]:
        print("notes:")
        for note in payload["notes"]:
            print("  -", note)
    return 0


def cmd_verify(args) -> int:
    w = _load_form(args)
    result = expand_branches(w, _limits(args))
    report = verify_bound(w, result.branches)
    payload = dict(
        _expansion_payload(result),
        max_r=report.max_r,
        y_order=report.y_order,
        multiplicity=report.multiplicity,
        bound_ok=report.ok,
    )
    code = 0 if report.ok else 1
    if args.json:
        return _emit_json(payload, code)
    for i, b in enumerate(payload["branches"], 1):
        print(
            "branch [%d] y = %s: r = %d (%s)"
            % (i, b["series"], b["r"], _branch_status(b))
        )
    print("max r =", payload["max_r"])
    print("y-order =", payload["y_order"])
    print("multiplicity =", payload["multiplicity"])
    print(
        "bound max r <= y-order <= multiplicity:",
        "PASS" if payload["bound_ok"] else "FAIL",
    )
    return code


def cmd_check_lemmas(args) -> int:
    w = _load_form(args)
    payload = _lemma_payload(expand_branches(w, _limits(args)))
    code = 0 if payload["ok"] else 1
    if args.json:
        return _emit_json(payload, code)
    counts = Counter()
    for tr in payload["traces"]:
        print("path y ~ %s" % tr["series"])
        for row in tr["steps"]:
            cells = []
            for key, label in _LEMMAS:
                check = row[key]
                counts[check["status"]] += 1
                cell = "%s=%s" % (label, check["status"])
                if check["status"] == "fail":
                    cell += " (%s)" % check["detail"]
                cells.append(cell)
            print("  mu=%s: %s" % (row["mu"], "  ".join(cells)))
    print("checks: %(pass)d passed, %(fail)d failed, %(vacuous)d vacuous" % counts)
    print("lemma verdict:", "PASS" if payload["ok"] else "FAIL")
    return code


def cmd_gen(args) -> int:
    if args.signature is not None:
        signature = _rat_list_flag("--signature", args.signature)
    else:
        signature = STANDARD_SIGNATURES[args.seed % len(STANDARD_SIGNATURES)]
    case = gen_case(signature, args.seed)
    payload = {
        "signature": [rat_str(e) for e in case.signature],
        "seed": case.seed,
        "a": poly_to_text(case.form.a),
        "b": poly_to_text(case.form.b),
        "curve": poly_to_text(case.curve),
        "r": case.branch.r,
        "extra_line": None if case.extra_line is None else rat_str(case.extra_line),
    }
    if args.json:
        # The planted branch is exact by construction, and --json checks that
        # by replaying it.  The replay costs about as much as gen_case, and the
        # text output does not show the residual, so text mode skips it.
        residual = invariance_residual(case.form, case.branch)
        payload["branch"] = _branch_payload(case.branch._replace(residual=residual))
        return _emit_json(payload, 0)
    print("signature:", ", ".join(payload["signature"]) or "(none)")
    print("seed:", payload["seed"])
    print("planted branch: y =", series_text(case.branch.steps))
    print("r =", payload["r"])
    if payload["extra_line"] is not None:
        print("extra smooth factor: y = %s*x" % payload["extra_line"])
    print("curve f =", payload["curve"])
    print("a =", payload["a"])
    print("b =", payload["b"])
    return 0


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and never changed: every ``run()``
    shares it, and each ``parse_args`` makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="puiseuxform",
        description="Newton polygons and exact invariant-branch expansion "
        "for plane singular 1-forms a(x,y) dx + b(x,y) dy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("polygon", help="print the cloud, hull, y-order and multiplicity")
    _add_form_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--svg", metavar="PATH", help="also draw the polygon as SVG")
    sp.add_argument("--support", metavar="LIST",
                    help="comma-separated co-slopes of support lines to draw")
    sp.set_defaults(func=cmd_polygon)

    for name, func, help_text in (
        ("expand", cmd_expand, "expand the invariant branches term by term"),
        ("verify", cmd_verify, "check max r <= y-order <= multiplicity"),
        ("check-lemmas", cmd_check_lemmas,
         "machine-check the per-step polygon facts along every expansion path"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_form_args(sp)
        _add_limit_args(sp)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=func)

    sp = sub.add_parser("gen", help="generate a form with a planted branch")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--signature", metavar="LIST",
                    help="comma-separated characteristic exponents, e.g. '3/2,7/4' "
                    "(empty string for an unramified case)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_gen)
    return parser


_VALUE_FLAGS = frozenset(
    {
        "--a", "--b", "--form", "--svg", "--support", "--seed", "--signature",
        "--max-exp", "--max-ram", "--max-branches", "--dicritical-samples",
    }
)


def _normalize_argv(argv) -> list[str]:
    # let expression values lead with a minus sign: --a -3*x^2
    argv = list(sys.argv[1:] if argv is None else argv)
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv=None) -> int:
    args = build_arg_parser().parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse, form and flag errors included
        print("error:", exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
