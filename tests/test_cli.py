import argparse
import json
import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

import pytest

from puiseuxform import LemmaReport, Limits, OneForm, PuiseuxPoly, expansion, polygon
from puiseuxform.cli import main
from puiseuxform.cli.main import _VALUE_FLAGS, _limits, _normalize_argv, build_arg_parser, run
from test_expansion import _lemmas_after
from puiseuxform.oracle import MAX_GEN_RAMIFICATION, _validate_signature

SVG_NS = {"s": "http://www.w3.org/2000/svg"}


def out_of(capsys):
    return capsys.readouterr().out


def test_polygon_text_output(capsys):
    assert run(["polygon", "--a", "-3*x^2", "--b", "2*y"]) == 0
    out = out_of(capsys)
    assert "cloud points: (-1, 2), (2, 0)" in out
    assert "co-slope 3/2" in out
    assert "Phi(c) = 3*c^2 - 3" in out
    assert "y-order: 2" in out
    assert "multiplicity: 2" in out


def test_polygon_json_output(capsys):
    assert run(["polygon", "--a", "-3*x^2", "--b", "2*y", "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["cloud"] == [["-1", "2"], ["2", "0"]]
    assert payload["polygon"]["vertices"] == [["-1", "2"], ["2", "0"]]
    (side,) = payload["polygon"]["sides"]
    assert side["coslope"] == "3/2"
    assert side["phi"] == "3*c^2 - 3"
    assert side["dicritical"] is False
    assert payload["y_order"] == 2
    assert payload["multiplicity"] == 2


def test_polygon_dicritical_side_report(capsys):
    assert run(["polygon", "--a", "x*y + y^2", "--b", "-x^2 - x*y"]) == 0
    out = out_of(capsys)
    assert "Phi(c) = 0" in out and "dicritical" in out


def test_expand_text_and_json(capsys):
    assert run(["expand", "--a", "-3*x^2", "--b", "2*y"]) == 0
    out = out_of(capsys)
    assert "branches (2):" in out
    assert "y = -x^(3/2)" in out and "y = x^(3/2)" in out
    assert "characteristic" in out

    assert run(["expand", "--a", "-3*x^2", "--b", "2*y", "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert [b["series"] for b in payload["branches"]] == ["-x^(3/2)", "x^(3/2)"]
    for b in payload["branches"]:
        assert b["exact"] is True
        assert b["r"] == 1
        assert b["residual"] == "infinity"
        (step,) = b["steps"]
        assert step["mu"] == "3/2"
        assert step["characteristic"] is True
        assert step["contact"] == "side"


def test_verify_pass_exit_code(capsys):
    assert run(["verify", "--a", "-3*x^2", "--b", "2*y"]) == 0
    out = out_of(capsys)
    assert "max r = 1" in out
    assert "y-order = 2" in out
    assert "multiplicity = 2" in out
    assert "bound max r <= y-order <= multiplicity: PASS" in out


def test_verify_json_payload(capsys):
    assert run(["verify", "--a", "y", "--b", "-x", "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["bound_ok"] is True
    assert payload["max_r"] == 0
    assert payload["y_order"] == 1
    assert payload["multiplicity"] == 2
    assert [b["series"] for b in payload["branches"]] == ["x"]


def test_check_lemmas_pass(capsys):
    assert run(["check-lemmas", "--a", "-3*x^2", "--b", "2*y"]) == 0
    out = out_of(capsys)
    assert "lemma verdict: PASS" in out
    assert "0 failed" in out


def test_check_lemmas_json(capsys):
    assert run(["check-lemmas", "--a", "-3*x^2", "--b", "2*y", "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["ok"] is True
    assert len(payload["traces"]) == 2
    step = payload["traces"][0]["steps"][0]
    assert step["mu"] == "3/2"
    assert step["l2"]["status"] == "pass"
    assert step["l1"]["status"] == "vacuous"


def test_gen_roundtrip_through_expand(capsys):
    assert run(["gen", "--seed", "3", "--signature", "3/2", "--json"]) == 0
    case = json.loads(out_of(capsys))
    assert case["signature"] == ["3/2"]
    assert case["r"] == 1
    assert case["branch"]["residual"] == "infinity"
    assert run(["verify", "--a", case["a"], "--b", case["b"], "--json"]) == 0
    verdict = json.loads(out_of(capsys))
    assert verdict["bound_ok"] is True
    assert case["branch"]["series"] in [b["series"] for b in verdict["branches"]]


def test_gen_empty_signature(capsys):
    assert run(["gen", "--seed", "0", "--signature", "", "--json"]) == 0
    case = json.loads(out_of(capsys))
    assert case["signature"] == []
    assert case["r"] == 0
    assert case["extra_line"] is not None


def test_gen_bad_signature_exits_2(capsys):
    assert run(["gen", "--signature", "3/0"]) == 2
    assert capsys.readouterr().err == "error: --signature: Fraction(3, 0)\n"


def test_gen_default_signature_cycles_with_seed(capsys):
    assert run(["gen", "--seed", "1", "--json"]) == 0
    first = json.loads(out_of(capsys))
    assert first["signature"] == ["3/2"]


def test_form_file_input(tmp_path, capsys):
    path = tmp_path / "cusp.form"
    path.write_text("# cusp differential\n-3*x^2\n2*y\n")
    assert run(["verify", "--form", str(path)]) == 0
    assert "PASS" in out_of(capsys)


def test_form_file_wrong_shape(tmp_path, capsys):
    path = tmp_path / "bad.form"
    path.write_text("x\n")
    assert run(["verify", "--form", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_2(capsys):
    assert run(["polygon", "--a", "x^", "--b", "y"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["polygon", "--a", "1 + x", "--b", "y"]) == 2
    assert "singular" in capsys.readouterr().err
    assert run(["expand", "--a", "0", "--b", "0"]) == 2
    capsys.readouterr()


def test_bad_limit_value_exits_2(capsys):
    assert run(["expand", "--a", "y", "--b", "-x", "--max-exp", "abc"]) == 2
    assert "--max-exp" in capsys.readouterr().err
    assert run(["expand", "--a", "y", "--b", "-x", "--dicritical-samples", ","]) == 2
    capsys.readouterr()
    assert run(["expand", "--a", "y", "--b", "-x", "--max-exp", "1/0"]) == 2
    assert "--max-exp" in capsys.readouterr().err
    assert run(["expand", "--a", "y", "--b", "-x", "--dicritical-samples", "1/0"]) == 2
    assert "--dicritical-samples" in capsys.readouterr().err


def test_a_text_flag_value_fraction_cannot_read_exits_2(capsys):
    assert run(["expand", "--a", "y", "--b", "-x", "--max-exp", "1e"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-exp: Invalid literal for Fraction: '1e'\n"


DEAD_END = ["--a", "x", "--b", "0"]  # x dx: one vertex (1, 0), no side, a(x, 0) = x


def test_a_dead_end_is_a_note(capsys):
    assert run(["expand", *DEAD_END]) == 0
    assert out_of(capsys) == (
        "branches (0):\nnotes:\n  - [y ~ 0] dead end: no admissible steps\n")
    assert run(["expand", *DEAD_END, "--json"]) == 0
    assert json.loads(out_of(capsys)) == {
        "branches": [], "notes": ["[y ~ 0] dead end: no admissible steps"]}
    assert run(["verify", *DEAD_END]) == 0
    assert out_of(capsys) == ("max r = 0\ny-order = 0\nmultiplicity = 2\n"
                              "bound max r <= y-order <= multiplicity: PASS\n")
    assert run(["verify", *DEAD_END, "--json"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["notes"] == ["[y ~ 0] dead end: no admissible steps"]
    assert (payload["max_r"], payload["y_order"], payload["multiplicity"]) == (0, 0, 2)
    assert payload["bound_ok"] is True


def test_check_lemmas_reports_a_failing_lemma(monkeypatch, capsys):
    # every cusp trace reported with the L1 failure of a row-0 point at tau
    failing = LemmaReport([_lemmas_after(OneForm(PuiseuxPoly({(2, 0): 1}), PuiseuxPoly()))])
    monkeypatch.setattr(main, "lemma_checks", lambda trace: failing)
    cusp = ["check-lemmas", "--a", "-3*x^2", "--b", "2*y"]
    assert run(cusp) == 1
    out = out_of(capsys)
    assert "L1=fail (min boundary abscissa 2 vs tau 2)" in out
    assert out.endswith("checks: 2 passed, 4 failed, 2 vacuous\nlemma verdict: FAIL\n")
    assert run([*cusp, "--json"]) == 1
    payload = json.loads(out_of(capsys))
    assert payload["ok"] is False
    assert [tr["steps"][0]["l1"] for tr in payload["traces"]] == [
        {"status": "fail", "detail": "min boundary abscissa 2 vs tau 2"}] * 2


@pytest.mark.parametrize("samples", ["1,1/1", "0,0", "1/2,-1,2/4"])
def test_repeated_dicritical_sample_exits_2(capsys, samples):
    # a repeated coefficient would report the same dicritical branch twice
    args = ["expand", "--a", "y", "--b", "-x", "--dicritical-samples", samples]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --dicritical-samples must not repeat a coefficient\n"


@pytest.mark.parametrize(
    "value, flag",
    [(v, f) for f in ("--max-ram", "--max-branches") for v in ("0", "-5")]
    + [(v, "--max-exp") for v in ("0", "-5", "1/2")],
)
def test_limit_below_one_exits_2(capsys, flag, value):
    assert run(["verify", "--a", "-3*x^2", "--b", "2*y", flag, value, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s must be at least 1\n" % flag


@pytest.mark.parametrize("flags, err", [
    (["--max-ram=0", "--max-exp=1e"], "--max-ram must be at least 1"),
    (["--max-branches=0", "--max-exp=0"], "--max-branches must be at least 1"),
    (["--dicritical-samples=1,1", "--max-ram=0"],
     "--dicritical-samples must not repeat a coefficient"),
])
def test_the_first_limit_fault_in_flag_order_is_reported(capsys, flags, err):
    # the samples, then --max-ram and --max-branches, then --max-exp, read last
    assert run(["verify", "--a", "-3*x^2", "--b", "2*y", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % err


def test_support_requires_svg(capsys, tmp_path):
    assert run(["polygon", "--a", "-3*x^2", "--b", "2*y", "--support", "2"]) == 2
    assert "--support requires --svg" in capsys.readouterr().err
    target = tmp_path / "p.svg"
    args = ["polygon", "--a", "-3*x^2", "--b", "2*y", "--svg", str(target)]
    assert run(args + ["--support", "1/0"]) == 2
    assert "--support" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("flag", [["--support", "0"], ["--support=-1/2"], ["--support", "1/2,0"]])
def test_support_coslopes_not_above_0_name_the_flag(flag, json_flag, tmp_path, capsys):
    target = tmp_path / "p.svg"
    argv = ["polygon", "--a", "-3*x^2", "--b", "2*y", "--svg", str(target), *flag, *json_flag]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --support co-slopes must be above 0\n")
    assert not target.exists()


def test_svg_output(tmp_path, capsys):
    target = tmp_path / "cusp.svg"
    assert run(["polygon", "--a", "-3*x^2", "--b", "2*y", "--svg", str(target)]) == 0
    capsys.readouterr()
    root = ET.parse(target).getroot()
    assert len(root.findall(".//s:circle", SVG_NS)) == 2
    assert len(root.findall(".//s:polyline", SVG_NS)) == 1
    supports = [
        ln for ln in root.findall(".//s:line", SVG_NS) if ln.get("class") == "support"
    ]
    assert [ln.get("data-mu") for ln in supports] == ["3/2"]
    assert [ln.get("data-tau") for ln in supports] == ["2"]
    rays = [ln for ln in root.findall(".//s:line", SVG_NS) if ln.get("class") == "ray"]
    assert len(rays) == 2


def test_svg_custom_support_lines(tmp_path, capsys):
    target = tmp_path / "cusp2.svg"
    assert (
        run(
            [
                "polygon", "--a", "-3*x^2", "--b", "2*y",
                "--svg", str(target), "--support", "1,3/2,2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    root = ET.parse(target).getroot()
    supports = [
        ln for ln in root.findall(".//s:line", SVG_NS) if ln.get("class") == "support"
    ]
    assert [ln.get("data-mu") for ln in supports] == ["1", "3/2", "2"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("b, value, err", [
    ("2*y", "1e400", "--support co-slopes must be between 1/1000 and 1000"),
    ("2*y", "1e-400", "--support co-slopes must be between 1/1000 and 1000"),
    ("2*y", "1001,1", "--support co-slopes must be between 1/1000 and 1000"),
    ("2*y", "1/1001", "--support co-slopes must be between 1/1000 and 1000"),
    # the line meets i = 0 at j = -998, 1001 units below the point (-1, 3)
    ("2*y + y^2", "1/1000", "--support: the support lines stretch the view beyond 1000 units"),
], ids=["1e400", "1e-400", "1001", "1/1001", "stretch"])
def test_support_lines_beyond_the_view_name_the_flag(b, value, err, json_flag, tmp_path,
                                                     capsys):
    # float() of mu or of tau/mu overflowed: an OverflowError traceback, exit 1
    target = tmp_path / "p.svg"
    argv = ["polygon", "--a", "-3*x^2", "--b", b, "--svg", str(target),
            "--support", value, *json_flag]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % err)
    assert not target.exists()


def test_support_lines_at_the_view_limit_are_drawn(tmp_path, capsys):
    # on the cusp, co-slope 1/1000 meets i = 0 at j = -998: the view spans j = -998..2
    target = tmp_path / "p.svg"
    assert run(["polygon", "--a", "-3*x^2", "--b", "2*y", "--svg", str(target),
                "--support", "1000,1/1000"]) == 0
    capsys.readouterr()
    supports = [ln for ln in ET.parse(target).getroot().findall(".//s:line", SVG_NS)
                if ln.get("class") == "support"]
    assert [ln.get("data-mu") for ln in supports] == ["1000", "1/1000"]


@pytest.mark.parametrize("exponent", ["1000", "100000", "1000000000", "1" + "0" * 400],
                         ids=["1000", "100000", "1000000000", "401-digits"])
def test_the_svg_view_is_bounded(exponent, tmp_path, capsys):
    # one grid line a unit: x^1000000 took 294 MB and wrote 77.6 MB,
    # and a 401-digit exponent overflowed float()
    argv = ["polygon", "--a", "x^" + exponent, "--b", "y"]
    target = tmp_path / "wide.svg"
    start = time.perf_counter()
    assert run(argv + ["--svg", str(target)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", "error: --svg: the cloud's view spans more than "
                                       "1000 units\n")
    assert not target.exists()
    assert run(argv) == 0
    assert "side (-1, 2) -- (%s, 0)" % exponent in capsys.readouterr().out


def test_a_view_of_1000_units_is_drawn(tmp_path, capsys):
    # the cloud (-1, 2), (999, 0) and the origin span 1000 units
    target = tmp_path / "p.svg"
    assert run(["polygon", "--a", "x^999", "--b", "y", "--svg", str(target)]) == 0
    capsys.readouterr()
    grid = [ln for ln in ET.parse(target).getroot().findall(".//s:line", SVG_NS)
            if ln.get("class") in ("grid", "axis")]
    assert len(grid) == 1001 + 3  # i = -1..999 and j = 0..2, axes included


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "puiseuxform", "verify", "--a=-3*x^2", "--b=2*y"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_gen_runs_without_sympy(child_env):
    # sympy is a test-only dependency: the child blocks its import
    code = (
        "import sys, runpy; sys.modules['sympy'] = None; "
        "sys.argv = ['puiseuxform', 'gen', '--signature=3/2,7/4', '--seed=1',"
        " '--json']; "
        "runpy.run_module('puiseuxform', run_name='__main__')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["r"] == 2


def _value_options():
    """``{subcommand: its options that take a value}``, read from argparse."""
    sub, = (act for act in build_arg_parser()._actions
            if isinstance(act, argparse._SubParsersAction))
    return {name: {opt: act.dest for act in sp._actions if act.nargs != 0
                   for opt in act.option_strings}
            for name, sp in sub.choices.items()}


def test_every_value_flag_accepts_a_dash_leading_value():
    options = _value_options()
    assert set(options) == {"polygon", "expand", "verify", "check-lemmas", "gen"}
    assert _VALUE_FLAGS == {opt for opts in options.values() for opt in opts}
    for command, opts in options.items():
        for opt, dest in opts.items():
            # argparse would refuse "-1" as an option it does not know
            args = build_arg_parser().parse_args(_normalize_argv([command, opt, "-1"]))
            assert getattr(args, dest) in ("-1", -1), (command, opt)


def test_dash_leading_expression_values(capsys):
    # space-separated values starting with '-' must work, not just --a=...
    assert run(["verify", "--a", "-x", "--b", "y - x"]) in (0, 1)
    capsys.readouterr()


def _nested(depth, inner):
    return "(" * depth + inner + ")" * depth


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--a=" + _nested(330, "x*y"), "--b=y"],
        ["polygon", "--a=" + _nested(1000, "x"), "--b=y"],
    ],
    ids=["verify-330", "polygon-1000"],
)
def test_deep_parentheses_exit_2(argv, capsys, child_env):
    # a parse error, not a RecursionError traceback, in-process and in a child
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: parentheses nested deeper than 200 (at position 200)\n"
    proc = subprocess.run(
        [sys.executable, "-m", "puiseuxform", *argv],
        capture_output=True, text=True, env=child_env,
    )
    assert (proc.returncode, proc.stderr) == (2, err)


def test_parentheses_at_the_depth_limit_parse(capsys):
    assert run(["verify", "--a=" + _nested(200, "x*y"), "--b=y"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_power_of_a_sum_at_the_cap_parses(capsys):
    start = time.perf_counter()
    assert run(["polygon", "--a", "(x+y)^32 + (2*x)^1000", "--b", "y"]) == 0
    assert time.perf_counter() - start < 1
    assert "side (-1, 2) -- (32, 0)" in capsys.readouterr().out


@pytest.mark.parametrize("power", [33, 1000])
def test_power_of_a_sum_above_the_cap_exits_2(power, capsys):
    # (x+y)^1000 took about 9 s to expand before the cap
    start = time.perf_counter()
    assert run(["polygon", "--a", "(x+y)^%d" % power, "--b", "y"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: power %d of a sum is above the limit 32 (at position 5)\n" % power
    )


def test_power_of_a_three_term_sum_at_the_cap_parses(capsys):
    # 561 terms; took 3.9 s while the power made one square too many
    start = time.perf_counter()
    assert run(["polygon", "--a", "(x+y+1)^32 - 1", "--b", "y"]) == 0
    assert time.perf_counter() - start < 1
    assert "side (-1, 2) -- (1, 0)  co-slope 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "a, err",
    [
        # took 20 s: the outer power is within the cap, but of a 33-term sum
        ("((x+y)^32)^32", "power 32 of a 33-term sum can have 1832624140942590534 "
         "terms, above the limit 1000 (at position 10)"),
        # took 31 s to parse
        ("(x+y+x*y+x^2+y^2)^32", "power 32 of a 5-term sum can have 58905 terms, "
         "above the limit 1000 (at position 17)"),
        ("(x+y)^31*(x-y)^31", "product of a 32-term and a 32-term sum can have "
         "1024 terms, above the limit 1000 (at position 9)"),
    ],
)
def test_expansions_with_too_many_terms_exit_2(a, err, capsys):
    start = time.perf_counter()
    assert run(["polygon", "--a", a, "--b", "y"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: %s\n" % err)


@pytest.mark.parametrize(
    "a, b, err",
    [
        # each power is within the term cap; parsing all eight took 1.75 s
        (" + ".join("(x+%d*y+1)^32" % k for k in range(1, 9)), "y",
         "expanding the input takes 52532 term products, above the limit 50000 "
         "(at position 24)"),
        # took 8.6 s and built a 125 MB coefficient
        ("(2*x)^1000000000*y", "x^2",
         "power 1000000000 can give a coefficient of 1000000000 bits, above the "
         "limit 1000 (at position 5)"),
    ],
)
def test_parses_beyond_the_work_or_bit_budget_exit_2(a, b, err, capsys):
    start = time.perf_counter()
    assert run(["polygon", "--a", a, "--b", b]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: %s\n" % err)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["verify", "expand", "check-lemmas"])
def test_a_number_past_the_digit_limit_exits_2(command, json_flag, capsys):
    # Euler's form: the note at the step to x^1601 renders the series up to
    # 1599! x^1600, and 1599! has 4431 digits (1499! at --max-exp 1500 has 4112)
    argv = [command, "--a", "x - y", "--b", "x^2", "--max-exp", "1600", *json_flag]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr() == ("", "error: cannot render a number of more than 4300 digits\n")


@pytest.mark.parametrize("command", ["expand", "verify", "check-lemmas"])
def test_flagless_limits_are_the_library_defaults(command):
    assert _limits(build_arg_parser().parse_args([command])) == Limits()


def test_gen_ramification_above_the_cap_exits_2_at_once(capsys):
    # gen_case's cost grows steeply with the ramification: 101/100 took 16 s
    start = time.perf_counter()
    assert run(["gen", "--signature", "101/100"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ramification 100 is above the limit 32\n"


def test_gen_ramification_cap_admits_a_tower_up_to_it():
    tower = [Fraction(2**k - 1, 2 ** (k - 1)) for k in range(2, 8)]  # 3/2 .. 127/64
    assert _validate_signature(tower[:5]) == MAX_GEN_RAMIFICATION == 32
    with pytest.raises(ValueError, match="ramification 64 is above the limit 32"):
        _validate_signature(tower)


def _child_json(argv, child_env, guard_s=20):
    # a wall-clock guard: the child is killed, and the test fails, past guard_s
    proc = subprocess.run(
        [sys.executable, "-m", "puiseuxform", *argv, "--json"],
        capture_output=True, text=True, env=child_env, timeout=guard_s,
    )
    return proc.returncode, json.loads(proc.stdout)


def test_euler_divergent_branch_at_default_limits(child_env):
    # x^2 dy - (y - x) dx: the formal branch y = sum (n-1)! x^n, whose step-n
    # characteristic polynomial (n-1)! - c has a 36-digit constant at n = 33
    code, payload = _child_json(["expand", "--a", "x - y", "--b", "x^2"], child_env)
    assert code == 0
    [branch] = payload["branches"]
    assert [(s["mu"], s["c"]) for s in branch["steps"]] == [
        (str(n), str(math.factorial(n - 1))) for n in range(1, 41)
    ]
    assert not branch["exact"] and branch["truncated_at"] == "40"
    assert branch["residual"] != "infinity"


def test_dicritical_pencil_at_default_limits(child_env):
    # the first branch is y = x*sqrt(1 + x), whose coefficients gain about
    # one digit per step
    code, payload = _child_json(
        ["expand", "--a", "-2*x*y^2 - x^4", "--b", "2*x^2*y"], child_env
    )
    assert code == 0
    assert [b["steps"][0]["mu"] for b in payload["branches"]] == ["1", "3/2", "3/2"]
    binomial = [Fraction(1)]  # binomial(1/2, k)
    for k in range(39):
        binomial.append(binomial[-1] * (Fraction(1, 2) - k) / (k + 1))
    first = payload["branches"][0]
    assert [(s["mu"], s["c"]) for s in first["steps"]] == [
        (str(n), str(binomial[n - 1])) for n in range(1, 41)
    ]
    assert first["truncated_at"] == "40"


def test_nineteen_digit_cusp_has_no_rational_branch(child_env):
    code, payload = _child_json(
        ["verify", "--a", "-1000000000000000003*x^2", "--b", "2*y"], child_env
    )
    assert code == 0
    assert payload["branches"] == [] and payload["bound_ok"]
    [note] = payload["notes"]
    assert "no rational continuation on side mu=3/2" in note


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_gen_large_exponent_numerator(json_flag, child_env):
    # the filler exponents are drawn from 10^8 grid points without listing them
    proc = subprocess.run(
        [sys.executable, "-m", "puiseuxform", "gen", "--signature", "100000001/2",
         *json_flag],
        capture_output=True, text=True, env=child_env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    if json_flag:
        branch = json.loads(proc.stdout)["branch"]
        assert branch["r"] == 1 and branch["exact"]
        assert branch["series"].endswith("x^(100000001/2)")
    else:
        assert "x^(100000001/2)" in proc.stdout


# d(x^2 - y^3): the polygon's one side has co-slope 2/3, below the search's mu >= 1
SHALLOW = ["polygon", "--a", "2*x", "--b", "-3*y^2"]


def test_polygon_reports_a_side_of_coslope_below_one(capsys):
    assert run(SHALLOW) == 0
    out = out_of(capsys)
    assert "side (-1, 3) -- (1, 0)  co-slope 2/3  Phi(c) = -2*c^3 + 2\n" in out
    assert "y-order: 0\n" in out and "multiplicity: 2\n" in out

    assert run(["polygon", "--a", "y^3 - 2*x*y", "--b", "x^2"]) == 0
    assert "co-slope 1/2  Phi(c) = c^3 - 3/2*c\n" in out_of(capsys)


def test_polygon_json_and_svg_with_a_side_of_coslope_below_one(tmp_path, capsys):
    assert run(SHALLOW + ["--json"]) == 0
    payload = json.loads(out_of(capsys))
    (side,) = payload["polygon"]["sides"]
    assert (side["start"], side["end"]) == (["-1", "3"], ["1", "0"])
    assert (side["coslope"], side["phi"]) == ("2/3", "-2*c^3 + 2")
    assert (payload["y_order"], payload["multiplicity"]) == (0, 2)

    target = tmp_path / "shallow.svg"
    assert run(SHALLOW + ["--svg", str(target)]) == 0
    capsys.readouterr()
    supports = [
        ln for ln in ET.parse(target).getroot().findall(".//s:line", SVG_NS)
        if ln.get("class") == "support"
    ]
    assert [(ln.get("data-mu"), ln.get("data-tau")) for ln in supports] == [("2/3", "1")]
    assert run(SHALLOW + ["--svg", str(target), "--support", "1/2,0"]) == 2
    assert capsys.readouterr().err == "error: --support co-slopes must be above 0\n"


@pytest.mark.parametrize("flag, value", [
    ("--max-exp", "1e3000000"),
    ("--max-exp", "1E-3000000"),
    ("--max-exp", "1e3_000_000"),
    ("--dicritical-samples", "1,2e3000000"),
])
def test_rational_flags_refuse_huge_decimal_exponents(flag, value, capsys):
    # Fraction("1e3000000") builds a 10-million-bit integer (about 1 s)
    start = time.perf_counter()
    assert run(["verify", "--a", "-3*x^2", "--b", "2*y", flag, value]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: decimal exponent " % flag)


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--signature", "3/2,1e-3000000"], "--signature"),
    (["polygon", "--a", "-3*x^2", "--b", "2*y", "--svg", "p.svg", "--support", "1e3000000"],
     "--support"),
])
def test_list_flags_refuse_huge_decimal_exponents(argv, flag, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("error: %s: decimal exponent " % flag)


@pytest.mark.parametrize("value, limit", [("1e2", 100), ("3/2", Fraction(3, 2)),
                                          ("1.5", Fraction(3, 2)), ("15E-1", Fraction(3, 2)),
                                          ("1e1000", 10**1000)])
def test_rational_flag_notations_keep_working(value, limit, capsys):
    assert run(["verify", "--a", "-3*x^2", "--b", "2*y", "--max-exp", value]) == 0
    assert "PASS" in capsys.readouterr().out
    args = build_arg_parser().parse_args(["verify", "--max-exp", value])
    assert _limits(args).max_exponent == limit


def test_the_arg_parser_is_built_once():
    assert build_arg_parser() is build_arg_parser()


@pytest.mark.parametrize("command", ["polygon", "verify", "check-lemmas"])
def test_one_polygon_per_search_node(command, monkeypatch, capsys):
    # the y-order is read off the cloud, so polygon builds the root polygon
    # once, and a search builds one polygon per node, in admissible_steps
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polygon, "_polygon", counted("built", polygon._polygon))
    monkeypatch.setattr(expansion, "admissible_steps",
                        counted("nodes", expansion.admissible_steps))
    assert run([command, "--a", "-3*x^2", "--b", "2*y", "--json"]) == 0
    capsys.readouterr()
    assert calls["built"] == (1 if command == "polygon" else calls["nodes"])
    assert calls["nodes"] == (0 if command == "polygon" else 3)


EULER = ["verify", "--a", "x - y", "--b", "x^2", "--json"]  # truncated at --max-exp


def _payload(argv, capsys):
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


def test_a_flag_of_one_run_does_not_reach_the_next(capsys):
    before = _payload(EULER, capsys)
    assert _payload(EULER + ["--max-exp=3/2"], capsys)[1]["branches"][0]["truncated_at"] == "1"
    after = _payload(EULER, capsys)
    assert after == before
    assert after[1]["branches"][0]["truncated_at"] == "40"


def test_an_argparse_exit_leaves_the_next_run_correct(capsys):
    before = _payload(EULER, capsys)
    with pytest.raises(SystemExit) as exc:
        run(EULER + ["--max-exp=3/2", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert _payload(EULER, capsys) == before


def _help(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", ["", "polygon", "expand", "verify", "check-lemmas", "gen"])
def test_help_texts_match_a_freshly_built_parser(command, capsys):
    argv = [command, "--help"] if command else ["--help"]
    fresh = _help(build_arg_parser.__wrapped__().parse_args, argv, capsys)
    for _ in range(2):  # the second from the parser the first one used
        assert _help(run, argv, capsys) == fresh
    if not command:
        assert fresh.startswith(
            "usage: puiseuxform [-h] {polygon,expand,verify,check-lemmas,gen} ...\n")
