import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from puiseuxform.cli.main import run

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


@pytest.mark.parametrize("flag", ["--max-ram", "--max-branches"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_limit_below_one_exits_2(capsys, flag, value):
    assert run(["verify", "--a", "-3*x^2", "--b", "2*y", flag, value, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s must be at least 1\n" % flag


def test_support_requires_svg(capsys, tmp_path):
    assert run(["polygon", "--a", "-3*x^2", "--b", "2*y", "--support", "2"]) == 2
    assert "--support requires --svg" in capsys.readouterr().err
    target = tmp_path / "p.svg"
    args = ["polygon", "--a", "-3*x^2", "--b", "2*y", "--svg", str(target)]
    assert run(args + ["--support", "1/0"]) == 2
    assert "--support" in capsys.readouterr().err


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


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "puiseuxform", "verify", "--a=-3*x^2", "--b=2*y"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_dash_leading_expression_values(capsys):
    # space-separated values starting with '-' must work, not just --a=...
    assert run(["verify", "--a", "-x", "--b", "y - x"]) in (0, 1)
    capsys.readouterr()
