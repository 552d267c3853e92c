"""Pin the CLI's exit code, stdout and stderr, byte for byte.

Every argv below runs through in-process ``run()``.  The sha256 of its
exit code, stdout and stderr must equal the digest recorded for that argv
in ``cli_golden.json``.  The inputs are the README fixtures, a few error
paths (two of them parentheses nested too deep to parse) and the 24
small planted forms (``STANDARD_SIGNATURES[:4]`` x seeds 0..5), each
through every command in text and ``--json`` mode.  ``gen``
is pinned for those 24 cases, for ``3/2,7/4 --seed=4``, and for the
ramified towers ``STANDARD_SIGNATURES[4:]`` (m = 4, 6, 8) x seeds 0..1.
Two limit-truncated expansions pin finite invariance residuals through
``expand`` and ``verify``.

After an intended output change, record the digests again with
``python tests/test_cli_golden.py`` (``src`` on the path) and review the
diff of the JSON file.
"""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from puiseuxform.algebra import rat_str
from puiseuxform.cli.main import run
from puiseuxform.cli.parser import poly_to_text
from puiseuxform.oracle import STANDARD_SIGNATURES, gen_case

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORM_COMMANDS = ("polygon", "expand", "verify", "check-lemmas")
FIXTURE_FORMS = [
    ("-3*x^2", "2*y"),  # cusp d(y^2 - x^3)
    ("y", "-x"),  # radial
    ("x*y + y^2", "-x^2 - x*y"),  # dicritical side
    ("3*y", "-2*x"),  # dicritical vertex
]
ERROR_ARGVS = [
    ["polygon", "--a=x^", "--b=y"],
    ["polygon", "--a=1 + x", "--b=y"],
    ["expand", "--a=0", "--b=0"],
    ["expand", "--a=y", "--b=-x", "--max-exp=1/0"],
    ["verify", "--a=y", "--b=-x", "--dicritical-samples=,"],
    ["polygon", "--a=-3*x^2", "--b=2*y", "--support=2"],
    ["verify", "--a=-3*x^2", "--b=2*y", "--max-exp=-5"],
    ["expand", "--a=y", "--b=-x", "--dicritical-samples=1,1/1"],
    ["verify", "--a=" + "(" * 330 + "x*y" + ")" * 330, "--b=y"],
    ["polygon", "--a=" + "(" * 1000 + "x" + ")" * 1000, "--b=y"],
]


def golden_argvs() -> dict[str, list[str]]:
    """The pinned argvs, keyed by their shell-quoted text (equal forms merge)."""
    forms = list(FIXTURE_FORMS)
    gens = [("3/2,7/4", 4)]
    for sig in STANDARD_SIGNATURES[:4]:
        for seed in range(6):
            case = gen_case(sig, seed)
            forms.append((poly_to_text(case.form.a), poly_to_text(case.form.b)))
            gens.append((",".join(rat_str(e) for e in sig), seed))
    for sig in STANDARD_SIGNATURES[4:]:
        gens += [(",".join(rat_str(e) for e in sig), seed) for seed in range(2)]
    argvs = [
        [cmd, "--a=" + a, "--b=" + b] for a, b in forms for cmd in FORM_COMMANDS
    ]
    argvs += [["gen", "--signature=" + sig, "--seed=%d" % seed] for sig, seed in gens]
    tower = gen_case((Fraction(3, 2), Fraction(7, 4)), 0).form
    truncated = [
        ("-3*x^2", "2*y", "--max-exp=1"),
        (poly_to_text(tower.a), poly_to_text(tower.b), "--max-ram=2"),
    ]
    argvs += [
        [cmd, "--a=" + a, "--b=" + b, limit]
        for a, b, limit in truncated
        for cmd in ("expand", "verify")
    ]
    argvs = [argv + mode for argv in argvs for mode in ([], ["--json"])] + ERROR_ARGVS
    return {shlex.join(argv): argv for argv in argvs}


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    argvs = golden_argvs()
    assert sorted(argvs) == sorted(recorded)
    changed = [key for key, argv in argvs.items() if digest(argv) != recorded[key]]
    assert not changed, "output changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    table = {key: digest(argv) for key, argv in golden_argvs().items()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("recorded %d digests in %s" % (len(table), GOLDEN))
