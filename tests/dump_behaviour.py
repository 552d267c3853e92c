"""Hash the CLI's behaviour over a large fixed set of argvs, one digest per family.

Every argv runs through in-process ``run()``; a family's sha256 covers the
argv, exit code, stdout and stderr of each of its argvs, in order.  The
forms are the 104 planted corpus forms (``STANDARD_SIGNATURES`` x seeds
0..12) and nine fixtures.  The families are

* ``polygon`` in text and ``--json``;
* ``expand``, ``verify`` and ``check-lemmas`` in text, ``--json``,
  ``--max-ram=2``, ``--max-exp=3/2 --json`` and ``--dicritical-samples=1,-1,2``;
* ``zero-samples``: those three commands with ``--dicritical-samples=0``
  and ``--dicritical-samples=0,1 --json``;
* ``long-chain``: ``expand``, ``verify`` and ``check-lemmas --json`` on
  one form whose single branch is a truncated chain of integer steps with
  fast-growing coefficients, under ``--max-exp`` 8, 12 and 16;
* ``gen`` in text and ``--json`` for the eight signatures at seeds 0..2;
* ``svg``: ``polygon --svg`` over every form, with the default support
  lines and with ``--support=1,3/2,2,7/4``.  Its digest also covers the
  SVG bytes; the temporary SVG path is masked in the argv and stdout.
* ``inputs``: ``polygon`` and ``verify`` on hostile or edge input: huge
  coefficients and sums with and without parentheses, support lines and
  clouds too wide to draw, deep parentheses, an over-long literal, and
  Euler's form at ``--max-exp=1600``, whose series has a coefficient past
  the interpreter's int -> str digit limit, the dead end of ``x dx`` (no
  admissible step at the root), a ``--max-exp`` that ``Fraction`` cannot
  read, alone and after a ``--max-ram`` below 1, and a dicritical sample
  with a huge decimal exponent.

An exception that escapes ``run()`` is recorded in place of the exit code
and the output, as its type name and message, so a commit at which some
input crashes still gets its digests.  A refactor that keeps behaviour
prints the same digests before and after.
Run it from the repository root (it takes a minute or two)::

    PYTHONPATH=src python tests/dump_behaviour.py

It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from puiseuxform.algebra import rat_str
from puiseuxform.cli.main import run
from puiseuxform.cli.parser import poly_to_text
from puiseuxform.oracle import STANDARD_SIGNATURES, gen_case

FIXTURES = [
    ("-3*x^2", "2*y"),  # cusp d(y^2 - x^3)
    ("y", "-x"),  # radial
    ("-2*x", "y"),  # no rational root
    ("x*y + y^2", "-x^2 - x*y"),  # dicritical side
    ("3*y", "-2*x"),  # dicritical vertex
    ("5*y^3 + 7*x^3*y", "-4*x*y^2 - 3*x^4"),  # two dicritical vertices
    ("x - y", "x^2"),  # Euler's saddle-node
    ("-2*x*y^2 - x^4", "2*x^2*y"),  # pencil
    ("-x", "y - x"),
]
FORM_COMMANDS = ("expand", "verify", "check-lemmas")
VARIANTS = {
    "": [],
    " --json": ["--json"],
    " --max-ram=2": ["--max-ram=2"],
    " --max-exp=3/2 --json": ["--max-exp=3/2", "--json"],
    " --dicritical-samples=1,-1,2": ["--dicritical-samples=1,-1,2"],
}
LONG_CHAIN = ["--a=y^3 - x^4", "--b=-3*y^3 + y^5 + 2*x^3*y^3 - 2*x^5*y^3"]
ZERO_SAMPLES = (["--dicritical-samples=0"], ["--dicritical-samples=0,1", "--json"])
SVG = "<svg>"  # stands for the temporary SVG path
SVG_VARIANTS = (["--svg=" + SVG], ["--svg=" + SVG, "--support=1,3/2,2,7/4"])
CUSP = ["--a=-3*x^2", "--b=2*y"]
BIG = "%d*x" % 10**399  # a coefficient of 1326 bits
LONG_SUM = " + ".join("x^%d" % k for k in range(1, 1002))  # 1001 terms
INPUTS = [
    *(["polygon", "--a=" + a, "--b=y"]
      for a in (BIG, "(%s)" % BIG, LONG_SUM, "(%s)" % LONG_SUM)),
    *(["polygon", *CUSP, "--svg=" + SVG, "--support=" + mu, *extra]
      for mu in ("1e400", "1e-400", "1/1000", "1/1001") for extra in ([], ["--json"])),
    ["polygon", "--a=-3*x^2", "--b=2*y + y^2", "--svg=" + SVG, "--support=1/1000"],
    *(["polygon", "--a=x^" + e, "--b=y", *extra]
      for e in ("999", "1000", "100000", "1" + "0" * 400) for extra in ([], ["--svg=" + SVG])),
    ["verify", "--a=" + "(" * 330 + "x*y" + ")" * 330, "--b=y"],
    ["polygon", "--a=" + "(" * 1000 + "x" + ")" * 1000, "--b=y"],
    ["verify", "--a=" + "(" * 200 + "x*y" + ")" * 200, "--b=y"],
    ["polygon", "--a=x^" + "1" * 5000, "--b=y"],
    *([*cmd, "--a=x - y", "--b=x^2", "--max-exp=1600"]
      for cmd in (["verify"], ["expand", "--json"], ["check-lemmas"])),
    *([cmd, "--a=x", "--b=0"] for cmd in FORM_COMMANDS),
    ["expand", "--a=y", "--b=-x", "--max-exp=1e"],
    ["verify", *CUSP, "--max-ram=0", "--max-exp=1e"],
    ["expand", "--a=y", "--b=-x", "--dicritical-samples=1,2e3000000"],
]


def families() -> dict[str, list[list[str]]]:
    """The argvs of each family, in a fixed order."""
    forms = list(FIXTURES)
    gens = []
    for sig in STANDARD_SIGNATURES:
        text = ",".join(rat_str(e) for e in sig)
        for seed in range(13):
            case = gen_case(sig, seed)
            forms.append((poly_to_text(case.form.a), poly_to_text(case.form.b)))
            if seed < 3:
                gens.append(["gen", "--signature=" + text, "--seed=%d" % seed])
    ab = [["--a=" + a, "--b=" + b] for a, b in forms]
    table = {
        "polygon": [["polygon", *f] for f in ab],
        "polygon --json": [["polygon", *f, "--json"] for f in ab],
    }
    for cmd in FORM_COMMANDS:
        for name, extra in VARIANTS.items():
            table[cmd + name] = [[cmd, *f, *extra] for f in ab]
    table["zero-samples"] = [
        [cmd, *f, *extra] for cmd in FORM_COMMANDS for extra in ZERO_SAMPLES for f in ab
    ]
    table["long-chain"] = [
        [cmd, *LONG_CHAIN, "--max-exp=%d" % top, "--json"]
        for top in (8, 12, 16) for cmd in FORM_COMMANDS
    ]
    table["gen"] = gens
    table["gen --json"] = [argv + ["--json"] for argv in gens]
    table["svg"] = [["polygon", *f, *extra] for extra in SVG_VARIANTS for f in ab]
    table["inputs"] = INPUTS
    return table


def family_digest(argvs: list[list[str]]) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "polygon.svg"
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = run([arg.replace(SVG, str(path)) for arg in argv])
                output = out.getvalue()
            except Exception as exc:  # an input fault: its type and message stand in
                code, output = type(exc).__name__, str(exc)
            record = [argv, code, output.replace(str(path), SVG), err.getvalue()]
            if any(arg.startswith("--svg=") for arg in argv):
                record.append(path.read_text(encoding="utf-8") if path.exists() else None)
                path.unlink(missing_ok=True)
            h.update(json.dumps(record).encode())
    return h.hexdigest()


if __name__ == "__main__":
    total = 0
    for name, argvs in families().items():
        total += len(argvs)
        print("%s  %5d  %s" % (family_digest(argvs), len(argvs), name), flush=True)
    print("%d argvs" % total)
