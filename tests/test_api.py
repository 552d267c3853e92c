"""The package's public names: ``__all__`` resolves, the reference oracles stay out."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import puiseuxform
from puiseuxform import algebra, expansion, oracle, polygon

MOVED_TO_REFERENCE = (
    "CharPoly",
    "brute_hull",
    "eval_ramified",
    "poly_from_pairs",
    "substituted_residual",
)

CUSP = puiseuxform.differential(puiseuxform.PuiseuxPoly({(0, 2): 1, (3, 0): -1}))


def test_star_import_succeeds():
    namespace = {}
    exec("from puiseuxform import *", namespace)  # a stale __all__ entry raises
    assert set(puiseuxform.__all__) <= set(namespace)


def test_every_exported_name_resolves():
    assert len(set(puiseuxform.__all__)) == len(puiseuxform.__all__)
    assert all(hasattr(puiseuxform, name) for name in puiseuxform.__all__)


@pytest.mark.parametrize("module", [puiseuxform, algebra, expansion, oracle])
def test_test_only_code_is_not_shipped(module):
    assert [name for name in MOVED_TO_REFERENCE if hasattr(module, name)] == []


@pytest.mark.parametrize("module, name", [
    (algebra, "substitute_shift"),  # transform_form's a of the form p dx
    (polygon, "newton_polygon"),  # polygon_of the form with one a term per point
])
def test_one_entry_per_job(module, name):
    assert not hasattr(module, name)
    assert not hasattr(puiseuxform, name) and name not in puiseuxform.__all__


@pytest.mark.parametrize(
    "record, field",
    [
        (puiseuxform.PuiseuxBranch((), 2), "residual"),
        (puiseuxform.BranchStep(Fraction(3, 2), Fraction(1), 1, None, False), "c"),
        (puiseuxform.Limits(), "max_ramification"),
        (puiseuxform.polygon_of(CUSP), "sides"),
        (puiseuxform.OneForm(puiseuxform.PuiseuxPoly(), puiseuxform.PuiseuxPoly()), "a"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_the_cli_does_not_import_dataclasses():
    # importing dataclasses also loads inspect, ast, dis and tokenize
    code = "import sys, puiseuxform.cli.main; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(puiseuxform.__file__).parents[1])),
    )
    assert proc.stdout == "False\n"
