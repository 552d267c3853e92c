"""The package's public names: ``__all__`` resolves, the reference oracles stay out."""

import pytest

import puiseuxform
from puiseuxform import algebra, expansion, oracle

MOVED_TO_REFERENCE = (
    "CharPoly",
    "brute_hull",
    "eval_ramified",
    "poly_from_pairs",
    "substituted_residual",
)


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
