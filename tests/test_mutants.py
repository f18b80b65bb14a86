"""The mutation set in ``tests/mutants.py`` still fits the tree.

Each mutant is a text patch; once a refactor moves the code it patches,
the runner would score a mutant that no longer exists.  These checks
keep every patch applying exactly once, without running the (slow)
scoring itself.
"""

import pytest

from tests.mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_patch_applies_exactly_once(mutant):
    original = (ROOT / mutant.path).read_text()
    assert mutant.apply(original) != original
