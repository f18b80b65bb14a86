"""The mutation set in ``tests/mutants.py`` still fits the tree.

Each mutant is a text patch; once a refactor moves the code it patches,
the runner would score a mutant that no longer exists.  These checks
keep every patch applying exactly once, and every recorded catcher a
test pytest still collects, without running the (slow) scoring itself.
"""

import os
import subprocess
import sys

import pytest

from tests.mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_patch_applies_exactly_once(mutant):
    original = (ROOT / mutant.path).read_text()
    assert mutant.apply(original) != original


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_every_mutant_has_one_to_three_catchers(mutant):
    assert 1 <= len(mutant.caught_by) <= 3
    assert len(set(mutant.caught_by)) == len(mutant.caught_by)


def test_pytest_collects_every_catcher():
    catchers = sorted({test for mutant in MUTANTS for test in mutant.caught_by})
    # pyproject.toml's addopts give -q, which lists one id a line (-qq
    # would print only a count per file).
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider",
         *catchers],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = set(proc.stdout.splitlines())
    assert [test for test in catchers if test not in collected] == []
