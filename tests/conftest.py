"""Run the suite from a source checkout, installed or not: `src` goes first
on `sys.path` here and on the `PYTHONPATH` of every process a test spawns.

Each test starts with an empty exact-prelude cache of `zgap.bounds`, so a
test that patches what the prelude calls reads its own derivation, not one
an earlier test cached."""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _fresh_exact_prelude():
    # only when a test has loaded `zgap.bounds`, so that import-surface
    # tests see the modules they load and no others
    bounds = sys.modules.get("zgap.bounds")
    if bounds is not None:
        bounds._exact_prelude.cache_clear()
