"""Run the suite from a source checkout, installed or not: `src` goes first
on `sys.path` here and on the `PYTHONPATH` of every process a test spawns."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
