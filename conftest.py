"""Make ``natbdd`` importable from a plain checkout.

``src/`` goes on the import path only when no ``natbdd`` is found already,
so an installed package, or a ``PYTHONPATH`` naming another copy of the
sources (``tests/mutants.py`` tests its mutated copies so), is the one the
tests import.  Under the same condition it goes on ``PYTHONPATH`` too, so
the tests' child processes (``python -m natbdd`` and the pipes) import the
same sources.
"""

import importlib.util
import os
import sys
from pathlib import Path

if importlib.util.find_spec("natbdd") is None:
    SRC = str(Path(__file__).resolve().parent / "src")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
