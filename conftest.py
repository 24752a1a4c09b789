"""Make ``natbdd`` importable from a plain checkout.

``src/`` goes on the import path only when no ``natbdd`` is found already,
so an installed package, or a ``PYTHONPATH`` naming another copy of the
sources (``tests/mutants.py`` tests its mutated copies so), is the one the
tests import.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("natbdd") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
