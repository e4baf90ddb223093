"""CLI tests run `python -m planwright.cli` in a subprocess. Put the
planwright this session imported on the subprocesses' path too, so that
they run the same code whether or not PYTHONPATH names `src`."""

import os

import planwright

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(planwright.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_ROOT, os.environ.get("PYTHONPATH")) if p)
