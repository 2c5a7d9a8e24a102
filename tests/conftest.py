"""The CLI tests start `python -m contactflow.cli` as subprocesses: put the
checkout's src on their PYTHONPATH, as pyproject's pythonpath puts it on the
suite's, so a bare `pytest` tests the checkout, installed or not."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
