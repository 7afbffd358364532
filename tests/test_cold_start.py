"""Importing the package stays cheap: the records are named tuples, so
``dataclasses`` (and with it ``inspect``, ``ast``, ``dis``, ``tokenize``)
is never imported, and ``argparse`` and ``importlib.resources`` are imported
only by the code that parses arguments or reads a data file."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

DEFERRED = ("dataclasses", "inspect", "argparse", "importlib.resources")


def test_import_leaves_heavy_modules_unloaded():
    # -S skips site, so modules a .pth file preloads do not hide an import
    code = (
        "import sys\n"
        "import voganlab, voganlab.cli, voganlab.report, voganlab.kl\n"
        f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
