"""The library runs on what requirements.txt declares: numpy, no scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_loads_no_scipy():
    code = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"


def test_import_repro_loads_no_network_stack():
    """Only a trace download needs urllib.request (and with it http.client
    and ssl); importing the library must not pay for them."""
    code = (
        "import sys, repro; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl')"
        " if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"
