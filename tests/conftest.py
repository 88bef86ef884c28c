import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def cli_subprocess_path(monkeypatch):
    """``python -m bsing`` subprocesses import the package from this
    checkout, as the tests themselves do through pytest's ``pythonpath``."""
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC, inherited))))
