from pathlib import Path

import pytest

import pdopt


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        meta = tomllib.load(fh)
    assert pdopt.__version__ == meta["project"]["version"]
