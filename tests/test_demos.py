"""The demos run to completion on the ``src`` tree under test."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["cone_classification", "flat_norm", "monotonicity",
                                  "plateau", "singular_surface", "whitney_selection"])
def test_demo_runs(name, tmp_path):
    proc = run_python([str(DEMOS / f"{name}_demo.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
