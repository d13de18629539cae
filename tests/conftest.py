"""Shared fixtures for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modp
from modp import fixtures

# The directory that holds the ``modp`` package imported by this test run.
SRC_DIR = str(Path(modp.__file__).resolve().parent.parent)


def run_python(args, cwd):
    """Run a fresh ``python`` with ``args`` in ``cwd``.

    The child process imports the same ``modp`` as the test process: the
    absolute source directory goes first on its ``PYTHONPATH``, ahead of any
    inherited entries, so a relative ``PYTHONPATH=src`` or an installed copy
    cannot change what is tested when ``cwd`` is elsewhere.
    """
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC_DIR + (os.pathsep + inherited if inherited else ""))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def run_cli(args, cwd):
    """Run ``python -m modp.cli`` with ``args`` in ``cwd`` (see ``run_python``)."""
    return run_python(["-m", "modp.cli", *args], cwd)


@pytest.fixture(scope="session")
def taylor_p3():
    """The p=3 rotationally symmetric singular example, sampled at delta=0.01."""
    return modp.build_taylor_example(3, [-40.0, 0.0, 40.0], delta=0.01)


@pytest.fixture(scope="session")
def y_cone():
    """Three unit rays at mutual 120 degrees in the plane, mod 3."""
    angles = [90.0, 210.0, 330.0]
    pages = np.array([[math.cos(math.radians(a)), math.sin(math.radians(a))]
                      for a in angles])
    book = modp.OpenBook(np.zeros((0, 2)), np.eye(2), pages)
    return modp.ConeModP(book, [1, 1, 1], 3)


@pytest.fixture()
def triangle():
    """Unit right triangle complex and its boundary 1-chain."""
    return fixtures.triangle_complex()


def random_chain(rng, cx, degree, lo=-4, hi=4, density=0.6):
    """Random sparse integer chain on the given complex."""
    coeffs = {}
    for i in range(cx.n_simplices(degree)):
        if rng.random() < density:
            c = int(rng.integers(lo, hi + 1))
            if c:
                coeffs[i] = c
    return modp.IntegerChain(cx, degree, coeffs)
