"""Paths, the child-process environment and the summary statistics shared
by the harness and the workloads."""

from __future__ import annotations

import os
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Largest Plateau optimality gap read as proven optimal: HiGHS reports a
# relative gap of 1e-16..1e-13 on solves it proved optimal, and a solve
# stopped early leaves a gap many orders of magnitude larger.
GAP_TOL = 1e-9


def subprocess_env() -> dict:
    """Environment for modp child processes: absolute src first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 20
    samples that percentile would lie below the median, so the maximum is
    returned instead, with 0 beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def kind_medians(ops: list) -> dict[str, tuple[float, int]]:
    """kind -> (median seconds, number of ops)."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    return {k: (statistics.median(v), len(v)) for k, v in by_kind.items()}


def pass_seconds(ops: list, passes: int) -> float:
    """One pass through the script with every op at its kind's median."""
    return sum(n / passes * m for m, n in kind_medians(ops).values())
