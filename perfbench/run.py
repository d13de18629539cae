#!/usr/bin/env python3
"""Benchmark of the modp toolkit, run from the root of a checkout:

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 20 --trace 0

One client waits for each result, as a desk user does (a closed loop, one
call at a time).  A run sets up its inputs from ``--seed`` three times and
keeps the median set-up time, then repeats passes over the workload's
script until ``--seconds`` have elapsed (at least one pass), checks every
retained output, and prints one JSON object as its last line of stdout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced reference pass, then traced passes, and reports the per-module
metrics taken from spans around each call the benchmark makes into modp.
Spans, op timings and provenance are written under ``perfbench/out/``.

The run exits with status 1 and prints no result when ``src/modp`` is
missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (OUT, ROOT, SRC, kind_medians, pass_seconds,  # noqa: E402
                    subprocess_env, tail)

# One thread per process for numpy's BLAS and the MILP solver, in this
# process and in every modp process it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "MODP_THREADS")

SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "pass_s": "s"}
PER_LAYER = {
    "complexes.assemble_busy_s": "s",
    "complexes.assemble_calls": "count",
    "complexes.simplices": "count",
    "flatnorm.flat_busy_s": "s",
    "flatnorm.flat_calls": "count",
    "flatnorm.flat_nodes": "count",
    "flatnorm.plateau_busy_s": "s",
    "flatnorm.plateau_calls": "count",
    "flatnorm.plateau_nodes": "count",
    "flatnorm.plateau_gap_max": "ratio",
    "cones.network_busy_s": "s",
    "cones.network_calls": "count",
    "cones.topologies": "count",
    "cones.unbalanced_junctions": "count",
    "taylor.build_s": "s",
    "taylor.sample_points": "count",
    "taylor.decay_excess_ms": "ms",
    "taylor.decay_flat_s": "s",
    "taylor.ladder_floor_rungs": "count",
    "books.excess_busy_s": "s",
    "books.excess_calls": "count",
    "books.excess_points": "count",
    "books.density_ms": "ms",
    "whitney.self_s": "s",
    "whitney.oracle_calls": "count",
    "whitney.columns": "count",
    "whitney.member_frac": "ratio",
    "monotonicity.profile_ms": "ms",
    "fixtures.mesh_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.make_fixture_ms": "ms",
    "cli.flat_norm_ms": "ms",
    "cli.plateau_ms": "ms",
    "cli.classify_cone_ms": "ms",
    "cli.solve_network_ms": "ms",
    "cli.monotonicity_ms": "ms",
    "cli.excess_ms": "ms",
    "cli.density_ms": "ms",
    "cli.coherence_ms": "ms",
    "cli.whitney_ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One call the benchmark made and waited for."""

    kind: str
    op_id: int
    seconds: float
    output: object = None
    error: str | None = None


class Session:
    """Runs ops one after another, timing each and keeping its output."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[Op] = []

    def op(self, kind: str, fn, *args, **kwargs):
        op_id = len(self.ops)
        self.tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            out, err = fn(*args, **kwargs), None
        except Exception as exc:  # a failed op is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        self.ops.append(Op(kind, op_id, time.perf_counter() - t0, out, err))
        self.tracer.op_id = None
        return out


def time_python(code: str, cwd: Path) -> float:
    """Wall time of a fresh interpreter running ``code``; raises if it fails."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=cwd, env=subprocess_env(),
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - t0


def import_modp():
    if not (SRC / "modp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: modp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import modp

    if Path(modp.__file__).resolve().parent != (SRC / "modp").resolve():
        raise SystemExit(f"perfbench: imported modp from {modp.__file__}, not {SRC}")
    return modp


def provenance(args, modp) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as exc:
            commit = f"unknown ({exc})"
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "modp": modp.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "client": "closed loop, 1 client, 1 call at a time"}


def workload_class(name: str):
    if name == "mesh":
        from wl_mesh import MeshWorkload
        return MeshWorkload
    if name == "surface":
        from wl_surface import SurfaceWorkload
        return SurfaceWorkload
    if name == "cli":
        from wl_cli import CliWorkload
        return CliWorkload
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def failures(wl, state, ops: list[Op]) -> dict[int, str]:
    """op_id -> reason, for ops that raised or whose output failed its check."""
    bad = {op.op_id: op.error for op in ops if op.error is not None}
    for op in ops:
        if op.op_id in bad:
            continue
        try:
            reason = wl.check(state, op)
        except Exception as exc:  # a check that cannot run is a failed check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            bad[op.op_id] = reason
    return bad


def timed_passes(wl, state, session: Session, seconds: float) -> list[float]:
    walls = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.run_pass(state, len(walls), session)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start >= seconds:
            return walls


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    """Set up, run and check one workload; returns everything a run reports.
    The caller closes ``result["wl"]``, which removes the work directory."""
    modp = import_modp()
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    wl = workload_class(workload)(modp, work, seed, small)
    try:
        result = _measure(wl, seconds, trace)
    except BaseException:
        wl.close()
        raise
    result["wl"] = wl
    return result


def span_cost() -> float:
    """Seconds one traced span adds, from 2000 empty spans."""
    from spans import Tracer

    tr = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(2000):
        with tr.span("probe"):
            pass
    return (time.perf_counter() - t0) / 2000


def _measure(wl, seconds: float, trace: bool) -> dict:
    from spans import Tracer

    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = time_python("import modp", ROOT)
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(t_import + time.perf_counter() - t0)

    result = {"setup_s": statistics.median(setups), "setup_samples": setups}
    sessions = []
    if trace:
        ref = Session(Tracer(False))
        t0 = time.perf_counter()
        wl.run_pass(state, 0, ref)
        ref_wall = time.perf_counter() - t0
        sessions.append(ref)
        traced = Session(Tracer(True))
        walls = timed_passes(wl, state, traced, seconds)
        sessions.append(traced)
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(wl.layers(state, traced.tracer, traced.ops, len(walls)))
        interp = [time_python("pass", ROOT) for _ in range(3)]
        imports = [time_python("import modp.cli", ROOT) for _ in range(3)]
        layers["cli.interpreter_ms"] = 1e3 * statistics.median(interp)
        layers["cli.import_ms"] = 1e3 * (statistics.median(imports)
                                         - statistics.median(interp))
        # traced minus untraced wall time of the same first pass
        layers["trace.overhead_s"] = walls[0] - ref_wall
        result.update(layers=layers, spans=traced.tracer.spans, reference_pass_s=ref_wall,
                      spans_per_pass=len(traced.tracer.spans) / len(walls),
                      span_cost_s=span_cost())
    else:
        session = Session(Tracer(False))
        walls = timed_passes(wl, state, session, seconds)
        sessions.append(session)
    ops = [op for s in sessions for op in s.ops]
    main_ops = sessions[-1].ops
    bad = {}
    for s in sessions:
        bad.update({(id(s), k): v for k, v in failures(wl, state, s.ops).items()})
    lat = [op.seconds for op in main_ops]
    tail_s, tail_pct, tail_beyond = tail(lat)
    result.update(
        state=state, ops=main_ops, passes=len(walls),
        pass_walls=walls, wall_s=sum(walls), attempted=len(ops), failed=len(bad),
        failures=sorted(bad.values(), key=str),
        pass_s=pass_seconds(main_ops, len(walls)),
        op_p50_ms=1e3 * statistics.median(lat), op_tail_ms=1e3 * tail_s,
        tail_percentile=tail_pct, tail_beyond=tail_beyond, op_count=len(lat),
        headline=wl.headline(main_ops))
    return result


def report(args, res: dict, prov: dict) -> dict:
    if args.trace:
        metrics = {k: {"value": float(res["layers"][k]), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(res[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    frac = res["failed"] / res["attempted"]
    print(f"# modp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# setup_s samples {['%.4f' % s for s in res['setup_samples']]}")
    print(f"# wall_s {res['wall_s']:.4f} s over {res['passes']} pass(es)")
    print(f"# op_p50_ms {res['op_p50_ms']:.6g} ms  (all {res['op_count']} ops)")
    print(f"# op_tail_ms {res['op_tail_ms']:.6g} ms  (p{res['tail_percentile']:.1f} of "
          f"{res['op_count']} ops, {res['tail_beyond']} beyond)")
    for kind, (med, n) in sorted(kind_medians(res["ops"]).items()):
        print(f"#   kind {kind}: median {1e3 * med:.6g} ms of {n}")
    for name, (value, unit, note) in res["headline"].items():
        print(f"# {name} {value:.6g} {unit}  ({note})")
    if "layers" in res:
        print(f"# trace: traced pass 0 took {res['layers']['trace.overhead_s']:+.4f} s "
              f"against the untraced reference pass ({res['reference_pass_s']:.4f} s); "
              f"{res['spans_per_pass']:.0f} spans per pass at "
              f"{1e6 * res['span_cost_s']:.2f} us each")
    print(f"# failed_frac {frac:.6g} ({res['failed']} of {res['attempted']} ops)")
    for reason in res["failures"][:20]:
        print(f"#   failed: {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def save(args, res: dict, prov: dict, line: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "result": line,
              "setup_samples": res["setup_samples"], "pass_walls": res["pass_walls"],
              "ops": [{"kind": o.kind, "id": o.op_id, "seconds": o.seconds,
                       "error": o.error} for o in res["ops"]],
              "op_counts": {k: n for k, (_, n) in kind_medians(res["ops"]).items()},
              "tail": {"percentile": res["tail_percentile"],
                       "beyond": res["tail_beyond"], "samples": res["op_count"]},
              "headline": res["headline"], "failures": res["failures"],
              "spans": res.get("spans", [])}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mesh", "surface", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        prov = provenance(args, sys.modules["modp"])
        line = report(args, res, prov)
        save(args, res, prov, line)
    finally:
        res["wl"].close()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
