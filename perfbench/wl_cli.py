"""`cli` workload: a scripted session of `modp` commands, one process at a time.

Each pass writes the five fixtures it uses with ``make-fixture`` and runs
``flat-norm --oracle``, ``plateau``, ``classify-cone`` (twice),
``solve-network``, ``monotonicity``, ``density``, ``excess``,
``coherence`` and ``whitney`` on them.  Every command is started as
``python -m modp.cli`` with the absolute ``src`` directory at the front of
``PYTHONPATH``, and the next starts only after it has exited.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys

import numpy as np

from common import GAP_TOL, subprocess_env, tail

DISK_H = 0.1
TILT = 0.1  # the tilted-plane fixture's angle phi
CENTER = "1,0,0"  # a point of the tilted plane
COMMANDS = (
    ("make-fixture", ["make-fixture", "triangle-complex"]),
    ("make-fixture", ["make-fixture", "disk-mesh", "--h", str(DISK_H)]),
    ("make-fixture", ["make-fixture", "y120"]),
    ("make-fixture", ["make-fixture", "p5-balanced"]),
    ("make-fixture", ["make-fixture", "tilted-plane"]),
    ("flat-norm", ["flat-norm", "--complex", "triangle-complex.json",
                   "--chain", "triangle-boundary.json", "--p", "3", "--oracle"]),
    ("plateau", ["plateau", "--complex", "disk-mesh.json",
                 "--boundary", "disk-boundary.json", "--p", "3"]),
    ("classify-cone", ["classify-cone", "--config", "y120.json"]),
    ("classify-cone", ["classify-cone", "--config", "p5-balanced.json"]),
    ("solve-network", ["solve-network", "--terminals", "terms.json", "--p", "3"]),
    ("monotonicity", ["monotonicity", "--sample", "tilted-plane.json",
                      "--center", CENTER, "--radii", "0.25,0.5,1", "--csv", "prof.csv"]),
    ("density", ["density", "--sample", "tilted-plane.json",
                 "--center", CENTER, "--radius", "0.5"]),
    ("excess", ["excess", "--sample", "tilted-plane.json", "--book", "plane-book.json",
                "--center", CENTER, "--radius", "0.5"]),
    ("coherence", ["coherence", "--book", "cone-book.json", "--book0", "cone-book.json"]),
    ("whitney", ["whitney", "--m", "2", "--M", "1", "--depth", "5", "--tau", "0.3",
                 "--csv", "cubes.csv"]),
)
SMALL = {"make-fixture", "flat-norm", "classify-cone"}


class CliWorkload:
    def __init__(self, modp, work, seed: int, small: bool):
        self.modp = modp
        self.work = work
        self.seed = seed
        self.small = small

    def setup(self) -> dict:
        """Input files the fixtures do not provide, made from the seed."""
        modp = self.modp
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        th = np.sort(rng.uniform(0, 2 * math.pi, 3))
        rad = rng.uniform(0.5, 1.5, 3)
        terms = [{"point": [float(r * math.cos(a)), float(r * math.sin(a))],
                  "multiplicity": 1} for a, r in zip(th, rad)]
        self._write("terms.json", {"terminals": terms})
        plane = modp.OpenBook([[0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                              [[math.cos(TILT), math.sin(TILT)],
                               [-math.cos(TILT), -math.sin(TILT)]])
        self._write("plane-book.json", plane.to_json())
        rot = rng.uniform(0, 2 * math.pi / 3)
        pages = [[math.cos(rot + a), math.sin(rot + a)]
                 for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
        cone = modp.OpenBook(np.zeros((0, 2)), np.eye(2), pages)
        self._write("cone-book.json", cone.to_json(p=3, kappa=[1, 1, 1]))
        return {"terminals": terms}

    def _write(self, name: str, obj) -> None:
        (self.work / name).write_text(json.dumps(obj))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_pass(self, st: dict, index: int, sess) -> None:
        env = subprocess_env()
        tr = sess.tracer

        def call(name, argv):
            with tr.span("cli." + name):
                proc = subprocess.run(
                    [sys.executable, "-m", "modp.cli", *argv, "--seed", str(self.seed)],
                    cwd=self.work, env=env, capture_output=True, text=True, timeout=170)
            return proc.returncode, proc.stdout, proc.stderr

        for name, argv in COMMANDS:
            if self.small and name not in SMALL:
                continue
            kind = f"{name} {argv[1]}" if name == "make-fixture" else \
                f"{name} {argv[2]}" if name == "classify-cone" else name
            sess.op(kind, call, name, argv)

    # -- checks --------------------------------------------------------------

    def check(self, st: dict, op) -> str | None:
        code, out, err = op.output
        if code != 0:
            return f"modp {op.kind} exited {code}: {err.strip()[-200:]}"
        data = json.loads(out)
        command = op.kind.split()[0]
        if command == "make-fixture":
            missing = [p for p in data["written"] if not (self.work / p).is_file()]
            return f"make-fixture did not write {missing}" if missing else None
        if command == "flat-norm":
            ok = abs(data["value"] - 0.5) <= 1e-9 and abs(data["oracle_value"] - 0.5) <= 1e-9
            return None if ok else \
                f"flat-norm value {data['value']}, oracle {data['oracle_value']}, expected 0.5"
        if command == "plateau":
            ok = abs(data["value"] - 3.0) <= 2 * DISK_H and data["gap"] <= GAP_TOL
            return None if ok else f"plateau value {data['value']} gap {data['gap']}"
        if command == "classify-cone":
            return None if data["all_ok"] else "classify-cone: all_ok is false"
        if command == "solve-network":
            return None if data["mass"] > 0 else f"solve-network mass {data['mass']}"
        if command == "monotonicity":
            return None if data["rows"] == 3 else f"monotonicity rows {data['rows']}"
        if command == "density":
            d = data["density_ratio"]
            return None if abs(d - 1.0) <= 3 * 0.02 else f"plane density {d}, expected 1"
        if command == "excess":
            e = data["excess"]
            return None if 0 <= e <= 1e-9 else f"excess {e} of a plane against itself"
        if command == "coherence":
            a = data.get("coherence_angle")
            return None if a is not None and a <= 1e-6 else f"self-coherence {a}"
        if command == "whitney":
            return None if data["member_cubes"] > 0 else "whitney: no member cubes"
        return f"unknown command {op.kind}"

    # -- reporting -------------------------------------------------------------

    def headline(self, ops) -> dict:
        lat = [o.seconds for o in ops]
        value, pct, beyond = tail(lat)
        return {"cli_p50_ms": (1e3 * statistics.median(lat), "ms", f"{len(lat)} commands"),
                "cli_tail_ms": (1e3 * value, "ms",
                                f"p{pct:.1f} of {len(lat)} commands, {beyond} beyond")}

    def layers(self, st: dict, tr, ops, passes: int) -> dict:
        out = {}
        for name in {n for n, _ in COMMANDS}:
            spans = tr.named("cli." + name)
            if spans:
                out[f"cli.{name.replace('-', '_')}_ms"] = \
                    1e3 * statistics.median(s["end"] - s["start"] for s in spans)
        return out
