"""`mesh` workload: chains on simplicial complexes.

One pass loads the h=0.05 and h=0.025 disk meshes from JSON, computes flat
norms of seeded random 1-chains on ``strip_complex(4)`` (branch and bound)
and ``strip_complex(32)`` (HiGHS) for p in {2, 3, 5}, and solves Plateau
problems mod 3 with 3-6 point terminals on the h=0.05 disk (Steiner DP)
and 9-10 terminals on the h=0.25 disk (MILP).  The MILP instances use the
h=0.25 disk because on the h=0.2 disk single solves range from 0.1 s to
over 14 s, which a run of a few passes cannot average.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time

import numpy as np

from common import GAP_TOL, tail

PRIMES = (2, 3, 5)
DP_TERMINALS = (4, 5, 6)
MILP_TERMINALS = (9, 10)
MILP_H = 0.25


def random_chain(rng, cx, lo: int, hi: int, density: float):
    import modp

    coeffs = {}
    for i in range(cx.n_simplices(1)):
        if rng.random() < density:
            c = int(rng.integers(lo, hi + 1))
            if c:
                coeffs[i] = c
    return modp.IntegerChain(cx, 1, coeffs)


def terminal_multiplicities(rng, k: int) -> list:
    """k nonzero multiplicities in {1, 2} summing to 0 mod 3."""
    twos = {0: 0, 1: 2, 2: 1}[k % 3]
    mult = [2] * twos + [1] * (k - twos)
    rng.shuffle(mult)
    return mult


class MeshWorkload:
    def __init__(self, modp, work, seed: int, small: bool):
        self.modp = modp
        self.work = work
        self.seed = seed
        self.small = small
        self.mesh_times: list[float] = []

    def setup(self) -> dict:
        from modp import fixtures

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        t0 = time.perf_counter()
        disks = {h: fixtures.disk_mesh(h) for h in (MILP_H, 0.05, 0.025)}
        self.mesh_times.append(time.perf_counter() - t0)
        files = {}
        for h in (0.05, 0.025):
            path = self.work / f"disk-{h}.json"
            path.write_text(json.dumps(disks[h][0].to_json()))
            files[h] = path
        return {"disks": disks, "files": files,
                "strip4": fixtures.strip_complex(4),
                "strip32": fixtures.strip_complex(32)}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    # -- one pass ----------------------------------------------------------

    def run_pass(self, st: dict, index: int, sess) -> None:
        modp = self.modp
        tr = sess.tracer
        rng = np.random.default_rng([self.seed, index])

        def load(path):
            data = json.loads(path.read_text())
            with tr.span("complexes.from_json"):
                return modp.SimplicialComplex.from_json(data)

        def flat(T, p):
            with tr.span("flatnorm.flat_norm_modp"):
                return T, p, modp.flat_norm_modp(T, p)

        def plateau(b, p):
            with tr.span("flatnorm.plateau_modp"):
                return b, modp.plateau_modp(b, p)

        # inputs first, so that only the calls are timed
        repeats = 1 if self.small else 2
        small_chains = [(random_chain(rng, st["strip4"], -2, 2, 0.6), p)
                        for p in PRIMES for _ in range(repeats)]
        big_chains = [] if self.small else \
            [(random_chain(rng, st["strip32"], -1, 1, 0.3), p) for p in PRIMES]
        cx05, info05 = st["disks"][0.05]
        dp = [(cx05, {t: 1 for t in info05["terminals"]})]
        for k in DP_TERMINALS[:1] if self.small else DP_TERMINALS:
            verts = rng.choice(len(cx05.vertices), k, replace=False)
            dp.append((cx05, dict(zip(map(int, verts), terminal_multiplicities(rng, k)))))
        cx2 = st["disks"][MILP_H][0]
        milp = []
        for k in () if self.small else MILP_TERMINALS:
            # k distinct vertices near jittered points on the circle of radius 0.7
            verts = []
            while len(set(verts)) < k:
                ang = rng.uniform(0, 2 * math.pi) + 2 * math.pi * np.arange(k) / k \
                    + rng.normal(0, 0.1, k)
                pts = 0.7 * np.c_[np.cos(ang), np.sin(ang)]
                verts = [int(np.argmin(np.linalg.norm(cx2.vertices - q, axis=1)))
                         for q in pts]
            milp.append((cx2, dict(zip(verts, terminal_multiplicities(rng, k)))))
        boundaries = [(f"{kind} T={len(c)}", modp.reduce_modp(modp.IntegerChain(cx, 0, c), 3))
                      for kind, group in (("plateau_dp", dp), ("plateau_milp", milp))
                      for cx, c in group]

        for h in (0.05,) if self.small else (0.05, 0.025):
            sess.op(f"load h={h}", load, st["files"][h])
        for T, p in small_chains:
            sess.op(f"flat_bb p={p}", flat, T, p)
        for T, p in big_chains:
            sess.op(f"flat_milp p={p}", flat, T, p)
        for kind, b in boundaries:
            sess.op(kind, plateau, b, 3)

    # -- checks --------------------------------------------------------------

    def check(self, st: dict, op) -> str | None:
        modp = self.modp
        kind = op.kind.split()[0]
        if kind == "load":
            cx = op.output
            ref = next(c for c, _ in st["disks"].values()
                       if c.n_simplices(0) == cx.n_simplices(0))
            same = all(cx.n_simplices(k) == ref.n_simplices(k) for k in (0, 1, 2))
            return None if same else "load: simplex counts differ from the mesh written"
        if kind in ("flat_bb", "flat_milp"):
            T, p, dec = op.output
            if kind == "flat_bb":
                oracle = modp.brute_force_flat_oracle(T, p, 3)
                if abs(dec.value - oracle) > 1e-8:
                    return f"flat_bb p={p}: value {dec.value} != oracle {oracle}"
            rebuilt = dec.R + p * dec.P
            if dec.Z is not None:
                rebuilt = rebuilt + modp.boundary(dec.Z)
            if rebuilt != T:
                return f"{op.kind}: T != R + dZ + pP"
            value = modp.mass(dec.R) + (modp.mass(dec.Z) if dec.Z is not None else 0.0)
            if abs(dec.value - value) > 1e-9:
                return f"{op.kind}: value {dec.value} != mass(R)+mass(Z) {value}"
            return None
        if kind in ("plateau_dp", "plateau_milp"):
            b, sol = op.output
            diff = modp.boundary(sol.chain) - b.representative
            if any(c % b.p for c in diff.coeffs.values()):
                return f"{op.kind}: chain does not bound b mod p"
            if not sol.optimality_gap <= GAP_TOL:
                return f"{op.kind}: optimality gap {sol.optimality_gap}"
            cx05, info05 = st["disks"][0.05]
            if b.representative.complex is cx05 and \
                    set(b.representative.coeffs) == set(info05["terminals"]):
                if abs(sol.mass - 3.0) > 2 * info05["h"]:
                    return f"equilateral Plateau mass {sol.mass} not within 2h of 3"
            return None
        return f"unknown op kind {op.kind}"

    # -- reporting -------------------------------------------------------------

    def headline(self, ops) -> dict:
        out = {}
        for name in ("flat", "plateau"):
            lat = [o.seconds for o in ops if o.kind.startswith(name)]
            if not lat:
                continue
            value, pct, beyond = tail(lat)
            out[f"{name}_p50_ms"] = (1e3 * statistics.median(lat), "ms", f"{len(lat)} ops")
            out[f"{name}_tail_ms"] = (1e3 * value, "ms",
                                      f"p{pct:.1f} of {len(lat)} ops, {beyond} beyond")
        return out

    def layers(self, st: dict, tr, ops, passes: int) -> dict:
        flat = [o.output[2] for o in ops if o.kind.startswith("flat") and o.output]
        plat = [o.output[1] for o in ops if o.kind.startswith("plateau") and o.output]
        loaded = [o.output for o in ops if o.kind.startswith("load") and o.output]
        return {
            "complexes.assemble_busy_s": tr.busy("complexes.from_json") / passes,
            "complexes.assemble_calls": len(tr.named("complexes.from_json")) / passes,
            "complexes.simplices": sum(cx.n_simplices(k) for cx in loaded
                                       for k in (0, 1, 2)) / passes,
            "flatnorm.flat_busy_s": tr.busy("flatnorm.flat_norm_modp") / passes,
            "flatnorm.flat_calls": len(tr.named("flatnorm.flat_norm_modp")) / passes,
            "flatnorm.flat_nodes": sum(d.nodes for d in flat) / passes,
            "flatnorm.plateau_busy_s": tr.busy("flatnorm.plateau_modp") / passes,
            "flatnorm.plateau_calls": len(tr.named("flatnorm.plateau_modp")) / passes,
            "flatnorm.plateau_nodes": sum(s.nodes for s in plat) / passes,
            "flatnorm.plateau_gap_max": max((s.optimality_gap for s in plat), default=0.0),
            "fixtures.mesh_s": statistics.median(self.mesh_times),
        }
