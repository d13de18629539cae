"""Command line interface: file I/O and dispatch into the library modules.

Exit codes: 0 success, 2 validation error, 3 solver failure.  Every run
emits a ``meta`` block recording the defaulted conventions so outputs are
self-describing; all numeric output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .books import (ConeModP, NotCoherentError, OpenBook, VarifoldSample, coherence_angle,
                    density_ratio, excess)
from .complexes import IntegerChain, ModPClass, SimplicialComplex, reduce_modp
from .cones import (BALANCE_TOL, JUNCTION_MERGE_TOL, RayConfiguration, check_structure,
                    solve_network)
from .fixtures import FIXTURE_NAMES, make_fixture
from .flatnorm import brute_force_flat_oracle, flat_norm_modp, plateau_modp
from .monotonicity import density_profile
from .taylor import (RevolvedCurrent, WeightedMetric, build_taylor_example, decay_scan,
                     tangent_book_at)
from .whitney import build_decomposition, whitney_domain


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _meta(args, **conventions) -> dict:
    meta = {"version": __version__,
            "seed": getattr(args, "seed", 0)}
    meta.update(conventions)
    return meta


def _emit(payload, out_path=None):
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _region_from_json(data):
    return {int(k): set(v) for k, v in data.items()}


def cmd_flat_norm(args) -> int:
    cx = SimplicialComplex.from_json(_load_json(args.complex))
    T = IntegerChain.from_json(cx, _load_json(args.chain))
    region = _region_from_json(_load_json(args.region)) if args.region else None
    dec = flat_norm_modp(T, args.p, region)
    payload = {"value": dec.value, "gap": dec.optimality_gap, "nodes": dec.nodes,
               "witness": {"R": dec.R.to_json(),
                           "Z": dec.Z.to_json() if dec.Z is not None else None,
                           "P": dec.P.to_json()},
               "meta": _meta(args)}
    if args.oracle:
        payload["oracle_value"] = brute_force_flat_oracle(T, args.p, args.bound, region)
    _emit(payload, args.out)
    return 0


def cmd_plateau(args) -> int:
    cx = SimplicialComplex.from_json(_load_json(args.complex))
    b = IntegerChain.from_json(cx, _load_json(args.boundary))
    sol = plateau_modp(reduce_modp(b, args.p), args.p, time_limit=args.time_limit)
    _emit({"value": sol.mass, "gap": sol.optimality_gap, "nodes": sol.nodes,
           "witness": sol.chain.to_json(),
           "meta": _meta(args, time_limit=args.time_limit)}, args.out)
    return 0


def cmd_classify_cone(args) -> int:
    data = _load_json(args.config)
    if args.p is not None:
        data["p"] = args.p
    cfg = RayConfiguration.from_json(data)
    rep = check_structure(cfg)
    _emit({"balanced": rep.balanced, "sum_is_p": rep.sum_is_p,
           "multiplicity_bounds": rep.multiplicity_bounds,
           "enough_rays": rep.enough_rays, "all_ok": rep.all_ok,
           "balance_residual": rep.balance_residual,
           "meta": _meta(args, balance_tolerance=BALANCE_TOL)}, args.out)
    return 0


def cmd_solve_network(args) -> int:
    spec = _load_json(args.terminals)
    terms = [(t["point"], t["multiplicity"]) for t in spec["terminals"]]
    weight = "euclidean" if args.weight == "euclidean" else WeightedMetric(args.weight)
    net = solve_network(terms, args.p, weight=weight, seed=args.seed)
    payload = net.to_json()
    payload["meta"] = _meta(args, weight=args.weight,
                            junction_merge_tolerance=JUNCTION_MERGE_TOL)
    _emit(payload, args.out)
    return 0


def cmd_taylor(args) -> int:
    angles = _parse_floats(args.angles)
    R = build_taylor_example(args.p, angles, radius=args.radius,
                             weight=args.weight, delta=args.delta,
                             seed=args.seed)
    payload = R.to_json()
    payload["meta"] = _meta(args, weight_convention=args.weight,
                            delta=args.delta)
    _emit(payload, args.out)
    return 0


def cmd_decay_scan(args) -> int:
    R = RevolvedCurrent.from_json(_load_json(args.surface))
    c = R.singular_circles[0]
    q = (c["x"], 0.0, c["y"])
    rows = decay_scan(R, q, _parse_floats(args.radii), with_flat=not args.no_flat)
    with open(args.csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "excess", "flat_distance", "fitted_C"])
        for row in rows:
            w.writerow([row["r"], row["excess"],
                        "" if row["flat_distance"] is None else row["flat_distance"],
                        row["fitted_C"]])
    _emit({"rows": len(rows), "csv": args.csv, "meta": _meta(args)}, args.out)
    return 0


def cmd_whitney(args) -> int:
    dec = build_decomposition(args.m, args.M, args.depth)
    if args.excess_from:
        R = RevolvedCurrent.from_json(_load_json(args.excess_from))
        c = R.singular_circles[0]
        book = tangent_book_at(R, np.array([c["x"], 0.0, c["y"]]))

        def oracle(y, radius):
            # wrap the spine coordinate around the singular circle
            ang = y[0] / c["x"]
            q = np.array([c["x"] * math.cos(ang), c["x"] * math.sin(ang), c["y"]])
            return excess(R.sample, book, q, radius)
    else:
        def oracle(y, radius):
            return 0.0

    W = whitney_domain(oracle, args.tau, dec)
    with open(args.csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "row", *[f"j{a}" for a in range(args.m - 1)],
                    "excess", "member"])
        for k in range(dec.depth):
            for cube in dec.cubes(k):
                w.writerow([cube.k, cube.i, *cube.j, W.column_excess[(cube.k, cube.j)],
                            int(W.is_member(cube))])
    _emit({"member_cubes": len(W), "csv": args.csv,
           "meta": _meta(args, path_tie_break="lexicographic")}, args.out)
    return 0


def cmd_monotonicity(args) -> int:
    sample = VarifoldSample.from_json(_load_json(args.sample))
    center = _parse_floats(args.center)
    radii = _parse_floats(args.radii)
    prof = density_profile(sample, center, radii)
    with open(args.csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "density_ratio"])
        for r, d in zip(radii, prof):
            w.writerow([r, d])
    _emit({"rows": len(radii), "csv": args.csv,
           "meta": _meta(args, tolerance=f"3*delta={3 * sample.delta}")},
          args.out)
    return 0


def cmd_excess(args) -> int:
    sample = VarifoldSample.from_json(_load_json(args.sample))
    book = OpenBook.from_json(_load_json(args.book))
    val = excess(sample, book, _parse_floats(args.center), args.radius)
    _emit({"excess": val, "meta": _meta(args)}, args.out)
    return 0


def cmd_coherence(args) -> int:
    C = ConeModP.from_json(_load_json(args.book))
    C0 = ConeModP.from_json(_load_json(args.book0))
    try:
        val = coherence_angle(C, C0)
    except NotCoherentError as exc:
        _emit({"error": str(exc), "meta": _meta(args)}, args.out)
        return 3
    _emit({"coherence_angle": val,
           "meta": _meta(args, rotation_tie_break="smallest angle")}, args.out)
    return 0


def cmd_density(args) -> int:
    sample = VarifoldSample.from_json(_load_json(args.sample))
    val = density_ratio(sample, _parse_floats(args.center), args.radius)
    _emit({"density_ratio": val, "meta": _meta(args)}, args.out)
    return 0


def cmd_make_fixture(args) -> int:
    if args.name not in FIXTURE_NAMES:
        sys.stderr.write("unknown fixture; catalogue: "
                         + ", ".join(FIXTURE_NAMES) + "\n")
        return 2
    written = make_fixture(args.name, args.out or ".", h=args.h)
    _emit({"written": written, "meta": _meta(args)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modp",
                                 description="integral currents mod p at desk scale")
    sub = ap.add_subparsers(dest="command")

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("flat-norm", cmd_flat_norm)
    p.add_argument("--complex", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--bound", type=int, default=3)

    p = add("plateau", cmd_plateau)
    p.add_argument("--complex", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=120.0)

    p = add("classify-cone", cmd_classify_cone)
    p.add_argument("--config", required=True)
    p.add_argument("--p", type=int, default=None)

    p = add("solve-network", cmd_solve_network)
    p.add_argument("--terminals", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--weight", default="euclidean", choices=["euclidean", "x", "sqrtx"])

    p = add("taylor", cmd_taylor)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--weight", default="x", choices=["x", "sqrtx"])
    p.add_argument("--delta", type=float, default=0.02)

    p = add("decay-scan", cmd_decay_scan)
    p.add_argument("--surface", required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--no-flat", action="store_true")

    p = add("whitney", cmd_whitney)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--excess-from", default=None)
    p.add_argument("--csv", required=True)

    p = add("monotonicity", cmd_monotonicity)
    p.add_argument("--sample", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--csv", required=True)

    p = add("excess", cmd_excess)
    p.add_argument("--sample", required=True)
    p.add_argument("--book", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=float, required=True)

    p = add("coherence", cmd_coherence)
    p.add_argument("--book", required=True)
    p.add_argument("--book0", required=True)

    p = add("density", cmd_density)
    p.add_argument("--sample", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=float, required=True)

    p = add("make-fixture", cmd_make_fixture)
    p.add_argument("name")
    p.add_argument("--h", type=float, default=0.2)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
