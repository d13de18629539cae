#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once at minimal size with tracing, so that both an
untraced reference pass and a traced pass execute.  For each workload it
asserts that every end-to-end and per-module metric is printed with the
unit ``BENCHMARK.json`` gives it, that the minimal run has no failures,
and that an output the test corrupts on purpose is counted as failed.
Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from argparse import Namespace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from common import ROOT  # noqa: E402

HEADLINE = {"mesh": {"flat_p50_ms", "flat_tail_ms", "plateau_p50_ms", "plateau_tail_ms"},
            "surface": {"network_p50_ms", "taylor_build_s", "decay_scan_s",
                        "whitney_domain_s"},
            "cli": {"cli_p50_ms", "cli_tail_ms"}}


def corrupt(workload: str, op) -> bool:
    """Spoil the output of one op of a kind the workload checks; False if
    the op is not of that kind."""
    if workload == "mesh" and op.kind.startswith("flat_bb"):
        T, p, dec = op.output
        op.output = (T, p, dataclasses.replace(dec, value=dec.value + 1.0))
    elif workload == "surface" and op.kind == "density":
        op.output = op.output + 1.0
    elif workload == "cli" and op.kind == "flat-norm":
        code, out, err = op.output
        data = json.loads(out)
        data["value"] = 0.75
        op.output = (code, json.dumps(data), err)
    else:
        return False
    return True


def printed(text: str) -> dict:
    """name -> unit for every metric line ``name value unit``."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "{")):
            float(parts[1])
            out[parts[0]] = parts[2]
    return out


def check_workload(workload: str, bench: dict) -> None:
    res = run.measure(workload, seed=1, seconds=0, trace=True, small=True)
    prov = run.provenance(Namespace(workload=workload, seed=1, seconds=0, trace=1),
                          sys.modules["modp"])
    try:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            args = Namespace(workload=workload, seed=1, seconds=0, trace=trace)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                line = run.report(args, res, prov)
            text = buf.getvalue()
            units = printed(text)
            for m in declared:
                assert units.get(m["name"]) == m["unit"], (workload, m["name"], units)
                value = line["metrics"][m["name"]]
                assert value["unit"] == m["unit"] and math.isfinite(value["value"])
            assert set(line["metrics"]) == {m["name"] for m in declared}
            for name in HEADLINE[workload] | {"failed_frac", "op_p50_ms", "op_tail_ms"}:
                assert f"# {name} " in text, (workload, name)
            assert line["correct"] and line["failed"] == 0, (workload, res["failures"])
            assert line["attempted"] >= 1

        ops = res["ops"]
        target = next(op for op in ops if corrupt(workload, op))
        bad = run.failures(res["wl"], res["state"], ops)
        assert set(bad) == {target.op_id}, (workload, bad)
        frac = len(bad) / len(ops)
        assert frac > 0
        print(f"selftest {workload}: ok ({len(ops)} ops, corrupted op counted, "
              f"failed_frac {frac:.3f})")
    finally:
        res["wl"].close()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        check_workload(workload, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
