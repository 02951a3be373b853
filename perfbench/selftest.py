#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload, untraced and traced.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload named in BENCHMARK.json it runs a one-second
benchmark with --trace 0 and --trace 1 and checks that the last line of
output is the result object with exactly the expected keys, that every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json is
present with its unit and nothing else is, that end-to-end values are
positive, that the per-layer metrics perfbench/layers.json lists for the
workload read non-zero, that the parts-sum residual stays within its
spread, and that the run is correct with no failed operation.  It also
checks that perfbench/layers.json, which the benchmark reads for the
per-layer names and units, names the same metrics with the same units as
BENCHMARK.json.  Exits non-zero on the first problem.
"""

import json
import math
import subprocess
import sys


def fail(msg):
    sys.exit(f"selftest: {msg}")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace} printed nothing")
    return json.loads(lines[-1])


# Per-layer values that may legitimately read 0 where they apply: signed
# differences and residuals, and a share that is 0 on the churn NAT.
MAY_BE_ZERO = {"obs.trace_overhead_pct", "trace.parts_residual_pct",
               "hw.realistic.ns_per_pkt", "distiller.record_ns_per_pkt",
               "exec.fast_path_share"}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/layers.json") as f:
        rows = json.load(f)
    layers = {row["name"]: row["workloads"] for row in rows}
    if [(r["name"], r["unit"]) for r in rows] != \
            [(m["name"], m["unit"]) for m in bench["per_layer"]]:
        fail("perfbench/layers.json and BENCHMARK.json list different "
             "per-layer metrics or units")
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w["name"], trace)
            where = f"{w['name']} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(res)}")
            if res["correct"] is not True or res["failed"] != 0:
                fail(f"{where}: not correct ({res['failed']} failed)")
            if not isinstance(res["attempted"], int) or res["attempted"] < 1:
                fail(f"{where}: attempted {res['attempted']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = res["metrics"]
            if set(got) != set(want):
                fail(f"{where}: missing {sorted(set(want) - set(got))}, "
                     f"unexpected {sorted(set(got) - set(want))}")
            for name, m in got.items():
                if m.get("unit") != want[name]:
                    fail(f"{where}: {name} unit {m.get('unit')} != {want[name]}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail(f"{where}: {name} value {v!r}")
                if trace == 0 and v <= 0:
                    fail(f"{where}: end-to-end {name} is {v}")
                applies = trace == 1 and w["name"] in layers[name]
                if applies and v == 0 and name not in MAY_BE_ZERO:
                    fail(f"{where}: {name} reads 0")
            if trace == 1:
                residual = got["trace.parts_residual_pct"]["value"]
                spread = got["trace.parts_spread_pct"]["value"]
                if abs(residual) > max(spread, 1.0):
                    fail(f"{where}: parts leave {residual:.2f}% of the whole, "
                         f"beyond its spread {spread:.2f}%")
            print(f"ok {where}: {len(got)} metrics, "
                  f"{res['attempted']} operations")


if __name__ == "__main__":
    main()
