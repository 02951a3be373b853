#!/usr/bin/env python3
"""Compare the analysis fields of two `bench topo` artifacts.

    python3 bench/topo_pins.py BENCH_topo.json BENCH_topo_smoke.json

The route set of every built-in topology, its pruned and unsolved
counts, the joint and naive instruction-count bounds and the per-egress
routes and bounds come from symbolic analysis alone: they depend neither
on --quick nor on the host.  Any difference from the committed artifact
means the analysis changed what it derives, so the script prints each
differing field and exits 1.  Timing- and replay-dependent fields
(packets, contract_sound, worst_headroom_pct, provenance) are ignored.
"""

import json
import sys

FIELDS = ["routes", "infeasible_pruned", "unsolved", "joint_ic", "naive_ic",
          "tighter_pct"]


def pins(path):
    with open(path) as f:
        artifact = json.load(f)
    return {
        t["name"]: (
            {k: t[k] for k in FIELDS},
            {e["egress"]: (e["routes"], e["ic"]) for e in t["egresses"]},
        )
        for t in artifact["topologies"]
    }


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: topo_pins.py PINNED.json FRESH.json")
    pinned, fresh = pins(sys.argv[1]), pins(sys.argv[2])
    diffs = []
    for name in sorted(set(pinned) | set(fresh)):
        if name not in fresh or name not in pinned:
            side = "pinned" if name in pinned else "fresh"
            diffs.append(f"{name}: only in {side}")
            continue
        (fields, egresses), (fields2, egresses2) = pinned[name], fresh[name]
        for k in FIELDS:
            if fields[k] != fields2[k]:
                diffs.append(
                    f"{name}.{k}: pinned {fields[k]}, fresh {fields2[k]}")
        for e in sorted(set(egresses) | set(egresses2)):
            a, b = egresses.get(e), egresses2.get(e)
            if a != b:
                diffs.append(
                    f"{name} via {e} (routes, ic): pinned {a}, fresh {b}")
    for d in diffs:
        print("topo-pins: " + d)
    if diffs:
        sys.exit(1)
    print(f"topo-pins: {len(pinned)} topologies match {sys.argv[1]}")


if __name__ == "__main__":
    main()
