#!/usr/bin/env python3
"""Regenerate the correctness references in bench/reference from the current code.

    python3 bench/make_reference.py [workload ...]

The stored references were made on the seed commit.  Regenerate them only
for a change that is meant to move outputs beyond the gate's tolerance, and
say so in CHANGES.md.  A sweep is run once per seed variant.
"""

from __future__ import annotations

import json
import sys

import run


def _outputs(workload: str, variant: int) -> list:
    cycle = run.run_cycle(run.build_commands(workload, variant), None)
    if cycle.failed or None in cycle.outputs:
        raise SystemExit(f"{workload} variant {variant}: {cycle.failed} failed units")
    print(f"{workload} {variant}: {cycle.wall_s:.1f} s", file=sys.stderr, flush=True)
    return cycle.outputs


def reference_for(workload: str) -> dict:
    if workload == "theory_curves":
        (points,) = _outputs(workload, 0)
        if len(points) != run.FIG2_POINTS:
            raise SystemExit(f"fig2 wrote {len(points)} points, not {run.FIG2_POINTS}")
        return {"fig2": points}
    return {str(v): _outputs(workload, v) for v in range(run.SEED_VARIANTS)}


def main(workloads) -> None:
    run._pin_threads()
    sys.path.insert(0, str(run.SRC))
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in workloads or run.WORKLOADS:
        reference = reference_for(workload)
        with open(run.REFERENCE / f"{workload}.json", "w") as fh:
            json.dump(reference, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
