#!/usr/bin/env python3
"""Write the stored reference outputs that the benchmark's gates compare against.

    python3 perfbench/make_refs.py [--toy] [--workload NAME ...]

Run from the root of a source checkout.  For every input set of every
workload that compares against a stored output, it builds the inputs,
makes one call, and stores the reduced outcome in ``perfbench/refs/``.
Regenerate only when a change to the program is meant to change its
outputs, and say so in that change.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--toy", action="store_true")
    with_refs = sorted(name for name, w in wl.WORKLOADS.items() if w.has_reference)
    parser.add_argument("--workload", action="append", choices=with_refs)
    args = parser.parse_args(argv)
    wl.REF_DIR.mkdir(exist_ok=True)
    for name in args.workload or with_refs:
        workload = wl.WORKLOADS[name]
        arrays = {}
        for variant in range(wl.N_VARIANTS):
            prep = workload.build(workload.inputs(variant, args.toy))
            outcome = workload.outcome(prep, workload.call(prep))
            # Against itself the gate checks only what needs no reference
            # (dot-product residual, the study's pass flag).
            ok, detail = workload.check(outcome, outcome)
            print(f"{name} input set {variant}: {detail}")
            if not ok:
                print(f"{name} input set {variant} fails its own gate; nothing written",
                      file=sys.stderr)
                return 1
            arrays.update({f"v{variant}.{key}": value for key, value in outcome.items()})
        np.savez_compressed(wl.ref_path(name, args.toy), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
