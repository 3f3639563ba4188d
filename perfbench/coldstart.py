"""One cold launch: import the CLI, build task 0's inputs, run task 0.

Started by ``run.py`` in a fresh interpreter.  Prints one JSON line with
monotonic timestamps (comparable with the parent's clock) taken after the
import and after the inputs are built, the first task's wall time, and the
task's failed verifications.
"""

from __future__ import annotations

import argparse
import json
import time

import checkout


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    checkout.pin_blas_threads()
    checkout.use_checkout_sources()

    import geoquant.cli  # noqa: F401  (what every ``geoquant <demo>`` run imports)
    imported = time.monotonic()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, 0)
    ready = time.monotonic()
    start = time.perf_counter()
    verifications = wl.run(inputs)
    first_task_s = time.perf_counter() - start
    print(json.dumps({
        "imported": imported,
        "ready": ready,
        "first_task_s": first_task_s,
        "verifications": len(verifications),
        "failures": [[v.step, v.check] for v in verifications if not v.passed],
    }))


if __name__ == "__main__":
    main()
