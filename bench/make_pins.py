"""Write ``pins.json``: the output digest of every pinned batch of ops.

    python3 bench/make_pins.py

Runs, once and untimed, the reference round of ``words``, one pass of
``search`` and ``conceal`` and every row of ``centralizer``, and records the
digest of each pin key. ``run.py`` then reports, for every batch it runs,
whether the outputs still hash to the pinned digests. Rerun this only to
accept a deliberate change of the program's outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import harness
import run
from workloads import WORKLOADS


def main():
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    pins = {}
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            workload = cls(0, Path(work))
            run.setup(workload, harness.Pacer())
            digests = run.Digests({})
            tally = harness.Tally()
            if name == "centralizer":
                batches = [workload._row(g, i) for g, i in sorted(workload.rows)]
            else:
                batches = [next(workload.batches())]
            for batch in batches:
                run.run_batch(workload, batch, tally, harness.Pacer(), digests, float("inf"))
        if tally.failed:
            print(f"{name}: {tally.failed} failed verdicts, not pinning", file=sys.stderr)
            return 1
        pins[name] = dict(sorted(digests.found.items()))
        print(f"{name}: {len(pins[name])} pins from {tally.attempted} ops")
    with open(run.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
