"""Record the output digests the benchmark compares at its default seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each named workload (all by default) once at ``DEFAULT_SEED``, checks
its outputs, and writes their sha256 digests to ``perfbench/digests.json``
together with the numpy version and CPU features they were made with.
Record again only for a change that is meant to change the outputs.
"""

from __future__ import annotations

import json
import sys

from run import HERE, Bench
from workloads import DEFAULT_SEED, WORKLOADS


def main(argv: list[str]) -> int:
    path = HERE / "digests.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    for name in argv or sorted(WORKLOADS):
        bench = Bench(HERE.parent, WORKLOADS[name], DEFAULT_SEED)
        _, ok, _, _ = bench.workload_run(DEFAULT_SEED, 1, traced=False)
        if not ok:
            print("\n".join(bench.tally.problems), file=sys.stderr)
            return 1
        doc["workloads"][name] = bench.tally.digests[DEFAULT_SEED]
        doc["recorded_with"] = {k: bench.info[k] for k in ("numpy", "cpu_features")}
        print(f"{name}: {doc['workloads'][name]}")
    doc["workloads"] = dict(sorted(doc["workloads"].items()))
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
