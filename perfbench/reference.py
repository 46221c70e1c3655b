"""Reference job: a fixed amount of numpy and Python work that does not use ioulab.

    python perfbench/reference.py

The benchmark runs it as a child process right before each run of the
workload's command, and reports the median over these pairs of the
command's wall and CPU time divided by this job's. The host's speed drifts
by tens of percent over minutes, and the drift moves both alike, so the
ratios hold still where the seconds do not. Nothing here may change: a
change to the amount or kind of work rescales every ratio.

The work resembles the workloads' mix, so that a slow phase of the host
(a busy shared cache, say) slows it as much as them: elementwise numpy on
8,192 x 4 float64 arrays (one descent chunk) with many temporaries alive
at once, then one Python record per sample written out as a CSV line of
``.17g`` floats, into ``reference.csv`` in the working directory. It prints
the row count and a checksum of the file.
"""

from __future__ import annotations

import csv
import zlib

import numpy as np

CHUNK_ROWS = 8192
NUMPY_ROUNDS = 50
TEMPORARIES = 24
ROWS = 12_000
FIELDS = 11


def main() -> int:
    rng = np.random.default_rng(20231105)
    a = rng.random((CHUNK_ROWS, 4)) + 0.5
    b = rng.random((CHUNK_ROWS, 4)) + 0.5
    total = np.zeros(CHUNK_ROWS)
    for _ in range(NUMPY_ROUNDS):
        temps = [a * b + a]
        for k in range(1, TEMPORARIES):
            temps.append(np.sqrt(temps[-1] + b) / (temps[k // 2] + 1.0))
        total += np.maximum(temps[-1], temps[TEMPORARIES // 2]).sum(axis=1)
        a = np.where(temps[-1] > 1.0, a * 0.999, a + 0.001)

    records = [
        {"x": i / ROWS, "values": [float(total[(i + j) % CHUNK_ROWS]) / (i + j + 1)
                                   for j in range(FIELDS)]}
        for i in range(ROWS)
    ]
    with open("reference.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        for rec in records:
            w.writerow([format(rec["x"], ".17g")] + [format(v, ".17g") for v in rec["values"]])
    with open("reference.csv", "rb") as f:
        print(len(records), zlib.crc32(f.read()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
