"""Untimed allocation pass: tracemalloc peak of one chunk-sized gradient call per spec.

    python perfbench/alloc.py CONFIG.json

Reads a SimConfig JSON, takes the first 8,192 cases of its population (one
descent chunk), and prints a JSON object mapping each spec label to the
tracemalloc peak of one ``eval_batch(..., with_grad=True)`` call divided by
the rows. It runs in its own process, so tracemalloc never touches a timed
run; the numbers repeat exactly, so they are counts, not timings.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

CHUNK_CASES = 8192


def main(argv: list[str]) -> int:
    from ioulab import SimConfig, eval_batch, generate_case_arrays

    with open(argv[0], encoding="utf-8") as f:
        cfg = SimConfig.from_dict(json.load(f))
    anchors, targets = generate_case_arrays(cfg)
    anchors, targets = anchors[:CHUNK_CASES].copy(), targets[:CHUNK_CASES].copy()
    rows = anchors.shape[0]
    for spec in cfg.specs:  # warm-up: keep first-call effects out of the counts
        eval_batch(spec, anchors, targets, with_grad=True)

    out = {}
    tracemalloc.start()
    try:
        for spec in cfg.specs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = eval_batch(spec, anchors, targets, with_grad=True)
            out[spec.label()] = (tracemalloc.get_traced_memory()[1] - base) / rows
            del result
    finally:
        tracemalloc.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
