"""Scan descent step sizes for stability and convergence ordering.

For each candidate step this descends a subsampled case population in
both scenarios under every base loss and its auxiliary variant, then
reports two things per run: the worst between-iteration rise of any
spec's total error as a fraction of its starting value (terminal jitter
from the fixed step; large values mean the step overshoots), and for
which bases the auxiliary variant finished with lower total error than
the plain loss. This is the evidence behind the tuned steps in
ioulab.SCENARIOS.
"""

import argparse

import numpy as np

from ioulab import BASE_NAMES, SCENARIOS, LossSpec, SimConfig, run_simulation, scenario_config
from ioulab.cli import numbers_arg
from ioulab.losses import whole_number


def scan_one(name: str, cfg: SimConfig, threads: int) -> None:
    summaries = run_simulation(cfg, threads=threads)
    finals = {s.label: float(s.total_error_curve[-1]) for s in summaries}

    worst_rise = 0.0
    diverged = []
    for s in summaries:
        curve = np.asarray(s.total_error_curve)
        worst_rise = max(worst_rise, float(np.max(np.diff(curve)) / curve[0]))
        if curve[-1] > curve[0]:
            diverged.append(s.label)
    slower = [
        base
        for base in BASE_NAMES
        if finals[LossSpec(base, inner=SCENARIOS[name]["ratio"]).label()] >= finals[base]
    ]
    print(
        f"  step {cfg.step_size:4.2f}  {name:>4}  worst rise {max(worst_rise, 0.0):8.1e}  "
        f"auxiliary faster for {len(BASE_NAMES) - len(slower)}/{len(BASE_NAMES)}"
        + (f" (not {','.join(slower)})" if slower else "")
        + (f"  DIVERGED: {','.join(diverged)}" if diverged else "")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--steps",
        type=numbers_arg,
        default=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
        metavar="S[,S...]",
    )
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=0)
    args = parser.parse_args()
    fields = dict(n_points=args.points, iterations=args.iterations, seed=args.seed)
    # SimConfig checks every field, and whole_number the thread count as
    # run_simulation does, so a bad setting is a usage error before any run
    try:
        whole_number("threads", args.threads, 0)
        runs = [
            (name, scenario_config(name, step_size=step, **fields))
            for name in SCENARIOS
            for step in args.steps
        ]
    except ValueError as exc:
        parser.error(str(exc))

    print(f"{runs[0][1].case_count} cases per run, {args.iterations} iterations")
    for name, cfg in runs:
        scan_one(name, cfg, args.threads)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
