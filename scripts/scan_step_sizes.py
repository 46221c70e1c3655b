"""Scan descent step sizes for stability and convergence ordering.

For each candidate step this descends a subsampled case population in
both scenarios under every base loss and its auxiliary variant, then
reports two things per run: the worst between-iteration rise of any
spec's total error as a fraction of its starting value (terminal jitter
from the fixed step; large values mean the step overshoots), and for
which bases the auxiliary variant finished with lower total error than
the plain loss. This is the evidence behind the tuned steps in
ioulab.simlab.SCENARIOS.
"""

import argparse

import numpy as np

from ioulab import BASE_NAMES, SCENARIOS, SimConfig, run_simulation, scenario_specs


def parse_steps(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def scan_one(name: str, preset: dict, step: float, args) -> None:
    cfg = SimConfig(
        specs=scenario_specs(preset["ratio"]),
        radius=preset["radius"],
        n_points=args.points,
        iterations=args.iterations,
        step_size=step,
        seed=args.seed,
    )
    summaries = run_simulation(cfg, threads=args.threads)
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
        if finals[f"inner-{base}({preset['ratio']:g})"] >= finals[base]
    ]
    print(
        f"  step {step:4.2f}  {name:>4}  worst rise {max(worst_rise, 0.0):8.1e}  "
        f"auxiliary faster for {6 - len(slower)}/6"
        + (f" (not {','.join(slower)})" if slower else "")
        + (f"  DIVERGED: {','.join(diverged)}" if diverged else "")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--steps",
        type=parse_steps,
        default=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
        metavar="S[,S...]",
    )
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=0)
    args = parser.parse_args()

    cases = SimConfig(specs=(), n_points=args.points).case_count
    print(f"{cases} cases per run, {args.iterations} iterations")
    for name, preset in SCENARIOS.items():
        for step in args.steps:
            scan_one(name, preset, step, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
