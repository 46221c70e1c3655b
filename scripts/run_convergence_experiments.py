"""Run the two regression convergence experiments and print the outcome.

Each scenario descends 34,300 synthetic anchor/target cases for 200
iterations under every base loss and its auxiliary-box variant, then
compares the final total corner error of the pair. Configs are written
next to the outputs so any run can be reproduced byte for byte with
``ioulab sim --config <dir>/config.json --out <dir>``.
"""

import argparse
import csv
import json
from pathlib import Path

from ioulab import BASE_NAMES, SCENARIOS, SimConfig, scenario_specs
from ioulab.cli import main as ioulab_main


def final_totals(summary_csv: Path) -> dict[str, float]:
    finals: dict[str, float] = {}
    with summary_csv.open(newline="") as fh:
        for row in csv.DictReader(fh):
            # rows are ordered by iteration, so the last one wins
            finals[row["spec"]] = float(row["total_error"])
    return finals


def report(name: str, finals: dict[str, float], ratio: float) -> None:
    print(f"\n{name}: final total error after descent")
    print(f"  {'base':>4}  {'plain':>14}  {'auxiliary':>14}  verdict")
    for base in BASE_NAMES:
        plain = finals[base]
        inner = finals[f"inner-{base}({ratio:g})"]
        verdict = "auxiliary faster" if inner < plain else "no improvement"
        print(f"  {base:>4}  {plain:14.4f}  {inner:14.4f}  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiments/convergence", metavar="DIR")
    parser.add_argument("--points", type=int, default=100)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=0)
    args = parser.parse_args()

    for name, preset in SCENARIOS.items():
        out_dir = Path(args.out) / name
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = SimConfig(
            specs=scenario_specs(preset["ratio"]),
            radius=preset["radius"],
            n_points=args.points,
            iterations=args.iterations,
            step_size=preset["step_size"],
            seed=args.seed,
        )
        cfg_path = out_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict(), indent=2) + "\n")
        code = ioulab_main(
            [
                "sim",
                "--config",
                str(cfg_path),
                "--out",
                str(out_dir),
                "--threads",
                str(args.threads),
            ]
        )
        if code != 0:
            return code
        report(name, final_totals(out_dir / "summary.csv"), preset["ratio"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
