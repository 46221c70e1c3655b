"""The two benchmark workloads: their inputs, their ioulab commands and their output checks.

Every workload is a closed loop: one client runs one ``ioulab`` command at a
time in a fresh child process and waits for it to finish. Inputs come from
the workload seed only, and the amount of work does not depend on the seed,
so medians from different seeds are comparable.

A check returns a list of problems; an empty list means the run's outputs
are correct. Invariant checks hold at every seed. At ``DEFAULT_SEED`` the
output files must also match the sha256 digests in ``digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
CHUNK_CASES = 8192  # rows per descent chunk in ioulab.simlab
BASES = ("iou", "giou", "diou", "ciou", "eiou", "siou")
# Per-spec metric suffixes; a workload fixes the auxiliary ratio, so it is not part of them.
SPEC_KEYS = tuple(f"{p}{b}" for b in BASES for p in ("", "inner-"))
# SimConfig's default grid: 7 target aspects x 7 anchor scales x 7 anchor aspects.
CASES_PER_POINT = 7 * 7 * 7
# Every row of a large CSV is counted and scanned for non-finite values; every
# _SAMPLE_STRIDE-th row (and the last) is also parsed and range-checked.
_SAMPLE_STRIDE = 997


def _label(base: str, ratio: float | None) -> str:
    return base if ratio is None else f"inner-{base}({ratio:g})"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


@dataclass
class _Scan:
    header: list[str]
    rows: int  # data rows after the header
    sampled: dict[int, list[str]]  # data row index -> fields: every _SAMPLE_STRIDE-th and the last
    non_finite: bool
    ends_with_newline: bool


def _scan_csv(path: Path) -> _Scan:
    """Read a CSV one line at a time.

    The benchmark process must stay small: on Linux a child's ru_maxrss
    starts from its parent's peak RSS, so holding a large output here would
    raise every later run's peak_rss_mb.
    """
    sampled: dict[int, bytes] = {}
    non_finite = False
    i, line = -1, b"\n"
    with open(path, "rb") as f:
        header = f.readline()
        for i, line in enumerate(f):
            # format(x, ".17g") writes a non-finite float as nan, inf or -inf.
            if b"nan" in line or b"inf" in line:
                non_finite = True
            if i % _SAMPLE_STRIDE == 0:
                sampled[i] = line
    if i >= 0:
        sampled[i] = line
    fields = {k: v.decode("utf-8").rstrip("\n").split(",") for k, v in sampled.items()}
    return _Scan(
        header=header.decode("utf-8").rstrip("\n").split(","),
        rows=i + 1,
        sampled=fields,
        non_finite=non_finite,
        ends_with_newline=line.endswith(b"\n"),
    )


def _scan_problems(scan: _Scan, name: str, header: list[str], rows: int) -> list[str]:
    problems = []
    if scan.header != header:
        problems.append(f"{name} header is {scan.header}")
    if scan.rows != rows:
        problems.append(f"{name} has {scan.rows} rows, expected {rows}")
    if not scan.ends_with_newline:
        problems.append(f"{name} does not end with a newline")
    if scan.non_finite:
        problems.append(f"{name} holds a non-finite value")
    return problems


@dataclass(frozen=True)
class SimWorkload:
    """``ioulab sim --config`` on one scenario preset."""

    name: str
    why: str
    radius: tuple[float, float]
    ratio: float
    step_size: float
    bases: tuple[str, ...]
    n_points: int
    iterations: int

    @property
    def labels(self) -> list[str]:
        return [_label(b, r) for b in self.bases for r in (None, self.ratio)]

    @property
    def cases(self) -> int:
        return CASES_PER_POINT * self.n_points

    @property
    def pair_evals(self) -> int:
        return self.cases * len(self.labels) * self.iterations

    def input_size(self) -> dict:
        return {
            "cases": self.cases,
            "specs": len(self.labels),
            "iterations": self.iterations,
            "chunks_per_spec": -(-self.cases // CHUNK_CASES),
            "pair_evals": self.pair_evals,
            "chunk_box_array_bytes": CHUNK_CASES * 4 * 8,
            "population_box_array_bytes": self.cases * 4 * 8,
        }

    def config(self, seed: int) -> dict:
        specs = []
        for base in self.bases:
            specs.append({"base": base})
            specs.append({"base": base, "inner": self.ratio})
        return {
            "specs": specs,
            "radius": list(self.radius),
            "n_points": self.n_points,
            "iterations": self.iterations,
            "step_size": self.step_size,
            "seed": seed,
        }

    def prepare(self, run_dir: Path, seed: int) -> Path:
        path = run_dir / "config.json"
        path.write_text(json.dumps(self.config(seed), indent=2) + "\n", encoding="utf-8")
        return path

    def argv(self, run_dir: Path, seed: int, threads: int) -> list[str]:
        return [
            "sim", "--config", str(self.prepare(run_dir, seed)), "--out", str(run_dir / "out"),
            "--threads", str(threads),
        ]

    def outputs(self, run_dir: Path) -> dict[str, Path]:
        """Files whose digests are compared; manifest.json carries a timestamp."""
        return {"summary.csv": run_dir / "out" / "summary.csv"}

    def written(self, run_dir: Path) -> list[Path]:
        return sorted(p for p in (run_dir / "out").iterdir() if p.is_file())

    def check(self, run_dir: Path, seed: int, stdout: str) -> list[str]:
        problems: list[str] = []
        out = run_dir / "out"
        labels = self.labels
        try:
            with open(out / "summary.csv", encoding="utf-8", newline="") as f:
                rows = list(csv.reader(f))
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"cannot read outputs: {exc}"]

        if rows[:1] != [["spec", "iteration", "total_error"]]:
            problems.append(f"summary.csv header is {rows[:1]}")
        body = rows[1:]
        expected = [(lab, str(it)) for lab in labels for it in range(self.iterations + 1)]
        if [tuple(r[:2]) for r in body] != expected:
            problems.append(
                f"summary.csv has {len(body)} rows, expected {len(expected)} in spec/iteration order"
            )
        elif not all(len(r) == 3 and _finite(r[2]) and float(r[2]) >= 0.0 for r in body):
            problems.append("summary.csv has a negative or non-finite total_error")
        else:
            # Every spec starts from the same population, so iteration 0 agrees exactly.
            firsts = {r[2] for r in body if r[1] == "0"}
            if len(firsts) != 1:
                problems.append(f"iteration-0 totals differ across specs: {sorted(firsts)}")

        if manifest.get("n_cases") != self.cases:
            problems.append(f"manifest n_cases {manifest.get('n_cases')} != {self.cases}")
        if manifest.get("seed") != seed:
            problems.append(f"manifest seed {manifest.get('seed')} != {seed}")
        if manifest.get("spec_list") != labels:
            problems.append(f"manifest spec_list {manifest.get('spec_list')} != {labels}")
        if f"({len(labels)} specs, {self.cases} cases)" not in stdout:
            problems.append("stdout lacks the summary line")

        return problems


@dataclass(frozen=True)
class SweepWorkload:
    """``ioulab sweep`` at a dense sample count.

    The seed picks the sweep axis and widens the deviation range by up to
    one unit on each side; the sample count, and so the work, is fixed.
    """

    name: str
    why: str
    samples: int
    aux_sides: tuple[float, ...]
    box_side: float = 10.0

    @property
    def sides(self) -> list[float]:
        return [self.box_side] + [s for s in self.aux_sides if s != self.box_side]

    @property
    def pair_evals(self) -> int:
        return self.samples * len(self.sides)

    def input_size(self) -> dict:
        return {
            "samples": self.samples,
            "curves": len(self.sides),
            "pair_evals": self.pair_evals,
            "box_array_bytes": self.samples * 4 * 8,
        }

    def ranges(self, seed: int) -> tuple[str, float, float]:
        rng = random.Random(seed)
        axis = rng.choice(("x", "y"))
        return axis, -15.0 - rng.random(), 15.0 + rng.random()

    def argv(self, run_dir: Path, seed: int, threads: int) -> list[str]:
        axis, lo, hi = self.ranges(seed)
        return [
            "sweep",
            "--samples", str(self.samples),
            "--aux-sides", ",".join(f"{s:g}" for s in self.aux_sides),
            "--box-side", f"{self.box_side:g}",
            "--axis", axis,
            f"--dev-min={lo!r}",
            f"--dev-max={hi!r}",
            "--out", str(run_dir / "sweep.csv"),
            "--report", str(run_dir / "report.json"),
        ]

    def outputs(self, run_dir: Path) -> dict[str, Path]:
        return {"sweep.csv": run_dir / "sweep.csv", "report.json": run_dir / "report.json"}

    def written(self, run_dir: Path) -> list[Path]:
        return list(self.outputs(run_dir).values())

    def check(self, run_dir: Path, seed: int, stdout: str) -> list[str]:
        try:
            scan = _scan_csv(run_dir / "sweep.csv")
            report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"cannot read outputs: {exc}"]
        problems = []
        try:
            printed = json.loads(stdout)
        except ValueError:
            printed = None
        if printed != report:
            problems.append("printed report differs from report.json")
        if report.get("all_passed") is not True:
            problems.append("sweep conclusions did not all pass")
        for key, c in sorted(report.get("conclusions", {}).items()):
            if c.get("vacuous") or c.get("checked", 0) < 1:
                problems.append(f"conclusion {key} checked nothing")

        header = ["deviation"] + [f"{k}_{s:g}" for s in self.sides for k in ("iou", "absgrad")]
        problems += _scan_problems(scan, "sweep.csv", header, self.samples)
        if problems:
            return problems
        _, lo, hi = self.ranges(seed)
        devs = []
        for i, fields in sorted(scan.sampled.items()):
            row = [float(v) for v in fields]
            ok = (
                len(row) == len(header)
                and all(0.0 <= v <= 1.0 for v in row[1::2])
                and all(v >= 0.0 for v in row[2::2])
            )
            if not ok:
                return [f"sweep.csv row {i} is out of range: {fields}"]
            devs.append(row[0])
        if devs[0] != lo or devs[-1] != hi or devs != sorted(set(devs)):
            problems.append(f"sweep.csv deviations do not increase from {lo} to {hi}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim-high",
            why=(
                "High-overlap preset, all 12 specs, one thread: the batch gradient kernel "
                "is most of the wall time. Its traced run also times the simlab chunk pool."
            ),
            radius=(0.0, 3.0),
            ratio=0.8,
            step_size=0.2,
            bases=BASES,
            n_points=71,  # 24,353 cases: three nearly full 8,192-case chunks
            iterations=10,
        ),
        SweepWorkload(
            name="sweep-dense",
            why=(
                "Dense deviation sweep over five curves: the sweep layer's per-sample "
                "records and conclusion checks, and the cli's CSV and JSON writing."
            ),
            samples=50_001,
            aux_sides=(6.0, 8.0, 12.0, 14.0),
        ),
    )
}
