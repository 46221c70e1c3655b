"""ioulab benchmark: end-to-end metrics of two CLI workloads, or their traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the ``ioulab`` package under
``src/`` of that checkout and writes only under ``.perfbench_work/``.
Workloads, their inputs and their output checks are in ``workloads.py``;
``BENCHMARK.json`` at the checkout root names the metrics and their units.

``--trace 0`` times set-up (``setup_s``: the median of several fresh
``python -m ioulab --version``) and runs the workload's command on one
thread, one child process at a time, for about S seconds (at least
``MIN_RUNS``). Wall time, CPU time and peak RSS come from each child's own
rusage (``wait4``). Each command run comes right after a run of the fixed
reference job (``reference.py``); ``wall_rel`` and ``cpu_rel`` are the
medians over these pairs of the command's time divided by the reference
job's, because the shared host's speed drifts by tens of percent over
minutes and moves both alike. The medians in seconds are printed too, and
kept in the results file.

``--trace 1`` gives the per-layer metrics. It alternates untraced runs of
the same command with traced runs (``tracing.py``), where each call between
the layers is a span, and splits the traced wall into layer self times. The
split is taken from a single-threaded traced run; a ``sim`` workload also
runs traced at nproc threads, for ``simlab.pool_speedup`` and to check that
the chunk pool writes the same bytes as one thread. An untimed
allocation pass (``alloc.py``) counts bytes allocated per gradient row. A
layer metric that a workload does not exercise reads 0.

Every run's outputs are checked (``workloads.py``), and all runs in one
invocation must write byte-identical outputs, at any thread count. At
``DEFAULT_SEED`` the outputs must also match ``digests.json``; with
``--trace 1`` at another seed, one extra untimed run at ``DEFAULT_SEED``
makes that comparison. Digests are only compared on the numpy version and
CPU features they were recorded with, since numpy's SIMD dispatch may
change the last bits of a float elsewhere.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and
the environment stamp. Everything is also written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, SPEC_KEYS, WORKLOADS, SimWorkload, sha256_file  # noqa: E402

MIN_RUNS = 3  # workload runs per --trace 0 measurement, however long they take
SETUP_REPEATS = 7  # at least this many set-up samples per --trace 0 measurement
CHILD_TIMEOUT_S = 90.0
# Start no new run after this long, so that an invocation ends well within 180 s.
HARD_STOP_S = 110.0
SPLIT_TOLERANCE_S = 1e-6

_PROBE = """
import json, ioulab, numpy
try:
    from numpy._core._multiarray_umath import __cpu_features__ as feats
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__ as feats
print(json.dumps({"ioulab_file": ioulab.__file__, "ioulab_version": ioulab.__version__,
                  "numpy": numpy.__version__,
                  "cpu_features": sorted(k for k, v in feats.items() if v)}))
"""


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


@dataclass
class Run:
    """One child process as the benchmark process saw it."""

    rc: int
    t0: float
    t1: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class Tally:
    """Workload runs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[int, dict[str, str]] = field(default_factory=dict)  # by seed

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


class Bench:
    """Runs one workload's child processes and checks what they write."""

    def __init__(self, root: Path, workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work"
        (self.work / "runs").mkdir(parents=True, exist_ok=True)
        (self.work / "results").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + old if old else src
        self.nproc = len(os.sched_getaffinity(0))
        self.tally = Tally()
        self.info = self.probe()
        self.expected: dict[str, str] | None = None  # digests at DEFAULT_SEED

    # -- child processes ---------------------------------------------------

    def child(self, args: list[str], cwd: Path) -> Run:
        """Run ``python <args>`` to completion and return its own rusage."""
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=cwd, env=self.env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.perf_counter()
                # Set before the timer is cancelled, so a late kill() sends nothing.
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        return Run(
            rc=proc.returncode,
            t0=t0,
            t1=t1,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def run_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=self.work / "runs"))

    def probe(self) -> dict:
        """Check that the checkout's ioulab imports, and warm its bytecode cache."""
        d = self.run_dir()
        try:
            run = self.child(["-c", _PROBE], d)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        if run.rc != 0:
            raise SetupError(f"cannot import ioulab from {self.root / 'src'}:\n{run.stderr}")
        info = json.loads(run.stdout)
        if not Path(info["ioulab_file"]).resolve().is_relative_to(self.root / "src"):
            raise SetupError(f"ioulab resolves to {info['ioulab_file']}, outside the checkout")
        return info

    def setup_times(self, count: int) -> list[float]:
        """Wall times of ``count`` fresh ``python -m ioulab --version``."""
        d = self.run_dir()
        try:
            walls = []
            for _ in range(count):
                run = self.child(["-m", "ioulab", "--version"], d)
                if run.rc != 0 or run.stdout.strip() != f"ioulab {self.info['ioulab_version']}":
                    raise SetupError(f"ioulab --version failed: {run.stdout}{run.stderr}")
                walls.append(run.wall_s)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return walls

    def reference_run(self) -> Run:
        """One run of the reference job; see ``reference.py`` for why."""
        d = self.run_dir()
        try:
            run = self.child([str(HERE / "reference.py")], d)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        if run.rc != 0:
            raise SetupError(f"the reference job failed: {run.stderr}")
        return run

    # -- one workload run ----------------------------------------------------

    def workload_run(self, seed: int, threads: int, *, traced: bool, keep_spans: Path | None = None):
        """Run the workload's command once, check its outputs, and clean up.

        Returns the Run, whether it passed, the bytes it wrote and, for a
        traced run, its spans.
        """
        w = self.workload
        d = self.run_dir()
        try:
            argv = w.argv(d, seed, threads)
            spans_path = d / "spans.json"
            if traced:
                args = [str(HERE / "tracing.py"), str(spans_path), "--", *argv]
            else:
                args = ["-m", "ioulab", *argv]
            run = self.child(args, d)
            label = f"{'traced' if traced else 'untraced'} run seed {seed} threads {threads}"
            if run.rc != 0:
                problems = [f"exit code {run.rc}: {run.stderr.strip()[-500:]}"]
            else:
                problems = w.check(d, seed, run.stdout) + self.check_digests(d, seed)
            spans = None
            if traced and not spans_path.exists():
                problems.append("the traced run wrote no spans")
            elif traced:
                doc = json.loads(spans_path.read_text(encoding="utf-8"))
                spans = doc["spans"]
                if doc["missing"]:
                    print(f"warning: not traced, missing: {doc['missing']}", file=sys.stderr)
                if keep_spans is not None:
                    shutil.copyfile(spans_path, keep_spans)
            written = sum(p.stat().st_size for p in w.written(d) if p.exists())
        finally:
            shutil.rmtree(d, ignore_errors=True)
        ok = self.tally.record(label, problems)
        return run, ok, written, spans

    def check_digests(self, run_dir: Path, seed: int) -> list[str]:
        """Same bytes as every other run at this seed, and as recorded at the default seed."""
        got = {name: sha256_file(p) for name, p in self.workload.outputs(run_dir).items()}
        problems = []
        first = self.tally.digests.setdefault(seed, got)
        if got != first:
            problems.append(f"outputs differ from an earlier run at the same seed: {got} vs {first}")
        if seed == DEFAULT_SEED and self.expected is not None and got != self.expected:
            problems.append(f"outputs differ from digests.json: {got} vs {self.expected}")
        return problems

    # -- the two modes -------------------------------------------------------

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        w = self.workload
        pairs = []  # (reference run, command run right after it)
        start = time.perf_counter()
        # Set-up samples are spread over the measuring window, like the runs.
        setup = self.setup_times(SETUP_REPEATS - MIN_RUNS)
        while not _done(time.perf_counter() - start, self.tally.attempted, MIN_RUNS, seconds):
            setup += self.setup_times(1)
            ref = self.reference_run()
            run, ok, _, _ = self.workload_run(self.seed, 1, traced=False)
            if ok:
                pairs.append((ref, run))
        runs = [run for _, run in pairs]
        refs = [ref for ref, _ in pairs]
        walls = [r.wall_s for r in runs]
        medians = {
            "wall_s": statistics.median(walls) if runs else 0.0,
            "cpu_s": statistics.median(r.cpu_s for r in runs) if runs else 0.0,
            "reference_wall_s": statistics.median(r.wall_s for r in refs) if refs else 0.0,
            "reference_cpu_s": statistics.median(r.cpu_s for r in refs) if refs else 0.0,
        }
        wall_rel = statistics.median(r.wall_s / ref.wall_s for ref, r in pairs) if pairs else 0.0
        # A child's ru_maxrss starts from this process's peak RSS (Linux), so
        # it only measures the child while this process stays smaller.
        own_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if runs and own_mib >= min(r.rss_mib for r in runs):
            self.tally.problems.append(
                f"benchmark process peaked at {own_mib:.1f} MiB, so peak_rss_mb is not the child's"
            )
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_rel": wall_rel,
            "pair_evals_per_ref": w.pair_evals / wall_rel if wall_rel else 0.0,
            "cpu_rel": statistics.median(r.cpu_s / ref.cpu_s for ref, r in pairs) if pairs else 0.0,
            "peak_rss_mb": statistics.median(r.rss_mib for r in runs) if runs else 0.0,
            "ok_frac": 1.0 - self.tally.failed / self.tally.attempted,
        }
        raw = {"medians": medians, "setup_s": setup, "wall_s": walls,
               "cpu_s": [r.cpu_s for r in runs], "peak_rss_mb": [r.rss_mib for r in runs],
               "reference_wall_s": [r.wall_s for r in refs],
               "reference_cpu_s": [r.cpu_s for r in refs]}
        return metrics, raw

    def traced(self, seconds: float, spans_out: Path) -> tuple[dict, dict]:
        w = self.workload
        start = time.perf_counter()
        if self.seed != DEFAULT_SEED:
            self.workload_run(DEFAULT_SEED, 1, traced=False)
        is_sim = isinstance(w, SimWorkload)
        alloc = self.alloc_pass() if is_sim else {}

        untraced, traced_walls, pool_walls, splits = [], [], [], []
        rounds = 0
        while not _done(time.perf_counter() - start, rounds, 1, seconds):
            rounds += 1
            run, ok, _, _ = self.workload_run(self.seed, 1, traced=False)
            if ok:
                untraced.append(run.wall_s)
            # One thread, so that the spans do not overlap in time.
            run, ok, written, spans = self.workload_run(
                self.seed, 1, traced=True, keep_spans=spans_out
            )
            if ok:
                traced_walls.append(run.wall_s)
                m = tracing.layer_metrics(
                    spans, run.t0, run.t1, SPEC_KEYS, w.iterations if is_sim else 0, written
                )
                residual = tracing.split_residual(m)
                if abs(residual) > SPLIT_TOLERANCE_S:
                    self.tally.problems.append(f"layer split misses traced wall by {residual:.3g} s")
                splits.append(m)
            if is_sim:
                run, ok, _, _ = self.workload_run(self.seed, self.nproc, traced=True)
                if ok:
                    pool_walls.append(run.wall_s)

        # All layer metrics come from one run, the one with the median traced
        # wall, so that its layer self times add up to its traced wall.
        metrics = {}
        if splits:
            median_wall = statistics.median_low(m["trace.wall_s"] for m in splits)
            metrics = next(dict(m) for m in splits if m["trace.wall_s"] == median_wall)
        for spec in SPEC_KEYS:
            metrics[f"batch.alloc_bytes_per_pair.{spec}"] = alloc.get(spec, 0.0)
        metrics["simlab.pool_speedup"] = (
            statistics.median(traced_walls) / statistics.median(pool_walls)
            if traced_walls and pool_walls else 0.0
        )
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced) - 1.0
            if traced_walls and untraced else 0.0
        )
        raw = {"untraced_wall_s": untraced, "traced_wall_s": traced_walls,
               "traced_pool_wall_s": pool_walls, "splits": splits, "alloc": alloc}
        return metrics, raw

    def alloc_pass(self) -> dict[str, float]:
        d = self.run_dir()
        try:
            config = self.workload.prepare(d, self.seed)
            run = self.child([str(HERE / "alloc.py"), str(config)], d)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        if run.rc != 0:
            self.tally.problems.append(f"allocation pass failed: {run.stderr.strip()[-500:]}")
            return {}
        return {tracing.spec_key(label): v for label, v in json.loads(run.stdout).items()}

    # -- environment stamp ---------------------------------------------------

    def stamp(self) -> dict:
        def getconf(name):
            try:
                out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
                return int(out.stdout.strip())
            except (OSError, ValueError, subprocess.SubprocessError):
                return None

        git_sha = None
        if (self.root / ".git").exists():
            out = subprocess.run(["git", "-C", str(self.root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            git_sha = out.stdout.strip() or None
        h = hashlib.sha256()
        src = self.root / "src"
        for p in sorted(src.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
        return {
            "git_sha": git_sha,
            "src_sha256": h.hexdigest(),
            "python": sys.version.split()[0],
            "numpy": self.info["numpy"],
            "ioulab": self.info["ioulab_version"],
            "nproc": self.nproc,
            "l2_cache_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
            "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "workload": self.workload.name,
            "seed": self.seed,
            "threads": 1,
            "pool_threads": self.nproc,
            "input_size": self.workload.input_size(),
            "digests_compared": self.expected is not None,
        }


def _done(elapsed: float, count: int, minimum: int, seconds: float) -> bool:
    """Whether to stop starting runs: at least ``minimum`` done and the next would overrun."""
    if count < 1:
        return False
    if elapsed > HARD_STOP_S:
        return True
    return count >= minimum and elapsed * (count + 1) / count > seconds


def load_digests(info: dict) -> dict:
    """Recorded output digests by workload, or {} when recorded on another numpy or CPU."""
    doc = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    rec = doc["recorded_with"]
    if rec["numpy"] != info["numpy"] or rec["cpu_features"] != info["cpu_features"]:
        return {}
    return doc["workloads"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = HERE.parent
    try:
        if not (root / "src" / "ioulab" / "__init__.py").is_file():
            raise SetupError(f"no ioulab sources under {root / 'src'}")
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        bench = Bench(root, WORKLOADS[args.workload], args.seed)
        bench.expected = load_digests(bench.info).get(args.workload)
        stamp = bench.stamp()
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            values, raw = bench.traced(args.seconds, root / ".perfbench_work" / "results" / f"{tag}-spans.json")
            declared_metrics = declared["per_layer"]
        else:
            values, raw = bench.untraced(args.seconds)
            declared_metrics = declared["end_to_end"]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tally = bench.tally
    metrics = {}
    for m in declared_metrics:
        if m["name"] not in values and not tally.failed:
            tally.problems.append(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (root / ".perfbench_work" / "results" / f"{tag}.json").write_text(
        json.dumps({"stamp": stamp, "result": result, "raw": raw, "problems": tally.problems},
                   indent=2) + "\n",
        encoding="utf-8",
    )

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for p in tally.problems:
        print(f"FAILED {p}")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} runs, {tally.failed} failed")
    if args.trace and "trace.wall_s" in values:
        parts = [f"{layer} {values[f'{layer}.self_s']:.4f}" for layer in tracing.LAYERS]
        print(f"  layer split (s): {' + '.join(parts)} + outside main "
              f"{values['proc.outside_main_s']:.4f} = traced wall {values['trace.wall_s']:.4f}")
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    if "medians" in raw:
        print("  medians in seconds: " + ", ".join(f"{k} {v:.4f}" for k, v in raw["medians"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
