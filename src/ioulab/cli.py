"""Command-line front end: single evaluations, regression runs, sweeps.

Exit codes are a stable contract: 0 on success, 1 when a checked property
fails (a sweep conclusion does not hold), 2 on usage or config errors, an
output path that cannot be written, two outputs that name one file, a
result that is not finite, a run too large for the memory it can get, or
a ``sim`` worker process that died.
Every CSV has a header row, LF line endings, integers as ``%d`` and
floats as ``%.17g`` (17 significant digits, so they round-trip exactly);
no field holds a comma, quote or newline, so none is ever quoted;
:mod:`ioulab.csvtext` builds the text. The integer columns of ``sim``
are exact float64 counts, which ``%.17g`` prints as ``%d`` would.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .batch import Scratch, check_boxes, eval_batch
from .losses import BASE_NAMES, SCENARIOS, LossSpec
from .sweep import AXES, SweepConfig, check_conclusions, run_sweep

LOSS_CHOICES = tuple(BASE_NAMES) + tuple(f"inner-{b}" for b in BASE_NAMES)

CSV_ROWS_PER_WRITE = 372  # rows formatted together: about 4,000 values of an 11-column sweep


def _write(*outputs: tuple[Path, Iterable[str]], directory: Path | None = None) -> None:
    """Write each ``(path, chunks)`` output, all or none; an OSError is a usage error.

    Two paths that name one file (through a link, or spelled otherwise) are
    a usage error, raised before anything is made. Then ``directory``, if
    given, is made with its missing parents, and every output is opened
    without truncating it, so an output that cannot be opened changes no
    file; only then is each rewritten in turn. Any failure, such as running
    out of memory while formatting, removes in reverse what the call made:
    the outputs that did not exist (through a link, the file made at its
    target, not the link), then the directories. Every file that existed is
    kept, but a failure once writing has begun leaves the outputs already
    rewritten as they are.
    """
    for i, (path, _) in enumerate(outputs):
        for earlier, _ in outputs[:i]:
            try:
                same = os.path.samefile(earlier, path)
            except OSError:  # not there yet; realpath never raises on a symlink loop
                same = os.path.realpath(earlier) == os.path.realpath(path)
            if same:
                raise ValueError(f"{earlier} and {path} name the same file")
    made = []  # what this call creates: directories root first, then outputs
    try:
        if directory is not None:
            for path in reversed([d for d in (directory, *directory.parents) if not d.exists()]):
                path.mkdir()
                made.append(path)
        for path, _ in outputs:
            real = Path(os.path.realpath(path))
            new = not os.path.lexists(real)  # a symlink loop's realpath is a link
            open(path, "ab").close()
            if new:
                made.append(real)
        for path, chunks in outputs:
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.writelines(chunks)
    except BaseException as exc:
        for p in reversed(made):
            with suppress(OSError):
                p.rmdir() if p.is_dir() else p.unlink()
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def _csv(path: Path, header: list[str], blocks: list) -> tuple[Path, Iterator[str]]:
    """``path`` with the lines of ``header``, then of each ``(lead, columns)`` block.

    A row is the fields ``lead`` (a spec label, or none), then one value
    from each column: ``%d`` for an integer column, ``%.17g`` for a float
    one. ``CSV_ROWS_PER_WRITE`` rows at a time become one string
    (``csvtext.block_text``), and every block of the file builds its arrays
    in one :class:`~ioulab.batch.Scratch`. A non-finite value raises
    ValueError here, before any file is opened.
    """
    line = 2
    for lead, columns in blocks:
        for name, col in zip(header[len(lead) :], columns):
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                raise ValueError(
                    f"not writing {path}: {name} is {col[bad[0]]} on line {line + bad[0]}"
                )
        line += len(columns[0])

    def lines():
        # Imported with the first CSV, so eval never compiles it, and sweep
        # compiles it after its memory peak: sweep-dense's peak RSS reads
        # 35.19 MiB against 35.26 with it imported by cli (medians of 40 paths).
        from .csvtext import block_text

        yield ",".join(header) + "\n"
        scratch = Scratch()
        for lead, columns in blocks:
            prefix = "".join(f"{field}," for field in lead)
            for a in range(0, len(columns[0]), CSV_ROWS_PER_WRITE):
                yield block_text(prefix, [col[a : a + CSV_ROWS_PER_WRITE] for col in columns], scratch)

    return path, lines()


def _box_arg(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected X,Y,W,H, got {text!r}")
    try:
        return check_boxes([float(p) for p in parts], "box")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def numbers_arg(text: str) -> tuple[float, ...]:
    """``--aux-sides``, and scripts/scan_step_sizes.py's ``--steps``: one or more floats."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _bases_arg(text: str) -> tuple[str, ...]:
    # A repeated name runs once, in first-seen order; LossSpec checks the names.
    names = tuple(dict.fromkeys(p.strip().lower() for p in text.split(",") if p.strip()))
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list of base losses")
    return names


def cmd_eval(args: argparse.Namespace) -> int:
    inner = args.loss.startswith("inner-")
    if inner != (args.ratio is not None):
        why = f"--loss {args.loss} requires --ratio" if inner else "--ratio only applies to inner-* losses"
        raise ValueError(why)
    spec = LossSpec(args.loss.removeprefix("inner-"), inner=args.ratio)
    res = eval_batch(spec, args.anchor, args.gt)
    payload = {
        "loss": res.loss,
        "iou": res.iou,
        "inner_iou": res.inner_iou,
        "terms": res.terms,
    }
    if args.grad:
        # + 0.0 turns a -0.0 partial into 0.0
        payload["grad"] = dict(zip("xywh", (float(g) + 0.0 for g in res.grad)))
    try:
        print(json.dumps(payload, allow_nan=False))
    except ValueError:
        raise ValueError("the result is not finite; the boxes are outside the supported range") from None
    return 0


def run_simulation(cfg, **kwargs):
    """``simlab.run_simulation``, loaded only when ``sim`` runs: a fresh
    ``sweep`` no longer compiles simlab, about 8 of the 95 ms its imports took."""
    from .simlab import run_simulation

    return run_simulation(cfg, **kwargs)


def _resolve_sim_config(args: argparse.Namespace):
    from .simlab import SimConfig, scenario_config

    if args.config is not None:
        for flag in ("bases", "points", "iterations"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} only applies to --scenario runs")
        try:
            raw = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}") from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
        if args.seed is not None and isinstance(data, dict):
            data = {**data, "seed": args.seed}
        return SimConfig.from_dict(data)

    given = {"n_points": args.points, "iterations": args.iterations, "seed": args.seed}
    fields = {k: v for k, v in given.items() if v is not None}
    return scenario_config(args.scenario, args.bases or ("ciou",), **fields)


def cmd_sim(args: argparse.Namespace) -> int:
    cfg = _resolve_sim_config(args)
    summaries = run_simulation(cfg, threads=args.threads, per_case=args.per_case)

    out = Path(args.out)
    # The integer columns are floats below 2**53, so %.17g prints them as %d would.
    curves = [
        ((s.label,), [np.arange(len(s.total_error_curve), dtype=np.float64), s.total_error_curve])
        for s in summaries
    ]
    outputs = [_csv(out / "summary.csv", ["spec", "iteration", "total_error"], curves)]
    if args.per_case:
        header = ["spec", "case_id", "initial_error", "final_error", "final_iou", "clamps"]
        cases = [
            ((s.label,), [np.arange(len(s.case_clamps), dtype=np.float64), s.case_initial_error,
                          s.case_final_error, s.case_final_iou, s.case_clamps.astype(np.float64)])
            for s in summaries
        ]
        outputs.append(_csv(out / "cases.csv", header, cases))

    # Imported here: hashlib maps OpenSSL (about 3.6 MiB), and only sim hashes.
    import hashlib

    config = cfg.to_dict()  # `sim --config` reruns it
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config,
        "config_digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": cfg.seed,
        "spec_list": [s.label() for s in cfg.specs],
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
        "n_cases": cfg.case_count,
        "error_metric": "corner_l1",
    }
    outputs.append((out / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True), "\n"]))
    _write(*outputs, directory=out)

    for s in summaries:
        print(
            f"{s.label}: mean final error {s.mean_final_error:.6g}, "
            f"error-curve area {s.auc:.6g}"
        )
    print(f"wrote {out / 'summary.csv'} ({len(summaries)} specs, {cfg.case_count} cases)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        box_side=args.box_side,
        aux_sides=args.aux_sides,
        deviation_range=(args.dev_min, args.dev_max),
        samples=args.samples,
        axis=args.axis,
        high_iou_threshold=args.high_iou_threshold,
        low_iou_threshold=args.low_iou_threshold,
    )
    devs, iou, absgrad = run_sweep(cfg)
    doc = check_conclusions(cfg, devs, iou, absgrad)

    outputs = []
    if args.out is not None:
        header = ["deviation"]
        columns = [devs]
        for s in cfg.sides():
            header += [f"iou_{s:g}", f"absgrad_{s:g}"]
            columns += [iou[s], absgrad[s]]
        outputs.append(_csv(Path(args.out), header, [((), columns)]))
    if args.report is not None:
        outputs.append((Path(args.report), [json.dumps(doc, indent=2, sort_keys=True), "\n"]))
    _write(*outputs)
    print(json.dumps(doc, indent=2))
    return 0 if doc["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ioulab",
        description="Overlap-based box regression losses, their gradients, and experiments.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one loss on one box pair")
    pe.add_argument("--anchor", type=_box_arg, required=True, metavar="X,Y,W,H")
    pe.add_argument("--gt", type=_box_arg, required=True, metavar="X,Y,W,H")
    pe.add_argument("--loss", required=True, choices=LOSS_CHOICES)
    pe.add_argument("--ratio", type=float, help="auxiliary box scale for inner-* losses")
    pe.add_argument("--grad", action="store_true", help="include the four partials")
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("sim", help="run a gradient-descent regression experiment")
    src = ps.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", metavar="FILE", help="JSON file mirroring SimConfig")
    src.add_argument(
        "--scenario",
        choices=tuple(SCENARIOS),
        help="preset: "
        + "; ".join(
            f"'{name}' = radius {p['radius'][0]:g}-{p['radius'][1]:g}, ratio {p['ratio']:g}, "
            f"step {p['step_size']:g}"
            for name, p in SCENARIOS.items()
        ),
    )
    ps.add_argument("--out", required=True, metavar="DIR")
    ps.add_argument(
        "--bases",
        type=_bases_arg,
        metavar="NAME[,NAME...]",
        help="base losses for --scenario runs; each adds the plain and auxiliary variant (default: ciou)",
    )
    ps.add_argument("--points", type=int, help="sample points per target aspect (--scenario only)")
    ps.add_argument("--iterations", type=int, help="descent iterations (--scenario only)")
    ps.add_argument("--per-case", action="store_true", help="also write cases.csv")
    ps.add_argument("--seed", type=int, help="override the config or preset seed")
    ps.add_argument("--threads", type=int, default=0, help="worker processes, 0 = one per usable CPU")
    ps.set_defaults(func=cmd_sim)

    pw = sub.add_parser("sweep", help="sweep overlap gradients across center deviations")
    pw.add_argument("--box-side", type=float, default=SweepConfig.box_side)
    pw.add_argument("--aux-sides", type=numbers_arg, default=SweepConfig.aux_sides, metavar="S[,S...]")
    pw.add_argument("--dev-min", type=float, default=SweepConfig.deviation_range[0])
    pw.add_argument("--dev-max", type=float, default=SweepConfig.deviation_range[1])
    pw.add_argument("--samples", type=int, default=SweepConfig.samples)
    pw.add_argument("--axis", choices=AXES, default=SweepConfig.axis)
    pw.add_argument("--high-iou-threshold", type=float, default=SweepConfig.high_iou_threshold)
    pw.add_argument("--low-iou-threshold", type=float, default=SweepConfig.low_iou_threshold)
    pw.add_argument("--out", metavar="FILE", help="write the sweep curves as CSV")
    pw.add_argument("--report", metavar="FILE", help="also write the conclusions report JSON")
    pw.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # a warning is one line, like an error
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (ValueError, Warning) as exc:  # a Warning when warnings are errors (-W error)
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            print("error: out of memory: the run is too large for the memory it can get", file=sys.stderr)
            return 2
        except RuntimeError as exc:
            # a broken pool has loaded it; a module-level import costs every command memory
            from concurrent.futures.process import BrokenProcessPool

            if not isinstance(exc, BrokenProcessPool):
                raise
            print(f"error: a worker process died: {exc}", file=sys.stderr)
            return 2
