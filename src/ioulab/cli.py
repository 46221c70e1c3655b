"""Command-line front end: single evaluations, regression runs, sweeps.

Exit codes are a stable contract: 0 on success, 1 when a checked property
fails (a sweep conclusion does not hold), 2 on usage or config errors, an
output path that cannot be written, a result that is not finite, or a run
too large for the memory it can get.
Every CSV has a header row, LF line endings, integers as ``%d`` and
floats as ``%.17g`` (17 significant digits, so they round-trip exactly);
no field holds a comma, quote or newline, so none is ever quoted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .losses import BASE_NAMES, Box, LossSpec, evaluate
from .simlab import SCENARIOS, SimConfig, run_simulation, scenario_specs
from .sweep import AXES, SweepConfig, check_conclusions, run_sweep

LOSS_CHOICES = tuple(BASE_NAMES) + tuple(f"inner-{b}" for b in BASE_NAMES)

CSV_ROWS_PER_WRITE = 1024  # rows that exist as Python values at a time


def _write(*outputs: tuple[Path, Iterable[str]]) -> None:
    """Write each ``(path, chunks)`` output; an OSError is a usage error.

    Every path is opened before any is written, and any failure, such as
    running out of memory while formatting, removes the files that did not
    exist before, so a run leaves all its outputs or none.
    """
    new = [path for path, _ in outputs if not path.exists()]
    try:
        with ExitStack() as stack:
            files = []
            for path, _ in outputs:
                files.append(stack.enter_context(open(path, "w", encoding="utf-8", newline="")))
            for f, (path, chunks) in zip(files, outputs):
                f.writelines(chunks)
    except BaseException as exc:
        for created in new:
            created.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def _csv(path: Path, header: list[str], blocks: list) -> tuple[Path, Iterator[str]]:
    """``path`` with the lines of ``header``, then of each ``(lead, columns)`` block.

    A row is the fields ``lead`` (a spec label, or none), then one value
    from each column. A block formats all its rows with one %-format:
    ``%d`` per integer column and ``%.17g`` per float one, the routine
    behind ``format(x, ".17g")``. A non-finite value raises ValueError
    here, before any file is opened.
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
        yield ",".join(header) + "\n"
        for lead, columns in blocks:
            kinds = ["%.17g" if col.dtype.kind == "f" else "%d" for col in columns]
            fmt = ",".join([*lead, *kinds]) + "\n"
            for a in range(0, len(columns[0]), CSV_ROWS_PER_WRITE):
                part = [col[a : a + CSV_ROWS_PER_WRITE].tolist() for col in columns]
                yield from (fmt % row for row in zip(*part))

    return path, lines()


def _box_arg(text: str) -> Box:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected X,Y,W,H, got {text!r}")
    try:
        return Box(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _sides_arg(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list of sides")
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


def _config_digest(cfg: SimConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cmd_eval(args: argparse.Namespace) -> int:
    name = args.loss
    if name.startswith("inner-"):
        if args.ratio is None:
            raise ValueError(f"--loss {name} requires --ratio")
        spec = LossSpec(name[len("inner-") :], inner=args.ratio)
    else:
        if args.ratio is not None:
            raise ValueError("--ratio only applies to inner-* losses")
        spec = LossSpec(name)
    res = evaluate(spec, args.anchor, args.gt)
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


def _resolve_sim_config(args: argparse.Namespace) -> SimConfig:
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

    # The preset's tuned step is not applied here: --scenario runs keep
    # the SimConfig default step.
    preset = SCENARIOS[args.scenario]
    kwargs: dict = {
        "specs": scenario_specs(preset["ratio"], args.bases or ("ciou",)),
        "radius": preset["radius"],
    }
    if args.points is not None:
        kwargs["n_points"] = args.points
    if args.iterations is not None:
        kwargs["iterations"] = args.iterations
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return SimConfig(**kwargs)


def cmd_sim(args: argparse.Namespace) -> int:
    cfg = _resolve_sim_config(args)
    summaries = run_simulation(cfg, threads=args.threads, per_case=args.per_case)

    out = Path(args.out)
    curves = [
        ((s.label,), [np.arange(len(s.total_error_curve)), s.total_error_curve]) for s in summaries
    ]
    outputs = [_csv(out / "summary.csv", ["spec", "iteration", "total_error"], curves)]
    if args.per_case:
        header = ["spec", "case_id", "initial_error", "final_error", "final_iou", "clamps"]
        cases = [
            ((s.label,), [np.arange(len(s.case_clamps)), s.case_initial_error,
                          s.case_final_error, s.case_final_iou, s.case_clamps])
            for s in summaries
        ]
        outputs.append(_csv(out / "cases.csv", header, cases))

    manifest = {
        "config_digest": _config_digest(cfg),
        "seed": cfg.seed,
        "spec_list": [s.label() for s in cfg.specs],
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
        "n_cases": cfg.case_count,
        "error_metric": "corner_l1",
    }
    outputs.append((out / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True), "\n"]))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None
    _write(*outputs)

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
    )
    devs, iou, absgrad = run_sweep(cfg)
    doc = check_conclusions(
        devs,
        iou,
        absgrad,
        actual_side=cfg.box_side,
        high_iou_threshold=args.high_iou_threshold,
        low_iou_threshold=args.low_iou_threshold,
    )

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
        + ", ".join(
            f"'{name}' = radius {p['radius'][0]:g}-{p['radius'][1]:g} with ratio {p['ratio']:g}"
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
    ps.add_argument("--threads", type=int, default=0, help="worker threads, 0 = one per CPU")
    ps.set_defaults(func=cmd_sim)

    pw = sub.add_parser("sweep", help="sweep overlap gradients across center deviations")
    pw.add_argument("--box-side", type=float, default=10.0)
    pw.add_argument(
        "--aux-sides", type=_sides_arg, default=(8.0, 12.0), metavar="S[,S...]"
    )
    pw.add_argument("--dev-min", type=float, default=-15.0)
    pw.add_argument("--dev-max", type=float, default=15.0)
    pw.add_argument("--samples", type=int, default=601)
    pw.add_argument("--axis", choices=AXES, default="x")
    pw.add_argument("--high-iou-threshold", type=float, default=0.7)
    pw.add_argument("--low-iou-threshold", type=float, default=0.0)
    pw.add_argument("--out", metavar="FILE", help="write the sweep curves as CSV")
    pw.add_argument("--report", metavar="FILE", help="also write the conclusions report JSON")
    pw.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the run is too large for the memory it can get", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
