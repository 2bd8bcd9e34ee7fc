"""Command-line entry points.

Subcommands: train (one seeded run), sweep (interpolation-loss grid of
an adversarially trained vs a randomly mixed model), lowres (multi-seed
comparison across subsample ratios), ablate (policy-stage variants),
gradcheck (finite-difference audit of every differentiable op).

Exit codes: 0 success, 1 usage or configuration error, 2 divergence or
check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from . import data as dt
from . import gradcheck as gk
from . import harness as hz
from .errors import DivergenceError

SWEEP_HEADER = ["lambda", "loss_model_a", "loss_model_b"]
EXPERIMENTS_HEADER = ["policy", "seed", "test_error"]
SUMMARY_HEADER = ["policy", "mean", "std", "rp_percent"]
SVG_WIDTH = 640
SVG_HEIGHT = 400


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _summary_rows(rows) -> list:
    # rp formatted to one decimal, the precision comparisons are read at
    out = []
    for name, mean, std, rp in rows:
        out.append([name, repr(float(mean)), repr(float(std)), "" if rp is None else f"{rp:.1f}"])
    return out


def _print_summary(rows) -> None:
    print(f"{'policy':<12s} {'mean':>10s} {'std':>10s} {'rp%':>8s}")
    for name, mean, std, rp in rows:
        rp_text = "" if rp is None else f"{rp:+.1f}"
        print(f"{name:<12s} {mean:>10.4f} {std:>10.4f} {rp_text:>8s}")


def render_sweep_svg(rows, path) -> None:
    """Minimal two-line SVG plot of sweep rows (no plotting dependency)."""
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 50
    xs = [r[0] for r in rows]
    series = [[r[1] for r in rows], [r[2] for r in rows]]
    lo = min(min(s) for s in series)
    hi = max(max(s) for s in series)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def sx(x):
        return margin + x * plot_w

    def sy(y):
        return height - margin - (y - lo) / (hi - lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{tick:g}</text>'
        )
    for value in (lo + pad, hi - pad):
        parts.append(
            f'<text x="{margin - 6}" y="{sy(value):.1f}" font-size="11" '
            f'text-anchor="end">{value:.3f}</text>'
        )
    for (label, color), values in zip((("model_a", "#1f77b4"), ("model_b", "#d62728")), series):
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, values))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin - 90}" '
            f'y="{margin + (12 if label == "model_a" else 28)}" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 10}" font-size="12" '
        f'text-anchor="middle">mixing coefficient</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_train(args) -> int:
    config = hz.load_config(args.config)
    seed = config.seeds[0] if args.seed is None else args.seed
    _, report = hz.train(config, seed)
    print(f"policy={report.policy} seed={report.seed} steps={len(report.step_loss)}")
    if report.dev_errors:
        print(f"best_dev_error={report.best_dev_error:.4f} at step {report.best_step}")
    print(f"test_error={report.test_error:.4f}")
    print(f"wall_time={report.wall_time:.1f}s")
    return 0


def cmd_sweep(args) -> int:
    config = hz.load_config(args.config)
    seed = config.seeds[0]
    _, _, test_ds, vocab = hz.prepare_task(config, seed)
    # checked before training, which is the slow part
    if args.grid < 2:
        raise ValueError(f"--grid must be >= 2, got {args.grid}")
    pair = tuple(args.pair) if args.pair else None
    if pair is not None and not all(0 <= k < len(test_ds) for k in pair):
        raise ValueError(
            f"--pair indices {pair[0]} {pair[1]} out of range for {len(test_ds)} test examples"
        )
    model_a, _ = hz.train(dataclasses.replace(config, policy="amp"), seed)
    model_b, _ = hz.train(dataclasses.replace(config, policy="mixup"), seed)
    rows = hz.lambda_sweep(
        model_a, model_b, test_ds, vocab, config.max_len,
        grid_points=args.grid, layer=config.layer, pair=pair,
    )
    _write_csv(args.out, SWEEP_HEADER, [[repr(a), repr(b), repr(c)] for a, b, c in rows])
    mean_a = sum(r[1] for r in rows) / len(rows)
    mean_b = sum(r[2] for r in rows) / len(rows)
    print(f"wrote {args.out}: grid={args.grid} "
          f"mean_loss_model_a={mean_a:.6f} mean_loss_model_b={mean_b:.6f}")
    if args.svg:
        render_sweep_svg(rows, args.svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_lowres(args) -> int:
    config = hz.load_config(args.config)
    pieces = [piece.strip() for piece in args.ratios.split(",") if piece.strip()]
    if not pieces:
        raise ValueError("--ratios must list at least one value")
    # check every ratio before the first one trains; each ratio's files are
    # named by its tag, so two ratios with one tag would overwrite each other
    tags = {}
    for piece in pieces:
        ratio = float(piece)
        dataclasses.replace(config, subsample_ratio=ratio).validate()
        tag = f"{ratio:g}"
        if tag in tags:
            raise ValueError(f"--ratios {tags[tag]} and {piece} both write files tagged r{tag}")
        tags[tag] = piece
    os.makedirs(args.outdir, exist_ok=True)
    for tag, piece in tags.items():
        ratio = float(piece)
        run_cfg = dataclasses.replace(config, subsample_ratio=ratio)
        results = hz.run_seeds(run_cfg)
        exp_rows = [
            [policy, str(report.seed), repr(float(report.test_error))]
            for policy, reports in results.items()
            for report in reports
        ]
        _write_csv(f"{args.outdir}/experiments_r{tag}.csv", EXPERIMENTS_HEADER, exp_rows)
        summary = hz.summarize(results)
        _write_csv(f"{args.outdir}/summary_r{tag}.csv", SUMMARY_HEADER, _summary_rows(summary))
        train_split, _, _, _ = hz.prepare_task(run_cfg, run_cfg.seeds[0])
        dt.write_manifest(
            f"{args.outdir}/manifest_r{tag}.json", train_split, run_cfg.seeds, ratio
        )
        print(f"ratio {tag}:")
        _print_summary(summary)
    return 0


def cmd_ablate(args) -> int:
    config = hz.load_config(args.config)
    rows, _ = hz.ablate(config)
    _print_summary(rows)
    if args.out:
        _write_csv(args.out, SUMMARY_HEADER, _summary_rows(rows))
        print(f"wrote {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    report = gk.gradcheck(corrupt=args.corrupt, instances=args.instances, seed=args.seed)
    print(report.format())
    if not report.passed:
        print(f"FAILED: {', '.join(report.failures())}", file=sys.stderr)
        return 2
    print("all gradient checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="admix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one seeded training run")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser(
        "sweep", help="interpolation-loss grid: adversarially vs randomly mixed model"
    )
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", type=int, default=101)
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.add_argument("--pair", type=int, nargs=2, default=None,
                         metavar=("I", "J"), help="sweep one ordered example pair")
    p_sweep.add_argument("--svg", default=None, help="also render a line plot")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lowres = sub.add_parser("lowres", help="multi-seed comparison across subsample ratios")
    p_lowres.add_argument("--config", required=True)
    p_lowres.add_argument("--ratios", required=True, help="comma-separated, e.g. 0.25,0.5,1.0")
    p_lowres.add_argument("--outdir", default=".")
    p_lowres.set_defaults(func=cmd_lowres)

    p_ablate = sub.add_parser("ablate", help="baseline/+randop/+maxop/amp comparison")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--out", default=None)
    p_ablate.set_defaults(func=cmd_ablate)

    p_grad = sub.add_parser("gradcheck", help="finite-difference audit of every op")
    p_grad.add_argument("--instances", type=int, default=100)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--corrupt", default=None,
                        help="negate one op's gradients to prove the audit catches it")
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; this tool reserves 2 for
        # divergence and check failures, so usage problems remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
