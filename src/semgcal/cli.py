"""Batch command-line interface.

Subcommands: synth (generate a dataset), preprocess (recordings -> example
tensors), train (supervised baseline), adapt (one unsupervised algorithm on
one session), evaluate (full calibration experiment with report), report
(pretty-print a saved report). Exit status 0 on success, 1 on a diagnosed
error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataio import load_report, load_session, save_dataset, save_manifest
from .errors import DataError, SemgCalError
from .experiment import (
    INPUT_KINDS,
    UNSUPERVISED,
    BenchmarkConfig,
    adapt_model,
    benchmark_report,
    fit_new,
    from_overrides,
    prepare_session,
)
from .nn import load_network, save_network
from .stats import accuracy
from .synth import SynthConfig, synth_generate


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)


def _harness_flags(args) -> dict:
    """`HarnessConfig` overrides for the `--gestures` and `--input-kind` flags given.

    Every subcommand applies them to the benchmark's harness, so `preprocess`,
    `train` and `adapt` run the schedule `evaluate` runs; `from_overrides`
    gives a new input kind its network's learning rate.
    """
    flags = {}
    if args.gestures is not None:
        flags.update(gestures=args.gestures, heuristic=None)
    if args.input_kind is not None:
        flags.update(input_kind=args.input_kind)
    return flags


def _load_config_overrides(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read config overrides {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise DataError(f"{path}: config overrides must be a JSON object")
    return overrides


def _write_run_manifest(args) -> None:
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    save_manifest(args.out, args.seed, payload)


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        subjects=args.subjects, sessions=args.sessions, gestures=args.gestures,
        shift_scale=args.shift_scale, noise_scale=args.noise_scale, seed=args.seed,
        cycle_block_seconds=args.block_seconds, eval_blocks=args.eval_blocks,
        eval_block_seconds=args.eval_block_seconds,
    )
    dataset = synth_generate(cfg)
    save_dataset(dataset, args.out)
    save_manifest(args.out, args.seed, cfg)
    print(f"wrote {cfg.subjects} subjects x {cfg.sessions} sessions to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    session = load_session(args.data, args.subject, args.session)
    cfg = from_overrides(BenchmarkConfig().harness, _harness_flags(args))
    prep = prepare_session(session, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / f"subject{args.subject}_session{args.session}_{args.input_kind}.npz"
    arrays = {
        "train_x": prep.train_x, "train_y": prep.train_y,
        "test_x": prep.test_x, "test_y": prep.test_y,
    }
    if prep.stream_x is not None:
        arrays["stream_x"] = prep.stream_x
        arrays["stream_y"] = prep.stream_y
    np.savez(out, **arrays)
    _write_run_manifest(args)
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    cfg = from_overrides(BenchmarkConfig().harness, _harness_flags(args))
    session = load_session(args.data, args.subject, args.session)
    prep = prepare_session(session, cfg)
    model = fit_new(cfg, prep.train_x, prep.train_y, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"model_subject{args.subject}_session{args.session}.bin"
    save_network(model, path)
    acc = accuracy(model.predict(prep.test_x), prep.test_y)
    _write_run_manifest(args)
    print(f"wrote {path} (held-out cycle accuracy {acc:.4f})")
    return 0


def cmd_adapt(args) -> int:
    cfg = from_overrides(BenchmarkConfig().harness, _harness_flags(args))
    model = load_network(args.model)
    if model.num_gestures != cfg.gestures:
        raise DataError(f"{args.model} has {model.num_gestures} gesture outputs, "
                        f"but --gestures is {cfg.gestures}")
    source = prepare_session(load_session(args.data, args.subject, args.source_session), cfg)
    target = prepare_session(load_session(args.data, args.subject, args.session), cfg)
    algo = args.algorithm
    model, _ = adapt_model(algo, model, source.train_x, source.train_y, [target.stream_x], cfg, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"model_{algo}_subject{args.subject}_session{args.session}.bin"
    save_network(model, path)
    acc = accuracy(model.predict(target.test_x), target.test_y)
    _write_run_manifest(args)
    print(f"wrote {path} (held-out cycle accuracy {acc:.4f})")
    return 0


def cmd_evaluate(args) -> int:
    cfg = from_overrides(BenchmarkConfig(seed=args.seed), _load_config_overrides(args.config))
    # The flags win over the file: they are applied second.
    synth = {} if args.gestures is None else {"gestures": args.gestures}
    cfg = from_overrides(cfg, {"synth": synth, "harness": _harness_flags(args)})
    report = benchmark_report(cfg, args.out)
    best = {}
    for s, table in report["accuracy"].items():
        matrix = np.asarray(table["matrix"])
        means = matrix.mean(axis=0)
        best[s] = (table["algorithms"][int(np.argmax(means))], float(means.max()))
    print(f"report written to {args.out}")
    for s, (algo, acc) in sorted(best.items()):
        print(f"  session {s}: best mean accuracy {acc:.4f} ({algo})")
    return 0


def cmd_report(args) -> int:
    payload = load_report(Path(args.report) / "report.json" if Path(args.report).is_dir() else args.report)
    for s in sorted(payload["accuracy"]):
        table = payload["accuracy"][s]
        matrix = table["matrix"]
        print(f"session {s}:")
        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0)
        for j, algo in enumerate(table["algorithms"]):
            line = f"  {algo:>14s}: {means[j] * 100:6.2f}% +- {stds[j] * 100:5.2f}%"
            st = payload.get("stats", {}).get(s)
            if st is not None:
                rank = st["friedman"]["avg_ranks"].get(algo)
                if rank is not None:
                    line += f"  rank {rank:.2f}"
                holm = st["holm"].get(algo)
                if holm is not None:
                    line += f"  H0={'0' if holm['reject'] else '1'} (p={holm['p_adjusted']:.5f})"
                dz = st["cohens_dz"].get(algo)
                if dz is not None:
                    line += f"  Dz={dz:.2f}"
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semgcal",
                                     description="Self-calibration of sEMG gesture classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-session dataset")
    _add_common(p)
    p.add_argument("--subjects", type=int, default=20)
    p.add_argument("--sessions", type=int, default=3)
    p.add_argument("--gestures", type=int, choices=(7, 11), default=11)
    p.add_argument("--shift-scale", type=float, default=0.35)
    p.add_argument("--noise-scale", type=float, default=0.15)
    p.add_argument("--block-seconds", type=float, default=5.0)
    p.add_argument("--eval-blocks", type=int, default=42)
    p.add_argument("--eval-block-seconds", type=float, default=5.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="recordings -> example tensors on disk")
    _add_common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--session", type=int, default=0)
    p.add_argument("--input-kind", choices=INPUT_KINDS, default="tsd")
    p.add_argument("--gestures", type=int, choices=(7, 11), default=11)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the supervised baseline on one session")
    _add_common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--session", type=int, default=0)
    p.add_argument("--input-kind", choices=INPUT_KINDS, default="tsd")
    p.add_argument("--gestures", type=int, choices=(7, 11), default=11)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("adapt", help="adapt a trained model to one unlabeled session")
    p.add_argument("algorithm", choices=UNSUPERVISED)
    _add_common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--session", type=int, required=True)
    p.add_argument("--source-session", type=int, default=0)
    p.add_argument("--input-kind", choices=INPUT_KINDS, default="tsd")
    p.add_argument("--gestures", type=int, choices=(7, 11), default=11)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("evaluate", help="run the calibration experiment and write a report")
    _add_common(p)
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with synth/harness overrides")
    p.add_argument("--gestures", type=int, choices=(7, 11), default=None)
    p.add_argument("--input-kind", choices=INPUT_KINDS, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="pretty-print a saved report")
    p.add_argument("--report", type=Path, required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SemgCalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
