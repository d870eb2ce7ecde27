"""Command-line entry point: run / serve / audit / sweep / gen-data.

Exit codes: 0 success, 1 usage, 2 config, 3 runtime, 4 protocol.
"""
from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

from .audit import load_transcript, summarize
from .config import ConfigError, parse_config, with_overrides
from .data import DataError, save_features
from .experiment import TeacherSide, build_dataset, run_experiment, serve_experiment, side_key
from .wire import ProtocolError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_PROTOCOL = 4


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    result = run_experiment(cfg, outdir=cfg.out)
    print(f"run complete: {result.outdir}")
    print(f"czsl u: {result.report_czsl.u:.2f}")
    print(
        f"gzsl u: {result.report_gzsl.u:.2f}  s: {result.report_gzsl.s:.2f}  "
        f"H: {result.report_gzsl.h:.2f}"
    )
    if result.bundle.shortfall:
        print(f"quota shortfall: {result.bundle.shortfall}")
    return EXIT_OK


def cmd_serve(args) -> int:
    cfg = parse_config(args.config)
    stop = threading.Event()

    def _stop(_sig, _frame):
        stop.set()

    def _ready(addr):
        # the teacher is trained and the port bound: clients may connect now
        print(f"serving teacher on {addr[0]}:{addr[1]} ({cfg.scenario})", flush=True)

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    serve_experiment(cfg, stop_event=stop, ready=_ready)
    print("transcript flushed")
    return EXIT_OK


def cmd_audit(args) -> int:
    entries = load_transcript(args.transcript)
    summary = summarize(entries)
    print(f"messages: {summary['messages']} (up {summary['up_messages']} / down {summary['down_messages']})")
    print(f"bytes up: {summary['up_bytes']}")
    print(f"bytes down: {summary['down_bytes']}")
    for risk in sorted(summary["risk"]):
        print(f"risk {risk}: {summary['risk'][risk]}")
    for kind in sorted(summary["kinds"]):
        print(f"kind {kind}: {summary['kinds'][kind]}")
    for scenario in sorted(summary["scenarios"]):
        print(f"scenario {scenario}: {summary['scenarios'][scenario]}")
    print(summary["verdict"])
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Run the config once per value of one client-side knob (noise_dim or alpha).

    Cells share the base config's seeds (common random numbers), so two rows
    differ only in the swept value. They also share one teacher side: the
    first cell builds it as a run of its own would, and the later cells are
    handed it. Each cell's config.azsl still reproduces that cell byte for
    byte under `azsl run`.
    """
    cfg = parse_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    outdir = Path(cfg.out)
    cells = []  # every cell is built and validated before any of them runs
    for i, raw in enumerate(values):
        try:
            if args.param == "noise_dim":
                overrides = {"noise_dim": int(raw)}
            else:
                overrides = {"alpha": float(raw)}
        except ValueError:
            raise ConfigError(f"bad sweep value {raw!r} for {args.param}") from None
        cells.append((raw, with_overrides(cfg, out=str(outdir / f"cell_{i:03d}"), **overrides)))
    outdir.mkdir(parents=True, exist_ok=True)
    rows = ["value,u,s,H"]
    side = None
    for raw, cell in cells:
        result = run_experiment(cell, outdir=cell.out, side=side)
        if side is None:
            side = TeacherSide(side_key(cell), result.dataset, result.split, result.teacher)
        r = result.report_gzsl
        rows.append(f"{raw},{r.u!r},{r.s!r},{r.h!r}")
        print(f"{args.param}={raw}: u={r.u:.2f} s={r.s:.2f} H={r.h:.2f}")
    csv_path = outdir / "sweep.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    print(f"sweep table: {csv_path}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = parse_config(args.spec)
    if cfg.synthetic is None:
        raise ConfigError("gen-data needs a synthetic dataset spec")
    dataset = build_dataset(cfg)
    save_features(dataset, args.out)
    print(f"wrote {dataset.n} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="azsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train and evaluate an experiment")
    p.add_argument("config")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("serve", help="host the teacher feedback service")
    p.add_argument("config")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("audit", help="summarize a transcript's disclosures")
    p.add_argument("transcript")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("sweep", help="re-run an experiment over a parameter grid")
    p.add_argument("config")
    p.add_argument("--param", required=True, choices=("noise_dim", "alpha"))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    p.add_argument("spec")
    p.add_argument("out")
    p.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
