"""Command-line surface for datasets, solvers, training, and sweeps.

Subcommands: generate, solve, train, eval, sweep-sigma, sweep-machines,
export, emit-mip, brute-force. Every subcommand takes --config and --out;
generate, solve, train and the sweeps take --seed; only solve takes
--parallel. An option left unset keeps the library's default.

--config names a JSON object whose entries parse as flags of the chosen
subcommand, placed before the explicit flags so that those win. A key is
the flag name without its dashes, words joined by ``-`` or ``_``; a string
value is the flag's text, any other value its JSON text; a switch takes
true or false; null leaves the option unset, and a key that names no
option is ignored. Output paths (--out, --log) are checked before any
work starts. Exit codes: 0 success, 1 usage error, 2 data error (an
unreadable input or an unwritable output among them), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import gap_percent
from .env import load_traces, record_expert_traces
from .errors import DataError, FlowshopError, NumericError, ValidationError
from .exact import brute_force, emit_mip
from .harness import (
    HEURISTIC_METHODS,
    ExperimentConfig,
    evaluate_policy_rows,
    export_report,
    report_from_json,
    report_to_json,
    solve_dataset,
    sweep_machines,
    sweep_sigma,
)
from .heuristics import neh
from .instances import DatasetSpec, generate, load_dataset, save_dataset
from .policy import PolicyConfig
from .training import TrainConfig, train

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The --config file's entries as flag tokens of ``parser``'s subcommand."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid config JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("config file must hold a JSON object")
    tokens = []
    for key, value in payload.items():
        flag = "--" + key.replace("_", "-")
        action = parser._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config") or value is None:
            continue
        if action.nargs != 0:
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
        elif not isinstance(value, bool):
            raise UsageError(f"config key {key!r} is a switch and takes true or false, not {value!r}")
        elif value:
            tokens.append(flag)
    return tokens


class _ConfigFile(argparse.Action):
    """Stores the --config file as flag tokens; main() parses them ahead of the explicit flags."""

    def __call__(self, parser, namespace, path, option_string=None):
        setattr(namespace, self.dest, _config_flags(parser, path))


def _given(args: argparse.Namespace, *names: str, **renamed: str) -> dict:
    """Keyword arguments from the options that were set: ``names`` as they are, ``field=option`` renamed."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {field: getattr(args, name) for field, name in pairs if hasattr(args, name)}


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _load_instances(path: str):
    try:
        return load_dataset(path)
    except FileNotFoundError as exc:
        raise DataError(f"dataset not found: {path}") from exc


def _indexed_instance(args: argparse.Namespace):
    """The --index-th instance of --dataset."""
    _require(args, "dataset")
    instances = _load_instances(args.dataset)
    if not 0 <= args.index < len(instances):
        raise DataError(f"instance index {args.index} out of range [0, {len(instances)})")
    return instances[args.index]


def _check_outputs(args: argparse.Namespace) -> None:
    """Reject an output path that cannot be written before any work starts: --out, whose
    directory train's .epochN checkpoints share, and --log. The path's directory must
    exist and be writable, and the path must not be a directory, except emit-mip's --out."""
    for flag in ("out", "log"):
        path = getattr(args, flag, None)
        if not path:
            continue
        target = Path(path)
        if target.is_dir() and args.command != "emit-mip":
            raise DataError(f"--{flag} {path} is a directory")
        folder = target if target.is_dir() else target.parent
        if not folder.is_dir():
            raise DataError(f"--{flag} {path}: directory {folder} does not exist")
        if not os.access(target if target.exists() else folder, os.W_OK):
            raise DataError(f"--{flag} {path} is not writable")


def _write(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to --out, or to stdout without one."""
    path = getattr(args, "out", None)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --- subcommand handlers ------------------------------------------------------


def _cmd_generate(args) -> int:
    _require(args, "out", "count", "jobs", "machines")
    spec = DatasetSpec(**_given(args, "count", "jobs", "machines", "dist", "k", "theta", "mu", "sigma", "seed"))
    save_dataset(args.out, generate(spec), spec)
    print(f"wrote {spec.count} instances to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    _require(args, "dataset")
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    for name in methods:
        if name not in HEURISTIC_METHODS:
            raise UsageError(f"unknown method {name!r}; choose from {', '.join(HEURISTIC_METHODS)}")
    given = _given(args, "seeds", "seed", "expert", "method_params", "parallel")
    config = ExperimentConfig(methods=methods, **given)
    report = solve_dataset(_load_instances(args.dataset), config)
    _write(args, report_to_json(report))
    for row in report.rows:
        print(f"{row.method:>6}: makespan {row.mean_makespan:.2f}  gap {row.mean_gap_pct:+.2f}%  time {row.time_s:.2f}s")
    return 0


def _cmd_train(args) -> int:
    _require(args, "dataset", "out")
    instances = _load_instances(args.dataset)
    if not instances:
        raise DataError("empty dataset")
    policy = PolicyConfig(
        machines=instances[0].m,
        **_given(args, "hidden_dim", "layers", "heads", "neighbor_fraction", "aggregation", "normalization"),
    )
    config = TrainConfig(
        policy=policy,
        checkpoint_path=args.out,
        **_given(
            args, "epochs", "batch_size", "lr_decay", "seed", "checkpoint_every", learning_rate="lr", log_path="log"
        ),
    )
    if getattr(args, "traces", None):
        traces = load_traces(args.traces, instances)
    else:
        traces = record_expert_traces(instances)
    val_instances = _load_instances(args.val_dataset) if getattr(args, "val_dataset", None) else None
    _, history = train(config, traces, val_instances)
    last = history[-1]
    gap = "n/a" if last["val_gap"] is None else f"{last['val_gap']:.2f}%"
    print(f"trained {config.epochs} epochs: loss {last['train_loss']:.4f}, val gap {gap}; checkpoint at {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _require(args, "checkpoint", "dataset")
    report = evaluate_policy_rows(args.checkpoint, _load_instances(args.dataset))
    _write(args, report_to_json(report))
    row = report.rows[0]
    print(f"policy: makespan {row.mean_makespan:.2f}  gap {row.mean_gap_pct:+.2f}%  time {row.time_s:.2f}s")
    return 0


def _number_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expects a comma-separated list of numbers, not {text!r}")
    return values


def _cmd_sweep_sigma(args) -> int:
    _require(args, "method_a", "method_b")
    given = _given(args, "count", "jobs", "machines", "mu", "seed")
    report = sweep_sigma(args.sigmas, args.method_a, args.method_b, **given)
    _write(args, report_to_json(report))
    for row in report.rows:
        print(f"sigma={row.extra['sigma']:g} {row.method:>12}: gap {row.mean_gap_pct:+.3f}%")
    return 0


def _cmd_sweep_machines(args) -> int:
    _require(args, "method_a", "method_b")
    report = sweep_machines(args.machines_list, args.method_a, args.method_b, **_given(args, "count", "jobs", "seed"))
    _write(args, report_to_json(report))
    for row in report.rows:
        print(f"m={row.extra['machines']} {row.method:>12}: gap {row.mean_gap_pct:+.3f}%")
    return 0


def _cmd_export(args) -> int:
    _require(args, "report")
    try:
        blob = Path(args.report).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read report: {exc}") from exc
    _write(args, export_report(report_from_json(blob), args.format))
    return 0


def _cmd_emit_mip(args) -> int:
    inst = _indexed_instance(args)
    out = getattr(args, "out", None)
    if out is None:
        out = f"{inst.name or f'instance-{args.index}'}.lp"
    elif Path(out).is_dir():
        out = str(Path(out) / f"{inst.name or f'instance-{args.index}'}.lp")
    Path(out).write_text(emit_mip(inst), encoding="utf-8", newline="\n")
    print(f"wrote {out}")
    return 0


def _cmd_brute_force(args) -> int:
    inst = _indexed_instance(args)
    perm, value = brute_force(inst)
    payload = {"instance": inst.name, "permutation": [int(v) for v in perm], "makespan": value}
    if args.neh_gap:
        payload["neh_makespan"] = neh(inst)[1]
        payload["neh_gap_pct"] = gap_percent(payload["neh_makespan"], value)
    _write(args, json.dumps(payload, indent=2))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="flowshop", description="Permutation flow-shop scheduling toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name: str, func, help: str) -> _Parser:
        # unset options stay out of the namespace, so the library's defaults apply
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", action=_ConfigFile, help="JSON file of option values; explicit flags win")
        p.add_argument("--out", help="output path")
        p.set_defaults(func=func)
        return p

    p = command("generate", _cmd_generate, "generate a dataset file")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--dist", choices=["gamma", "normal"])
    p.add_argument("--count", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--machines", type=int)
    p.add_argument("--k", type=float, help="gamma shape")
    p.add_argument("--theta", type=float, help="gamma scale")
    p.add_argument("--mu", type=float, help="normal mean")
    p.add_argument("--sigma", type=float, help="normal std (clamped at 0)")

    p = command("solve", _cmd_solve, "run heuristics over a dataset")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--parallel", action="store_true", help="run instances concurrently (timings lose comparability)")
    p.add_argument("--dataset")
    p.add_argument("--methods", default="neh,ig,ils,rs", help="comma list from: rs,ils,ig,neh")
    p.add_argument("--seeds", type=int, help="number of trials (default 3)")
    p.add_argument("--expert", choices=HEURISTIC_METHODS, help="gap reference method (default neh)")
    p.add_argument("--method-params", type=json.loads,
                   help='JSON dict of per-method overrides, e.g. {"rs": {"iterations": 1000}}')

    p = command("train", _cmd_train, "behavior-clone the expert from traces")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--traces", help="trace file; omitted = record NEH traces now")
    p.add_argument("--dataset", help="instances backing the traces")
    p.add_argument("--val-dataset")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-decay", type=float)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--neighbor-fraction", type=float)
    p.add_argument("--aggregation", choices=["mean", "sum", "max"])
    p.add_argument("--normalization", choices=["batch", "layer", "none"])
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--log", help="JSONL training log path")

    p = command("eval", _cmd_eval, "evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")

    p = command("sweep-sigma", _cmd_sweep_sigma, "job-difference sweep at fixed mu")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--sigmas", type=_number_list, default="0,2,4,6", help="comma list, default 0,2,4,6")
    p.add_argument("--method-a", help="heuristic name or policy:<checkpoint>")
    p.add_argument("--method-b")
    p.add_argument("--count", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--machines", type=int)
    p.add_argument("--mu", type=float)

    p = command("sweep-machines", _cmd_sweep_machines, "machine-count sweep on Gamma data")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--machines-list", type=_number_list, default="5,10", help="comma list, default 5,10")
    p.add_argument("--method-a")
    p.add_argument("--method-b")
    p.add_argument("--count", type=int)
    p.add_argument("--jobs", type=int)

    p = command("export", _cmd_export, "convert a report to csv or json")
    p.add_argument("--report")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = command("emit-mip", _cmd_emit_mip, "write the LP-format model of one instance")
    p.add_argument("--dataset")
    p.add_argument("--index", type=int, default=0)

    p = command("brute-force", _cmd_brute_force, "exact optimum of one small instance")
    p.add_argument("--dataset")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--neh-gap", action="store_true", default=False, help="also report the NEH gap")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        if hasattr(args, "config"):  # parse again with the file's flags right after the subcommand
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + args.config + argv[at:])
        _check_outputs(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValidationError, OSError) as exc:  # OSError: a file that failed mid-read or mid-write
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FlowshopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
