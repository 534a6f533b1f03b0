"""CLI surface: subcommands, config files, exit codes."""

import argparse
import json
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from flowshop import cli
from flowshop.cli import build_parser, main
from flowshop.env import record_expert_traces, save_traces
from flowshop.harness import report_from_json
from flowshop.instances import DatasetSpec, generate, load_dataset, save_dataset
from flowshop.policy import PolicyConfig, PolicyParams
from flowshop.training import load_checkpoint, save_checkpoint

from test_env import TRACE_HEADER_CORRUPTIONS
from test_harness import METHOD_PARAMS_CORRUPTIONS, REPORT_CORRUPTIONS
from test_instances import HEADER_CORRUPTIONS, rewrite_dataset_header
from test_training import MANIFEST_CORRUPTIONS, TINY_POLICY, rewrite_checkpoint_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return main(argv)


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "ds.fsd"
    rc = run([
        "generate", "--dist", "gamma", "--count", "6", "--jobs", "6",
        "--machines", "3", "--seed", "4", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_dataset(self, dataset):
        insts = load_dataset(dataset)
        assert len(insts) == 6
        assert insts[0].n == 6 and insts[0].m == 3

    def test_byte_identical_reruns(self, tmp_path):
        args = ["generate", "--count", "4", "--jobs", "5", "--machines", "2", "--seed", "9"]
        a, b = tmp_path / "a.fsd", tmp_path / "b.fsd"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sigma_zero_identical_jobs(self, tmp_path):
        path = tmp_path / "flat.fsd"
        rc = run([
            "generate", "--dist", "normal", "--sigma", "0", "--count", "2",
            "--jobs", "4", "--machines", "2", "--seed", "1", "--out", str(path),
        ])
        assert rc == 0
        for inst in load_dataset(path):
            assert np.all(inst.times == 6.0)

    def test_missing_out_is_usage_error(self):
        assert run(["generate", "--count", "1", "--jobs", "2", "--machines", "2"]) == 1


class TestSolve:
    def test_expert_only_zero_gap(self, dataset, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run(["solve", "--dataset", str(dataset), "--methods", "neh", "--out", str(out)])
        assert rc == 0
        report = report_from_json(out.read_text())
        assert report.rows[0].mean_gap_pct == 0.0

    def test_unknown_method_usage_error(self, dataset, capsys):
        rc = run(["solve", "--dataset", str(dataset), "--methods", "tabu"])
        assert rc == 1
        assert "unknown method" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = run(["solve", "--dataset", str(tmp_path / "nope.fsd"), "--methods", "neh"])
        assert rc == 2

    def test_budget_without_any_limit_is_validation_error(self, dataset, capsys):
        rc = run(["solve", "--dataset", str(dataset), "--methods", "rs",
                  "--method-params", '{"rs": {"iterations": null}}'])
        assert rc == 2
        assert "max_iterations or max_time" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": "neh,rs", "seeds": 1, "out": str(tmp_path / "r.json")}))
        rc = run(["solve", "--dataset", str(dataset), "--config", str(cfg)])
        assert rc == 0
        report = report_from_json((tmp_path / "r.json").read_text())
        assert [row.method for row in report.rows] == ["neh", "rs"]


class TestTrainEvalSweep:
    def test_train_then_eval_and_sigma_sweep(self, tmp_path):
        ds = tmp_path / "train.fsd"
        val = tmp_path / "val.fsd"
        assert run(["generate", "--count", "8", "--jobs", "5", "--machines", "2",
                    "--seed", "3", "--out", str(ds)]) == 0
        assert run(["generate", "--count", "4", "--jobs", "5", "--machines", "2",
                    "--seed", "30", "--out", str(val)]) == 0

        # record traces through the library (no CLI subcommand needed for this)
        from flowshop.env import record_expert_traces, save_traces

        traces_path = tmp_path / "traces.fst"
        save_traces(traces_path, record_expert_traces(load_dataset(ds)))

        ckpt = tmp_path / "model.fsc"
        log = tmp_path / "log.jsonl"
        rc = run([
            "train", "--traces", str(traces_path), "--dataset", str(ds),
            "--val-dataset", str(val), "--epochs", "2", "--batch-size", "4",
            "--hidden-dim", "8", "--layers", "1", "--heads", "2",
            "--seed", "0", "--out", str(ckpt), "--log", str(log),
        ])
        assert rc == 0
        assert ckpt.exists()
        assert len(log.read_text().strip().splitlines()) == 2

        out = tmp_path / "eval.json"
        rc = run(["eval", "--checkpoint", str(ckpt), "--dataset", str(val), "--out", str(out)])
        assert rc == 0
        report = report_from_json(out.read_text())
        assert report.rows[0].method == "policy"

        sweep_out = tmp_path / "sweep.json"
        rc = run([
            "sweep-sigma", "--sigmas", "0", "--count", "3", "--jobs", "5", "--machines", "2",
            "--method-a", f"policy:{ckpt}", "--method-b", "neh",
            "--seed", "1", "--out", str(sweep_out),
        ])
        assert rc == 0
        report = report_from_json(sweep_out.read_text())
        assert all(row.mean_gap_pct == 0.0 for row in report.rows)  # sigma=0 exact tie

    def test_train_on_mixed_job_counts_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "mixed.fsd"
        mixed = [inst for jobs in (6, 7) for inst in generate(DatasetSpec(count=2, jobs=jobs, machines=3, seed=5))]
        save_dataset(ds, mixed)
        rc = run(["train", "--dataset", str(ds), "--epochs", "1", "--hidden-dim", "8", "--layers", "1",
                  "--heads", "2", "--out", str(tmp_path / "model.fsc")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "job count" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.fsc").exists()

    def test_machine_mismatch_is_data_error(self, dataset, tmp_path, capsys):
        # the m=3 model against an m=4 validation set and an m=4 sweep spec
        val = tmp_path / "m4.fsd"
        save_dataset(val, generate(DatasetSpec(count=2, jobs=6, machines=4, seed=5)))
        ckpt = tmp_path / "model.fsc"
        save_checkpoint(ckpt, PolicyParams.init(TINY_POLICY))
        train = ["train", "--dataset", str(dataset), "--val-dataset", str(val), "--epochs", "1",
                 "--hidden-dim", "8", "--layers", "1", "--heads", "2", "--out", str(tmp_path / "trained.fsc")]
        sweep = ["sweep-machines", "--machines-list", "3,4", "--method-a", f"policy:{ckpt}", "--method-b", "ig",
                 "--count", "2", "--jobs", "5"]
        for argv in (train, sweep, ["eval", "--checkpoint", str(ckpt), "--dataset", str(val)]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert "has 4 machines, model expects 3" in err and "Traceback" not in err
        assert not (tmp_path / "trained.fsc").exists()

    def test_train_on_empty_dataset_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "empty.fsd"
        save_dataset(ds, [])
        rc = run(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(tmp_path / "model.fsc")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error: empty dataset" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.fsc").exists()


class TestExportAndExact:
    def test_export_csv(self, dataset, tmp_path):
        rep = tmp_path / "r.json"
        assert run(["solve", "--dataset", str(dataset), "--methods", "neh", "--out", str(rep)]) == 0
        out = tmp_path / "r.csv"
        assert run(["export", "--report", str(rep), "--format", "csv", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("method,n,m,makespan,gap_pct,time_s")

    def test_emit_mip_writes_named_file(self, dataset, tmp_path):
        rc = run(["emit-mip", "--dataset", str(dataset), "--index", "1", "--out", str(tmp_path)])
        assert rc == 0
        files = list(tmp_path.glob("*.lp"))
        assert len(files) == 1
        text = files[0].read_text()
        assert text.splitlines()[2] == "Minimize"

    def test_emit_mip_bad_index(self, dataset, tmp_path):
        rc = run(["emit-mip", "--dataset", str(dataset), "--index", "99", "--out", str(tmp_path)])
        assert rc == 2

    def test_brute_force_reports_optimum(self, dataset, tmp_path):
        out = tmp_path / "bf.json"
        rc = run(["brute-force", "--dataset", str(dataset), "--index", "0",
                  "--neh-gap", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["neh_makespan"] >= payload["makespan"]
        assert sorted(payload["permutation"]) == list(range(6))


class TestMalformedDataset:
    @pytest.mark.parametrize("corrupt", HEADER_CORRUPTIONS.values(), ids=HEADER_CORRUPTIONS.keys())
    def test_brute_force_exit_code_2(self, dataset, corrupt, capsys):
        rewrite_dataset_header(dataset, corrupt)
        rc = run(["brute-force", "--dataset", str(dataset), "--index", "0"])
        assert rc == 2
        assert "header" in capsys.readouterr().err


class TestMalformedTraces:
    @pytest.mark.parametrize("corrupt", TRACE_HEADER_CORRUPTIONS.values(), ids=TRACE_HEADER_CORRUPTIONS.keys())
    def test_train_exit_code_2(self, dataset, tmp_path, corrupt, capsys):
        traces = tmp_path / "traces.fst"
        save_traces(traces, record_expert_traces(load_dataset(dataset)))
        rewrite_dataset_header(traces, corrupt)
        rc = run(["train", "--traces", str(traces), "--dataset", str(dataset), "--epochs", "1",
                  "--out", str(tmp_path / "model.fsc")])
        assert rc == 2
        assert "trace header" in capsys.readouterr().err


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("corrupt", MANIFEST_CORRUPTIONS.values(), ids=MANIFEST_CORRUPTIONS.keys())
    def test_eval_exit_code_2(self, dataset, tmp_path, corrupt, capsys):
        ckpt = tmp_path / "model.fsc"
        save_checkpoint(ckpt, PolicyParams.init(TINY_POLICY))
        rewrite_checkpoint_manifest(ckpt, corrupt)
        rc = run(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                  "--out", str(tmp_path / "eval.json")])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err


def _file(tmp_path, data: bytes) -> str:
    path = tmp_path / "file"
    path.write_bytes(data)
    return str(path)


def _dataset_with_first_time(tmp_path, dataset, value: float) -> str:
    """A copy of ``dataset`` whose first processing time is ``value``."""
    head, body = dataset.read_bytes().split(b"\n", 1)
    return _file(tmp_path, head + b"\n" + np.array([value], dtype="<f8").tobytes() + body[8:])


def _nan_checkpoint(tmp_path) -> str:
    params = PolicyParams.init(TINY_POLICY)
    for tensor in params.tensors.values():
        tensor.data[:] = np.nan
    save_checkpoint(tmp_path / "nan.fsc", params)
    return str(tmp_path / "nan.fsc")


# CLI error paths: (argv from the tmp dir and the dataset; exit code; stderr text). The test puts
# a writable --out right after the subcommand, so a case's own --out, if any, wins.
ERROR_PATHS = {
    "config-missing": (lambda tmp, ds: ["generate", "--config", str(tmp / "none.json")], 2, "data error"),
    "config-directory": (lambda tmp, ds: ["generate", "--config", str(tmp)], 2, "data error"),
    "config-not-utf8": (lambda tmp, ds: ["generate", "--config", _file(tmp, b'{"count": "\xff"}')], 2, "data error"),
    "config-invalid-json": (lambda tmp, ds: ["generate", "--config", _file(tmp, b'{"count": ')], 2, "data error"),
    "config-array": (lambda tmp, ds: ["generate", "--config", _file(tmp, b"[2]")], 2, "data error"),
    "report-missing": (lambda tmp, ds: ["export", "--report", str(tmp / "none.json")], 2, "data error"),
    "report-directory": (lambda tmp, ds: ["export", "--report", str(tmp)], 2, "data error"),
    "dataset-nan-time": (
        lambda tmp, ds: ["brute-force", "--dataset", _dataset_with_first_time(tmp, ds, np.nan)], 2, "data error"
    ),
    "dataset-negative-time": (
        lambda tmp, ds: ["brute-force", "--dataset", _dataset_with_first_time(tmp, ds, -1.0)], 2, "data error"
    ),
    "checkpoint-nan-tensors": (
        lambda tmp, ds: ["eval", "--checkpoint", _nan_checkpoint(tmp), "--dataset", str(ds)], 3, "numeric failure"
    ),
    "train-nan-lr": (lambda tmp, ds: ["train", "--dataset", str(ds), "--epochs", "1", "--lr", "nan"], 2, "learning_rate"),
    "train-inf-lr": (lambda tmp, ds: ["train", "--dataset", str(ds), "--epochs", "1", "--lr", "inf"], 2, "learning_rate"),
    "sigmas-empty": (lambda tmp, ds: ["sweep-sigma", "--sigmas", ",", "--method-a", "rs", "--method-b", "neh"],
                     1, "usage error"),
    "machines-list-empty": (
        lambda tmp, ds: ["sweep-machines", "--machines-list", ",", "--method-a", "rs", "--method-b", "neh"],
        1, "usage error",
    ),
    "checkpoint-missing": (
        lambda tmp, ds: ["eval", "--checkpoint", str(tmp / "none.fsc"), "--dataset", str(ds)], 2, "data error"
    ),
    "dataset-directory": (lambda tmp, ds: ["solve", "--dataset", str(tmp), "--methods", "neh"], 2, "data error"),
    "traces-missing": (
        lambda tmp, ds: ["train", "--dataset", str(ds), "--traces", str(tmp / "none.fst"), "--epochs", "1"],
        2, "data error",
    ),
    # output paths, checked before any work
    "generate-out-no-directory": (
        lambda tmp, ds: ["generate", "--count", "1", "--jobs", "3", "--machines", "2", "--out", str(tmp / "no" / "x.fsd")],
        2, "does not exist",
    ),
    "solve-out-no-directory": (
        lambda tmp, ds: ["solve", "--dataset", str(ds), "--methods", "neh", "--out", str(tmp / "no" / "r.json")],
        2, "does not exist",
    ),
    "solve-out-directory": (
        lambda tmp, ds: ["solve", "--dataset", str(ds), "--methods", "neh", "--out", str(tmp)], 2, "is a directory"
    ),
    "brute-force-out-no-directory": (
        lambda tmp, ds: ["brute-force", "--dataset", str(ds), "--out", str(tmp / "no" / "bf.json")], 2, "does not exist"
    ),
    "emit-mip-out-no-directory": (
        lambda tmp, ds: ["emit-mip", "--dataset", str(ds), "--out", str(tmp / "no" / "m.lp")], 2, "does not exist"
    ),
    "train-out-no-directory": (
        lambda tmp, ds: ["train", "--dataset", str(ds), "--epochs", "1", "--out", str(tmp / "no" / "c.fsc")],
        2, "does not exist",
    ),
    "train-log-no-directory": (
        lambda tmp, ds: ["train", "--dataset", str(ds), "--epochs", "1", "--log", str(tmp / "no" / "l.jsonl")],
        2, "does not exist",
    ),
}


class TestExitCodes:
    def test_no_subcommand(self):
        assert run([]) == 1

    def test_bad_flag_value(self):
        assert run(["generate", "--count", "NaNdogs"]) == 1

    @pytest.mark.parametrize("case", ERROR_PATHS.values(), ids=ERROR_PATHS.keys())
    def test_error_path(self, dataset, tmp_path, case, capsys):
        make_argv, code, text = case
        out = tmp_path / "out"
        argv = make_argv(tmp_path, dataset)
        assert run(argv[:1] + ["--out", str(out)] + argv[1:]) == code
        err = capsys.readouterr().err
        assert text in err and "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_unwritable_train_output_is_rejected_before_training(self, dataset, tmp_path, monkeypatch, flag):
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("trained despite an unwritable output"))
        argv = ["train", "--dataset", str(dataset), "--epochs", "1", "--out", str(tmp_path / "c.fsc")]
        assert run(argv + [flag, str(tmp_path / "no" / "file")]) == 2

    def test_write_failure_is_data_error(self, dataset, tmp_path, monkeypatch, capsys):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert run(["solve", "--dataset", str(dataset), "--methods", "neh", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "No space left" in err and "Traceback" not in err


# Config entries probed against each subcommand: (arguments, entries, the same
# options as flag text). Flag text None marks a usage error (exit 1).
CONFIG_PROBES = {
    "string-seeds": (["solve", "--dataset", "{ds}", "--methods", "neh,rs"], {"seeds": "2"}, ["--seeds", "2"]),
    "string-machines": (["generate", "--count", "2", "--jobs", "4"], {"machines": "2"}, ["--machines", "2"]),
    "string-mu": (["generate", "--dist", "normal", "--count", "2", "--jobs", "4", "--machines", "2"],
                  {"mu": "7"}, ["--mu", "7"]),
    "object-method-params": (["solve", "--dataset", "{ds}", "--methods", "rs", "--seeds", "1"],
                             {"method_params": {"rs": {"iterations": 5}}},
                             ["--method-params", '{"rs": {"iterations": 5}}']),
    "dashed-key": (["sweep-machines", "--method-a", "rs", "--method-b", "neh", "--count", "2", "--jobs", "4"],
                   {"machines-list": "2,3"}, ["--machines-list", "2,3"]),
    "switch-true": (["brute-force", "--dataset", "{ds}"], {"neh_gap": True}, ["--neh-gap"]),
    "switch-false": (["brute-force", "--dataset", "{ds}"], {"neh_gap": False}, []),
    "list-methods": (["solve", "--dataset", "{ds}"], {"methods": ["neh"]}, None),
    "list-sigmas": (["sweep-sigma", "--method-a", "rs", "--method-b", "neh"], {"sigmas": [0, 2]}, None),
    "fractional-count": (["generate", "--jobs", "4", "--machines", "2"], {"count": 2.5}, None),
    "fractional-index": (["brute-force", "--dataset", "{ds}"], {"index": 2.5}, None),
    "string-epochs": (["train", "--dataset", "{ds}"], {"epochs": "x"}, None),
    "string-lr": (["train", "--dataset", "{ds}"], {"lr": "fast"}, None),
    "string-switch": (["solve", "--dataset", "{ds}"], {"parallel": "no"}, None),
    "numeric-expert": (["solve", "--dataset", "{ds}"], {"expert": 3}, None),
}


def _outcome(path):
    """What a run wrote, less its wall times: dataset bytes, or each report row's per-seed makespans."""
    if path.suffix == ".fsd":
        return path.read_bytes()
    payload = json.loads(path.read_text())
    if "rows" not in payload:  # brute-force
        return payload
    return [(row["method"], [rec["makespans"] for rec in row["per_seed"]]) for row in payload["rows"]]


def _write_config(tmp_path, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    return str(cfg)


class TestConfigFile:
    @pytest.mark.parametrize("probe", CONFIG_PROBES.values(), ids=CONFIG_PROBES.keys())
    def test_entry_parses_like_its_flag(self, dataset, tmp_path, probe, capsys):
        argv, entries, flags = probe
        argv = [arg.replace("{ds}", str(dataset)) for arg in argv]
        suffix = ".fsd" if argv[0] == "generate" else ".json"
        from_config = tmp_path / f"config{suffix}"
        rc = run(argv + ["--config", _write_config(tmp_path, entries), "--out", str(from_config)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if flags is None:
            assert rc == 1
            assert "usage error" in err
        else:
            from_flags = tmp_path / f"flags{suffix}"
            assert rc == 0
            assert run(argv + flags + ["--out", str(from_flags)]) == 0
            assert _outcome(from_config) == _outcome(from_flags)

    def test_explicit_flag_wins(self, dataset, tmp_path):
        out = tmp_path / "r.json"
        cfg = _write_config(tmp_path, {"seeds": 2, "methods": "rs"})
        assert run(["solve", "--dataset", str(dataset), "--config", cfg, "--seeds", "1", "--out", str(out)]) == 0
        assert len(report_from_json(out.read_text()).rows[0].per_seed) == 1

    def test_null_leaves_option_unset(self, dataset, tmp_path):
        out = tmp_path / "r.json"
        cfg = _write_config(tmp_path, {"seeds": None, "methods": "rs"})
        assert run(["solve", "--dataset", str(dataset), "--config", cfg, "--out", str(out)]) == 0
        assert len(report_from_json(out.read_text()).rows[0].per_seed) == 3  # ExperimentConfig's default

    def test_keys_for_no_option_are_ignored(self, dataset, tmp_path):
        report = tmp_path / "r.json"
        assert run(["solve", "--dataset", str(dataset), "--methods", "neh", "--out", str(report)]) == 0
        cfg = _write_config(tmp_path, {"seed": 1, "parallel": True, "no_such_option": 1})
        assert run(["export", "--report", str(report), "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0

    def test_train_unset_options_keep_library_defaults(self, dataset, tmp_path):
        ckpt = tmp_path / "model.fsc"
        assert run(["train", "--dataset", str(dataset), "--epochs", "1", "--out", str(ckpt)]) == 0
        _, manifest = load_checkpoint(ckpt)
        assert manifest["policy"] == asdict(PolicyConfig(machines=3))


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# Each subcommand's flags besides --config and --help. --seed, --out and
# --parallel appear only where the handler reads them.
SUBCOMMAND_FLAGS = {
    "generate": {"--out", "--seed", "--dist", "--count", "--jobs", "--machines", "--k", "--theta", "--mu", "--sigma"},
    "solve": {"--out", "--seed", "--parallel", "--dataset", "--methods", "--seeds", "--expert", "--method-params"},
    "train": {
        "--out", "--seed", "--traces", "--dataset", "--val-dataset", "--epochs", "--batch-size", "--lr", "--lr-decay",
        "--hidden-dim", "--layers", "--heads", "--neighbor-fraction", "--aggregation", "--normalization",
        "--checkpoint-every", "--log",
    },
    "eval": {"--out", "--checkpoint", "--dataset"},
    "sweep-sigma": {
        "--out", "--seed", "--sigmas", "--method-a", "--method-b", "--count", "--jobs", "--machines", "--mu",
    },
    "sweep-machines": {"--out", "--seed", "--machines-list", "--method-a", "--method-b", "--count", "--jobs"},
    "export": {"--out", "--report", "--format"},
    "emit-mip": {"--out", "--dataset", "--index"},
    "brute-force": {"--out", "--dataset", "--index", "--neh-gap"},
}
REMOVED_FLAGS = [(cmd, "--parallel") for cmd in SUBCOMMAND_FLAGS if cmd != "solve"] + [
    (cmd, "--seed") for cmd in ("eval", "export", "emit-mip", "brute-force")
]


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        commands = _subcommands()
        assert set(commands) == set(SUBCOMMAND_FLAGS)
        for name, parser in commands.items():
            flags = {flag for action in parser._actions for flag in action.option_strings}
            assert flags - {"-h", "--help", "--config"} == SUBCOMMAND_FLAGS[name], name

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
    def test_removed_flag_is_usage_error(self, command, flag, capsys):
        assert run([command, flag] + (["1"] if flag == "--seed" else [])) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        text = README.read_text(encoding="utf-8").replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in text.splitlines() if line.startswith("flowshop ")]
        assert len(commands) >= 10
        for argv in commands:
            assert build_parser().parse_args(argv[1:]).func is not None, argv


class TestMalformedMethodParams:
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "method_params", METHOD_PARAMS_CORRUPTIONS.values(), ids=METHOD_PARAMS_CORRUPTIONS.keys()
    )
    def test_solve_exit_code_2(self, dataset, tmp_path, method_params, via, capsys):
        argv = ["solve", "--dataset", str(dataset), "--methods", "ig,ils,rs", "--seeds", "1"]
        if via == "flag":
            argv += ["--method-params", json.dumps(method_params)]
        else:
            argv += ["--config", _write_config(tmp_path, {"method_params": method_params})]
        assert run(argv) == 2
        assert "data error" in capsys.readouterr().err


class TestSweepMachinesFlag:
    def test_fractional_count_exit_code_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["sweep-machines", "--machines-list", "2,3.7", "--method-a", "rs", "--method-b", "neh",
                "--count", "2", "--jobs", "5", "--out", str(out)]
        assert run(argv) == 2
        assert "machine counts" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedReport:
    @pytest.mark.parametrize("blob", REPORT_CORRUPTIONS.values(), ids=REPORT_CORRUPTIONS.keys())
    def test_export_exit_code_2(self, tmp_path, blob, capsys):
        report = tmp_path / "r.json"
        report.write_bytes(blob)
        assert run(["export", "--report", str(report)]) == 2
        assert "data error" in capsys.readouterr().err
