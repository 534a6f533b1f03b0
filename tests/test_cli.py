"""CLI surface: subcommands, config files, exit codes."""

import json

import numpy as np
import pytest

from flowshop.cli import main
from flowshop.harness import report_from_json
from flowshop.instances import load_dataset

from test_instances import HEADER_CORRUPTIONS, rewrite_dataset_header


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


class TestExitCodes:
    def test_no_subcommand(self):
        assert run([]) == 1

    def test_bad_flag_value(self):
        assert run(["generate", "--count", "NaNdogs"]) == 1
