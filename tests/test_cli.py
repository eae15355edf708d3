import json
from pathlib import Path

import numpy as np
import pytest

from bitbit.cli import main
from bitbit.data import SplitSpec, load_csv, make_synthetic, split_train_test
from bitbit.dimred import ReducerSpec
from bitbit.encoder import Bitstring, encode_samples, fit_encoder
from bitbit.qsim import fresh_model, get_qubit_cap
from tests.conftest import write_dataset_csv


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def report_without_timestamp(path) -> dict:
    doc = json.loads(Path(path).read_text())
    doc.pop("timestamp")
    return doc


@pytest.fixture
def separable_1d_csv(tmp_path):
    path = tmp_path / "sep1d.csv"
    write_dataset_csv(path, make_synthetic(100, 1, 2, 12.0, seed=1))
    return path


@pytest.fixture
def separable_2d_csv(tmp_path):
    path = tmp_path / "sep2d.csv"
    write_dataset_csv(path, make_synthetic(120, 2, 2, 8.0, seed=2))
    return path


class TestEstimateCommand:
    def test_separable_one_dimensional_needs_two_qubits(self, tmp_path, separable_1d_csv):
        out = tmp_path / "report.json"
        code = run_cli(
            "estimate", "--input", separable_1d_csv, "--label-column", "label",
            "--scheme", "none", "--replicates", "3", "--seed", "0", "--stratify",
            "--n-x-max", "16", "--output", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["aggregates"]["1.0"]["mean_q_dataset"] == 2.0
        assert report["aggregates"]["0.99"]["mean_q_dataset"] == 2.0
        assert (tmp_path / "report.curves.csv").exists()

    def test_reports_are_deterministic_modulo_timestamp(self, tmp_path, separable_2d_csv):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                "estimate", "--input", separable_2d_csv, "--label-column", "label",
                "--replicates", "2", "--seed", "3", "--n-x-max", "24", "--output", out,
            ) == 0
            outs.append(out)
        a, b = outs
        assert report_without_timestamp(a) == report_without_timestamp(b)
        assert json.loads(a.read_text())["timestamp"]  # present, isolated
        assert a.with_suffix(".curves.csv").read_bytes() == b.with_suffix(".curves.csv").read_bytes()

    def test_threshold_nesting_per_replicate(self, tmp_path, separable_2d_csv):
        out = tmp_path / "r.json"
        run_cli("estimate", "--input", separable_2d_csv, "--label-column", "label",
                "--replicates", "3", "--n-x-max", "24", "--output", out)
        report = json.loads(out.read_text())
        for rep in report["replicates"]:
            loose = rep["thresholds"]["0.99"]["q_dataset"]
            strict = rep["thresholds"]["1.0"]["q_dataset"]
            assert loose is not None and strict is not None and loose <= strict

    def test_uncovered_dataset_exits_two(self, tmp_path):
        # duplicate rows with conflicting labels can never be covered
        path = tmp_path / "conflict.csv"
        path.write_text(
            "a,label\n" + "".join(f"1.0,{i % 2}\n" for i in range(8)) + "2.0,0\n3.0,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        code = run_cli("estimate", "--input", path, "--label-column", "label",
                       "--scheme", "none", "--replicates", "1", "--n-x-max", "4",
                       "--output", out)
        assert code == 2
        report = json.loads(out.read_text())
        assert report["replicates"][0]["thresholds"]["1.0"]["covered"] is False
        assert any("conflicting labels" in w for w in report["warnings"])

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = run_cli("estimate", "--input", tmp_path / "nope.csv",
                       "--label-column", "label", "--output", tmp_path / "r.json")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_label_mapping_echoed(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text(
            "a,kind\n" + "".join(f"{i}.0,{'dog' if i % 2 else 'cat'}\n" for i in range(20)),
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        run_cli("estimate", "--input", path, "--label-column", "kind", "--scheme", "none",
                "--replicates", "1", "--n-x-max", "12", "--output", out)
        assert json.loads(out.read_text())["label_mapping"] == {"cat": 0, "dog": 1}

    def test_parallel_jobs_match_sequential(self, tmp_path, separable_2d_csv):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        for out, jobs in ((seq, 1), (par, 4)):
            run_cli("estimate", "--input", separable_2d_csv, "--label-column", "label",
                    "--replicates", "4", "--n-x-max", "24", "--jobs", jobs, "--output", out)
        assert report_without_timestamp(seq) == report_without_timestamp(par)


class TestStreamEstimateCommand:
    def test_usage_error_without_batch_size(self, tmp_path, capsys):
        assert run_cli("stream-estimate", "--train-input", "x.csv", "--test-input", "y.csv",
                       "--output", tmp_path / "r.json") == 1
        capsys.readouterr()

    def test_streamed_flag_and_artifacts(self, tmp_path, separable_2d_csv):
        train_csv, test_csv = tmp_path / "tr.csv", tmp_path / "te.csv"
        from bitbit.data import SplitSpec, split_train_test
        d = load_csv(separable_2d_csv, "label")
        train, test = split_train_test(d, SplitSpec(0.8, seed=4))
        write_dataset_csv(train_csv, train)
        write_dataset_csv(test_csv, test)
        out = tmp_path / "stream.json"
        code = run_cli("stream-estimate", "--train-input", train_csv, "--test-input", test_csv,
                       "--label-column", "label", "--scheme", "pca", "--step", "1",
                       "--batch-size", "32", "--n-x-max", "24", "--output", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["streamed"] is True
        work = Path(report["config"]["work_dir"])
        assert (work / "model.json").exists()
        assert (work / "train.enc").exists() and (work / "test.enc").exists()


class TestEncodeCommand:
    def test_writes_artifacts_deterministically(self, tmp_path, separable_2d_csv):
        digests = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            assert run_cli("encode", "--input", separable_2d_csv, "--label-column", "label",
                           "--n-x", "5", "--seed", "9", "--output-dir", out_dir) == 0
            digests.append(tuple(
                (out_dir / f).read_bytes()
                for f in ("model.json", "train.enc", "test.enc", "labels.json")
            ))
        assert digests[0] == digests[1]


class TestTrainCommand:
    def test_trace_and_model(self, tmp_path, separable_2d_csv):
        trace = tmp_path / "trace.csv"
        code = run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                       "--n-x", "2", "--layers", "3", "--sweeps", "8", "--seed", "1",
                       "--output", trace)
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("# theoretical_train_accuracy=")
        assert lines[1].startswith("# theoretical_test_accuracy=")
        assert lines[2] == "sweep,loss,train_accuracy,test_accuracy"
        rows = [line.split(",") for line in lines[3:]]
        losses = [float(r[1]) for r in rows]
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-10
        theo_test = float(lines[1].split("=")[1])
        assert float(rows[-1][3]) >= theo_test - 0.02

        model_doc = json.loads(trace.with_suffix(".model.json").read_text())
        assert model_doc["n_x"] == 2 and model_doc["n_y"] == 1 and model_doc["layers"] == 3
        assert len(model_doc["theta"]) == 2 * 3 * 3

    def test_trace_ceiling_matches_coverage_module(self, tmp_path, separable_2d_csv):
        from bitbit.coverage import build_table, coverage_metrics
        from bitbit.data import SplitSpec, split_train_test
        from bitbit.dimred import ReducerSpec
        from bitbit.encoder import encode_samples, fit_encoder

        trace = tmp_path / "trace.csv"
        run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                "--n-x", "2", "--layers", "2", "--sweeps", "2", "--seed", "1", "--output", trace)
        header_value = float(trace.read_text().splitlines()[0].split("=")[1])

        d = load_csv(separable_2d_csv, "label")
        train, test = split_train_test(d, SplitSpec(0.8, seed=1))
        model = fit_encoder(train, ReducerSpec("pca"), 2)
        table = build_table(zip(encode_samples(model, train.features), train.labels.tolist()), d.c)
        encoded_test = list(zip(encode_samples(model, test.features), test.labels.tolist()))
        assert header_value == coverage_metrics(table, encoded_test).theoretical_train_accuracy

    def test_deterministic_outputs(self, tmp_path, separable_2d_csv):
        bodies = []
        for name in ("t1.csv", "t2.csv"):
            trace = tmp_path / name
            run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                    "--n-x", "2", "--layers", "2", "--sweeps", "3", "--seed", "2",
                    "--output", trace)
            bodies.append(trace.read_bytes() + trace.with_suffix(".model.json").read_bytes())
        assert bodies[0] == bodies[1]

    def test_qubit_cap_enforced(self, tmp_path, separable_2d_csv, capsys):
        code = run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                       "--n-x", "25", "--max-qubits", "20", "--output", tmp_path / "t.csv")
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_qubit_cap_restored_on_success_and_error(self, tmp_path, separable_2d_csv, capsys):
        before = get_qubit_cap()
        assert run_cli("train", "--input", separable_2d_csv, "--label-column", "label", "--n-x", "2",
                       "--layers", "1", "--sweeps", "1", "--max-qubits", "5", "--output", tmp_path / "t.csv") == 0
        assert get_qubit_cap() == before
        fresh_model(4, 2, 1)  # 6 qubits: over the train run's cap, within the one before it
        assert run_cli("train", "--input", tmp_path / "absent.csv", "--n-x", "2", "--max-qubits", "4",
                       "--output", tmp_path / "u.csv") == 1
        assert get_qubit_cap() == before
        capsys.readouterr()


class TestNoBitstringPerRecord:
    """Commands work on packed codes: no Bitstring per record, and train makes
    one per unique training code, for its TrainingBatch."""

    def test_bitstrings_made_per_command(self, tmp_path, separable_2d_csv, split_csvs, monkeypatch, capsys):
        made = []
        post_init = Bitstring.__post_init__

        def counting(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(Bitstring, "__post_init__", counting)
        runs = {
            "encode": ("encode", "--input", separable_2d_csv, "--n-x", "70", "--output-dir", tmp_path / "enc"),
            "estimate": ("estimate", "--input", separable_2d_csv, "--replicates", "2",
                         "--output", tmp_path / "r.json"),
            "stream-estimate": ("stream-estimate", "--train-input", split_csvs[0], "--test-input", split_csvs[1],
                                "--batch-size", "32", "--output", tmp_path / "s.json"),
            "train": ("train", "--input", separable_2d_csv, "--n-x", "3", "--layers", "1", "--sweeps", "1",
                      "--seed", "1", "--output", tmp_path / "t.csv"),
        }
        counts = {}
        for name, argv in runs.items():
            made.clear()
            assert run_cli(*argv) == 0
            counts[name] = len(made)
        monkeypatch.undo()
        capsys.readouterr()

        d = load_csv(separable_2d_csv, "label")
        train, _ = split_train_test(d, SplitSpec(0.8, seed=1))
        unique_train_codes = len(set(encode_samples(fit_encoder(train, ReducerSpec("pca"), 3), train.features)))
        assert counts == {"encode": 0, "estimate": 0, "stream-estimate": 0, "train": unique_train_codes}


class TestReportCommand:
    def test_pretty_print(self, tmp_path, separable_1d_csv, capsys):
        out = tmp_path / "r.json"
        run_cli("estimate", "--input", separable_1d_csv, "--label-column", "label",
                "--scheme", "none", "--replicates", "2", "--stratify",
                "--n-x-max", "16", "--output", out)
        capsys.readouterr()
        assert run_cli("report", "--input", out) == 0
        text = capsys.readouterr().out
        assert "mean Q_dataset 2.00" in text
        assert "threshold 1.0" in text


class TestMakeSynthetic:
    def test_deterministic_and_loadable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("make-synthetic", "--samples", "50", "--features", "3",
                           "--classes", "3", "--separation", "2.0", "--seed", "5",
                           "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()
        d = load_csv(a, "label")
        assert d.n_samples == 50 and d.n_features == 3 and d.c == 3

    def test_round_trips_exact_floats(self, tmp_path):
        out = tmp_path / "x.csv"
        run_cli("make-synthetic", "--samples", "20", "--features", "2", "--seed", "6",
                "--output", out)
        direct = make_synthetic(20, 2, 2, 4.0, seed=6)
        loaded = load_csv(out, "label")
        assert np.array_equal(loaded.features, direct.features)


@pytest.fixture
def split_csvs(tmp_path, separable_2d_csv):
    from bitbit.data import SplitSpec, split_train_test

    train, test = split_train_test(load_csv(separable_2d_csv, "label"), SplitSpec(0.8, seed=4))
    paths = tmp_path / "tr.csv", tmp_path / "te.csv"
    write_dataset_csv(paths[0], train)
    write_dataset_csv(paths[1], test)
    return paths


class TestFlagValidation:
    """Bad flag values exit 1 with one error line naming the flag, and write nothing."""

    @pytest.mark.parametrize("flags,named", [
        (("--n-x-max", "0"), "--n-x-max"),
        (("--step", "0"), "--step"),
        (("--threshold", "1.5"), "--threshold"),
        (("--threshold", "0"), "--threshold"),
        (("--batch-size", "0"), "--batch-size"),
        (("--reservoir-size", "0"), "--reservoir-size"),
    ])
    def test_stream_estimate(self, tmp_path, split_csvs, capsys, flags, named):
        out = tmp_path / "out" / "r.json"
        code = run_cli("stream-estimate", "--train-input", split_csvs[0], "--test-input", split_csvs[1],
                       "--label-column", "label", "--batch-size", "32", *flags, "--output", out)
        self._assert_flag_error(code, capsys, named)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,named", [
        (("--n-x-max", "0"), "--n-x-max"),
        (("--step", "0"), "--step"),
        (("--replicates", "0"), "--replicates"),
        (("--threshold", "1.5"), "--threshold"),
        (("--threshold", "-0.5"), "--threshold"),
        (("--train-fraction", "1.5"), "--train-fraction"),
        (("--train-fraction", "0"), "--train-fraction"),
        (("--jobs", "-1"), "--jobs"),
        (("--jobs", "0"), "--jobs"),
    ])
    def test_estimate(self, tmp_path, separable_2d_csv, capsys, flags, named):
        out = tmp_path / "r.json"
        code = run_cli("estimate", "--input", separable_2d_csv, "--label-column", "label",
                       *flags, "--output", out)
        self._assert_flag_error(code, capsys, named)
        assert not out.exists() and not out.with_suffix(".curves.csv").exists()

    @pytest.mark.parametrize("which", ["--train-input", "--test-input"])
    def test_stream_estimate_missing_input(self, tmp_path, split_csvs, capsys, which):
        inputs = {"--train-input": split_csvs[0], "--test-input": split_csvs[1], which: tmp_path / "absent.csv"}
        out = tmp_path / "out" / "r.json"
        code = run_cli("stream-estimate", *[a for kv in inputs.items() for a in kv],
                       "--label-column", "label", "--batch-size", "32", "--output", out)
        self._assert_flag_error(code, capsys, "absent.csv")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["encode", "train"])
    def test_train_fraction_before_any_output(self, tmp_path, separable_2d_csv, capsys, command):
        out = tmp_path / "out"
        target = ("--output-dir", out) if command == "encode" else ("--output", out / "t.csv")
        code = run_cli(command, "--input", separable_2d_csv, "--label-column", "label", "--n-x", "4",
                       "--train-fraction", "1.5", *target)
        self._assert_flag_error(code, capsys, "--train-fraction")
        assert not out.exists()

    def test_sweep_flags_checked_before_reading_input(self, tmp_path, capsys):
        code = run_cli("estimate", "--input", tmp_path / "absent.csv", "--step", "0",
                       "--output", tmp_path / "r.json")
        self._assert_flag_error(code, capsys, "--step")

    @pytest.mark.parametrize("command,flags,named", [
        ("train", ("--max-qubits", "0"), "--max-qubits"),
        ("train", ("--layers", "0"), "--layers"),
        ("train", ("--n-x", "0"), "--n-x"),
        ("train", ("--sweeps", "-1"), "--sweeps"),
        ("train", ("--seed", "-1"), "--seed"),
        ("encode", ("--n-x", "0"), "--n-x"),
        ("encode", ("--components", "0"), "--components"),
        ("estimate", ("--components", "0"), "--components"),
        ("estimate", ("--seed", "-1"), "--seed"),
        ("stream-estimate", ("--seed", "-1"), "--seed"),
        ("make-synthetic", ("--samples", "0"), "--samples"),
        ("make-synthetic", ("--classes", "1"), "--classes"),
        ("make-synthetic", ("--features", "0"), "--features"),
    ])
    def test_checked_before_any_input_or_output(self, tmp_path, capsys, command, flags, named):
        absent, out = tmp_path / "absent.csv", tmp_path / "out"
        base = {
            "train": ("--input", absent, "--n-x", "2", "--output", out / "t.csv"),
            "encode": ("--input", absent, "--n-x", "2", "--output-dir", out),
            "estimate": ("--input", absent, "--output", out / "r.json"),
            "stream-estimate": ("--train-input", absent, "--test-input", absent, "--batch-size", "32",
                                "--output", out / "r.json"),
            "make-synthetic": ("--output", out / "x.csv"),
        }[command]
        code = run_cli(command, *base, *flags)
        self._assert_flag_error(code, capsys, named)
        assert not out.exists()

    def test_report_input_that_is_not_a_report(self, tmp_path, separable_1d_csv, capsys):
        code = run_cli("report", "--input", separable_1d_csv)
        self._assert_flag_error(code, capsys, str(separable_1d_csv))

    def test_train_width_beyond_cap(self, tmp_path, separable_2d_csv, capsys):
        trace = tmp_path / "t.csv"
        code = run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                       "--n-x", "70", "--output", trace)
        self._assert_flag_error(code, capsys, "--max-qubits")
        assert not trace.exists() and not trace.with_suffix(".model.json").exists()

    @staticmethod
    def _assert_flag_error(code, capsys, named):
        err = capsys.readouterr().err
        assert code == 1
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1 and named in lines[0]
        assert "Traceback" not in err
