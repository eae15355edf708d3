import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitbit.cli
import bitbit.encoder
import bitbit.stream
from bitbit.cli import _check_flags, build_parser, main
from bitbit.coverage import code_coverage, count_table
from bitbit.data import Dataset, SplitSpec, load_csv, make_synthetic, parse_csv_row, split_train_test
from bitbit.dimred import ReducerSpec
from bitbit.encoder import Bitstring, encode_samples, fit_encoder, read_packed
from tests.conftest import count_converted_rows, write_dataset_csv


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

    def test_peak_memory_does_not_grow_with_replicates(self, tmp_path):
        """Each replicate's split is made just before its sweep, so one split is held at a time."""
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, make_synthetic(4000, 30, 2, 1.0, seed=5))
        peaks = []
        for replicates in (2, 12):
            tracemalloc.start()
            try:
                code = run_cli("estimate", "--input", path, "--replicates", replicates, "--n-x-max", "1",
                               "--jobs", "1", "--output", tmp_path / f"r{replicates}.json")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 2  # one width covers nothing
        # Ten more splits held at once would add 10 * 4000 * 30 * 8 bytes, 9.6 MB, to a peak of about 5 MB.
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_parallel_jobs_match_sequential(self, tmp_path, separable_2d_csv):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        for out, jobs in ((seq, 1), (par, 4)):
            run_cli("estimate", "--input", separable_2d_csv, "--label-column", "label",
                    "--replicates", "4", "--n-x-max", "24", "--jobs", jobs, "--output", out)
        assert report_without_timestamp(seq) == report_without_timestamp(par)


@pytest.mark.parametrize("command,where", [
    ("estimate", "header"), ("estimate", "row"),
    ("stream-estimate", "header"), ("stream-estimate", "row"), ("stream-estimate", "test row"),
])
def test_oversized_csv_field_is_one_error_line(tmp_path, capsys, command, where):
    """A field past csv.field_size_limit() fails with one line naming the file
    line, whichever path reads it."""
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    field = "1" * 200_000
    small.write_text("f0,label\n1.0,x\n2.0,y\n", encoding="utf-8")
    if where == "header":
        big.write_text(f"{field},label\n1.0,x\n2.0,y\n", encoding="utf-8")
    else:
        big.write_text(f"f0,label\n1.0,x\n{field},y\n2.0,x\n", encoding="utf-8")
    out = tmp_path / "out"
    if command == "estimate":
        argv = ["estimate", "--input", big, "--output", out / "r.json"]
    else:
        train, test = (small, big) if where == "test row" else (big, small)
        argv = ["stream-estimate", "--train-input", train, "--test-input", test, "--batch-size", "2",
                "--work-dir", out, "--output", out / "r.json"]
    assert run_cli(*argv) == 1
    line = 1 if where == "header" else 3
    assert capsys.readouterr().err == f"error: {big}: line {line}: field larger than field limit (131072)\n"
    assert not out.exists()


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type int64"),
    MemoryError(),
])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, error):
    """A failed allocation in any command ends in one stderr line and exit 1."""
    def refuse(cfg, paths):
        raise error

    monkeypatch.setitem(bitbit.cli._COMMANDS, "make-synthetic", refuse)
    assert run_cli("make-synthetic", "--samples", 10, "--output", tmp_path / "d.csv") == 1
    assert capsys.readouterr().err == f"error: out of memory ({str(error) or 'no detail'})\n"
    assert not (tmp_path / "d.csv").exists()


class TestStreamEstimateCommand:
    def test_usage_error_without_batch_size(self, tmp_path, capsys):
        assert run_cli("stream-estimate", "--train-input", "x.csv", "--test-input", "y.csv",
                       "--output", tmp_path / "r.json") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the following arguments are required: --batch-size\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["stream-estimate", "--help"]])
    def test_help_exits_zero_on_stdout(self, capsys, argv):
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: bitbit") and captured.err == ""

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


    @pytest.mark.parametrize("huge", [("--batch-size", "1000000000"),
                                      ("--batch-size", "1000000000", "--reservoir-size", "1000000000")])
    def test_buffers_are_sized_by_the_data(self, tmp_path, huge):
        """A 5-row training CSV is one batch at --batch-size 10 and at 10**9: the
        outputs are the same, and neither flag allocates for more rows than the data."""
        train_csv, test_csv = tmp_path / "tr.csv", tmp_path / "te.csv"
        train_csv.write_text("f0,f1,label\n0.1,0.5,0\n0.9,0.4,1\n0.2,0.7,0\n0.8,0.1,1\n0.3,0.3,0\n")
        test_csv.write_text("f0,f1,label\n0.1,0.5,0\n0.8,0.1,1\n")
        outputs = []
        for name, flags in (("small", ("--batch-size", "10")), ("huge", huge)):
            out = tmp_path / name / "r.json"
            tracemalloc.start()
            try:
                code = run_cli("stream-estimate", "--train-input", train_csv, "--test-input", test_csv,
                               *flags, "--output", out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 2**26, peak
            report = report_without_timestamp(out)
            for field in ("batch_size", "reservoir_size", "work_dir"):
                report["config"].pop(field)
            outputs.append((report, (out.parent / "r.work" / "model.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_batch_size_one_refused_before_reading(self, tmp_path, split_csvs, monkeypatch, capsys):
        """A batch of one row carries no label information, so the run is refused
        before any CSV row is read or any output path created."""
        counts = count_converted_rows(monkeypatch)
        out = tmp_path / "out" / "r.json"
        assert run_cli("stream-estimate", "--train-input", split_csvs[0], "--test-input", split_csvs[1],
                       "--batch-size", "1", "--output", out) == 1
        assert capsys.readouterr().err == "error: --batch-size must be >= 2, got 1\n"
        assert counts == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme", ["none", "pca"])
    def test_each_csv_row_is_parsed_once(self, tmp_path, split_csvs, monkeypatch, scheme):
        counts = count_converted_rows(monkeypatch)
        work = tmp_path / "work"
        work.mkdir()
        code = run_cli("stream-estimate", "--train-input", split_csvs[0], "--test-input", split_csvs[1],
                       "--label-column", "label", "--scheme", scheme, "--batch-size", "7",
                       "--work-dir", work, "--output", tmp_path / "r.json")
        assert code == 0
        rows = sum(len(path.read_text().splitlines()) - 1 for path in split_csvs)
        assert sum(counts) == rows == 120
        # the rank and row spills are gone
        assert sorted(p.name for p in work.iterdir()) == ["model.json", "test.enc", "train.enc"]


class TestPreSplitLabels:
    """Pre-split ``estimate`` maps test labels onto the training ids as
    ``stream-estimate`` does: an unseen label is an error naming its line, and
    a test CSV may hold a single class."""

    COMMANDS = {"estimate": (), "stream-estimate": ("--batch-size", "4")}

    @pytest.fixture
    def train_csv(self, tmp_path):
        path = tmp_path / "tr.csv"
        path.write_text("a,label\n" + "".join(f"{i}.0,{'xy'[i >= 4]}\n" for i in range(8)), encoding="utf-8")
        return path

    def test_unseen_test_label(self, tmp_path, train_csv, capsys):
        test_csv = tmp_path / "te.csv"
        test_csv.write_text("a,label\n1.5,x\n2.5,z\n", encoding="utf-8")
        for command, flags in self.COMMANDS.items():
            out = tmp_path / command / "r.json"
            code = run_cli(command, "--train-input", train_csv, "--test-input", test_csv, "--scheme", "none",
                           "--n-x-max", "4", *flags, "--output", out)
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: {test_csv}: line 3: label 'z' was not seen in training"
            ]
            assert not (tmp_path / command).exists()

    def test_single_class_test_csv(self, tmp_path, train_csv, capsys):
        test_csv = tmp_path / "te1.csv"
        test_csv.write_text("a,label\n0.5,x\n1.5,x\n", encoding="utf-8")
        for command, flags in self.COMMANDS.items():
            out = tmp_path / command / "r.json"
            code = run_cli(command, "--train-input", train_csv, "--test-input", test_csv, "--scheme", "none",
                           "--n-x-max", "4", "--step", "1", *flags, "--output", out)
            assert code == 0, capsys.readouterr().err
            report = json.loads(out.read_text())
            assert report["label_mapping"] == {"x": 0, "y": 1} and report["warnings"] == []
            assert report["replicates"][0]["curve"][-1]["n_test"] == 2
        capsys.readouterr()

    def test_one_row_test_csv(self, tmp_path, train_csv, capsys):
        test_csv = tmp_path / "one.csv"
        test_csv.write_text("a,label\n5.5,y\n", encoding="utf-8")
        for command, flags in self.COMMANDS.items():
            out = tmp_path / command / "r.json"
            code = run_cli(command, "--train-input", train_csv, "--test-input", test_csv, "--scheme", "none",
                           "--n-x-max", "4", "--step", "1", *flags, "--output", out)
            assert code == 0, capsys.readouterr().err
            assert json.loads(out.read_text())["replicates"][0]["curve"][-1]["n_test"] == 1
        capsys.readouterr()

    def test_empty_test_csv(self, tmp_path, train_csv, capsys):
        test_csv = tmp_path / "empty.csv"
        test_csv.write_text("a,label\n", encoding="utf-8")
        for command, flags in self.COMMANDS.items():
            out = tmp_path / command / "r.json"
            code = run_cli(command, "--train-input", train_csv, "--test-input", test_csv, "--scheme", "none",
                           "--n-x-max", "4", *flags, "--output", out)
            assert code == 1
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and str(test_csv) in line
            assert not (tmp_path / command).exists()

    def test_conflicting_test_rows_name_the_test_csv(self, tmp_path, train_csv, capsys):
        test_csv = tmp_path / "te2.csv"
        test_csv.write_text("a,label\n0.5,x\n0.5,y\n", encoding="utf-8")
        out = tmp_path / "r.json"
        run_cli("estimate", "--train-input", train_csv, "--test-input", test_csv, "--scheme", "none",
                "--n-x-max", "4", "--output", out)
        capsys.readouterr()
        assert json.loads(out.read_text())["warnings"] == [
            f"{test_csv}: 1 duplicate feature rows carry conflicting labels; "
            "full test coverage is unreachable at any width"
        ]


@pytest.mark.parametrize("line", [4, 1500])  # in the first chunk read, or far past the header and checks
@pytest.mark.parametrize("command,side", [
    ("estimate", "input"), ("encode", "input"), ("train", "input"),
    ("stream-estimate", "train"), ("stream-estimate", "test"),
])
def test_non_utf8_csv_is_one_error_line(tmp_path, capsys, command, side, line):
    """A byte that is not UTF-8 fails with one line naming the file line, whichever
    read meets it, and leaves no output: a failed stream-estimate removes its work directory."""
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    rows = [f"{i}.0,{-i}.0,{'xy'[i % 2]}\n".encode() for i in range(2000)]
    good.write_bytes(b"f0,f1,label\n" + b"".join(rows))
    rows[line - 2] = b"3.0,\xff,x\n"
    bad.write_bytes(b"f0,f1,label\n" + b"".join(rows))
    out = tmp_path / "out"
    if command == "stream-estimate":
        train, test = (bad, good) if side == "train" else (good, bad)
        argv = ["stream-estimate", "--train-input", train, "--test-input", test, "--batch-size", "64",
                "--scheme", "none", "--n-x-max", "4", "--work-dir", out / "work", "--output", out / "r.json"]
    else:
        target = {"estimate": ("--replicates", "1", "--output", out / "r.json"), "encode": ("--n-x", "2", "--output-dir", out),
                  "train": ("--n-x", "2", "--output", out / "trace.csv")}[command]
        argv = [command, "--input", bad, "--scheme", "none", *target]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: line {line}: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "stream-estimate"])
def test_byte_order_mark_before_header(tmp_path, capsys, command):
    # Excel's "CSV UTF-8" export starts with a UTF-8 byte-order mark.
    path = tmp_path / "bom.csv"
    path.write_text("label,a,b\n" + "".join(f"{'xy'[i >= 6]},{i}.0,{-i}.0\n" for i in range(12)),
                    encoding="utf-8-sig")
    inputs = (("--input", path, "--replicates", "1") if command == "estimate" else
              ("--train-input", path, "--test-input", path, "--batch-size", "4"))
    out = tmp_path / "r.json"
    assert run_cli(command, *inputs, "--scheme", "none", "--n-x-max", "4", "--output", out) == 0
    assert "error" not in capsys.readouterr().err
    assert json.loads(out.read_text())["label_mapping"] == {"x": 0, "y": 1}


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
        from bitbit.coverage import build_table
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
        assert header_value == code_coverage(table, build_table(encoded_test, table.c)).theoretical_train_accuracy

    def test_deterministic_outputs(self, tmp_path, separable_2d_csv):
        bodies = []
        for name in ("t1.csv", "t2.csv"):
            trace = tmp_path / name
            run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                    "--n-x", "2", "--layers", "2", "--sweeps", "3", "--seed", "2",
                    "--output", trace)
            bodies.append(trace.read_bytes() + trace.with_suffix(".model.json").read_bytes())
        assert bodies[0] == bodies[1]

    def test_model_output_into_new_directory(self, tmp_path, separable_2d_csv, capsys):
        model_path = tmp_path / "models" / "deep" / "m.json"
        assert run_cli("train", "--input", separable_2d_csv, "--label-column", "label", "--n-x", "2",
                       "--layers", "1", "--sweeps", "1", "--output", tmp_path / "t.csv",
                       "--model-output", model_path) == 0
        assert json.loads(model_path.read_text())["n_x"] == 2
        assert not (tmp_path / "t.model.json").exists()
        capsys.readouterr()

    def test_qubit_cap_enforced(self, tmp_path, separable_2d_csv, capsys):
        code = run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                       "--n-x", "25", "--max-qubits", "20", "--output", tmp_path / "t.csv")
        assert code == 1
        assert "cap" in capsys.readouterr().err


class TestWarningLines:
    """Library warnings that no report collects reach stderr as one
    ``warning: <message>`` line each, with no source path or source line."""

    CAP_WARNING = "warning: raising the qubit cap to 21: statevectors take 32 MB each"

    @staticmethod
    def _stderr_lines(capsys) -> list[str]:
        captured = capsys.readouterr()
        assert "warning" not in captured.out
        return captured.err.splitlines()

    def test_train_raising_the_qubit_cap(self, tmp_path, separable_2d_csv, capsys):
        assert run_cli("train", "--input", separable_2d_csv, "--n-x", "2", "--layers", "1",
                       "--sweeps", "1", "--max-qubits", "21", "--output", tmp_path / "t.csv") == 0
        assert self._stderr_lines(capsys) == [self.CAP_WARNING]

    @staticmethod
    def _train_rare_class(tmp_path, *flags) -> int:
        path = tmp_path / "rare.csv"
        path.write_text("a,label\n" + "".join(f"{i}.0,{i % 2}\n" for i in range(20)) + "99.0,2\n",
                        encoding="utf-8")
        return run_cli("train", "--input", path, "--scheme", "none", "--n-x", "2", "--layers", "1",
                       "--sweeps", "1", "--output", tmp_path / "t.csv", *flags)

    def test_train_class_absent_from_a_split(self, tmp_path, capsys):
        assert self._train_rare_class(tmp_path) == 0
        lines = self._stderr_lines(capsys)
        assert len(lines) == 1
        assert re.fullmatch(r"warning: classes \[2\] absent from the (train|test) split", lines[0])

    def test_train_cap_notice_first(self, tmp_path, capsys):
        assert self._train_rare_class(tmp_path, "--max-qubits", "21") == 0
        lines = self._stderr_lines(capsys)
        assert lines[0] == self.CAP_WARNING and len(lines) == 2
        assert re.fullmatch(r"warning: classes \[2\] absent from the (train|test) split", lines[1])

    def test_encode_conflicting_duplicates(self, tmp_path, capsys):
        path = tmp_path / "conflict.csv"
        path.write_text("a,label\n" + "".join(f"1.0,{i % 2}\n" for i in range(8)) + "2.0,0\n3.0,1\n",
                        encoding="utf-8")
        assert run_cli("encode", "--input", path, "--scheme", "none", "--n-x", "1", "--stratify",
                       "--output-dir", tmp_path / "enc") == 0
        assert self._stderr_lines(capsys) == [
            "warning: 4 duplicate feature rows carry conflicting labels; "
            "full training coverage is unreachable at any width"
        ]

    def test_installed_command_line(self, tmp_path, separable_2d_csv):
        # Python's own warning display, outside any test harness's capture
        result = subprocess.run(
            [sys.executable, "-m", "bitbit.cli", "train", "--input", str(separable_2d_csv),
             "--n-x", "2", "--layers", "1", "--sweeps", "1", "--max-qubits", "21",
             "--output", str(tmp_path / "t.csv")],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines() == [self.CAP_WARNING]


class TestBlasThreads:
    """Importing bitbit before numpy puts numpy's OpenBLAS on one thread unless
    OPENBLAS_NUM_THREADS is already set. This process imported numpy first, so
    each check runs in a fresh interpreter."""

    PROBE = """
import ctypes, glob, os
import bitbit
import numpy as np
threads = None
for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            getter = getattr(lib, symbol)
            getter.restype = ctypes.c_int
            threads = getter()
            break
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""

    def _probe(self, **preset) -> tuple[str, str]:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run([sys.executable, "-c", self.PROBE], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        variable, threads = result.stdout.split()
        return variable, threads

    def test_one_thread_by_default(self):
        variable, threads = self._probe()
        assert variable == "1"
        if threads == "None":
            pytest.skip("numpy's OpenBLAS exports no thread-count getter here")
        assert threads == "1"

    def test_explicit_setting_wins(self):
        assert self._probe(OPENBLAS_NUM_THREADS="3")[0] == "3"


class TestNoMaskedArrayImport:
    """``np.quantile`` imports ``numpy.ma`` on first use, about 13 ms and 1 MB; the
    MI edges are computed without it. Replicates run in a plain loop, so no command
    imports a thread pool's ``concurrent.futures`` and ``logging`` either, about 9 ms.
    Each command runs in a fresh interpreter."""

    UNIMPORTED = ("numpy.ma", "concurrent.futures", "logging")
    PROBE = ("import sys\nfrom bitbit.cli import main\n"
             f"print(main(sys.argv[1:]), [m for m in {UNIMPORTED!r} if m in sys.modules])\n")

    @pytest.mark.parametrize("command", ["estimate", "stream-estimate", "train", "encode"])
    def test_fitting_commands_leave_numpy_ma_unimported(self, tmp_path, split_csvs, command):
        train_csv, test_csv = (str(p) for p in split_csvs)
        argv = {
            "estimate": ["--input", train_csv, "--replicates", "2", "--output", "r.json"],
            "stream-estimate": ["--train-input", train_csv, "--test-input", test_csv, "--batch-size", "16",
                                "--output", "s.json"],
            "train": ["--input", train_csv, "--n-x", "2", "--layers", "1", "--sweeps", "1", "--output", "t.csv"],
            "encode": ["--input", train_csv, "--n-x", "3", "--output-dir", "enc"],
        }[command]
        result = subprocess.run([sys.executable, "-c", self.PROBE, command, *argv], cwd=tmp_path,
                                env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []"


class TestNoBitstringPerRecord:
    """Commands work on packed codes and make no Bitstring at all, train's
    TrainingBatch included."""

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
        assert counts == {"encode": 0, "estimate": 0, "stream-estimate": 0, "train": 0}

    def test_train_runs_with_bitstrings_refused(self, tmp_path, separable_2d_csv, monkeypatch, capsys):
        argv = ("train", "--input", separable_2d_csv, "--n-x", "3", "--layers", "2", "--sweeps", "2", "--seed", "1")
        assert run_cli(*argv, "--output", tmp_path / "plain.csv") == 0

        def refuse(self):
            raise AssertionError("a Bitstring was built")

        monkeypatch.setattr(bitbit.encoder.Bitstring, "__post_init__", refuse)
        assert run_cli(*argv, "--output", tmp_path / "refused.csv") == 0
        for suffix in (".csv", ".model.json"):
            assert (tmp_path / f"refused{suffix}").read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()
        capsys.readouterr()


class TestWrittenEncodingsRecount:
    """The train.enc and test.enc a command writes, read back and counted, give
    the coverage its report gives at their width."""

    @staticmethod
    def recount(directory, c, batched):
        tables = []
        for name in ("train.enc", "test.enc"):
            width, words, labels = read_packed(directory / name)
            tables.append(count_table([(words, labels)], c, width))
        return {"n_x": width, **dataclasses.asdict(code_coverage(*tables, batched=batched))}

    @pytest.fixture
    def overlapping(self):
        return make_synthetic(200, 3, 3, 1.0, seed=2)

    def test_stream_estimate_files_give_the_last_curve_point(self, tmp_path, overlapping):
        train, test = split_train_test(overlapping, SplitSpec(0.8, seed=4))
        write_dataset_csv(tmp_path / "tr.csv", train)
        write_dataset_csv(tmp_path / "te.csv", test)
        work, out = tmp_path / "work", tmp_path / "r.json"
        assert run_cli("stream-estimate", "--train-input", tmp_path / "tr.csv", "--test-input", tmp_path / "te.csv",
                       "--batch-size", "32", "--work-dir", work, "--output", out) == 0
        report = json.loads(out.read_text())
        curve = report["replicates"][0]["curve"]
        assert len(curve) > 1 and curve[0]["theoretical_train_accuracy"] < 1.0
        assert self.recount(work, report["n_classes"], batched=True) == curve[-1]

    def test_encode_files_give_the_estimate_curve_point(self, tmp_path, overlapping):
        write_dataset_csv(tmp_path / "d.csv", overlapping)
        out = tmp_path / "r.json"
        assert run_cli("estimate", "--input", tmp_path / "d.csv", "--replicates", "1", "--seed", "5",
                       "--output", out) == 0
        report = json.loads(out.read_text())
        curve = report["replicates"][0]["curve"]
        assert len(curve) > 2 and curve[0]["theoretical_test_accuracy"] < 1.0
        for point in (curve[0], curve[len(curve) // 2], curve[-1]):
            enc = tmp_path / f"enc{point['n_x']}"
            assert run_cli("encode", "--input", tmp_path / "d.csv", "--n-x", point["n_x"], "--seed", "5",
                           "--output-dir", enc) == 0
            assert self.recount(enc, report["n_classes"], batched=False) == point


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

    def test_prints_warnings_last(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text(json.dumps({"warnings": ["classes [2] absent", "second"]}))
        assert run_cli("report", "--input", out) == 0
        assert capsys.readouterr().out.endswith("\nwarning: classes [2] absent\nwarning: second\n")


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


# Commands that take --components; stream-estimate has no --scheme lsa.
COMPONENT_COMMANDS = ("estimate", "estimate-split", "encode", "train", "stream-estimate")


# (command, output flag) pairs.
OUTPUT_FLAGS = [("estimate", "--output"), ("stream-estimate", "--output"), ("stream-estimate", "--work-dir"),
                ("train", "--output"), ("train", "--model-output"), ("encode", "--output-dir")]
# Files a command names after a flag. Each lies beside or inside its flag's
# path, so only an existing directory in its place makes it unusable.
DERIVED_FLAGS = [("estimate", "--output's curves file"), ("stream-estimate", "--output's curves file"),
                 ("stream-estimate", "--work-dir's report"), ("stream-estimate", "--work-dir's curves file"),
                 ("train", "--output's model file")]


class TestOwnFlags:
    """Each command is checked on the Namespace its own parser gives, which
    holds no other command's flags."""

    @pytest.mark.parametrize("argv,planned", [
        (("estimate", "--input", "{csv}", "--output", "{out}/r.json"), {"input", "output", "curves"}),
        (("stream-estimate", "--train-input", "{csv}", "--test-input", "{csv}", "--batch-size", "8",
          "--output", "{out}/r.json"),
         {"train_input", "test_input", "output", "work_dir", "model.json", "train.enc", "test.enc", "train.rows",
          "train.ranks", "test.ranks", "curves"}),
        (("encode", "--input", "{csv}", "--n-x", "2", "--output-dir", "{out}/enc"),
         {"input", "output_dir", "model.json", "train.enc", "test.enc", "labels.json"}),
        (("train", "--input", "{csv}", "--n-x", "2", "--output", "{out}/t.csv"), {"input", "output", "model_output"}),
        (("report", "--input", "{csv}"), {"input"}),
        (("make-synthetic", "--output", "{out}/x.csv"), {"output"}),
    ], ids=["estimate", "stream-estimate", "encode", "train", "report", "make-synthetic"])
    def test_check_flags_returns_the_path_plan(self, tmp_path, separable_2d_csv, argv, planned):
        cfg = build_parser().parse_args([a.format(csv=separable_2d_csv, out=tmp_path / "out") for a in argv])
        assert set(_check_flags(cfg)) == planned
        assert not (tmp_path / "out").exists()


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

    def test_stream_estimate_needs_an_output(self, split_csvs, capsys):
        code = run_cli("stream-estimate", "--train-input", split_csvs[0], "--test-input", split_csvs[1],
                       "--batch-size", "32")
        self._assert_flag_error(code, capsys, "requires --output or --work-dir")

    @pytest.mark.parametrize("given", ["--train-input", "--test-input"])
    def test_estimate_pre_split_needs_both(self, tmp_path, split_csvs, capsys, given):
        out = tmp_path / "r.json"
        path = split_csvs[0] if given == "--train-input" else split_csvs[1]
        code = run_cli("estimate", given, path, "--output", out)
        self._assert_flag_error(code, capsys, "needs both --train-input and --test-input")
        assert not out.exists() and not out.with_suffix(".curves.csv").exists()

    def test_sweep_flags_checked_before_reading_input(self, tmp_path, capsys):
        code = run_cli("estimate", "--input", tmp_path / "absent.csv", "--step", "0",
                       "--output", tmp_path / "r.json")
        self._assert_flag_error(code, capsys, "--step")

    @pytest.mark.parametrize("pair", [("--train-input",), ("--test-input",), ("--train-input", "--test-input")],
                             ids=["train", "test", "both"])
    def test_estimate_input_excludes_split_pair(self, tmp_path, split_csvs, capsys, pair):
        paths = {"--train-input": split_csvs[0], "--test-input": split_csvs[1]}
        out = tmp_path / "r.json"
        code = run_cli("estimate", "--input", tmp_path / "absent.csv", *[a for f in pair for a in (f, paths[f])],
                       "--label-column", "label", "--output", out)
        self._assert_flag_error(code, capsys, "--input")
        assert not out.exists()

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
        ("make-synthetic", ("--separation", "inf"), "--separation"),
        ("make-synthetic", ("--separation", "1e308", "--classes", "3"), "--separation"),
        ("make-synthetic", ("--separation", "1", "--samples", str(10**400), "--classes", str(10**400)), "--separation"),
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

    @pytest.mark.parametrize("where,command,flag", [(where, *pair) for where in ("under-a-file", "wrong-kind")
                                                    for pair in OUTPUT_FLAGS]
                             + [("wrong-kind", *pair) for pair in DERIVED_FLAGS]
                             + [(where, *pair) for where in ("dot", "root") for pair in OUTPUT_FLAGS
                                if not pair[1].endswith("-dir")])
    def test_unusable_output_fails_before_any_read(self, tmp_path, split_csvs, capsys, monkeypatch,
                                                   command, flag, where):
        def never(*args, **kwargs):
            raise AssertionError("input read before the output path was checked")

        monkeypatch.setattr("bitbit.cli.load_csv", never)
        monkeypatch.setattr("bitbit.cli.CsvBatchSource", never)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        wants_dir = flag.endswith("-dir")
        # A path inside a regular file, an existing path of the other kind, or a file path with an empty name.
        bad = {"under-a-file": blocker / "new" / "x", "wrong-kind": blocker if wants_dir else tmp_path,
               "dot": Path("."), "root": Path("/")}[where]
        good = {"--output": tmp_path / "new" / "r.json", "--model-output": tmp_path / "new" / "m.json",
                "--output-dir": tmp_path / "new" / "enc", "--work-dir": tmp_path / "new" / "work"}
        train_csv, test_csv = split_csvs
        base = {
            "estimate": ("--input", train_csv),
            "stream-estimate": ("--train-input", train_csv, "--test-input", test_csv, "--batch-size", "16"),
            "train": ("--input", train_csv, "--n-x", "2"),
            "encode": ("--input", train_csv, "--n-x", "2"),
        }[command]
        outputs = {"estimate": ("--output",), "stream-estimate": ("--output", "--work-dir"),
                   "train": ("--output", "--model-output"), "encode": ("--output-dir",)}[command]
        derived = {"--output's curves file": good["--output"].with_suffix(".curves.csv"),
                   "--output's model file": good["--output"].with_suffix(".model.json"),
                   "--work-dir's report": good["--work-dir"] / "report.json",
                   "--work-dir's curves file": good["--work-dir"] / "report.curves.csv"}
        if flag in derived:
            bad = derived[flag]
            bad.mkdir(parents=True)
            # Leave out the flag that would take the derived file's place.
            replaced_by = {"--work-dir's report": "--output", "--work-dir's curves file": "--output",
                           "--output's model file": "--model-output"}.get(flag)
            outputs = tuple(f for f in outputs if f != replaced_by)
        before = sorted(tmp_path.rglob("*"))
        code = run_cli(command, *base, *[a for f in outputs for a in (f, bad if f == flag else good[f])])
        self._assert_flag_error(code, capsys, f"{flag} {bad}: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_stream_estimate_default_work_dir_is_checked(self, tmp_path, split_csvs, capsys):
        (tmp_path / "r.work").write_text("", encoding="utf-8")  # where --output r.json puts its work directory
        code = run_cli("stream-estimate", "--train-input", split_csvs[0], "--test-input", split_csvs[1],
                       "--batch-size", "16", "--output", tmp_path / "r.json")
        self._assert_flag_error(code, capsys, f"--output's work directory {tmp_path / 'r.work'}: not a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.work", "sep2d.csv", "te.csv", "tr.csv"]

    def test_existing_outputs_are_overwritten(self, tmp_path, separable_2d_csv, capsys):
        for _ in range(2):
            assert run_cli("make-synthetic", "--output", tmp_path / "d.csv") == 0
            assert run_cli("encode", "--input", separable_2d_csv, "--n-x", "2", "--output-dir", tmp_path) == 0
            assert run_cli("train", "--input", separable_2d_csv, "--n-x", "2", "--layers", "1", "--sweeps", "1",
                           "--output", tmp_path / "t.csv", "--model-output", tmp_path / "m.json") == 0
        assert "error" not in capsys.readouterr().err

    def test_report_input_that_is_not_a_report(self, tmp_path, separable_1d_csv, capsys):
        code = run_cli("report", "--input", separable_1d_csv)
        self._assert_flag_error(code, capsys, str(separable_1d_csv))
        out = tmp_path / "r.json"
        run_cli("estimate", "--input", separable_1d_csv, "--scheme", "none", "--replicates", "1",
                "--n-x-max", "8", "--output", out)
        capsys.readouterr()
        assert run_cli("report", "--input", out) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        report["replicates"][0]["thresholds"]["1.0"]["q_y"] = None
        for name, content in (("list.json", b"[]"), ("null_q_y.json", json.dumps(report).encode()),
                              ("latin1.json", b'{"command": "\xff"}'), ("config_list.json", b'{"config": [1]}'),
                              ("deep.json", b"[" * 100_000 + b"]" * 100_000)):
            path = tmp_path / name
            path.write_bytes(content)
            self._assert_flag_error(run_cli("report", "--input", path), capsys, str(path))

    @pytest.mark.parametrize("flags", [(), ("--components", "3")], ids=["bad-csv", "bad-fit"])
    def test_encode_failure_leaves_no_directory(self, tmp_path, separable_2d_csv, capsys, flags):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("f0,f1,label\n0.5,0.5,0\noops,0.1,1\n", encoding="utf-8")
        out = tmp_path / "outenc"
        code = run_cli("encode", "--input", separable_2d_csv if flags else bad_csv, "--label-column", "label",
                       "--n-x", "2", *flags, "--output-dir", out)
        named = f"--components 3 exceeds the 2 features of {separable_2d_csv}" if flags else f"{bad_csv}: cannot parse"
        self._assert_flag_error(code, capsys, named)
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["train", "test"])
    def test_stream_estimate_failure_leaves_no_directory(self, tmp_path, split_csvs, capsys, bad):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("f0,f1,label\n0.5,0.5,0\noops,0.1,1\n", encoding="utf-8")
        inputs = {"train": split_csvs[0], "test": split_csvs[1], bad: bad_csv}
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (tmp_path / "sw" / "r.json", kept / "r.json"):
            code = run_cli("stream-estimate", "--train-input", inputs["train"], "--test-input", inputs["test"],
                           "--label-column", "label", "--batch-size", "32", "--output", out)
            self._assert_flag_error(code, capsys, f"{bad_csv}: cannot parse")
        assert not (tmp_path / "sw").exists()
        assert list(kept.iterdir()) == []  # only what the run created is removed

    def test_stream_estimate_failure_in_last_train_batch(self, tmp_path, split_csvs, capsys, monkeypatch):
        lines = split_csvs[0].read_text().splitlines()
        bad_csv = tmp_path / "bad_last.csv"
        bad_csv.write_text("\n".join(lines + ["0.25,oops,1"]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            parse_csv_row(["0.25", "oops", "1"], ["f0", "f1", "label"], 2, [0, 1], bad_csv, len(lines) + 1)
        kept = tmp_path / "kept"
        kept.mkdir()
        spilled = []  # bytes in the work directory as each batch is converted
        work = None
        count_converted_rows(monkeypatch, lambda: spilled.append(sum(p.stat().st_size for p in work.iterdir())))
        for work, where in ((tmp_path / "sw" / "r.work", ("--output", tmp_path / "sw" / "r.json")),
                            (kept, ("--work-dir", kept))):
            spilled.clear()
            code = run_cli("stream-estimate", "--train-input", bad_csv, "--test-input", split_csvs[1],
                           "--label-column", "label", "--batch-size", "32", *where)
            assert code == 1
            assert capsys.readouterr().err == f"error: {info.value}\n"
            assert spilled == [0, 32 * 24, 64 * 24, 96 * 24]  # 3 batches of 2 features and a label spilled
        assert not (tmp_path / "sw").exists()
        assert list(kept.iterdir()) == []  # only what the run created is removed

    @pytest.mark.parametrize("text", ["f0,f1,label\n", "f0,f1,label\n\n\n"], ids=["header", "blank-lines"])
    def test_stream_estimate_test_csv_without_rows(self, tmp_path, split_csvs, capsys, monkeypatch, text):
        counts = count_converted_rows(monkeypatch)
        empty = tmp_path / "empty.csv"
        empty.write_text(text, encoding="utf-8")
        kept = tmp_path / "kept"
        kept.mkdir()
        for where in (("--output", tmp_path / "sw" / "r.json"), ("--work-dir", kept)):
            code = run_cli("stream-estimate", "--train-input", split_csvs[0], "--test-input", empty,
                           "--label-column", "label", "--batch-size", "32", *where)
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [f"error: --test-input {empty} holds no data rows"]
        assert not (tmp_path / "sw").exists()
        assert list(kept.iterdir()) == []
        assert counts == []  # found before any row is converted

    @pytest.mark.parametrize("rows", [0, 1])
    def test_stream_estimate_too_few_training_rows(self, tmp_path, split_csvs, capsys, rows):
        train_csv = tmp_path / "few.csv"
        train_csv.write_text("f0,f1,label\n" + "0.5,0.5,0\n" * rows, encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("stream-estimate", "--train-input", train_csv, "--test-input", split_csvs[1],
                       "--label-column", "label", "--batch-size", "32", "--output", out / "r.json")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: train source must yield at least 2 samples, got {rows}"
        ]
        assert not out.exists()

    def test_stream_estimate_rejects_lsa_before_reading(self, tmp_path, split_csvs, capsys, monkeypatch):
        counts = count_converted_rows(monkeypatch)
        out = tmp_path / "out"
        code = run_cli("stream-estimate", "--train-input", split_csvs[0], "--test-input", split_csvs[1],
                       "--label-column", "label", "--batch-size", "32", "--scheme", "lsa", "--output", out / "r.json")
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--scheme" in errors[0] and "'lsa'" in errors[0]
        assert counts == []  # argparse rejects it, before any row is converted
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "encode", "train"])
    def test_one_training_row_after_the_split(self, tmp_path, capsys, command):
        path = tmp_path / "three.csv"
        path.write_text("a,label\n1.0,0\n2.0,1\n3.0,0\n", encoding="utf-8")
        out = tmp_path / "out"
        target = {"estimate": ("--output", out / "r.json"), "encode": ("--n-x", "2", "--output-dir", out),
                  "train": ("--n-x", "2", "--output", out / "t.csv")}[command]
        code = run_cli(command, "--input", path, "--scheme", "none", "--train-fraction", "0.5", *target)
        assert code == 1
        # the split's "classes [1] absent" warning is not printed for a run that fails
        assert capsys.readouterr().err.splitlines() == [
            f"error: --train-fraction 0.5 leaves 1 training row of {path}; need at least 2"
        ]
        assert not out.exists()

    def test_stream_estimate_single_class_fails_before_the_fit(self, tmp_path, split_csvs, capsys, monkeypatch):
        fits = []
        fit_batches = bitbit.stream.fit_batches
        monkeypatch.setattr(bitbit.stream, "fit_batches", lambda *args: fits.append(args) or fit_batches(*args))
        train_csv = tmp_path / "one.csv"
        train_csv.write_text("f0,f1,label\n" + "".join(f"{i}.0,{-i}.0,0\n" for i in range(8)), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("stream-estimate", "--train-input", train_csv, "--test-input", split_csvs[1],
                       "--label-column", "label", "--batch-size", "32", "--output", out / "r.json")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: training stream holds fewer than 2 classes"]
        assert fits == []
        assert not out.exists()

    @pytest.mark.parametrize("scheme,components,named,command", [
        pytest.param(*case, command, id=f"{case_id}-{command}")
        for case_id, case in {
            "pca": ("pca", "3", "--components 3 exceeds the 2 features of {}"),
            "lsa": ("lsa", "3", "--components 3 exceeds the 2 features of {}"),
            "none-above": ("none", "3", "--components 3 exceeds the 2 features of {}"),
            "none-below": ("none", "1", "--scheme none needs --components equal to the 2 features of {}, got 1"),
        }.items()
        for command in COMPONENT_COMMANDS if (case[0], command) != ("lsa", "stream-estimate")
    ])
    def test_components_beyond_input_width(self, tmp_path, split_csvs, capsys, monkeypatch,
                                           command, scheme, components, named):
        counts = count_converted_rows(monkeypatch)
        train_csv, test_csv = split_csvs
        out = tmp_path / "out"
        base = {
            "estimate": ("estimate", "--input", train_csv, "--output", out / "r.json"),
            "estimate-split": ("estimate", "--train-input", train_csv, "--test-input", test_csv,
                               "--output", out / "r.json"),
            "encode": ("encode", "--input", train_csv, "--n-x", "2", "--output-dir", out),
            "train": ("train", "--input", train_csv, "--n-x", "2", "--output", out / "t.csv"),
            "stream-estimate": ("stream-estimate", "--train-input", train_csv, "--test-input", test_csv,
                                "--batch-size", "32", "--output", out / "r.json"),
        }[command]
        code = run_cli(*base, "--label-column", "label", "--scheme", scheme, "--components", components)
        self._assert_flag_error(code, capsys, named.format(train_csv))
        assert not out.exists()
        if command == "stream-estimate":
            assert counts == []  # checked against the header, before any row is read

    @pytest.mark.parametrize("command", ["estimate", "stream-estimate"])
    def test_test_input_width_differs(self, tmp_path, split_csvs, capsys, monkeypatch, command):
        counts = count_converted_rows(monkeypatch)
        train_csv, test_csv = split_csvs[0], tmp_path / "te3.csv"
        write_dataset_csv(test_csv, make_synthetic(10, 3, 2, 2.0, seed=3))
        out = tmp_path / "out"
        flags = ("--batch-size", "8", "--work-dir", out / "w") if command == "stream-estimate" else ()
        code = run_cli(command, "--train-input", train_csv, "--test-input", test_csv, "--label-column", "label",
                       *flags, "--output", out / "r.json")
        self._assert_flag_error(code, capsys, f"--test-input {test_csv}: feature column 3 is 'f2', "
                                              f"but in the training input {train_csv} it is absent")
        assert not out.exists()
        assert counts == []  # checked from the two headers, before any row is read

    @pytest.mark.parametrize("command", ["estimate", "stream-estimate"])
    @pytest.mark.parametrize("header,column,names", [
        ("f1,f0,label", 1, ("'f1'", "'f0'")),  # the same columns in another order
        ("f0,g1,label", 2, ("'g1'", "'f1'")),  # a renamed column
        ("f0,label", 2, ("absent", "'f1'")),   # a missing column
    ], ids=["permuted", "renamed", "missing"])
    def test_test_input_columns_differ(self, tmp_path, split_csvs, capsys, monkeypatch, command, header,
                                       column, names):
        """Test columns are matched by name: a test CSV whose features are the
        training ones in another order, or under another name, fails from the
        two headers, before any row is read."""
        counts = count_converted_rows(monkeypatch)
        train_csv, test_csv = split_csvs[0], tmp_path / "te_cols.csv"
        rows = [line.split(",") for line in split_csvs[1].read_text().splitlines()[1:]]
        source = {"f0": 0, "f1": 1, "g1": 1, "label": 2}  # the te.csv column each test column is copied from
        lines = [header] + [",".join(row[source[h]] for h in header.split(",")) for row in rows]
        test_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        flags = ("--batch-size", "8", "--work-dir", out / "w") if command == "stream-estimate" else ()
        code = run_cli(command, "--train-input", train_csv, "--test-input", test_csv, *flags,
                       "--output", out / "r.json")
        self._assert_flag_error(code, capsys, f"--test-input {test_csv}: feature column {column} is {names[0]}, "
                                              f"but in the training input {train_csv} it is {names[1]}")
        assert not out.exists()
        assert counts == []

    @pytest.mark.parametrize("command", ["estimate", "stream-estimate"])
    def test_test_input_label_column_may_move(self, tmp_path, split_csvs, command):
        """Only the feature columns are compared: the label column may sit elsewhere."""
        train_csv, test_csv = split_csvs[0], tmp_path / "te_label_first.csv"
        lines = [line.split(",") for line in split_csvs[1].read_text().splitlines()]
        test_csv.write_text("".join(",".join([row[-1], *row[:-1]]) + "\n" for row in lines))
        flags = ("--batch-size", "8") if command == "stream-estimate" else ()
        outputs = []
        for name, test in (("moved", test_csv), ("same", split_csvs[1])):
            out = tmp_path / name / "r.json"
            assert run_cli(command, "--train-input", train_csv, "--test-input", test, *flags, "--output", out) == 0
            outputs.append(out.with_suffix(".curves.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["estimate", "encode", "train"])
    def test_stratified_split_left_empty(self, tmp_path, capsys, command):
        # Stratified, each class of 2 rows floors to 0 train rows, though 0.4 * 10 rows is 4.
        path = tmp_path / "pairs.csv"
        path.write_text("a,label\n" + "".join(f"{i}.0,{i % 5}\n" for i in range(10)), encoding="utf-8")
        out = tmp_path / "out"
        target = {"estimate": ("--output", out / "r.json"), "encode": ("--n-x", "2", "--output-dir", out),
                  "train": ("--n-x", "2", "--output", out / "t.csv")}[command]
        code = run_cli(command, "--input", path, "--scheme", "none", "--stratify", "--train-fraction", "0.4", *target)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: train_fraction 0.4 leaves an empty split for 10 samples"
        ]
        assert not out.exists()

    def test_train_width_beyond_cap(self, tmp_path, separable_2d_csv, capsys):
        trace = tmp_path / "t.csv"
        code = run_cli("train", "--input", separable_2d_csv, "--label-column", "label",
                       "--n-x", "70", "--output", trace)
        self._assert_flag_error(code, capsys, "--max-qubits")
        assert not trace.exists() and not trace.with_suffix(".model.json").exists()

    @pytest.mark.parametrize("scheme,command", [
        (scheme, command) for scheme in ("pca", "lsa")
        for command in COMPONENT_COMMANDS if (scheme, command) != ("lsa", "stream-estimate")
    ])
    def test_components_beyond_training_rows(self, tmp_path, capsys, monkeypatch, command, scheme):
        fits = []  # reducer fits, in memory and streaming
        for module in (bitbit.encoder, bitbit.stream):
            monkeypatch.setattr(module, "fit_reducer", lambda *args, fit=module.fit_reducer: fits.append(args) or fit(*args))
        data, train_csv, test_csv = tmp_path / "d.csv", tmp_path / "tr.csv", tmp_path / "te.csv"
        d = make_synthetic(10, 12, 2, 2.0, seed=5)
        write_dataset_csv(data, d)  # an 80/20 split leaves 8 training rows of 12 features
        write_dataset_csv(train_csv, Dataset(d.features[:8], d.labels[:8], 2))
        write_dataset_csv(test_csv, Dataset(d.features[8:], d.labels[8:], 2))
        out = tmp_path / "out"
        base = {
            "estimate": ("estimate", "--input", data, "--output", out / "r.json"),
            "estimate-split": ("estimate", "--train-input", train_csv, "--test-input", test_csv,
                               "--output", out / "r.json"),
            "encode": ("encode", "--input", data, "--n-x", "2", "--output-dir", out),
            "train": ("train", "--input", data, "--n-x", "2", "--output", out / "t.csv"),
            "stream-estimate": ("stream-estimate", "--train-input", train_csv, "--test-input", test_csv,
                                "--batch-size", "3", "--output", out / "r.json"),
        }[command]
        code = run_cli(*base, "--label-column", "label", "--scheme", scheme, "--components", "9")
        assert code == 1
        path = data if base[1] == "--input" else train_csv
        assert capsys.readouterr().err.splitlines() == [f"error: --components 9 exceeds the 8 training rows of {path}"]
        assert not out.exists()
        assert fits == []

    @pytest.mark.parametrize("command,flags", [
        ("estimate", ("--scheme", "none")), ("estimate", ("--scheme", "lsa")), ("estimate", ("--scheme", "pca")),
        ("encode", ("--n-x", "2")), ("train", ("--n-x", "2")), ("stream-estimate", ("--batch-size", "4")),
    ], ids=["estimate-none", "estimate-lsa", "estimate-pca", "encode", "train", "stream-estimate"])
    def test_no_feature_column(self, tmp_path, capsys, monkeypatch, command, flags):
        counts = count_converted_rows(monkeypatch)
        labels_only = tmp_path / "labels.csv"
        labels_only.write_text("label\n" + "0\n1\n" * 4, encoding="utf-8")
        out = tmp_path / "out"
        inputs = (("--train-input", labels_only, "--test-input", labels_only) if command == "stream-estimate"
                  else ("--input", labels_only))
        target = ("--output-dir", out) if command == "encode" else ("--output", out / "r")
        code = run_cli(command, *inputs, "--label-column", "label", *flags, *target)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {labels_only}: no feature column in header ['label']"
        ]
        assert not out.exists()
        assert counts == []  # found in the header, before any row is converted

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command,flag", [
        ("estimate", "--input"), ("estimate", "--train-input"), ("estimate", "--test-input"),
        ("stream-estimate", "--train-input"), ("stream-estimate", "--test-input"),
        ("encode", "--input"), ("train", "--input"), ("report", "--input"),
    ])
    def test_unusable_input_is_named_before_any_read(self, tmp_path, split_csvs, capsys, monkeypatch,
                                                     command, flag, kind):
        def never(*args, **kwargs):
            raise AssertionError("input read before the input paths were checked")

        monkeypatch.setattr("bitbit.cli.load_csv", never)
        monkeypatch.setattr("bitbit.cli.CsvBatchSource", never)
        bad = tmp_path / ("absent.csv" if kind == "missing" else "folder")
        if kind == "directory":
            bad.mkdir()
        out = tmp_path / "out"
        inputs = ({"--input": split_csvs[0]} if flag == "--input"
                  else {"--train-input": split_csvs[0], "--test-input": split_csvs[1]})
        inputs[flag] = bad
        rest = {"estimate": ("--output", out / "r.json"),
                "stream-estimate": ("--batch-size", "16", "--output", out / "r.json"),
                "encode": ("--n-x", "2", "--output-dir", out), "train": ("--n-x", "2", "--output", out / "t.csv"),
                "report": ()}[command]
        before = sorted(tmp_path.rglob("*"))
        code = run_cli(command, *[a for kv in inputs.items() for a in kv], *rest)
        self._assert_flag_error(code, capsys, f"{flag}: no such file {str(bad)!r}")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv,first,second", [
        ("estimate --input v.csv --output v.csv", "--input", "--output"),
        ("estimate --input v.csv --output sub/../v.csv", "--input", "--output"),
        ("estimate --input v.curves.csv --output v.json", "--input", "--output's curves file"),
        ("train --input v.csv --n-x 2 --output t.csv --model-output v.csv", "--input", "--model-output"),
        ("train --input v.csv --n-x 2 --output t.csv --model-output t.csv", "--output", "--model-output"),
        ("train --input t.model.json --n-x 2 --output t.csv", "--input", "--output's model file"),
        ("encode --input enc/model.json --n-x 2 --output-dir enc", "--input", "--output-dir's model.json"),
        ("stream-estimate --train-input v.csv --test-input v.csv --batch-size 16 --work-dir w --output w/model.json",
         "--output", "--work-dir's model.json"),
        ("stream-estimate --train-input v.csv --test-input r.work/test.enc --batch-size 16 --output r.json",
         "--test-input", "--output's test.enc"),
        ("stream-estimate --train-input w/train.rows --test-input v.csv --batch-size 16 --work-dir w",
         "--train-input", "--work-dir's train.rows"),
        ("stream-estimate --train-input v.csv --test-input w/report.json --batch-size 16 --work-dir w",
         "--test-input", "--work-dir's report"),
        ("stream-estimate --train-input v.csv --test-input w/test.ranks --batch-size 16 --work-dir w",
         "--test-input", "--work-dir's test.ranks"),
        ("stream-estimate --train-input w/train.ranks --test-input v.csv --batch-size 16 --work-dir w",
         "--train-input", "--work-dir's train.ranks"),
    ])
    def test_same_file_twice(self, tmp_path, separable_2d_csv, capsys, monkeypatch, argv, first, second):
        """Two of a run's paths that are one file exit 1 naming both, before any
        input is read and with nothing created; an output never replaces an input."""
        monkeypatch.chdir(tmp_path)
        argv = argv.split()
        inputs = {argv[i + 1] for i, a in enumerate(argv) if a.endswith("input")}
        for name in inputs:
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_bytes(separable_2d_csv.read_bytes())
        self._assert_same_file_error(tmp_path, capsys, monkeypatch, argv, f"{first} and {second} are the same file")

    def test_hard_link_is_the_same_file(self, tmp_path, separable_2d_csv, capsys, monkeypatch):
        """One file is one device and inode: a hard link of the input is no place for the report."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v.csv").write_bytes(separable_2d_csv.read_bytes())
        os.link(tmp_path / "v.csv", tmp_path / "h.csv")
        self._assert_same_file_error(tmp_path, capsys, monkeypatch, "estimate --input v.csv --output h.csv".split(),
                                     "--input and --output are the same file h.csv")

    def _assert_same_file_error(self, tmp_path, capsys, monkeypatch, argv, named):
        def never(*args, **kwargs):
            raise AssertionError("input read before the paths were checked")

        monkeypatch.setattr("bitbit.cli.load_csv", never)
        monkeypatch.setattr("bitbit.cli.CsvBatchSource", never)
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        self._assert_flag_error(main(argv), capsys, named)
        assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before

    @staticmethod
    def _assert_flag_error(code, capsys, named):
        err = capsys.readouterr().err
        assert code == 1
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1 and named in lines[0]
        assert "Traceback" not in err


CSV_FILES = ("good.csv", "three.csv", "tr.csv", "te.csv")
BAD_FILES = ("bad.csv", "one_class.csv", "report.json", "list.json", "absent.csv")
FUZZ_FILES = CSV_FILES + BAD_FILES
# flag -> (good values, bad values); a flag with neither takes no value
FUZZ_VALUES = {
    "--input": (CSV_FILES, BAD_FILES), "--train-input": (CSV_FILES, BAD_FILES),
    "--test-input": (CSV_FILES, BAD_FILES),
    "--label-column": (("label", "2"), ("0", "f1", "nope")),
    "--scheme": (("none", "pca", "lsa"), ("bogus",)),
    "--components": (("1", "2"), ("3", "0", "x")),
    "--seed": (("0", "3"), ("-1",)),
    "--threshold": (("1.0", "0.9"), ("0", "1.5", "nan")),
    "--replicates": (("1", "2"), ("0",)),
    "--train-fraction": (("0.5", "0.8"), ("0", "1", "x")),
    "--n-x-max": (("1", "3"), ("0",)),
    "--step": (("1", "2"), ("0",)),
    "--jobs": (("1", "2"), ("0",)),
    "--batch-size": (("5", "64", "1000000000"), ("1", "0")),
    "--reservoir-size": (("8", "100", "1000000000"), ("1", "0")),
    "--n-x": (("1", "2", "3"), ("0", "30")),
    "--layers": (("1", "2"), ("0",)),
    "--sweeps": (("0", "1"), ("-1",)),
    "--max-qubits": (("5", "20"), ("2", "0")),
    "--samples": (("4", "30"), ("1", "0")),
    "--features": (("1", "3"), ("0",)),
    "--classes": (("2", "3"), ("1",)),
    "--separation": (("0", "2.5"), ("-1", "nan", "inf")),
    "--output": (("out/r.json", "out/a/t.csv"), ()),
    "--output-dir": (("out/enc",), ()),
    "--work-dir": (("out/w",), ()),
    "--model-output": (("out/m/model.json",), ()),
    "--stratify": ((), ()), "--weighted-mi": ((), ()), "--uniform-weights": ((), ()),
}
# command -> (flags it needs to do any work, its other flags)
FUZZ_COMMANDS = {
    "estimate": (("--input", "--output"),
                 ("--train-input", "--test-input", "--label-column", "--scheme", "--components", "--seed",
                  "--threshold", "--replicates", "--train-fraction", "--n-x-max", "--step", "--stratify",
                  "--jobs")),
    "stream-estimate": (("--train-input", "--test-input", "--batch-size", "--output"),
                        ("--label-column", "--scheme", "--components", "--seed", "--threshold", "--n-x-max",
                         "--step", "--reservoir-size", "--weighted-mi", "--work-dir")),
    "encode": (("--input", "--n-x", "--output-dir"),
               ("--label-column", "--scheme", "--components", "--seed", "--train-fraction", "--stratify")),
    "train": (("--input", "--n-x", "--output"),
              ("--label-column", "--scheme", "--components", "--seed", "--layers", "--sweeps", "--train-fraction",
               "--stratify", "--uniform-weights", "--max-qubits", "--model-output")),
    "report": (("--input",), ()),
    "make-synthetic": (("--output",), ("--samples", "--features", "--classes", "--separation", "--seed")),
}


@st.composite
def fuzz_argv(draw):
    """A command with its needed flags and any of its other flags. Half the
    draws take only good values; the others may also leave out one needed
    flag and take bad values."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    needed, optional = FUZZ_COMMANDS[command]
    clean = draw(st.booleans())
    dropped = set() if clean else draw(st.sets(st.sampled_from(needed), max_size=1))
    flags = [f for f in needed if f not in dropped]
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), unique=True))
    argv = [command]
    for flag in flags:
        good, bad = FUZZ_VALUES[flag]
        argv.append(flag)
        if good:
            argv.append(draw(st.sampled_from(good if clean else good + bad)))
    if command == "report" and clean:
        argv[-1] = "report.json"
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_dataset_csv(root / "good.csv", make_synthetic(24, 2, 2, 4.0, seed=3))
    write_dataset_csv(root / "three.csv", make_synthetic(30, 3, 3, 3.0, seed=4))
    (root / "bad.csv").write_text("f0,f1,label\n0.5,0.5,0\noops,0.1,1\n", encoding="utf-8")
    (root / "one_class.csv").write_text("f0,f1,label\n" + "".join(f"{i},{-i},0\n" for i in range(6)),
                                        encoding="utf-8")
    train, test = split_train_test(load_csv(root / "good.csv", "label"), SplitSpec(0.75, seed=1))
    write_dataset_csv(root / "tr.csv", train)
    write_dataset_csv(root / "te.csv", test)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["estimate", "--input", str(root / "good.csv"), "--replicates", "2", "--n-x-max", "6",
                     "--output", str(root / "report.json")]) in (0, 2)
    (root / "list.json").write_text("[]", encoding="utf-8")
    return root


class TestArgvFuzz:
    """Any argv exits 0, 1 or 2; a failure prints only its one error line,
    and exit 1 leaves nothing under the output path."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(argv=fuzz_argv())
    def test_exit_codes_errors_and_leftovers(self, fuzz_files, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [str(Path(tmp) / a) if a.startswith("out/") else
                    str(fuzz_files / a) if a in FUZZ_FILES else a for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            errors = [line for line in err.getvalue().splitlines() if "error:" in line]
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            assert len(errors) == (1 if code == 1 else 0), err.getvalue()
            if code == 1:
                assert err.getvalue().splitlines() == errors, err.getvalue()
                assert not (Path(tmp) / "out").exists(), argv
