"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import importlib
import pkgutil
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import run
from inputs import WORKLOADS, generate
from tracer import Tracer, layer_metrics


class FakeClock:
    """A clock per thread that moves only when a toy function does work."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def work(self, seconds: float) -> None:
        self._local.now = self() + seconds


def toy_module(name: str, code: str, **names) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(code, mod.__dict__)
    return mod


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_of_a_toy_call_tree_across_threads(clock):
    store = toy_module("toy.store", "def leaf():\n    work(5)\n    return 1\n", work=clock.work)
    calc = toy_module(
        "toy.calc", "def step():\n    work(3)\n    return store.leaf()\n", work=clock.work, store=store
    )
    app = toy_module(
        "toy.app",
        "def main():\n"
        "    work(1)\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        done = list(pool.map(lambda _: barrier.wait(10) * 0 + step(), range(2)))\n"
        "    work(1)\n"
        "    return sum(done) + calc.step()\n",
        work=clock.work, calc=calc, step=calc.step, ThreadPoolExecutor=ThreadPoolExecutor,
        barrier=threading.Barrier(2),  # both workers hold open spans at once
    )
    tracer = Tracer(clock=clock)
    tracer.install({"store": store, "calc": calc, "app": app})
    try:
        assert app.main() == 3
    finally:
        tracer.uninstall()
    report = tracer.report()
    # Worker spans are never nested under the main thread's open span.
    assert report["self_s"] == {"app:main": 2.0, "calc:step": 9.0, "store:leaf": 15.0}
    assert report["inclusive_s"]["app:main"] == 10.0
    assert report["calls"] == {"app:main": 1, "calc:step": 3, "store:leaf": 3}
    assert report["threads"] == 3


def test_generator_resumptions_are_spans_of_their_module(clock):
    source = toy_module(
        "toy.source", "def rows(n):\n    for i in range(n):\n        work(2)\n        yield i\n",
        work=clock.work,
    )
    sink = toy_module(
        "toy.sink",
        "def consume(n):\n"
        "    total = 0\n"
        "    for x in source.rows(n):\n"
        "        work(1)\n"
        "        total += x\n"
        "    return total\n"
        "def first(n):\n"
        "    for x in source.rows(n):\n"
        "        return x\n",
        work=clock.work, source=source,
    )
    tracer = Tracer(clock=clock)
    tracer.install({"source": source, "sink": sink})
    try:
        assert sink.consume(4) == 6
        assert sink.first(4) == 0  # abandoned after one item, then closed
    finally:
        tracer.uninstall()
    report = tracer.report()
    assert report["self_s"] == {"source:rows": 10.0, "sink:consume": 4.0, "sink:first": 0.0}
    assert report["calls"]["source:rows"] == 2
    assert tracer._stats().stack == []


def test_copies_and_dict_entries_are_rebound_then_restored():
    calc = toy_module("toy.calc", "def step():\n    return 1\n")
    app = toy_module("toy.app", "HANDLERS = {'s': step}\n", step=calc.step)
    original = calc.step
    tracer = Tracer()
    tracer.install({"calc": calc, "app": app})
    assert calc.step is not original and calc.step.__wrapped__ is original
    assert app.step is calc.step and app.HANDLERS["s"] is calc.step
    tracer.uninstall()
    assert calc.step is original and app.step is original and app.HANDLERS["s"] is original


def test_bitbit_is_wrapped_where_callers_look_it_up():
    sys.path.insert(0, str(run.SRC))
    import bitbit

    layers = {info.name: importlib.import_module(f"bitbit.{info.name}")
              for info in pkgutil.iter_modules(bitbit.__path__)}
    parse = layers["data"].parse_csv_row
    tracer = Tracer()
    tracer.install(layers, namespaces=[bitbit])
    try:
        assert layers["stream"].parse_csv_row is layers["data"].parse_csv_row is not parse
        assert layers["cli"].sweep_curve is layers["coverage"].sweep_curve
        assert bitbit.build_table is layers["coverage"].build_table
        assert layers["cli"]._COMMANDS["train"] is layers["cli"].run_train
        assert {"stream:CsvBatchSource.batches", "encoder:Bitstring.__post_init__",
                "qsim:Ansatz.apply_batch"} <= tracer.wrapped
    finally:
        tracer.uninstall()
    assert layers["stream"].parse_csv_row is parse is layers["data"].parse_csv_row


def test_counts_of_missing_functions_are_absent():
    qsim = toy_module("toy.qsim", "def evaluate_loss():\n    return 0.0\n")
    tracer = Tracer()
    tracer.install({"qsim": qsim})
    try:
        qsim.evaluate_loss()
        qsim.evaluate_loss()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.report(), wall_s=1.0, input_rows=10)
    assert metrics["qsim.loss_evals"] == 2
    assert metrics["qsim.circuit_evals"] is None  # no Ansatz.apply_batch
    assert metrics["data.parse_row_calls"] is None
    assert metrics["data.self_s"] is None and metrics["qsim.self_s"] >= 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_csvs(tmp_path, name):
    info = [generate(WORKLOADS[name], seed, tmp_path / f"{i}")
            for i, seed in enumerate((7, 7, 8))]
    assert info[0] == info[1]
    files = sorted(p.name for p in (tmp_path / "0").iterdir())
    for f in files:
        assert (tmp_path / "0" / f).read_bytes() == (tmp_path / "1" / f).read_bytes()
        assert (tmp_path / "0" / f).read_bytes() != (tmp_path / "2" / f).read_bytes()


def test_reference_matches_itself_and_catches_a_change():
    reference = checks.load_reference("train-ceiling", checks.REFERENCE_SEED)
    assert checks.compare(reference, copy.deepcopy(reference)) == []
    changed = copy.deepcopy(reference)
    changed["rows"][-1][1] += 1e-9
    assert checks.compare(reference, changed) == [
        f"/rows/3/1: {changed['rows'][-1][1]!r} != reference {reference['rows'][-1][1]!r}"
    ]
    assert checks.check_op("train", {"exit_code": 1}, Path("."), None) == ["exit code 1"]


def test_corrupted_reference_counts_as_a_failed_op():
    reference = checks.load_reference("estimate-table1", checks.REFERENCE_SEED)
    corrupted = copy.deepcopy(reference)
    corrupted["replicates"][0]["curve"][0]["theoretical_train_accuracy"] += 1e-6
    bench = run.Run("estimate-table1", checks.REFERENCE_SEED, 0.0, reference=corrupted)
    try:
        bench.measure(trace=False)
    finally:
        bench.close()
    assert len(bench.ops) == 1 and bench.failed == 1
    assert bench.problems == [
        "op 0: /replicates/0/curve/0/theoretical_train_accuracy: "
        f"{reference['replicates'][0]['curve'][0]['theoretical_train_accuracy']!r} != reference "
        f"{corrupted['replicates'][0]['curve'][0]['theoretical_train_accuracy']!r}"
    ]
