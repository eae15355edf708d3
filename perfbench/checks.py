"""Correctness checks on the outputs of every benchmark op.

Every op is checked for its exit code and for the paper's invariants:

- estimate reports: at each threshold, ``q_dataset = max(q_train, q_test) + q_y``
  with q_train and q_test recomputed as the curve's first crossings;
- train traces: training accuracy never above the theoretical ceiling, and a
  loss that never rises beyond rounding.

At the reference seed the outputs must also equal the values recorded in
``reference/<workload>.json`` at the commit that defined the benchmark:
numbers to 1e-10, everything else exactly. Only fields present in the
reference are compared, so fields added to reports later do not fail it.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-10
# Float slack for "never above" and "never rises": rounding, not a real change.
ROUNDING = 1e-12
REPORT_FIELDS = ("n_classes", "label_mapping", "replicates", "aggregates", "exit_code")


def read_outputs(kind: str, out_dir: Path) -> dict:
    """The outputs an op is judged on, as plain JSON values."""
    if kind == "train":
        return read_trace(out_dir / "trace.csv")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return {field: report[field] for field in REPORT_FIELDS}


def read_trace(path: Path) -> dict:
    ceiling = {}
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            name, _, value = line[1:].strip().partition("=")
            ceiling[name] = float(value)
        elif line and not line.startswith("sweep"):
            sweep, loss, train_acc, test_acc = line.split(",")
            rows.append([int(sweep), float(loss), float(train_acc), float(test_acc)])
    return {"ceiling": ceiling, "rows": rows}


def check_report(outputs: dict) -> list[str]:
    problems = []
    q_y = (outputs["n_classes"] - 1).bit_length()
    for rep in outputs["replicates"]:
        curve = rep["curve"]
        for key, est in rep["thresholds"].items():
            t = float(key)
            q_train = next((p["n_x"] for p in curve if p["theoretical_train_accuracy"] >= t), None)
            q_test = next((p["n_x"] for p in curve if p["theoretical_test_accuracy"] >= t), None)
            q = None if q_train is None or q_test is None else max(q_train, q_test) + q_y
            got = (est["q_train"], est["q_test"], est["q_y"], est["q_dataset"])
            if got != (q_train, q_test, q_y, q):
                problems.append(
                    f"replicate {rep['replicate']} threshold {key}: reported (q_train, q_test, q_y, "
                    f"q_dataset) {got}, first crossings give {(q_train, q_test, q_y, q)}"
                )
    return problems


def check_trace(outputs: dict) -> list[str]:
    problems = []
    ceiling = outputs["ceiling"]
    rows = outputs["rows"]
    if not rows:
        return ["training trace holds no rows"]
    # Only the training accuracy is bounded: on a code seen in training, a model
    # that departs from the training majority can beat the test-side figure.
    for sweep, loss, train_acc, test_acc in rows:
        if train_acc > ceiling["theoretical_train_accuracy"] + ROUNDING:
            problems.append(f"sweep {sweep}: train accuracy {train_acc!r} above the ceiling")
    for before, after in zip(rows, rows[1:]):
        if after[1] > before[1] + ROUNDING:
            problems.append(f"loss rose from {before[1]!r} to {after[1]!r} at sweep {after[0]}")
    return problems


def compare(reference, actual, where: str = "") -> list[str]:
    """Differences between ``actual`` and the fields present in ``reference``."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{where or '/'}: expected an object"]
        problems = []
        for key, value in reference.items():
            if key not in actual:
                problems.append(f"{where}/{key}: missing")
            else:
                problems.extend(compare(value, actual[key], f"{where}/{key}"))
        return problems
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{where}: expected a list of {len(reference)}"]
        problems = []
        for i, (r, a) in enumerate(zip(reference, actual)):
            problems.extend(compare(r, a, f"{where}/{i}"))
        return problems
    numbers = (int, float)
    if isinstance(reference, numbers) and not isinstance(reference, bool):
        if isinstance(actual, numbers) and not isinstance(actual, bool) \
                and abs(actual - reference) <= TOLERANCE:
            return []
    elif actual == reference:
        return []
    return [f"{where}: {actual!r} != reference {reference!r}"]


def load_reference(workload: str, seed: int):
    """The recorded outputs for this workload, or None off the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def check_op(kind: str, result: dict, out_dir: Path, reference) -> list[str]:
    """Everything wrong with one op; an empty list means it passed."""
    if result.get("error"):
        return [f"raised: {result['error'].strip().splitlines()[-1]}"]
    if result.get("exit_code") != 0:
        return [f"exit code {result.get('exit_code')}"]
    try:
        outputs = read_outputs(kind, out_dir)
        problems = check_trace(outputs) if kind == "train" else check_report(outputs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    if reference is not None:
        problems.extend(compare(reference, outputs))
    return problems
