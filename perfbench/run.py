"""Benchmark of bitbit's three user-facing commands: estimate, stream-estimate, train.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-reference

Run it from the root of a checkout; it imports bitbit from that checkout's
``src``. Inputs are generated from ``--seed`` (see inputs.py) before anything
is timed. Each op then starts a fresh Python process (child.py) that imports
bitbit and calls ``bitbit.cli.main(argv)``, so the numbers are those of the
command a user runs. Ops run back to back, one at a time (a closed loop with
one client), for about ``--seconds``; every op is checked (checks.py), and a
failed check counts in ``failed``, never aborts the run.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the run's ops:

- ``wall_s``: wall time of ``main(argv)``;
- ``cpu_s``: user plus system CPU time of the process over the same interval,
  BLAS threads included;
- ``peak_rss_mb``: ``ru_maxrss`` of the fresh process;
- ``setup_s``: from process start until bitbit is imported, over the ops and
  an import-only probe before each op.

With ``--trace 1`` ops run in pairs, one untraced and one traced (tracer.py),
and the last line reports the per-layer metrics of the traced ops together
with ``trace.overhead_frac`` (traced over untraced wall time, minus one).

Lines before the last give, for people: the machine and provenance, the
inputs, and each metric with its unit, sample count, median and tail
percentile. ``--workload all`` runs every workload and prints only those.
``--record-reference`` writes reference/<workload>.json from one op at the
reference seed; do that only at a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from inputs import WORKLOADS, generate
from tracer import COMPUTED, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# glibc hands freed memory back to the kernel (trim) and maps large blocks
# afresh (mmap) by thresholds that adapt to the allocation history. Under the
# defaults, whether qsim's 128 KiB temporaries are page-faulted in anew on
# every gate depends on where the heap happens to end, which shifts with the
# length of the environment and the arguments: train-ceiling then takes 1x or
# 2x as long from run to run. Fixed, high thresholds make every op take the
# same allocator path. Other C libraries ignore the variable.
MALLOC_TUNABLES = "glibc.malloc.trim_threshold=268435456:glibc.malloc.mmap_threshold=268435456"
# Every run, set-up and inputs included, ends well inside three minutes.
RUN_LIMIT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("data", "dimred", "encoder", "coverage", "stream", "qsim", "cli")},
    "encoder.mi_calls": "count",
    "dimred.fit_calls": "count",
    "encoder.fit_calls": "count",
    "dimred.rows_transformed": "rows",
    "encoder.bitstrings": "count",
    "encoder.rows_encoded": "rows",
    "coverage.records_tabled": "count",
    "coverage.unique_codes": "count",
    "data.parse_row_calls": "count",
    "stream.source_passes": "count",
    "stream.rows_read": "rows",
    "stream.read_efficiency": "ratio",
    "encoder.io_s": "s",
    "encoder.bytes_written": "B",
    "qsim.loss_evals": "count",
    "qsim.circuit_evals": "count",
    "qsim.state_rows": "rows",
    "qsim.gate_applications": "count",
    "qsim.bytes_moved": "B",
    "cli.parallelism": "ratio",
    "trace.overhead_frac": "ratio",
}


# --- provenance ---


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            threads = f"{var}={os.environ[var]}"
            break
    else:
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    threads = f"default ({getter()} threads)"
                    break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "malloc": MALLOC_TUNABLES,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# --- ops ---


def _spawn(work: Path, trace: bool, argv: list[str], timeout: float) -> dict:
    """One fresh process in ``work``; returns its result, with ``error`` set on
    any failure."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    env = {**os.environ, "GLIBC_TUNABLES": MALLOC_TUNABLES}
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result.pop("ready") - spawned
    return result


class Run:
    """One workload at one seed: inputs, set-up probes, timed ops, checks."""

    def __init__(self, name: str, seed: int, seconds: float, reference):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.reference = reference  # outputs to match, or None
        self.started = time.monotonic()
        self.work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
        self.ops: list[dict] = []
        self.setup: list[float] = []
        self.problems: list[str] = []

    def _remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def op(self, trace: bool) -> None:
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result = _spawn(self.work, trace, list(self.workload.command), max(self._remaining(), 1.0))
        problems = checks.check_op(self.workload.command[0], result, out_dir, self.reference)
        result["problems"] = problems
        self.problems.extend(f"op {len(self.ops)}: {p}" for p in problems[:5])
        if "setup_s" in result:
            self.setup.append(result["setup_s"])
        self.ops.append(result)

    def measure(self, trace: bool) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = generate(self.workload, self.seed, self.work)
        # Discarded: it lets the first import write bytecode caches, which
        # users pay once, not on every run.
        _spawn(self.work, False, [], max(self._remaining(), 1.0))
        begin = time.monotonic()
        rounds: list[float] = []
        while True:
            t0 = time.monotonic()
            probe = _spawn(self.work, False, [], max(self._remaining(), 1.0))
            if "setup_s" in probe:
                self.setup.append(probe["setup_s"])
            self.op(trace=False)
            if trace:
                self.op(trace=True)
            rounds.append(time.monotonic() - t0)
            expected = statistics.median(rounds)
            # Start another round only if it is expected to end within
            # --seconds, and well inside the run limit.
            elapsed = time.monotonic() - begin
            if elapsed + expected > self.seconds or expected > self._remaining():
                break

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    # --- results ---

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"])

    def end_to_end(self) -> dict[str, list[float]]:
        timed = [op for op in self.ops if "wall_s" in op and "trace" not in op]
        samples = {name: [op[name] for op in timed] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = list(self.setup)
        return samples

    def per_layer(self) -> dict[str, list[float | None]]:
        samples: dict[str, list] = {name: [] for name in PER_LAYER}
        pairs = zip(self.ops[0::2], self.ops[1::2])
        for plain, traced in pairs:
            if "trace" not in traced or "wall_s" not in plain:
                continue
            values = layer_metrics(traced["trace"], traced["wall_s"], self.inputs["rows"])
            values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
            for name in PER_LAYER:
                samples[name].append(values.get(name))
        return samples


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it, if any."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return None
    return f"p{100 * k // len(ordered)}", ordered[k - 1]


def describe(name: str, unit: str, values: list) -> str:
    present = [v for v in values if v is not None]
    if not present:
        return f"  {name:<26} absent"
    t = tail(present)
    tail_text = f"{t[0]} {t[1]:.6g}" if t else "tail n/a (<11 samples)"
    label = " (computed)" if name in COMPUTED else ""
    return (f"  {name:<26} {statistics.median(present):>14.6g} {unit:<6} n={len(present):<3} "
            f"{tail_text}{label}")


def summarize(samples: dict[str, list], median=statistics.median) -> dict:
    """Median of each metric; None where the metric is absent."""
    out = {}
    for name, values in samples.items():
        present = [v for v in values if v is not None]
        out[name] = median(present) if present and len(present) == len(values) else None
    return out


def execute(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    run = Run(name, seed, seconds, checks.load_reference(name, seed))
    try:
        run.measure(trace)
    finally:
        run.close()
    units = PER_LAYER if trace else END_TO_END
    samples = run.per_layer() if trace else run.end_to_end()
    print(f"workload {name} seed {seed} trace {int(trace)}: {json.dumps(run.inputs)}")
    print(f"  ops {len(run.ops)}, failed {run.failed}, failed_frac {run.failed / len(run.ops):.4g}")
    for problem in run.problems:
        print(f"  check failed: {problem}")
    for metric, unit in units.items():
        print(describe(metric, unit, samples[metric]))
    # Per-layer counts stay whole: their median is a value that was observed.
    return run, summarize(samples, statistics.median_low if trace else statistics.median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "bitbit" / "cli.py").is_file():
        print(f"error: {SRC / 'bitbit'} not found; run from a bitbit checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload)

    print("provenance: " + json.dumps(provenance()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run, metrics = execute(name, args.seed, args.seconds, bool(args.trace))
    if args.workload == "all":
        return 0
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }))
    return 0


def record_reference(name: str) -> int:
    run = Run(name, checks.REFERENCE_SEED, 0.0, reference=None)
    try:
        run.measure(trace=False)
        if run.problems:
            print(f"error: not recording a failing op: {run.problems}", file=sys.stderr)
            return 1
        outputs = checks.read_outputs(run.workload.command[0], run.work / "out")
    finally:
        run.close()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    path = checks.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
