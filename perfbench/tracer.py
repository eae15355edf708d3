"""Outside-in tracing of bitbit, one layer per module, from the benchmark's files.

``Tracer.install`` finds the public functions and methods of each module at
run time, wraps each in a span, and rebinds the wrapper everywhere callers
look the original up: the defining module, every ``from ... import`` copy in
the other modules, and dicts held at module level. Nothing in the program is
edited, so the tracer keeps working when functions move between modules.

A span's self time is its duration minus the time of the spans nested in it
on the same thread. Each thread keeps its own span stack and totals, so work
running in a thread pool is never subtracted from a span on another thread;
a thread that waits for a pool (as ``estimate --jobs`` does) charges the wait
to the span it waits in.

A generator's resumptions are spans of the generator's own module, so the time
a ``for`` loop spends inside ``CsvBatchSource.batches`` is charged to
``stream``, not to the consumer.

Counters hang off named functions (see ``COUNTERS``). When a named function no
longer exists, or its hook cannot read what it expects, the counter is
reported as absent rather than as a wrong number.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time

LAYERS = ("data", "dimred", "encoder", "coverage", "stream", "qsim", "cli")

# Encoder functions whose self time is file I/O.
IO_FUNCTIONS = (
    "encoder:write_encoded",
    "encoder:read_encoded_header",
    "encoder:iter_encoded",
    "encoder:read_encoded",
    "encoder:persist_model",
    "encoder:load_model",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _gates(ansatz) -> int:
    # One RY and one RZ per qubit per layer, then a ring of CNOTs when n > 1.
    n = ansatz.n_qubits
    return ansatz.layers * (2 * n + (n if n > 1 else 0))


# metric -> list of (function key, value hook). A hook of None counts calls;
# otherwise it maps (args, kwargs, value) to an increment, where value is the
# return value, or each yielded item for a generator function.
COUNTERS = {
    "encoder.mi_calls": [("encoder:estimate_mutual_information", None)],
    "dimred.fit_calls": [("dimred:fit_reducer", None)],
    "encoder.fit_calls": [("encoder:fit_encoder", None)],
    "dimred.rows_transformed": [("dimred:transform", lambda a, k, r: r.shape[0])],
    "encoder.bitstrings": [("encoder:Bitstring.__post_init__", None)],
    "encoder.rows_encoded": [("encoder:encode_samples", lambda a, k, r: len(r))],
    "coverage.records_tabled": [("coverage:build_table", lambda a, k, r: r.total)],
    "coverage.unique_codes": [("coverage:build_table", lambda a, k, r: len(r.entries))],
    "data.parse_row_calls": [("data:parse_csv_row", None)],
    "stream.source_passes": [("stream:CsvBatchSource.batches", None)],
    "stream.rows_read": [("stream:CsvBatchSource.batches", lambda a, k, item: len(item[1]))],
    # Feeds stream.read_efficiency: rows that load_csv read in one go.
    "data.rows_loaded": [("data:load_csv", lambda a, k, r: r.n_samples)],
    "encoder.bytes_written": [
        ("encoder:write_encoded", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
        ("encoder:persist_model", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    ],
    "qsim.loss_evals": [("qsim:evaluate_loss", None)],
    "qsim.circuit_evals": [("qsim:Ansatz.apply_batch", None)],
    "qsim.state_rows": [("qsim:Ansatz.apply_batch", lambda a, k, r: _arg(a, k, 1, "states").shape[0])],
    "qsim.gate_applications": [("qsim:Ansatz.apply_batch", lambda a, k, r: _gates(a[0]))],
    "qsim.bytes_moved": [
        ("qsim:Ansatz.apply_batch",
         lambda a, k, r: _gates(a[0]) * 2 * _arg(a, k, 1, "states").nbytes),
    ],
}

# Counts derived from array sizes rather than observed work.
COMPUTED = ("qsim.gate_applications", "qsim.bytes_moved")


class _ThreadStats:
    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time of nested spans]
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}


class Tracer:
    """Span and counter recorder; install it, run the program, read ``report``."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._restore: list[tuple] = []
        self._hooks: dict[str, list[tuple[str, object]]] = {}
        for metric, targets in COUNTERS.items():
            for key, hook in targets:
                if hook is not None:
                    self._hooks.setdefault(key, []).append((metric, hook))
        self.wrapped: set[str] = set()
        self.layers: list[str] = []
        self.broken: set[str] = set()

    # --- recording ---

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(stats)
        return stats

    def _enter(self, key: str, call: bool = True) -> _ThreadStats:
        stats = self._stats()
        if call:  # a generator's later resumptions are spans, not calls
            stats.calls[key] = stats.calls.get(key, 0) + 1
        stats.stack.append([self._clock(), 0.0])
        return stats

    def _exit(self, stats: _ThreadStats, key: str) -> None:
        end = self._clock()
        start, nested = stats.stack.pop()
        duration = end - start
        stats.self_s[key] = stats.self_s.get(key, 0.0) + duration - nested
        stats.inclusive_s[key] = stats.inclusive_s.get(key, 0.0) + duration
        if stats.stack:
            stats.stack[-1][1] += duration

    def _observe(self, key: str, args, kwargs, value) -> None:
        hooks = self._hooks.get(key)
        if not hooks:
            return
        counts = self._stats().counts
        for metric, hook in hooks:
            try:
                counts[metric] = counts.get(metric, 0) + hook(args, kwargs, value)
            except Exception:  # the program changed shape under the hook
                self.broken.add(metric)

    # --- wrapping ---

    def _span(self, fn, key: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        stats = tracer._enter(key, call=first)
                        first = False
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(stats, key)
                        tracer._observe(key, args, kwargs, item)
                        yield item
                finally:
                    gen.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(stats, key)
            tracer._observe(key, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stats = tracer._stats()
            stats.calls[key] = stats.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._restore.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def install(self, modules: dict, namespaces=()) -> None:
        """Wrap the public functions and methods of ``modules`` ({layer: module})
        and rebind every copy found in the modules and in ``namespaces``."""
        swaps: dict[int, tuple[object, object]] = {}
        self.layers = list(modules)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}:{name}"
                    swaps[id(obj)] = (obj, self._span(obj, key))
                    self.wrapped.add(key)
                elif inspect.isclass(obj):
                    self._install_class(layer, name, obj)
        for key in self._counted_keys():
            self._install_counter(key, modules)
        for ns in list(modules.values()) + list(namespaces):
            for name, value in list(vars(ns).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(ns, name, hit[1])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for k, v in list(value.items()):
                        hit = swaps.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._replace(value, k, hit[1])

    def _install_class(self, layer: str, name: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{layer}:{name}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                self._replace(cls, attr, type(member)(self._span(member.__func__, key)))
            elif inspect.isfunction(member):
                self._replace(cls, attr, self._span(member, key))
            else:
                continue
            self.wrapped.add(key)

    @staticmethod
    def _counted_keys() -> set[str]:
        return {key for targets in COUNTERS.values() for key, hook in targets if hook is None}

    def _install_counter(self, key: str, modules: dict) -> None:
        # Private and dunder targets (not spanned) get a counting wrapper only.
        if key in self.wrapped:
            return
        layer, _, path = key.partition(":")
        owner = modules.get(layer)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        member = vars(owner).get(attr) if owner is not None and hasattr(owner, "__dict__") else None
        if inspect.isfunction(member):
            self._replace(owner, attr, self._counter(member, key))
            self.wrapped.add(key)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # --- results ---

    def report(self) -> dict:
        """Totals merged over threads, as plain JSON-ready dicts."""
        merged = {"self_s": {}, "inclusive_s": {}, "calls": {}, "counts": {}}
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            for field in merged:
                for key, value in getattr(stats, field).items():
                    merged[field][key] = merged[field].get(key, 0) + value
        merged["layers"] = list(self.layers)
        merged["wrapped"] = sorted(self.wrapped)
        merged["broken"] = sorted(self.broken)
        merged["threads"] = len(threads)
        return merged


def layer_metrics(report: dict, wall_s: float, input_rows: int) -> dict:
    """Per-layer metrics from one traced op; None marks a metric as absent."""
    wrapped = set(report["wrapped"])
    calls, counts, self_s = report["calls"], report["counts"], report["self_s"]
    out: dict[str, float | None] = {}
    for layer in LAYERS:
        keys = [k for k in self_s if k.partition(":")[0] == layer]
        out[f"{layer}.self_s"] = sum(self_s[k] for k in keys) if layer in report["layers"] else None
    for metric, targets in COUNTERS.items():
        if metric in report["broken"] or any(key not in wrapped for key, _ in targets):
            out[metric] = None
        else:
            out[metric] = sum(
                calls.get(key, 0) if hook is None else 0 for key, hook in targets
            ) + counts.get(metric, 0)
    rows_read = None
    if out["stream.rows_read"] is not None and out["data.rows_loaded"] is not None:
        rows_read = out["stream.rows_read"] + out["data.rows_loaded"]
    out["stream.read_efficiency"] = input_rows / rows_read if rows_read else None
    out["encoder.io_s"] = sum(self_s.get(k, 0.0) for k in IO_FUNCTIONS if k in wrapped) \
        if "encoder" in report["layers"] else None
    out["cli.parallelism"] = (
        report["inclusive_s"].get("coverage:sweep_curve", 0.0) / wall_s
        if "coverage:sweep_curve" in wrapped else None
    )
    return out
