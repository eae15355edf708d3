"""Run one bitbit command in this fresh process and write what it cost to
``result.json`` in the working directory.

    python3 perfbench/child.py TRACE [bitbit arguments...]

bitbit is imported from the ``src`` directory beside ``perfbench``. TRACE 1
installs the tracer before the command runs. Without bitbit arguments the
process only imports bitbit: a set-up probe. ``ready`` is ``time.monotonic()``
once bitbit is imported; the clock is system-wide, so the parent subtracts
the moment it started this process to get the set-up time.

The argument list holds nothing that changes from run to run, because its
length shifts the process's heap and with it the speed of the program.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    trace, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(SRC))
    import bitbit
    import bitbit.cli

    if SRC not in Path(bitbit.__file__).resolve().parents:
        raise SystemExit(f"bitbit was imported from {bitbit.__file__}, not from {SRC}")
    result = {"ready": time.monotonic()}

    if argv:
        tracer = None
        if trace == "1":
            from tracer import Tracer

            layers = {
                info.name: importlib.import_module(f"bitbit.{info.name}")
                for info in pkgutil.iter_modules(bitbit.__path__)
            }
            tracer = Tracer()
            tracer.install(layers, namespaces=[bitbit])
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        error = None
        exit_code = None
        try:
            exit_code = bitbit.cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=_cpu(after) - _cpu(before),
            peak_rss_mb=after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            exit_code=exit_code,
            error=error,
        )
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.report()

    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
