"""Time one set-up of a workload's system in a fresh interpreter.

Usage (``run.py`` starts this several times per run and reports the
median)::

    python3 perfbench/probe.py <workload> <seed> <workdir> <full|tiny>

Set-up time is the import of the package modules the workload uses plus
constructing the engine or service, mounting the store, starting the pool
and filling caches before timing (the workload's ``probe_setup``).
Interpreter start-up, the benchmark's own imports and input generation
are excluded.  Prints ``{"setup_s": ...}`` as its last line.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

IMPORTS = {
    "cold_batch": ("repro.engine",),
    "all_pairs": ("repro.engine",),
    "replica_store": ("repro.engine", "repro.engine.store"),
    "serve_warm": ("repro.engine", "repro.serving"),
}


def main(argv):
    name, seed, workdir, size = argv
    started = time.perf_counter()
    for module in IMPORTS[name]:
        __import__(module)
    imported = time.perf_counter() - started

    import workloads

    workload = workloads.make(name, int(seed), size == "tiny", workdir)
    print(json.dumps({"setup_s": imported + workload.probe_setup()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
