"""Fresh-interpreter helpers that run.py starts as child processes.

  child.py setup WORKLOAD SEED WORKDIR
      import kslogistic, set the workload up, print "ready" and exit;
      the parent times the whole life of the process up to that line
  child.py gate-heap
      kslogistic verify-all under tracemalloc (started after the
      imports); the last line printed is {"peak_bytes": ...}
  child.py gate-traced OUTFILE
      kslogistic verify-all with the layer tracer installed; writes the
      layer metrics as JSON to OUTFILE

The verify-all exit status is the exit status of the gate modes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        from workloads import WORKLOADS

        name, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
        WORKLOADS[name](seed, workdir).setup()
        print("ready", flush=True)
        return 0

    t0 = time.perf_counter()
    import kslogistic  # noqa: F401

    import_s = time.perf_counter() - t0
    import kslogistic.acceptance  # noqa: F401
    from kslogistic import cli

    if mode == "gate-heap":
        import tracemalloc

        tracemalloc.start()
        rc = cli.main(["verify-all"])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(json.dumps({"peak_bytes": peak}), flush=True)
        return rc
    if mode == "gate-traced":
        from layers import REP, layer_metrics, make_tracer

        tracer = make_tracer()
        with tracer.installed(), tracer.span(REP):
            rc = cli.main(["verify-all"])
        metrics, absent = layer_metrics(tracer, import_s, 0.0, 0)
        Path(argv[1]).write_text(json.dumps({"metrics": metrics, "absent": absent}))
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
