"""Child process of a traced run: runs one of a workload's CLI calls in this
fresh interpreter, with or without layer spans, and writes the call's output
and the spans to stdout as one JSON object.

    python3 perfbench/inprocess.py --workload zeros-scan --seed 1 --call 0 --trace 1

Needs the package on PYTHONPATH; ``run.py --trace 1`` starts it that way.
One call per interpreter keeps the module caches (Gauss nodes, series
tables, Bernoulli numbers) cold, as they are in the timed run's fresh
``python -m etazeros`` processes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import tracer
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--call", type=int, required=True,
                    help="index into the workload's calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    argv = workloads.make(args.workload, args.seed).calls[args.call]
    import etazeros.cli
    tr = tracer.Tracer()
    main_fn = tracer.install(tr) if args.trace else etazeros.cli.main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main_fn(list(argv))
    spans = [[s.id, s.name, s.start, s.end, s.parent, s.ok] for s in tr.spans]
    json.dump({"argv": list(argv), "code": code, "stdout": out.getvalue(),
               "spans": spans}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
