"""One workload run: calls clonebench.cli.main in this process, one call at a time.

Reads a job from stdin and writes one JSON result to stdout:

  job:    {"argvs", "seconds", "trace", "spans_path"}
  result: {"clonebench", "untraced", "traced", "outputs", "peak_rss_mb",
           "layers", "kernel"}

"untraced" and "traced" hold one list of latencies (ms) per timed pass.

A pass runs the whole invocation list. One untimed warm-up pass comes first;
timed passes then repeat until `seconds` have gone by (at least one). With
`trace` set, the first half of that time runs untraced and the second half
traced, so the two can be compared. Every invocation's exit status and output
is returned, warm-up included, for the caller to check.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from tracer import Tracer


def run_pass(cli, argvs, outputs, tracer=None) -> list[float]:
    """Runs every invocation once; returns their latencies in ms."""
    latencies = []
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.invocation += 1
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed run
            code = -1
            buffer.write(traceback.format_exc())
        latencies.append((time.perf_counter() - start) * 1000.0)
        outputs.append([index, code, buffer.getvalue()])
    return latencies


def repeat(cli, argvs, seconds, outputs, tracer=None) -> list:
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(cli, argvs, outputs, tracer))
        if time.perf_counter() >= deadline:
            return passes


def main() -> int:
    job = json.load(sys.stdin)
    from clonebench import cli

    argvs, seconds = job["argvs"], job["seconds"]
    outputs: list = []
    result = {"clonebench": sys.modules["clonebench"].__file__}
    run_pass(cli, argvs, outputs)
    if job["trace"]:
        result["untraced"] = repeat(cli, argvs, seconds / 2, outputs)
        tracer = Tracer()
        tracer.install()
        result["traced"] = repeat(cli, argvs, seconds / 2, outputs, tracer)
        tracer.uninstall()
        result["layers"] = tracer.totals()
        result["kernel"] = tracer.kernel
        tracer.write(job["spans_path"])
    else:
        result["untraced"] = repeat(cli, argvs, seconds, outputs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outputs"] = outputs
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
