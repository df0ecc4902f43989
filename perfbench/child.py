"""One measured run of the localelab CLI, in a fresh process.

    python3 perfbench/child.py SPEC_JSON SPAWN_TIME

SPEC_JSON holds the CLI argv, the source directory, and, for a traced
run, the run id and the span file to write.  SPAWN_TIME is the parent's
time.monotonic() just before it started this process, so set-up time
covers interpreter start-up and the import of localelab.cli.  A spec
with "setup_only" set makes a set-up probe, which stops once set-up time
is known.  One JSON object goes to stdout; the CLI's own output is kept
in memory, with the time each line was written.
"""

import time
import json
import os
import resource
import sys


class StampedWriter:
    """A text stream for cli.main that records when each write happened."""

    def __init__(self, t0):
        self.t0 = t0
        self.writes = []

    def write(self, text):
        self.writes.append((time.perf_counter() - self.t0, text))
        return len(text)

    def flush(self):
        pass


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    spawn = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    import localelab.cli as cli
    setup_s = time.monotonic() - spawn
    if spec.get("setup_only"):
        json.dump({"setup_s": setup_s}, sys.stdout)
        sys.stdout.write("\n")
        return
    import numpy

    tracer = None
    if spec.get("trace_out"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install("localelab")

    t0 = time.perf_counter()
    out = StampedWriter(t0)
    code = cli.main(spec["argv"], out)
    wall_s = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "code": code,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "writes": out.writes,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spec["trace_out"])
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
