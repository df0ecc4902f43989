"""Benchmark of the localelab CLI: four workloads, timed end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (inputs are made from --seed; see workloads.py):

  verify_small    verify --bound 4 over eight frames of 2 to 12 elements
  verify_large    verify --bound 6 over one frame of 6 primes and 16 elements,
                  one poset up to relabelling
  analyze_files   analyze --format keyvalue over the 64-element Boolean frame
                  and four 7-point downset lattices of 10 elements
  analyze_refuse  analyze --cap 4096 over a 22-chain and the 10x10 and 14x14
                  grids; every file exceeds the cap and the exit code is 3

BENCHMARK.json lists all but analyze_files.  The host's speed drifts by
up to a third over minutes, and analyze_files, three 8-s children per
run, spread past its bound between sets of runs of the same code; it
stays runnable here for by-hand comparisons of the classify path.

Each measured run is one fresh child process (child.py) calling
localelab.cli.main; children run one at a time, at least MIN_CHILDREN of
them and then as many as fit in --seconds, with set-up probes (children
that stop once localelab.cli is imported) spread between them.  Every
child's output is checked against the expected facts (gate.py).

With --trace 0 the last stdout line reports:

  wall_s        the cli.main call, mean over the children
  setup_s       process start until localelab.cli is imported, median
                over the children and the probes
  peak_rss_mb   median over the children
  frame_p50_ms  each child's median frame latency (a generated frame for
                verify, a frame file for analyze), mean over the children
  frame_p95_ms  95th percentile of the frame latencies of all children

Means over the children make every part of a run weigh alike, as the
speed of the host can change every few seconds.  frame_p50_ms is taken
per child because a child's frames are the same every time: a median
pooled over all frames would fall between two frame sizes and follow
the slowest sample of one and the fastest of the other.

With --trace 1 untraced and traced children alternate, TRACE_PAIRS pairs
or more, and the last line reports the per-layer metrics (tracer.py) as
medians over the traced children, plus trace.overhead_s, the median over
the pairs of traced wall time minus untraced wall time.

Each run writes a JSON result file, named by workload, seed, trace
setting and start time, with an environment stamp, under
.perfbench/results/; span files go under .perfbench/spans/.

The default seed is DEFAULT_SEED; HELD_OUT_SEED is kept for checking a
claimed gain on inputs not used while the change was written.  Exit code
0 means a result was printed; it may still report correct: false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate        # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
MIN_CHILDREN = 3
TRACE_PAIRS = 3
PROBES_PER_S = 0.5
CHILD_TIMEOUT_S = 170
REFERENCE = os.path.join(HERE, "reference.json")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def run_child(root, spec_path, timeout=CHILD_TIMEOUT_S):
    """Start one child, wait for it to end, return its parsed report."""
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path, repr(spawn)],
        cwd=root, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed with code {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def frame_latencies_ms(kind, writes):
    """Per-frame latency: gaps between successive per-frame output lines."""
    marker = "frame " if kind == "verify" else "name="
    base = 0.0
    if kind == "verify":
        base = next(t for t, text in writes if text.startswith("verify:"))
    stamps = [base] + [t for t, text in writes if text.startswith(marker)]
    return [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]


def p95(samples):
    """95th percentile, interpolated between samples: with few frames (one
    per child on verify_large) the default method would extrapolate past
    the slowest frame seen."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(args, root, inputs, spec_path, spec):
    """Run the children; return (reports, setups, attempted, failed, problems).

    Untraced runs put set-up probes between the measured children,
    PROBES_PER_S of them per second of run, so the set-up samples are
    spread over the whole run like the measured ones.  A traced run
    alternates untraced and traced children, TRACE_PAIRS pairs or more,
    which one comes first switching from pair to pair.
    """
    reports = []
    setups = []
    attempted = failed = 0
    problems = []
    probe_path = os.path.join(os.path.dirname(spec_path), "probe.json")
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump({"src": spec["src"], "setup_only": True}, fh)

    def one(traced):
        nonlocal attempted, failed
        spec["trace_out"] = None
        if traced:
            spec["run_id"] = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
            spans = os.path.join(root, ".perfbench", "spans")
            os.makedirs(spans, exist_ok=True)
            spec["trace_out"] = os.path.join(spans, f"{spec['run_id']}.npz")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        began = time.monotonic()
        report = run_child(root, spec_path)
        report["elapsed_s"] = time.monotonic() - began
        report["traced"] = traced
        text = "".join(t for _, t in report["writes"])
        a, f, p = gate.check(inputs.kind, text, report["code"], inputs.expected)
        attempted += a
        failed += f
        problems.extend(p)
        reports.append(report)
        setups.append(report["setup_s"])

    start = time.monotonic()
    while True:
        if args.trace:
            first = len(reports) // 2 % 2 == 0
            one(not first)
            one(first)
            done = len(reports) // 2
        else:
            one(False)
            done = len(reports)
        while not args.trace and \
                len(setups) - len(reports) < PROBES_PER_S * (time.monotonic() - start):
            setups.append(run_child(root, probe_path)["setup_s"])
        used = time.monotonic() - start
        if done >= (TRACE_PAIRS if args.trace else MIN_CHILDREN) \
                and used + used / done > args.seconds:
            break
    return reports, setups, attempted, failed, problems


def end_to_end(kind, reports, setups):
    walls = [r["wall_s"] for r in reports]
    per_run = [frame_latencies_ms(kind, r["writes"]) for r in reports]
    latencies = [x for frames in per_run for x in frames]
    n = len(reports)
    return {
        "wall_s": (statistics.mean(walls), "s", f"mean of {n} runs"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups, {len(setups) - n} of them probes"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB",
                        f"median of {n} runs"),
        "frame_p50_ms": (statistics.mean(statistics.median(f) for f in per_run), "ms",
                         f"mean over {n} runs of each run's median of "
                         f"{len(per_run[0])} frames"),
        "frame_p95_ms": (p95(latencies), "ms", f"{len(latencies)} frames over {n} runs"),
    }


def per_layer(reports):
    """Medians over the traced children; overhead from the paired children."""
    traced = [r for r in reports if r["traced"]]
    untraced = [r for r in reports if not r["traced"]]
    out = {}
    for name, unit, _ in tracer.metric_specs():
        values = [r["layers"][name] for r in traced]
        note = f"median of {len(values)} traced runs"
        if len(set(values)) == 1:
            note = f"same in all {len(values)} traced runs"
        out[name] = (statistics.median(values), unit, note)
    gaps = [t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)]
    out["trace.overhead_s"] = (
        statistics.median(gaps), "s",
        f"median of {len(gaps)} paired differences, traced wall "
        f"{statistics.median(r['wall_s'] for r in traced):.4f} s against untraced "
        f"{statistics.median(r['wall_s'] for r in untraced):.4f} s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "localelab", "cli.py")):
        print(f"error: no localelab sources under {src}", file=sys.stderr)
        return 2
    started = time.time()
    load_start = os.getloadavg()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    work = os.path.join(root, ".perfbench")
    input_dir = os.path.join(work, "inputs", f"{args.workload}-seed{args.seed}")
    inputs = workloads.make_inputs(args.workload, args.seed, reference, input_dir)
    os.makedirs(input_dir, exist_ok=True)
    spec_path = os.path.join(input_dir, "spec.json")
    spec = {"argv": inputs.argv, "src": src}

    try:
        reports, setups, attempted, failed, problems = measure(
            args, root, inputs, spec_path, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(reports)
    else:
        metrics = end_to_end(inputs.kind, reports, setups)

    env = {
        "python": platform.python_version(),
        "numpy": reports[0]["numpy"],
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "trace": args.trace, "argv": inputs.argv, "environment": env,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u, "samples": s}
                    for k, (v, u, s) in metrics.items()},
        "runs": [{**{k: v for k, v in r.items() if k != "writes"},
                  "frame_ms": frame_latencies_ms(inputs.kind, r["writes"])}
                 for r in reports],
        "setups_s": setups,
    }
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    result_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-"
                 f"{os.getpid()}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems[:10]:
        print(f"mismatch: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {' '.join(inputs.argv[:7])}"
          f"{' ...' if len(inputs.argv) > 7 else ''}")
    print(f"environment: python {env['python']} numpy {env['numpy']} "
          f"nproc {env['nproc']} load {load_start[0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({samples})")
    print(f"failed_ratio = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations)")
    print(f"result file: {os.path.relpath(result_path, root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
