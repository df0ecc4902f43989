"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate        # noqa: E402
import run         # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(reference, tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.make_inputs(name, 3, reference, str(tmp_path / "a"))
        b = workloads.make_inputs(name, 3, reference, str(tmp_path / "b"))
        c = workloads.make_inputs(name, 4, reference, str(tmp_path / "c"))
        names = [[os.path.basename(x) for x in i.argv] for i in (a, b, c)]
        assert a.files == b.files and a.expected == b.expected
        assert names[0] == names[1]
        assert (a.files, names[0]) != (c.files, names[2])


def test_cli_stream_mirrors_the_program_generator():
    from localelab import frames
    for seed in (1, 7):
        rng = random.Random(seed)
        stream = workloads.cli_stream(seed, 6)
        for _ in range(40):
            frame = frames.random_frame(rng, 6)
            assert next(stream) == (len(frames.primes(frame)), frame.n)


def test_canonical_order_ignores_labels_only():
    below = workloads._closure(4, [(0, 1), (1, 2), (3, 2)])
    relabelled = workloads._closure(4, [(3, 2), (2, 0), (1, 0)])
    chain = workloads._closure(4, [(0, 1), (1, 2), (2, 3)])
    key = workloads.canonical_order(4, below)
    assert key == workloads.canonical_order(4, relabelled)
    assert key != workloads.canonical_order(4, chain)


def test_frame_files_are_the_intended_frames():
    from localelab import frames
    points, below = workloads.pool()["boolean64"]
    text = workloads.lattice_text(points, below, list(range(64))[::-1])
    assert frames.parse_frame_text(text).n == 64
    grid = frames.parse_frame_text(workloads.grid_text(3, 4, list(range(12))))
    assert len(frames.primes(grid)) == 2 + 3


def test_traced_counts_repeat_and_the_gate_sees_doctored_output(reference, tmp_path):
    inputs = workloads.make_inputs("verify_small", 1, reference, str(tmp_path))
    spec = {"argv": inputs.argv, "src": os.path.join(ROOT, "src"), "run_id": "t"}
    counts = []
    for i in range(2):
        spec["trace_out"] = str(tmp_path / f"spans{i}.npz")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        report = run.run_child(ROOT, str(spec_path))
        layers = report["layers"]
        counts.append({k: v for k, v in layers.items()
                       if k.endswith(("_calls", "_checked", "_yield", "_skipped"))})
        assert os.path.getsize(spec["trace_out"]) > 0
    assert counts[0] == counts[1]
    assert counts[0]["sublocales.enumerate_calls"] > 0
    assert set(layers) >= {name for name, _, _ in tracer.metric_specs()}

    text = "".join(t for _, t in report["writes"])
    attempted, failed, _ = gate.check("verify", text, 0, inputs.expected)
    assert (attempted, failed) == (len(inputs.expected["elements"]), 0)
    doctored = text.replace(
        f"frame 2: elements={inputs.expected['elements'][1]} ok",
        f"frame 2: elements={inputs.expected['elements'][1]} FAIL")
    assert gate.check("verify", doctored, 0, inputs.expected)[1] > 0
    assert gate.check("verify", text, 1, inputs.expected)[1] > 0
    assert gate.check("verify", "", 0, inputs.expected)[1] == attempted


def test_gate_sees_a_disagreeing_row_and_a_wrong_exit_code(reference, tmp_path):
    from localelab import cli
    points, below = workloads.pool()["p00"]
    n = len(workloads.downsets(points, below))
    path = tmp_path / "f.frame"
    path.write_text(workloads.lattice_text(points, below, list(range(n))))
    out = io.StringIO()
    code = cli.main(["analyze", "--format", "keyvalue", str(path)], out)
    text = out.getvalue()
    expected = {"exit": 0, "records": [reference["p00"]]}
    assert gate.check("analyze", text, code, expected)[:2] == (1, 0)
    row = next(line for line in text.splitlines() if line.endswith(".agree=true"))
    disagree = text.replace(row, row.replace("=true", "=false"))
    assert gate.check("analyze", disagree, code, expected)[1] == 1
    assert gate.check("analyze", text, 3, expected)[1] == 1


def test_benchmark_json_names_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert names == [w for w in workloads.WORKLOADS if w != "analyze_files"]
    layer_names = [name for name, _, _ in tracer.metric_specs()] + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names
    writes = [(0.0, "verify: x"), (0.1, "frame 1: elements=2 ok")]
    reports = [{"wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 30.0, "writes": writes}]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.end_to_end("verify", reports, [0.2]))


def test_setup_probe_stops_after_the_import(tmp_path):
    spec_path = tmp_path / "probe.json"
    spec_path.write_text(json.dumps({"src": os.path.join(ROOT, "src"),
                                     "setup_only": True}))
    report = run.run_child(ROOT, str(spec_path))
    assert set(report) == {"setup_s"} and report["setup_s"] > 0


def test_per_layer_takes_medians_and_pairs_the_overhead():
    names = [name for name, _, _ in tracer.metric_specs()]
    reports = []
    for i, (untraced, traced) in enumerate([(1.0, 1.5), (2.0, 2.2), (1.0, 1.1)]):
        layers = {name: 7 for name in names}
        layers["frames.validate_s"] = float(i)
        reports.append({"traced": False, "wall_s": untraced})
        reports.append({"traced": True, "wall_s": traced, "layers": layers})
    out = run.per_layer(reports)
    assert out["frames.validate_s"][0] == 1.0
    assert out["frames.validate_calls"][0] == 7
    assert out["trace.overhead_s"][0] == pytest.approx(0.2)
