"""Record the expected analyze facts of every frame the workloads can draw.

    python3 perfbench/record_reference.py

Runs the CLI of the checkout once per pool frame and per cap-exceeding
frame, with element ids in their natural order, and writes the compared
facts (gate.analyze_facts) to reference.json.  The facts are invariant
under renaming elements, so they hold for every seed's relabelled copy.
Re-record only when the program's answers are meant to change.
"""

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate        # noqa: E402
import workloads   # noqa: E402
from localelab import cli  # noqa: E402


def facts_of(text, path, cap):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    out = io.StringIO()
    cli.main(["analyze", "--format", "keyvalue", "--cap", str(cap), path], out)
    return gate.analyze_facts(out.getvalue())


def main():
    work = os.path.join(ROOT, ".perfbench", "reference_inputs")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "frame.frame")
    reference = {}
    for key, (points, below) in workloads.pool().items():
        n = len(workloads.downsets(points, below))
        text = workloads.lattice_text(points, below, list(range(n)))
        reference[key] = facts_of(text, path, 1 << 16)
        print(key, reference[key]["assembly"], flush=True)
    for key, text in workloads.refuse_texts(None):
        reference[key] = facts_of(text, path, workloads.REFUSE_CAP)
        print(key, reference[key]["assembly"], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
