"""Correctness gate: compare one CLI run's output with the expected facts.

An operation is a frame for `verify` and a file for `analyze`.  Only
facts that a faster program must keep are compared: the per-frame ok/FAIL
lines and the summary lines of `verify`; the assembly value, the family
sizes, the booleans and the row agreement of `analyze`.  Cap counts,
timings and witness paths are left out on purpose.
"""

from __future__ import annotations

FAMILY_KEYS = ("assembly", "smooth", "closed_joins", "d_sublocales",
               "spatial_sublocales", "agree_all")


def analyze_facts(record_text):
    """The compared facts of one keyvalue record."""
    facts = {}
    for line in record_text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            continue
        if key.startswith("row."):
            if key.endswith(".agree"):
                facts[key] = value
        elif key in FAMILY_KEYS or value in ("true", "false"):
            facts[key] = value
    return facts


def split_records(text):
    """Keyvalue output split into one text per file (each starts at name=)."""
    records = []
    for line in text.splitlines():
        if line.startswith("name="):
            records.append([])
        if records:
            records[-1].append(line)
    return ["\n".join(r) for r in records]


def check_analyze(text, code, expected):
    """(attempted, failed, problems) for one analyze run."""
    want = expected["records"]
    got = split_records(text)
    problems = []
    failed = 0
    for i, facts in enumerate(want):
        actual = analyze_facts(got[i]) if i < len(got) else None
        if actual != facts:
            failed += 1
            problems.append(f"file {i}: expected {facts}, got {actual}")
    if len(got) != len(want):
        problems.append(f"{len(got)} records for {len(want)} files")
    if code != expected["exit"]:
        problems.append(f"exit code {code}, expected {expected['exit']}")
    if len(got) != len(want) or code != expected["exit"]:
        failed = len(want)
    return len(want), failed, problems


def check_verify(text, code, expected):
    """(attempted, failed, problems) for one verify run."""
    elements = expected["elements"]
    lines = {}
    summary = []
    for line in text.splitlines():
        if line.startswith("frame "):
            label, _, _ = line.partition(":")
            lines[label] = line
        elif line.startswith(("frames:", "result:")):
            summary.append(line)
    problems = []
    failed = 0
    for i, n in enumerate(elements, start=1):
        want = f"frame {i}: elements={n} ok"
        got = lines.get(f"frame {i}")
        if got != want:
            failed += 1
            problems.append(f"expected {want!r}, got {got!r}")
    want_summary = [f"frames: {len(elements)} failures: 0", "result: PASS"]
    whole_run_ok = (summary == want_summary and len(lines) == len(elements)
                    and code == expected["exit"])
    if not whole_run_ok:
        problems.append(f"summary {summary} exit {code}, expected "
                        f"{want_summary} exit {expected['exit']}")
        failed = len(elements)
    return len(elements), failed, problems


def check(kind, text, code, expected):
    return (check_verify if kind == "verify" else check_analyze)(text, code, expected)
