"""Outside-in tracer: wraps localelab's public functions from the outside.

Each wrapped call records a span (name, start, end, parent span) in
flat in-memory arrays; the spans are written out once, when the run
ends, and every per-layer number is derived from them afterwards.  Self
time is a span's duration minus the durations of its child spans.
Nothing under src/ is touched: module attributes, class attributes and
the suite and battery tuples are replaced in the running process only.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter

import numpy as np

# metric stem -> (module, names); "Class.attr" wraps a method or cached property
GROUPS = {
    "frames.parse": ("frames", ("load_frame", "parse_frame_text")),
    "frames.validate": ("frames", ("FiniteFrame.__init__",)),
    "frames.heyting": ("frames", ("FiniteFrame.imp",)),
    "frames.meet_close": ("frames", ("FiniteFrame.meet_close_mask",)),
    "frames.predicates": ("frames", (
        "is_spatial", "is_td_spatial", "is_strongly_td_spatial", "is_subfit",
        "covered_primes", "maximal_primes_only")),
    "sublocales.enumerate": ("sublocales", ("enumerate_assembly",)),
    "sublocales.closure": ("sublocales", ("sublocale_closure_mask",)),
    "sublocales.construct": ("sublocales", ("Sublocale.__init__",)),
    "sublocales.join": ("sublocales", ("sublocale_join",)),
    "sublocales.meet": ("sublocales", ("sublocale_meet",)),
    "sublocales.difference": ("sublocales", ("difference",)),
    "subsystems.family.smooth": ("subsystems", ("FrameAnalysis.smooth",)),
    "subsystems.family.smooth_by_joins": ("subsystems", ("FrameAnalysis.smooth_by_joins",)),
    "subsystems.family.closed_joins": ("subsystems", ("FrameAnalysis.closed_joins",)),
    "subsystems.family.d_family": ("subsystems", ("FrameAnalysis.d_family",)),
    "subsystems.family.spatial_family": ("subsystems", ("FrameAnalysis.spatial_family",)),
    "subsystems.meet_closure": ("subsystems", ("meet_closure",)),
    "subsystems.lift": ("subsystems", ("lift_surjection",)),
    "subsystems.td_adjunction": ("subsystems", ("check_td_adjunction",)),
    "spaces.spectrum": ("spaces", ("spectrum", "spectrum_td", "is_sober", "is_td")),
    "classify.classify": ("classify", ("classify_frame",)),
    "classify.predicates": ("classify", (
        "is_scattered_frame", "is_totally_spatial_by_essentials",
        "is_d_scattered_by_pointless")),
}

TIMED = ("frames.parse", "frames.validate", "frames.heyting", "frames.meet_close",
         "frames.predicates", "sublocales.enumerate", "sublocales.construct",
         "sublocales.join", "sublocales.meet", "sublocales.difference",
         "subsystems.family.smooth", "subsystems.family.smooth_by_joins",
         "subsystems.family.closed_joins", "subsystems.family.d_family",
         "subsystems.family.spatial_family", "subsystems.meet_closure",
         "subsystems.lift", "subsystems.td_adjunction", "spaces.spectrum",
         "classify.classify", "classify.predicates")
COUNTED = ("frames.validate", "frames.meet_close", "sublocales.closure",
           "sublocales.enumerate", "sublocales.construct", "sublocales.join",
           "sublocales.meet", "sublocales.difference", "subsystems.meet_closure",
           "subsystems.lift")


# theorems.THEOREM_SUITES and theorems.LAW_BATTERIES, by function name; a
# name the program no longer has reads 0
SUITES = ("td_spatial_suite", "strongly_td_spatial_suite", "covered_primes_suite",
          "total_td_spatiality_suite", "assembly_powerset_suite",
          "spatial_vs_closed_joins_suite", "maximal_primes_vs_closed_joins_suite",
          "d_family_vs_closed_joins_suite", "totally_spatial_suite",
          "d_scattered_suite")
LAWS = ("law_difference", "law_open_closed", "law_zero_dimensional",
        "law_nucleus_roundtrip", "law_covered_degeneracy", "law_spectra",
        "law_td_adjunction", "law_d_family_closure", "law_assembly_order",
        "law_interior_operators", "law_lifting", "law_essential_primes")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{g}_s", "s", "lower") for g in TIMED]
    specs += [(f"{g}_calls", "count", "lower") for g in COUNTED]
    specs.append(("sublocales.enumerate_yield", "ratio", "higher"))
    specs += [(f"theorems.suite.{n}_s", "s", "lower") for n in SUITES]
    specs += [(f"theorems.law.{n}_s", "s", "lower") for n in LAWS]
    specs += [(f"theorems.law.{n}_checked", "count", "higher") for n in LAWS]
    specs.append(("theorems.law_skipped", "count", "lower"))
    return specs


class Tracer:
    """Span recorder for one run; install() wraps the targets in place."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.span_names = []            # span name id -> "module.qualname"
        self.group_of = []              # span name id -> metric stem
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.found = 0                  # sublocales found by enumerations
        self.checked = {}               # law battery -> summed LawResult.checked
        self.skipped = 0                # law results reporting "skipped"

    def _name_id(self, span_name, group):
        self.span_names.append(span_name)
        self.group_of.append(group)
        return len(self.span_names) - 1

    def wrap(self, fn, span_name, group, on_result=None):
        sid = self._name_id(span_name, group)
        stack, name, parent = self._stack, self.name, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_result is not None:
                    on_result(None, exc)
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result, None)
            return result
        return traced

    def _on_enumerate(self, result, exc):
        if result is not None:
            self.found += len(result)
        elif hasattr(exc, "count"):
            self.found += exc.count

    def _on_law(self, law, result, exc):
        if result is not None:
            self.checked[law] = self.checked.get(law, 0) + result.checked
            self.skipped += "skipped" in result.detail

    def install(self, package):
        """Wrap every target of GROUPS and every suite and battery."""
        for group, (modname, names) in GROUPS.items():
            module = importlib.import_module(f"{package}.{modname}")
            hook = self._on_enumerate if group == "sublocales.enumerate" else None
            for qual in names:
                self._install_one(module, modname, qual, group, hook)
        theorems = importlib.import_module(f"{package}.theorems")
        suites = []
        for fn in theorems.THEOREM_SUITES:
            suites.append(self.wrap(fn, f"theorems.{fn.__name__}",
                                    f"theorems.suite.{fn.__name__}"))
            setattr(theorems, fn.__name__, suites[-1])
        laws = []
        for fn in theorems.LAW_BATTERIES:
            hook = functools.partial(self._on_law, fn.__name__)
            laws.append(self.wrap(fn, f"theorems.{fn.__name__}",
                                  f"theorems.law.{fn.__name__}", hook))
            setattr(theorems, fn.__name__, laws[-1])
        theorems.THEOREM_SUITES = tuple(suites)
        theorems.LAW_BATTERIES = tuple(laws)

    def _install_one(self, module, modname, qual, group, hook):
        span_name = f"{modname}.{qual}"
        owner_name, _, attr = qual.rpartition(".")
        if not owner_name:
            setattr(module, attr, self.wrap(getattr(module, attr), span_name, group, hook))
            return
        owner = getattr(module, owner_name)
        current = owner.__dict__[attr]
        if isinstance(current, functools.cached_property):
            prop = functools.cached_property(self.wrap(current.func, span_name, group))
            prop.__set_name__(owner, attr)
            setattr(owner, attr, prop)
        else:
            setattr(owner, attr, self.wrap(current, span_name, group, hook))

    # ------------------------------------------------------------------
    # after the run

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def write(self, path):
        """Write every span, with the name table and the run id."""
        name, parent, start, end = self.arrays()
        header = json.dumps({"run_id": self.run_id, "span_names": self.span_names,
                             "groups": self.group_of})
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(header), name=name, parent=parent,
                     start=start, end=end)

    def metrics(self):
        """Every per-layer metric: self times, call counts, ratios, counts."""
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_names = len(self.span_names)
        by_name_s = np.bincount(name, weights=self_time, minlength=n_names)
        by_name_calls = np.bincount(name, minlength=n_names)
        group_s, group_calls = {}, {}
        for sid, group in enumerate(self.group_of):
            group_s[group] = group_s.get(group, 0.0) + float(by_name_s[sid])
            group_calls[group] = group_calls.get(group, 0) + int(by_name_calls[sid])

        # the closure kernel is part of enumeration; its meet closure is not
        group_s["sublocales.enumerate"] += group_s.pop("sublocales.closure")
        out = {}
        for g in TIMED:
            out[f"{g}_s"] = group_s[g]
        for g in COUNTED:
            out[f"{g}_calls"] = group_calls[g]
        enum_ids = [i for i, g in enumerate(self.group_of) if g == "sublocales.enumerate"]
        closure_ids = [i for i, g in enumerate(self.group_of) if g == "sublocales.closure"]
        in_enum = np.isin(name, closure_ids) & has_parent
        in_enum[in_enum] = np.isin(name[parent[in_enum]], enum_ids)
        attempts = int(in_enum.sum())
        out["sublocales.enumerate_yield"] = self.found / attempts if attempts else 0.0
        for n in SUITES:
            out[f"theorems.suite.{n}_s"] = group_s.get(f"theorems.suite.{n}", 0.0)
        for n in LAWS:
            out[f"theorems.law.{n}_s"] = group_s.get(f"theorems.law.{n}", 0.0)
            out[f"theorems.law.{n}_checked"] = self.checked.get(n, 0)
        out["theorems.law_skipped"] = self.skipped
        out["spans"] = len(dur)
        return out
