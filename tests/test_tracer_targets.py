"""Every target of the benchmark tracer still exists in src/localelab.

perfbench/tracer.py wraps, by name, the functions, methods and cached
properties that its GROUPS table lists.  A target renamed or deleted in
src/ would stop the tracer or leave its per-layer metric at 0, so each
one must resolve as the tracer resolves it.  The tracer is loaded from
its file and only GROUPS is read.
"""

import functools
import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_groups():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.GROUPS


def _resolves(modname, qual):
    """True when localelab.modname has qual: a module function, or a
    method or cached property in the class's own namespace."""
    owner = importlib.import_module(f"localelab.{modname}")
    owner_name, _, attr = qual.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name, None)
    target = vars(owner).get(attr) if owner is not None else None
    return callable(target) or isinstance(target, functools.cached_property)


def test_every_tracer_target_resolves():
    groups = _tracer_groups()
    assert groups
    missing = [f"{modname}.{qual}" for modname, names in groups.values()
               for qual in names if not _resolves(modname, qual)]
    assert missing == []
