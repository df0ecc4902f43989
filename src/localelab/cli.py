"""Command-line workbench: classify frames, verify theorem suites, replay
the chain counterexample, generate random frames, export DOT.

Exit codes: 0 all checks passed, 1 verification failure or DISAGREE,
2 parse or configuration error, or an input too large for the memory
available, 3 assembly cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import classify
from . import dot
from . import frames
from . import omegachain as oc
from . import sublocales as subl
from . import theorems

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3

CAP_ENV = "LOCALE_LAB_CAP"
MAX_BOUND = 7
MAX_TRUNCATION = 512


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="localelab",
        description="workbench for finite frames, sublocales and spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs=False):
        p.add_argument("--cap", type=int, default=None,
                       help=f"assembly size cap (default {CAP_ENV} or "
                            f"{subl.DEFAULT_CAP})")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        if inputs:
            p.add_argument("inputs", nargs="+", help="frame files")

    p = sub.add_parser("analyze", help="classify frames against the property table")
    common(p, inputs=True)
    p.add_argument("--format", dest="fmt", choices=("text", "keyvalue"),
                   default="text")

    p = sub.add_parser("verify", help="run theorem suites on generated frames")
    common(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bound", type=int, default=4, help="poset size bound (<= 7)")
    p.add_argument("--count", type=int, default=200, help="number of frames")

    p = sub.add_parser("remark", help="replay the chain intersection counterexample")
    p.add_argument("--s-desc", default=None, help="description of S")
    p.add_argument("--t-desc", default=None, help="description of T")
    p.add_argument("--truncate", type=int, action="append", default=None,
                   help="cross-check depth (<= 512; repeatable; default 16 32 64)")

    p = sub.add_parser("random", help="generate random frame files")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("dot", help="export Hasse diagrams of frames and assemblies")
    common(p, inputs=True)
    return parser


def _check_args(args):
    """Set args.cap on every command, from LOCALE_LAB_CAP (else DEFAULT_CAP)
    where --cap is not given or not taken, and refuse out-of-range values
    (ValueError)."""
    if getattr(args, "cap", None) is None:
        raw = os.environ.get(CAP_ENV, str(subl.DEFAULT_CAP))
        try:
            args.cap = int(raw)
        except ValueError:
            raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}") from None
    if args.cap < 1:
        raise ValueError("--cap must be at least 1")
    if hasattr(args, "bound") and not 1 <= args.bound <= MAX_BOUND:
        raise ValueError(f"--bound must be between 1 and {MAX_BOUND}")
    if hasattr(args, "count") and args.count < 0:
        raise ValueError("--count must not be negative")
    if max(getattr(args, "truncate", None) or [0]) > MAX_TRUNCATION:
        raise ValueError(f"--truncate must be at most {MAX_TRUNCATION}")


def _emit(out, text):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _witness_path(args, stem):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, stem)


def cmd_analyze(args, out):
    code = EXIT_OK
    for path in args.inputs:
        frame = frames.load_frame(path)
        name = os.path.basename(path)
        result = classify.classify_frame(frame, cap=args.cap, name=name)
        if args.fmt == "keyvalue":
            _emit(out, classify.classification_keyvalue(result))
        else:
            _emit(out, classify.classification_text(result))
        if result.cap_exceeded is not None:
            code = max(code, EXIT_CAP)
        elif not result.all_agree:
            witness = _witness_path(args, f"witness_{name}")
            frames.save_frame(frame, witness)
            _emit(out, f"witness: {witness}")
            code = max(code, EXIT_FAIL)
    return code


def cmd_verify(args, out):
    header = (f"verify: seed={args.seed} bound={args.bound} "
              f"count={args.count} cap={args.cap}")
    _emit(out, header)
    if args.count == 0:
        _emit(out, "warning: empty run, vacuous pass")
        _emit(out, "frames: 0 failures: 0")
        _emit(out, "result: PASS")
        return EXIT_OK
    rng = random.Random(args.seed)
    failures = 0
    capped = 0
    for i in range(1, args.count + 1):
        frame = frames.random_frame(rng, args.bound)
        try:
            verdict = theorems.verify_frame_theorems(frame, cap=args.cap,
                                                     name=f"frame {i}")
        except subl.CapExceeded as exc:
            _emit(out, f"frame {i}: elements={frame.n} cap exceeded at {exc.count}")
            capped += 1
            continue
        if verdict.passed:
            _emit(out, f"frame {i}: elements={frame.n} ok")
        else:
            failures += 1
            _emit(out, f"frame {i}: elements={frame.n} FAIL")
            for line in verdict.failures():
                _emit(out, f"  {line}")
            witness = _witness_path(args, f"witness_{i:04d}.frame")
            frames.save_frame(frame, witness)
            _emit(out, f"  witness: {witness}")
    # a frame over the cap was never verified, so such a run cannot pass
    summary = f"frames: {args.count} failures: {failures}"
    _emit(out, summary + (f" cap exceeded: {capped}" if capped else ""))
    if failures:
        _emit(out, "result: FAIL")
        return EXIT_FAIL
    if capped:
        _emit(out, "result: INCOMPLETE")
        return EXIT_CAP
    _emit(out, "result: PASS")
    return EXIT_OK


def _format_point_set(ps):
    parts = []
    if ps.finite_part:
        parts.append("levels " +
                     " ".join(f"a{n}" for n in sorted(ps.finite_part)))
    if ps.tail is not None:
        bitstring = "".join("1" if b else "0" for b in ps.tail.pattern)
        parts.append(f"level tail offset={ps.tail.offset} pattern={bitstring}")
    if ps.bottom:
        parts.append("bottom")
    return "{" + "; ".join(parts) + "}" if parts else "{}"


def cmd_remark(args, out):
    s = oc.parse_description(args.s_desc) if args.s_desc else oc.even_levels_sublocale()
    t = oc.parse_description(args.t_desc) if args.t_desc else oc.odd_levels_sublocale()
    _emit(out, "chain: 1 = a0 > a1 > a2 > ... > bottom")
    _emit(out, "covered primes of the chain: every level a_n with n >= 1; "
               "bottom is not covered (it is the unattained meet of all levels)")
    ok = True
    for label, c in (("S", s), ("T", t)):
        if not oc.chain_is_sublocale(c):
            _emit(out, f"{label} = {oc.format_description(c)}: not a sublocale")
            return EXIT_PARSE
        d = oc.chain_is_d_sublocale(c)
        _emit(out, f"{label} = {oc.format_description(c)}")
        _emit(out, f"  covered primes of {label}: "
                   f"{_format_point_set(oc.chain_ptd(c))}")
        _emit(out, f"  is_D({label}) = {'true' if d else 'false'}")
    inter = oc.chain_intersect(s, t)
    ptd = oc.chain_ptd(inter)
    bottom_ambient = oc.chain_ptd_whole().bottom
    verdict = oc.chain_is_d_sublocale(inter)
    _emit(out, f"S intersect T = {oc.format_description(inter)}")
    _emit(out, f"covered primes of S intersect T: {_format_point_set(ptd)}")
    _emit(out, f"bottom in covered primes of the chain: "
               f"{'true' if bottom_ambient else 'false'}")
    _emit(out, f"verdict: S intersect T is "
               f"{'a D-sublocale' if verdict else 'not a D-sublocale'}")
    for depth in args.truncate or (16, 32, 64):
        need = oc.min_truncation_depth(s, t, inter)
        if depth < need:
            _emit(out, f"truncation N={depth}: skipped (needs depth >= {need})")
            continue
        agree = (oc.truncation_matches_set_op(s, t, "intersect", depth)
                 and oc.truncation_matches_ptd(s, depth)
                 and oc.truncation_matches_ptd(t, depth)
                 and oc.truncation_matches_ptd(inter, depth))
        _emit(out, f"truncation N={depth}: "
                   f"{'agree' if agree else 'DISAGREE'}")
        ok = ok and agree
    return EXIT_OK if ok else EXIT_FAIL


def cmd_random(args, out):
    os.makedirs(args.out_dir, exist_ok=True)
    rng = random.Random(args.seed)
    for i in range(1, args.count + 1):
        frame = frames.random_frame(rng, args.bound)
        path = os.path.join(args.out_dir, f"frame_{i:04d}.frame")
        frames.save_frame(frame, path)
        _emit(out, f"wrote {path} (elements={frame.n})")
    return EXIT_OK


def cmd_dot(args, out):
    code = EXIT_OK
    os.makedirs(args.out_dir, exist_ok=True)
    for path in args.inputs:
        frame = frames.load_frame(path)
        stem = os.path.splitext(os.path.basename(path))[0]
        frame_path = os.path.join(args.out_dir, f"{stem}.frame.dot")
        with open(frame_path, "w", encoding="ascii") as fh:
            fh.write(dot.frame_dot(frame))
        _emit(out, f"wrote {frame_path}")
        try:
            assembly = subl.enumerate_assembly(frame, args.cap)
        except subl.CapExceeded as exc:
            _emit(out, f"assembly of {stem}: cap exceeded at {exc.count}")
            code = max(code, EXIT_CAP)
            continue
        assembly_path = os.path.join(args.out_dir, f"{stem}.assembly.dot")
        with open(assembly_path, "w", encoding="ascii") as fh:
            fh.write(dot.assembly_dot(assembly))
        _emit(out, f"wrote {assembly_path}")
    return code


COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "remark": cmd_remark,
    "random": cmd_random,
    "dot": cmd_dot,
}


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        _check_args(args)
    except ValueError as exc:
        _emit(out, f"error: {exc}")
        return EXIT_PARSE
    try:
        return COMMANDS[args.command](args, out)
    except MemoryError:
        # a frame file may describe more elements than its tables fit in
        _emit(out, "error: out of memory: the input is too large")
        return EXIT_PARSE
    except (frames.FrameFormatError, oc.MalformedDescription) as exc:
        _emit(out, f"error: {exc}")
        return EXIT_PARSE
    except frames.FrameError as exc:
        _emit(out, f"rejected: {exc}")
        return EXIT_PARSE
    except OSError as exc:
        _emit(out, f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
