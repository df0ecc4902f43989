import gc
import hashlib
import io
import os
import resource
import subprocess
import sys
import time
import weakref

import pytest

from localelab import classify, cli, frames
from localelab import omegachain as oc

import mutants

CHAIN3_TEXT = "elements: 3\ncover: 0 1\ncover: 1 2\nlabel: 1 a\n"


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def chain3_file(tmp_path):
    path = tmp_path / "chain3.frame"
    path.write_text(CHAIN3_TEXT)
    return str(path)


class TestAnalyze:
    def test_text_report(self, chain3_file):
        code, text = run(["analyze", chain3_file])
        assert code == cli.EXIT_OK
        assert "subfit: false" in text
        assert "closed_joins: 3" in text
        assert "smooth: 4" in text
        assert "DISAGREE" not in text
        assert text.count("AGREE") == 15    # 14 rows plus the verdict

    def test_keyvalue_report(self, chain3_file):
        code, text = run(["analyze", chain3_file, "--format", "keyvalue"])
        assert code == cli.EXIT_OK
        assert "agree_all=true" in text
        assert "row.all_eq_closedjoins.relation=false" in text
        assert "row.all_eq_closedjoins.property=false" in text

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.frame"
        bad.write_text("elements: 2\nfoo: 1\n")
        code, text = run(["analyze", str(bad)])
        assert code == cli.EXIT_PARSE
        assert "line 2" in text

    def test_rejection_report(self, tmp_path):
        bad = tmp_path / "m3.frame"
        bad.write_text("elements: 5\ncover: 0 1\ncover: 0 2\ncover: 0 3\n"
                       "cover: 1 4\ncover: 2 4\ncover: 3 4\n")
        code, text = run(["analyze", str(bad)])
        assert code == cli.EXIT_PARSE
        assert "not distributive" in text

    def test_cap_exceeded_degrades(self, chain3_file):
        code, text = run(["analyze", chain3_file, "--cap", "2"])
        assert code == cli.EXIT_CAP
        assert "cap exceeded" in text
        assert "subfit: false" in text      # frame-level facts still emitted

    def test_disagreement_writes_reloadable_witness(self, chain3_file, tmp_path,
                                                    monkeypatch):
        # every finite frame is totally spatial, so a predicate that says
        # otherwise splits the rows that read it
        monkeypatch.setattr(classify, "is_totally_spatial_by_essentials",
                            lambda frame: False)
        out_dir = tmp_path / "out"
        code, text = run(["analyze", "--out-dir", str(out_dir), chain3_file])
        assert code == cli.EXIT_FAIL
        assert "verdict: DISAGREE\n" in text
        witness = out_dir / "witness_chain3.frame"
        assert text.endswith(f"witness: {witness}\n")
        assert (frames.load_frame(witness).leq == frames.load_frame(chain3_file).leq).all()

    def test_determinism(self, chain3_file):
        a = run(["analyze", chain3_file, "--format", "keyvalue"])
        b = run(["analyze", chain3_file, "--format", "keyvalue"])
        assert a == b


class TestVerify:
    def test_small_run_passes(self, tmp_path):
        code, text = run(["verify", "--count", "10", "--bound", "3",
                          "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert "result: PASS" in text
        assert "failures: 0" in text

    def test_no_frame_outlives_the_run(self, tmp_path):
        gc.collect()
        before = weakref.WeakSet(o for o in gc.get_objects()
                                 if isinstance(o, frames.FiniteFrame))
        code, _ = run(["verify", "--seed", "1", "--bound", "4", "--count", "60",
                       "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        gc.collect()
        assert not [o for o in gc.get_objects()
                    if isinstance(o, frames.FiniteFrame) and o not in before]

    def test_empty_run_warns(self):
        code, text = run(["verify", "--count", "0"])
        assert code == cli.EXIT_OK
        assert "vacuous" in text

    def test_deterministic_output(self, tmp_path):
        args = ["verify", "--count", "6", "--bound", "3", "--seed", "5",
                "--out-dir", str(tmp_path)]
        assert run(args) == run(args)

    def test_bound_guard(self):
        code, text = run(["verify", "--bound", "9", "--count", "1"])
        assert code == cli.EXIT_PARSE
        assert "--bound" in text

    def test_cap_guard(self):
        code, text = run(["verify", "--cap", "0", "--count", "1"])
        assert code == cli.EXIT_PARSE

    def test_cap_hit_is_reported_and_exits_3(self, tmp_path):
        code, text = run(["verify", "--seed", "1", "--bound", "4", "--count", "6",
                          "--cap", "4", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CAP
        assert "frame 3: elements=5 cap exceeded at 5\n" in text
        assert "frame 5: elements=6 cap exceeded at 5\n" in text
        assert "FAIL" not in text
        # two of the six frames were never verified: no PASS
        assert text.endswith("frames: 6 failures: 0 cap exceeded: 2\n"
                             "result: INCOMPLETE\n")
        assert not list(tmp_path.iterdir())

    def test_fresh_verify_never_imports_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call, some 20 ms in a
        # fresh process; no verify path may pay for it.  Bound 4 runs the
        # triple scans, the frame of seed 1005201 at bound 6 the 64-member
        # assembly.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import io, sys\n"
                "from localelab import cli\n"
                "for argv in sys.argv[1:]:\n"
                "    assert cli.main(argv.split(), out=io.StringIO()) == cli.EXIT_OK\n"
                "print('numpy.ma' in sys.modules)\n")
        out = f"--out-dir {tmp_path}"
        child = subprocess.run(
            [sys.executable, "-c", code, f"verify --seed 1 --bound 4 --count 8 {out}",
             f"verify --seed 1005201 --bound 6 --count 1 {out}"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert (child.returncode, child.stdout, child.stderr) == (0, "False\n", "")

    def test_failure_writes_reloadable_witness(self, tmp_path, monkeypatch):
        mutants.underreport_covered_primes(monkeypatch)
        code, text = run(["verify", "--count", "8", "--bound", "3",
                          "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_FAIL
        assert "result: FAIL" in text
        witnesses = [p for p in os.listdir(tmp_path)
                     if p.startswith("witness_")]
        assert witnesses
        reloaded = frames.load_frame(os.path.join(tmp_path, witnesses[0]))
        assert reloaded.n >= 1


class TestRemark:
    def test_default_transcript(self):
        code, text = run(["remark"])
        assert code == cli.EXIT_OK
        assert "is_D(S) = true" in text
        assert "is_D(T) = true" in text
        assert "S intersect T = bottom: yes" in text
        assert "covered primes of S intersect T: {bottom}" in text
        assert "bottom in covered primes of the chain: false" in text
        assert "verdict: S intersect T is not a D-sublocale" in text
        for n in (16, 32, 64):
            assert f"truncation N={n}: agree" in text

    def test_whole_chain_variant(self):
        desc = "tail: offset=1 pattern=1 ; bottom: yes"
        code, text = run(["remark", "--s-desc", desc, "--t-desc", desc])
        assert code == cli.EXIT_OK
        assert "verdict: S intersect T is a D-sublocale" in text

    def test_finite_parts_are_listed_by_level(self):
        code, text = run(["remark", "--s-desc", "finite: 2 5 ; bottom: yes",
                          "--t-desc", "finite: 5 ; tail: offset=7 pattern=1 ; bottom: yes"])
        assert code == cli.EXIT_OK
        assert "  covered primes of S: {levels a2 a5; bottom}\n" in text
        assert "  covered primes of T: {levels a5; level tail offset=7 pattern=1}\n" in text
        assert "covered primes of S intersect T: {levels a5; bottom}\n" in text

    def test_malformed_description(self):
        code, text = run(["remark", "--s-desc", "tail: offset=x pattern=1"])
        assert code == cli.EXIT_PARSE

    def test_non_sublocale_rejected(self):
        code, text = run(["remark", "--s-desc",
                          "tail: offset=1 pattern=1 ; bottom: no"])
        assert code == cli.EXIT_PARSE
        assert "not a sublocale" in text

    def test_custom_truncation(self):
        # a depth above the default description's finite part is checked;
        # one below it (7) is reported as skipped
        for depths, tail in (
                (("16",), "truncation N=16: agree\n"),
                (("2", "16"), "truncation N=2: skipped (needs depth >= 7)\n"
                              "truncation N=16: agree\n")):
            code, text = run(["remark"] + [a for d in depths for a in ("--truncate", d)])
            assert code == cli.EXIT_OK
            assert text.endswith(tail)
            assert "N=32" not in text


    @pytest.mark.parametrize("depth", ["513", "100000"])
    def test_large_truncation_refused_before_any_frame(self, depth, monkeypatch):
        def build(depth):
            raise AssertionError("a truncated frame was built")
        monkeypatch.setattr(oc, "truncated_chain_frame", build)
        assert run(["remark", "--truncate", "16", "--truncate", depth]) == (
            cli.EXIT_PARSE, f"error: --truncate must be at most {cli.MAX_TRUNCATION}\n")


class TestRandom:
    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["random", "--seed", "42", "--count", "4", "--out-dir", str(d1)])
        run(["random", "--seed", "42", "--count", "4", "--out-dir", str(d2)])
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_bound_one_gives_two_chains(self, tmp_path):
        code, text = run(["random", "--seed", "7", "--count", "5",
                          "--bound", "1", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        for name in os.listdir(tmp_path):
            f = frames.load_frame(str(tmp_path / name))
            assert f.n == 2

    def test_files_reload(self, tmp_path):
        run(["random", "--seed", "3", "--count", "6", "--bound", "5",
             "--out-dir", str(tmp_path)])
        for name in sorted(os.listdir(tmp_path)):
            frames.load_frame(str(tmp_path / name))


GOLDEN_FRAME_DOT = """digraph frame {
  rankdir=BT;
  n0 [label="0"];
  n1 [label="a"];
  n2 [label="2"];
  n0 -> n1;
  n1 -> n2;
}
"""

GOLDEN_ASSEMBLY_DOT = """digraph assembly {
  rankdir=BT;
  n0 [label="{0,a,2}", shape=box];
  n1 [label="{0,2}", shape=ellipse, style=filled];
  n2 [label="{a,2}", shape=box, style=filled];
  n3 [label="{2}", shape=box];
  n1 -> n0;
  n2 -> n0;
  n3 -> n1;
  n3 -> n2;
}
"""


class TestDot:
    def test_golden_three_chain(self, chain3_file, tmp_path):
        code, text = run(["dot", chain3_file, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        frame_dot = (tmp_path / "chain3.frame.dot").read_text()
        assembly_dot = (tmp_path / "chain3.assembly.dot").read_text()
        assert frame_dot == GOLDEN_FRAME_DOT
        assert assembly_dot == GOLDEN_ASSEMBLY_DOT
        # DOT reads \" as a quote and keeps \\, so a label's backslashes
        # are doubled before its quotes are escaped
        path = tmp_path / "slash" / "chain3.frame"
        path.parent.mkdir()
        path.write_text(CHAIN3_TEXT.replace("label: 1 a", 'label: 1 a\\"\\'))
        code, _ = run(["dot", str(path), "--out-dir", str(path.parent)])
        assert code == cli.EXIT_OK
        quoted = 'a\\\\\\"\\\\'
        assert (path.parent / "chain3.frame.dot").read_text() == \
            GOLDEN_FRAME_DOT.replace('"a"', f'"{quoted}"')
        assert (path.parent / "chain3.assembly.dot").read_text() == \
            GOLDEN_ASSEMBLY_DOT.replace(",a,", f",{quoted},").replace("{a,", f"{{{quoted},")

    def test_assembly_is_four_node_diamond(self, chain3_file, tmp_path):
        run(["dot", chain3_file, "--out-dir", str(tmp_path)])
        text = (tmp_path / "chain3.assembly.dot").read_text()
        assert text.count("[label=") == 4
        assert text.count("->") == 4

    def test_cap_exceeded(self, chain3_file, tmp_path):
        code, text = run(["dot", chain3_file, "--out-dir", str(tmp_path),
                          "--cap", "1"])
        assert code == cli.EXIT_CAP


class TestHostileInput:
    def test_huge_declared_size_refused_quickly(self, tmp_path):
        path = tmp_path / "huge.frame"
        path.write_text("elements: 1000000000\n")
        assert path.stat().st_size == 21
        start = time.perf_counter()
        code, text = run(["analyze", str(path)])
        assert time.perf_counter() - start < 0.5
        assert code == cli.EXIT_PARSE
        assert text == ("error: 1000000000 elements need at least 999999999 "
                        "distinct 'cover' lines, got 0\n")

    def test_large_non_distributive_file_refused_quickly(self, tmp_path):
        # an 800-element chain with an M3 on top: its atoms are
        # join-irreducible and not join-prime, and the witness scan
        # tries only the 4 elements above them,
        # about 0.2 s in all against 5 s for a scan of every element
        path = tmp_path / "chain_m3.frame"
        path.write_text("elements: 801\n"
                        + "".join(f"cover: {i} {i + 1}\n" for i in range(796))
                        + "".join(f"cover: 796 {a}\ncover: {a} 800\n"
                                  for a in (797, 798, 799)))
        start = time.perf_counter()
        code, text = run(["analyze", str(path)])
        assert time.perf_counter() - start < 1.5
        assert code == cli.EXIT_PARSE
        assert text == ("rejected: not distributive: 797 meet (798 join 799) != "
                        "(797 meet 798) join (797 meet 799)\n")

    @pytest.mark.parametrize("command", ["analyze", "dot"])
    def test_non_ascii_file_is_refused_at_its_line(self, command, tmp_path):
        path = tmp_path / "cafe.frame"
        path.write_bytes("elements: 1\nlabel: 0 café\n".encode("utf-8"))
        code, text = run([command, "--out-dir", str(tmp_path), str(path)])
        assert (code, text) == (cli.EXIT_PARSE, "error: line 2: non-ASCII character\n")

    def test_out_of_memory_is_a_documented_refusal(self, tmp_path):
        # a 20,000-element chain passes the parse-time cover count, and its
        # order matrix alone (400 MB) exceeds the child's address space
        n, limit = 20000, 512 << 20
        path = tmp_path / "chain.frame"
        path.write_text(f"elements: {n}\n"
                        + "".join(f"cover: {i} {i + 1}\n" for i in range(n - 1)))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        child = subprocess.run(
            [sys.executable, "-m", "localelab.cli", "analyze", str(path)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env=env, capture_output=True, text=True, timeout=60)
        assert (child.returncode, child.stdout, child.stderr) == \
            (cli.EXIT_PARSE, "error: out of memory: the input is too large\n", "")


class TestArguments:
    @pytest.mark.parametrize("argv, message", [
        (["verify", "--cap", "0"], "--cap must be at least 1"),
        (["verify", "--bound", "0"], "--bound must be between 1 and 7"),
        (["verify", "--count", "-1"], "--count must not be negative"),
        (["random", "--bound", "8"], "--bound must be between 1 and 7"),
        (["random", "--count", "-1"], "--count must not be negative"),
        (["analyze", "--cap", "-3", "x.frame"], "--cap must be at least 1"),
        (["dot", "--cap", "0", "x.frame"], "--cap must be at least 1"),
    ])
    def test_out_of_range_values_are_refused(self, argv, message):
        assert run(argv) == (cli.EXIT_PARSE, f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["verify", "--count", "0"], ["dot", "x.frame"]])
    def test_format_is_an_analyze_option_only(self, argv):
        # refused by argparse, on stderr, before the command runs
        assert run(argv + ["--format", "text"]) == (cli.EXIT_PARSE, "")

    def test_cap_env_is_checked_by_commands_without_cap(self, monkeypatch):
        monkeypatch.setenv(cli.CAP_ENV, "0")
        assert run(["remark"]) == (cli.EXIT_PARSE, "error: --cap must be at least 1\n")


class TestEnvironment:
    @pytest.mark.parametrize("argv", [["analyze", "x.frame"], ["verify"], ["remark"],
                                      ["random"], ["dot", "x.frame"]])
    def test_bad_env_value_refused_by_every_command(self, argv, monkeypatch):
        monkeypatch.setenv(cli.CAP_ENV, "many")
        assert run(argv) == (cli.EXIT_PARSE, "error: LOCALE_LAB_CAP must be an "
                                             "integer, got 'many'\n")

    def test_cap_env_default(self, chain3_file, monkeypatch):
        monkeypatch.setenv(cli.CAP_ENV, "2")
        code, text = run(["analyze", chain3_file])
        assert code == cli.EXIT_CAP

    def test_cap_flag_overrides_env(self, chain3_file, monkeypatch):
        monkeypatch.setenv(cli.CAP_ENV, "2")
        code, text = run(["analyze", chain3_file, "--cap", "64"])
        assert code == cli.EXIT_OK

    def test_bad_env_value(self, chain3_file, monkeypatch):
        monkeypatch.setenv(cli.CAP_ENV, "many")
        code, text = run(["analyze", chain3_file])
        assert code == cli.EXIT_PARSE


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# digests of outputs recorded before the inclusion-order builder replaced
# the hand-written order loops; output must stay byte-identical
GOLDEN_VERIFY = {
    ("--seed", "1", "--bound", "4", "--count", "40"):
        "77361c7407136dd54997ac5c3c1e04ad676ed9e03e3c017ad1fe714cdcb3cee8",
    ("--seed", "1005201", "--bound", "6", "--count", "1"):
        "4f8ba3fe6ab64076728c4499ae72cee3626c0937ee85aa4c4bf8c9dec8da2894",
}
GOLDEN_ANALYZE_KEYVALUE = \
    "9b928babe0c02f6126d0963b61af7f37f61d79076a008c6ee7108482b10ee657"
# recorded while the cap was still found by walking the frontier to cap + 1
GOLDEN_ANALYZE_REFUSED = \
    "3cd13b5e86a14c17ef1504cae2469914f4e11f7d288200992fb164e9cfa5e69d"
# frame files rejected by analyze: (file text, report), exit code 2 and
# nothing on stderr
GOLDEN_REJECTED = {
    "m3": ("elements: 5\ncover: 0 1\ncover: 0 2\ncover: 0 3\n"
           "cover: 1 4\ncover: 2 4\ncover: 3 4\n",
           "rejected: not distributive: 1 meet (2 join 3) != "
           "(1 meet 2) join (1 meet 3)\n"),
    "n5": ("elements: 5\ncover: 0 1\ncover: 1 2\ncover: 2 4\n"
           "cover: 0 3\ncover: 3 4\n",
           "rejected: not distributive: 2 meet (1 join 3) != "
           "(2 meet 1) join (2 meet 3)\n"),
    "two_tops": ("elements: 5\ncover: 0 1\ncover: 0 2\ncover: 1 3\n"
                 "cover: 2 3\ncover: 1 4\ncover: 2 4\n",
                 "rejected: not a lattice: pair (3, 4) has no meet\n"),
}
GOLDEN_DOT = {
    "frame_0001.assembly.dot":
        "6d691bc4738e9b7bd5e3a71efe62fb715568b2ea83f57acb9f3bb97d8d39f298",
    "frame_0001.frame.dot":
        "4592a5c94b367a1bff09e8b13335eb47805cff2345183c432d097eb6f52a0e5b",
    "frame_0002.assembly.dot":
        "01915650a6d97592e5c93cb09850aad725498cc61b0ed85755cc21e1ef43b21f",
    "frame_0002.frame.dot":
        "46bec99d29eaa9cc993022657ad15bf9eec3401458b265af3e0965cff5c365ad",
    "frame_0003.assembly.dot":
        "01915650a6d97592e5c93cb09850aad725498cc61b0ed85755cc21e1ef43b21f",
    "frame_0003.frame.dot":
        "46bec99d29eaa9cc993022657ad15bf9eec3401458b265af3e0965cff5c365ad",
    "frame_0004.assembly.dot":
        "076c0554108628f2a1f9519fd86d1332346e433d7f41a6a2bafd5475557de457",
    "frame_0004.frame.dot":
        "3a48f4f1aee81ef9542bd8ca5c34fb4ee1ada66a48a283d48d3b6cc25bee51e2",
    "frame_0005.assembly.dot":
        "01915650a6d97592e5c93cb09850aad725498cc61b0ed85755cc21e1ef43b21f",
    "frame_0005.frame.dot":
        "46bec99d29eaa9cc993022657ad15bf9eec3401458b265af3e0965cff5c365ad",
    "frame_0006.assembly.dot":
        "9176dcbb7c3bfc30cc2f69b191bb4acedc56b94c8f483556c66b626538fc2aea",
    "frame_0006.frame.dot":
        "3cd2efb569e86bda76ebd66e8c106b28feadc85ebb01e6510dada81503ecde56",
}


class TestGolden:
    @pytest.mark.parametrize("args", sorted(GOLDEN_VERIFY))
    def test_verify_transcript(self, args, tmp_path):
        code, text = run(["verify", *args, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert sha256(text) == GOLDEN_VERIFY[args]

    @pytest.fixture
    def random_frames(self, tmp_path):
        out_dir = tmp_path / "frames"
        run(["random", "--seed", "7", "--bound", "5", "--count", "6",
             "--out-dir", str(out_dir)])
        return sorted(str(p) for p in out_dir.iterdir())

    def test_analyze_keyvalue(self, random_frames):
        code, text = run(["analyze", "--format", "keyvalue", *random_frames])
        assert code == cli.EXIT_OK
        assert sha256(text) == GOLDEN_ANALYZE_KEYVALUE

    def test_analyze_refused_keyvalue(self, tmp_path):
        paths = []
        for name, a, b in (("chain22", 22, 1), ("grid10x10", 10, 10),
                           ("grid14x14", 14, 14)):
            covers = [(i * b + j, (i + 1) * b + j)
                      for i in range(a - 1) for j in range(b)]
            covers += [(i * b + j, i * b + j + 1)
                       for i in range(a) for j in range(b - 1)]
            path = str(tmp_path / f"{name}.frame")
            frames.save_frame(frames.frame_from_covers(a * b, covers), path)
            paths.append(path)
        code, text = run(["analyze", "--format", "keyvalue", "--cap", "4096", *paths])
        assert code == cli.EXIT_CAP
        assert text.count("cap_reached=4097") == 3
        assert sha256(text) == GOLDEN_ANALYZE_REFUSED

    @pytest.mark.parametrize("name", sorted(GOLDEN_REJECTED))
    def test_analyze_rejection(self, name, tmp_path, capsys):
        text, expected = GOLDEN_REJECTED[name]
        path = tmp_path / f"{name}.frame"
        path.write_text(text)
        code, out = run(["analyze", str(path)])
        assert (code, out, capsys.readouterr().err) == (2, expected, "")

    def test_dot_files(self, random_frames, tmp_path):
        out_dir = tmp_path / "dot"
        code, _ = run(["dot", "--out-dir", str(out_dir), *random_frames])
        assert code == cli.EXIT_OK
        got = {p.name: sha256(p.read_text()) for p in out_dir.iterdir()}
        assert got == GOLDEN_DOT
