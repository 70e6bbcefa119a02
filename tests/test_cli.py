import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphgroups import cli

C4_TEXT = "vertices a b c d\nedge a b\nedge b c\nedge c d\nedge d a\n"
L3_TEXT = "vertices w x y z\nedge w x\nedge x y\nedge y z\n"
E30_TEXT = "vertices e f g\n"
E11_TEXT = "vertices x y z\nedge y z\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("c4", C4_TEXT),
        ("l3", L3_TEXT),
        ("e30", E30_TEXT),
        ("e11", E11_TEXT),
    ):
        p = tmp_path / f"{name}.graph"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGraphCommands:
    def test_info(self, files, capsys):
        code, out, _ = run(capsys, ["graph", "info", files["c4"]])
        assert code == 0
        assert "vertices 4: a b c d" in out
        assert "co-components: {a,c} {b,d}" in out

    def test_complement_round_trips(self, files, capsys, tmp_path):
        code, out, _ = run(capsys, ["graph", "complement", files["c4"]])
        assert code == 0
        assert "edge a c" in out and "edge b d" in out

    def test_product(self, files, capsys, tmp_path):
        other = tmp_path / "pair.graph"
        other.write_text("vertices p q\n")
        code, out, _ = run(capsys, ["graph", "product", str(other), str(other)])
        assert code == 0
        assert "# renamed p -> p_2" in out
        assert "edge p p_2" in out

    def test_embed_found(self, files, capsys):
        code, out, _ = run(
            capsys, ["graph", "embed", "--pattern", files["c4"], "--host", files["c4"]]
        )
        assert code == 0
        assert "a ->" in out

    def test_embed_none(self, files, capsys):
        code, out, _ = run(
            capsys, ["graph", "embed", "--pattern", files["c4"], "--host", files["l3"]]
        )
        assert code == 1
        assert out.strip() == "none"

    def test_embed_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # The kernel keeps one level per vertex on its own stack, so a
        # pattern past the recursion limit gets its witness: the identity.
        names = [f"v{i}" for i in range(sys.getrecursionlimit() + 1)]
        big = tmp_path / "big.graph"
        big.write_text("vertices " + " ".join(names) + "\n")
        code, out, err = run(capsys, ["graph", "embed", "--pattern", str(big), "--host", str(big)])
        assert (code, err) == (0, "")
        assert sorted(out.splitlines()) == sorted(f"{v} -> {v}" for v in names)


class TestWordCommands:
    def test_reduce(self, files, capsys):
        code, out, _ = run(capsys, ["word", "reduce", "--graph", files["c4"], "a b a'"])
        assert code == 0
        assert out.strip() == "b"

    def test_normal_form(self, files, capsys):
        code, out, _ = run(
            capsys, ["word", "normal-form", "--graph", files["c4"], "b a"]
        )
        assert code == 0
        assert out.strip() == "a b"

    def test_equal_true_false(self, files, capsys):
        code, out, _ = run(
            capsys, ["word", "equal", "--graph", files["c4"], "a b", "b a"]
        )
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(
            capsys, ["word", "equal", "--graph", files["c4"], "a c", "c a"]
        )
        assert (code, out.strip()) == (1, "false")

    def test_group_monoid_divergence_word(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["word", "equal", "--graph", files["e11"], "x y x' z x y' x' z'", ""],
        )
        assert (code, out.strip()) == (1, "false")

    def test_commute(self, files, capsys):
        code, out, _ = run(
            capsys, ["word", "commute", "--graph", files["c4"], "a", "b"]
        )
        assert (code, out.strip()) == (0, "true")


class TestGroupCommands:
    def test_cyclic_reduce(self, files, capsys):
        code, out, _ = run(
            capsys, ["group", "cyclic-reduce", "--graph", files["c4"], "a c a'"]
        )
        assert code == 0
        assert "p = a" in out and "h = c" in out

    def test_pure_factors(self, files, capsys):
        code, out, _ = run(
            capsys, ["group", "pure-factors", "--graph", files["c4"], "a a b b b"]
        )
        assert code == 0
        assert "factors 2" in out
        assert "factor 2 a" in out
        assert "factor 3 b" in out

    def test_pure_factors_requires_cyclically_reduced(self, files, capsys):
        code, _, err = run(
            capsys, ["group", "pure-factors", "--graph", files["c4"], "a c a'"]
        )
        assert code == 2
        assert "cyclically reduced" in err

    def test_centralizer_witness(self, files, capsys):
        code, out, _ = run(
            capsys, ["group", "centralizer", "--graph", files["c4"], "a", "a a b"]
        )
        assert code == 0
        assert "status=witness" in out
        assert "p = " in out and "k2 = " in out

    def test_centralizer_non_commuting(self, files, capsys):
        code, out, _ = run(
            capsys, ["group", "centralizer", "--graph", files["c4"], "a", "c"]
        )
        assert code == 1
        assert "status=proved-non-commuting" in out
        assert not any(line.startswith("bound=") for line in out.splitlines())


class TestMonoidCommands:
    def test_equal(self, files, capsys):
        code, out, _ = run(
            capsys, ["monoid", "equal", "--graph", files["c4"], "a b", "b a"]
        )
        assert (code, out.strip()) == (0, "true")

    def test_rejects_inverses(self, files, capsys):
        code, _, err = run(
            capsys, ["monoid", "equal", "--graph", files["c4"], "a'", "a'"]
        )
        assert code == 2
        assert "inverse letters" in err

    def test_commute(self, files, capsys):
        code, out, _ = run(
            capsys, ["monoid", "commute", "--graph", files["c4"], "a c a c", "a c"]
        )
        assert (code, out.strip()) == (0, "true")

    def test_root(self, files, capsys):
        code, out, _ = run(
            capsys, ["monoid", "root", "--graph", files["c4"], "a c a c a c"]
        )
        assert code == 0
        assert "root = a c" in out
        assert "exponent = 3" in out

    def test_product_embed(self, files, capsys):
        code, out, _ = run(
            capsys, ["monoid", "product-embed", "--graph", files["l3"], "w y w"]
        )
        assert code == 0
        assert "rank1 = 4" in out
        assert "rank2 = 3" in out
        assert "sigma w y" in out
        assert "coords w y w: " in out
        assert "sigma(w,y)=w.y.w" in out

    def test_comm_rank(self, files, capsys):
        code, out, _ = run(capsys, ["monoid", "comm-rank", "--graph", files["c4"]])
        assert (code, out.strip()) == (0, "2")


class TestSearchCommand:
    def test_exhausted_report(self, files, capsys):
        code, out, _ = run(
            capsys,
            [
                "search", "phi",
                "--target", files["c4"],
                "--ambient", files["l3"],
                "--mode", "group",
                "--max-len", "3",
            ],
        )
        assert code == 1
        assert out.splitlines()[0] == "status=exhausted bound=3"

    def test_found_records_format(self, files, capsys):
        code, out, _ = run(
            capsys,
            [
                "search", "phi",
                "--target", files["c4"],
                "--ambient", files["c4"],
                "--mode", "monoid",
                "--max-len", "1",
                "--format", "records",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "status=found"
        assert lines[1] == "bound=1"
        assert lines[2] == "witness a=a"

    def test_jobs_flag(self, files, capsys):
        code, out, _ = run(
            capsys,
            [
                "search", "phi",
                "--target", files["c4"],
                "--ambient", files["c4"],
                "--mode", "group",
                "--max-len", "1",
                "--jobs", "4",
                "--format", "records",
            ],
        )
        assert code == 0
        assert out.splitlines()[0] == "status=found"

    def test_bad_max_len(self, files, capsys):
        code, _, err = run(
            capsys,
            [
                "search", "phi",
                "--target", files["c4"],
                "--ambient", files["c4"],
                "--mode", "group",
                "--max-len", "0",
            ],
        )
        assert code == 2
        assert "max-len" in err or "max_len" in err


class TestConcealCommands:
    def test_check_eligible(self, files, capsys):
        code, out, _ = run(capsys, ["conceal", "check", files["e30"]])
        assert (code, out.splitlines()[0]) == (0, "eligible")

    def test_check_ineligible_with_diagnostics(self, files, capsys):
        code, out, _ = run(capsys, ["conceal", "check", files["l3"]])
        assert code == 1
        assert out.splitlines()[0] == "ineligible"
        assert any(line.startswith("# ") for line in out.splitlines()[1:])

    def test_build(self, files, capsys):
        code, out, _ = run(capsys, ["conceal", "build", files["e30"]])
        assert code == 0
        assert "vertices e_0 e_1 f g" in out
        assert "tau e = e_0 e_1 e_0 e_1" in out

    def test_build_rejects_ineligible(self, files, capsys):
        code, _, err = run(capsys, ["conceal", "build", files["l3"]])
        assert code == 2
        assert "not eligible" in err
        assert err.startswith(f"error: {files['l3']}: graph is not eligible")

    def test_verify_rejects_ineligible_naming_the_file(self, files, capsys):
        code, out, err = run(capsys, ["conceal", "verify", files["l3"], "--max-len", "2"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {files['l3']}: graph is not eligible for concealment: ")

    def test_verify(self, files, capsys):
        code, out, _ = run(
            capsys, ["conceal", "verify", files["e30"], "--max-len", "2"]
        )
        assert code == 0
        assert "no-embedding: ok" in out
        assert "phi-witness: ok" in out
        assert "tau-morphism: ok" in out
        assert "tau-injective: ok" in out

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_verify_rejects_bound_below_one(self, files, capsys, bound):
        code, out, err = run(
            capsys, ["conceal", "verify", files["e30"], "--max-len", bound]
        )
        assert code == 2
        assert out == ""
        assert "--max-len" in err


class TestErrorsAndUsage:
    def test_unreadable_file(self, files, capsys, tmp_path):
        code, _, err = run(capsys, ["graph", "info", str(tmp_path / "missing.graph")])
        assert code == 2
        assert "missing.graph" in err

    def test_parse_error_names_file_and_line(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertices a\nedge a q\n")
        code, _, err = run(capsys, ["graph", "info", str(bad)])
        assert code == 2
        assert "bad.graph:2" in err

    def test_non_utf8_file_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(b"vertices a\n\xff\n")
        code, _, err = run(capsys, ["graph", "info", str(bad)])
        assert code == 2
        assert f"error: {bad}: not UTF-8" in err

    def test_usage_error_exits_two(self, capsys):
        code = cli.main(["graph", "nonsense"])
        capsys.readouterr()
        assert code == 2

    def test_python_dash_m_entry_point(self, files):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "graphgroups", "graph", "info", files["c4"]],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "vertices 4: a b c d"

    def test_unknown_word_letter(self, files, capsys):
        code, _, err = run(capsys, ["word", "reduce", "--graph", files["c4"], "a q"])
        assert code == 2
        assert "unknown vertex" in err


# -- golden output ----------------------------------------------------------

# Standard output and exit code of every subcommand (and the ``normal-form``
# alias) on the C4 fixture, with E(3,0) for the eligible concealment paths,
# recorded before the parser was rebuilt from a table. ``{c4}`` and ``{e30}``
# stand for the fixture paths. The non-commuting centralizer report is
# pinned by ``test_centralizer_non_commuting`` instead.
GOLDEN = (
    (['graph', 'info', '{c4}'], 0, 'vertices 4: a b c d\nedges 4: a-b a-d b-c c-d\ndegrees: a=2 b=2 c=2 d=2\nco-components: {a,c} {b,d}\n'),
    (['graph', 'complement', '{c4}'], 0, 'vertices a b c d\nedge a c\nedge b d\n'),
    (['graph', 'product', '{c4}', '{c4}'], 0, '# renamed a -> a_2\n# renamed b -> b_2\n# renamed c -> c_2\n# renamed d -> d_2\nvertices a a_2 b b_2 c c_2 d d_2\nedge a a_2\nedge a b\nedge a b_2\nedge a c_2\nedge a d\nedge a d_2\nedge a_2 b\nedge a_2 b_2\nedge a_2 c\nedge a_2 d\nedge a_2 d_2\nedge b b_2\nedge b c\nedge b c_2\nedge b d_2\nedge b_2 c\nedge b_2 c_2\nedge b_2 d\nedge c c_2\nedge c d\nedge c d_2\nedge c_2 d\nedge c_2 d_2\nedge d d_2\n'),
    (['graph', 'embed', '--pattern', '{c4}', '--host', '{c4}'], 0, 'a -> a\nb -> b\nc -> c\nd -> d\n'),
    (['word', 'reduce', '--graph', '{c4}', "a b a' c b'"], 0, 'c\n'),
    (['word', 'normal-form', '--graph', '{c4}', "a b a' c b'"], 0, 'c\n'),
    (['word', 'normal-form', '--graph', '{c4}', 'd c b a'], 0, 'c a d b\n'),
    (['word', 'equal', '--graph', '{c4}', 'a b', 'b a'], 0, 'true\n'),
    (['word', 'equal', '--graph', '{c4}', 'a c', 'c a'], 1, 'false\n'),
    (['word', 'commute', '--graph', '{c4}', 'a', 'b'], 0, 'true\n'),
    (['word', 'commute', '--graph', '{c4}', 'a', 'c'], 1, 'false\n'),
    (['group', 'cyclic-reduce', '--graph', '{c4}', "a c a'"], 0, 'p = a\nh = c\n'),
    (['group', 'pure-factors', '--graph', '{c4}', 'a a b b b'], 0, 'factors 2\nfactor 2 a\nfactor 3 b\n'),
    (['group', 'centralizer', '--graph', '{c4}', 'a', 'a a b'], 0, 'status=witness\np = \nk1 0 a\nk2 = a a b\n'),
    (['monoid', 'equal', '--graph', '{c4}', 'a b', 'b a'], 0, 'true\n'),
    (['monoid', 'equal', '--graph', '{c4}', 'a c', 'c a'], 1, 'false\n'),
    (['monoid', 'commute', '--graph', '{c4}', 'a c a c', 'a c'], 0, 'true\n'),
    (['monoid', 'commute', '--graph', '{c4}', 'a c', 'c'], 1, 'false\n'),
    (['monoid', 'root', '--graph', '{c4}', 'a c a c a c'], 0, 'root = a c\nexponent = 3\n'),
    (['monoid', 'product-embed', '--graph', '{c4}', 'a c a', 'b'], 0, 'rank1 = 4\nrank2 = 2\nrho a\nrho b\nrho c\nrho d\nsigma a c\nsigma b d\ncoords a c a: rho(a)=2 rho(b)=0 rho(c)=1 rho(d)=0 sigma(a,c)=a.c.a sigma(b,d)=-\ncoords b: rho(a)=0 rho(b)=1 rho(c)=0 rho(d)=0 sigma(a,c)=- sigma(b,d)=b\n'),
    (['monoid', 'comm-rank', '--graph', '{c4}'], 0, '2\n'),
    (['search', 'phi', '--target', '{c4}', '--ambient', '{c4}', '--mode', 'group', '--max-len', '1'], 0, 'status=found bound=1\nwitness a=a\nwitness b=b\nwitness c=c\nwitness d=d\ncandidates=7\n'),
    (['search', 'phi', '--target', '{c4}', '--ambient', '{c4}', '--mode', 'monoid', '--max-len', '1', '--strict', '--format', 'records'], 0, 'status=found\nbound=1\nwitness a=a\nwitness b=b\nwitness c=c\nwitness d=d\n'),
    (['search', 'phi', '--target', '{c4}', '--ambient', '{e30}', '--mode', 'group', '--max-len', '1', '--jobs', '2'], 1, 'status=exhausted bound=1\ncandidates=10\n'),
    (['conceal', 'check', '{c4}'], 1, 'ineligible\n# no vertex of degree <= 1 (degrees: a=2 b=2 c=2 d=2)\n'),
    (['conceal', 'build', '{c4}'], 2, ''),
    (['conceal', 'verify', '{c4}'], 2, ''),
    (['conceal', 'check', '{e30}'], 0, 'eligible\n'),
    (['conceal', 'build', '{e30}'], 0, 'vertices e_0 e_1 f g\nedge e_0 f\nedge e_1 g\ntau e = e_0 e_1 e_0 e_1\ntau f = f\ntau g = g\n'),
    (['conceal', 'verify', '{e30}', '--max-len', '2', '--jobs', '2'], 0, 'no-embedding: ok\nphi-witness: ok\ntau-morphism: ok\ntau-injective: ok (bound=2, elements=37)\n'),
)


@pytest.mark.parametrize(
    "argv, code, stdout",
    GOLDEN,
    ids=[f"{i:02d}-{argv[0]}-{argv[1]}" for i, (argv, _, _) in enumerate(GOLDEN)],
)
def test_golden_output(files, capsys, argv, code, stdout):
    got_code, got_out, _ = run(capsys, [a.format(**files) for a in argv])
    assert (got_code, got_out) == (code, stdout)


def test_usage_error_then_valid_call(files, capsys):
    # One parser serves every call in a process: a failed parse must leave
    # nothing behind for the next call.
    centralizer = ["group", "centralizer", "--graph", files["c4"], "a"]
    assert run(capsys, centralizer)[0] == 2
    code, out, _ = run(capsys, centralizer + ["a a b"])
    assert (code, out) == (0, "status=witness\np = \nk1 0 a\nk2 = a a b\n")
