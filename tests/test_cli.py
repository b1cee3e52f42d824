import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from golden.rewrite import CASES as GOLDEN_CASES
from spheresys import cli, fixtures, geodesics
from spheresys.developing import SpanningTree, develop
from spheresys.modular import MoebiusMap
from spheresys.triangulation import Triangulation, icosahedron, tetrahedron
from test_triangulation import tetrahedron_and_torus


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.txt"
    path.write_text(tetrahedron().to_text())
    return str(path)


@pytest.fixture
def ten_file(tmp_path):
    path = tmp_path / "ten.txt"
    path.write_text(fixtures.ten_cusp_graph().to_text())
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestValidate:
    def test_ok(self, capsys, tetra_file):
        code, out = run(capsys, "validate", tetra_file)
        assert code == 0
        assert "ok: True" in out

    def test_json(self, capsys, tetra_file):
        code, out = run(capsys, "--json", "validate", tetra_file)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["regular"]
        assert data["degrees"] == [3, 3, 3, 3]

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "validate", "/nonexistent/input.txt")
        assert code == 2

    def test_malformed_rotation(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("rotation 0: 1 x y\n")
        code, _ = run(capsys, "validate", str(path))
        assert code == 2


class TestDensity:
    def test_table(self, capsys, tetra_file):
        code, out = run(capsys, "density", tetra_file)
        assert code == 0
        assert "min density 9" in out
        assert out.count(": density 9") == 6

    def test_json(self, capsys, ten_file):
        code, out = run(capsys, "--json", "density", ten_file)
        assert code == 0
        assert json.loads(out)["min_density"] == 20


class TestDevelop:
    def test_worked_tetrahedron(self, capsys, tetra_file):
        code, out = run(capsys, "develop", tetra_file)
        assert code == 0
        assert "polygon: 0/1 1/1 3/2 2/1 3/1 1/0" in out
        assert "cusp parabolic check: pass" in out

    def test_worked_ten_cusp(self, capsys, ten_file):
        tree = "0-2,2-1,2-3,3-4,5-2,2-6,7-6,8-5,5-9"
        code, out = run(capsys, "develop", ten_file, "--tree", tree,
                        "--seed-edge", "3-4")
        assert code == 0
        polygon = next(l for l in out.splitlines() if l.startswith("polygon"))
        assert len(polygon.split()) == 1 + 18

    def test_json_fields(self, capsys, tetra_file):
        code, out = run(capsys, "--json", "develop", tetra_file)
        assert code == 0
        data = json.loads(out)
        assert data["cusp_parabolics_ok"]
        assert data["polygon"][-1] == "1/0"
        assert len(data["generators"]) == 3

    def test_bad_tree(self, capsys, tetra_file):
        code, _ = run(capsys, "develop", tetra_file, "--tree", "0-1,0-9")
        assert code == 2

    def test_non_terminal_seed_edge(self, capsys, tetra_file):
        code, _ = run(capsys, "develop", tetra_file,
                      "--tree", "0-1,1-2,2-3", "--seed-edge", "1-2")
        assert code == 2


class TestSystole:
    def test_triangulation_file(self, capsys, tetra_file):
        code, out = run(capsys, "systole", tetra_file)
        assert code == 0
        assert "systole 3.84969460048" in out
        assert out.count("trace 7") == 3

    def test_named_graph(self, capsys):
        code, out = run(capsys, "systole", "fixture:icosahedron")
        assert code == 0
        assert out.count("trace 23") == 30

    def test_trace_bound_resource_limit(self, capsys):
        start = time.perf_counter()
        code = cli.main(["systole", "fixture:tetrahedron",
                         "--trace-bound", "100000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("resource limit: ")
        assert elapsed < 1

    def test_perturbed_generator_fixture(self, capsys):
        code, out = run(capsys, "systole", "fixture:b7", "--trace-bound", "14")
        assert code == 0
        assert "no elements at or below the bound" in out
        assert "certified True" in out

    def test_json_prune_counts(self, capsys):
        code, out = run(capsys, "--json", "systole", "fixture:b7",
                        "--trace-bound", "14")
        assert code == 0
        rep = json.loads(out)
        assert rep["frontier_exhausted"]
        assert rep["products_tried"] == (rep["filter_rejects"]
                                         + rep["exact_rejects"]
                                         + rep["states_explored"] - 1)

    def test_generator_json(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"generators": {
            "1": ["1", "0", "4", "1"],
            "2": ["5", "-4", "4", "-3"]}}))
        code, out = run(capsys, "systole", str(path), "--trace-bound", "14")
        assert code == 0
        assert "certified False" in out
        assert "trace 14" in out

    def test_degree_one_vertex_in_loop_face(self, capsys, tmp_path):
        # vertex 2 has degree 1 and is the third vertex of the face
        # enclosing the loop around vertex 1: no certificate of trace 2
        path = tmp_path / "deg1.txt"
        path.write_text("rotation 0: 0 4 1 2\nrotation 1: 3\n"
                        "rotation 2: 5\ntwin 0 1\ntwin 2 3\ntwin 4 5\n")
        code, out = run(capsys, "systole", str(path))
        assert code == 0
        assert "systole 3.52549434808" in out
        assert out.count("trace 6") == 3
        assert len(out.splitlines()) == 4

    def test_non_unimodular_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generators": {"1": ["2", "0", "0", "1"]}}))
        code, _ = run(capsys, "systole", str(path))
        assert code == 2

    def test_byte_deterministic(self, capsys, tetra_file):
        _, first = run(capsys, "--json", "systole", tetra_file)
        _, second = run(capsys, "--json", "systole", tetra_file)
        assert first == second


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "7", "--count-only")
        assert code == 0
        assert out.strip() == "5"

    def test_count_only_builds_no_triangulation(self, capsys, monkeypatch):
        built = []
        build = Triangulation.from_simple_rotations

        def counting(rot):
            built.append(rot)
            return build(rot)

        monkeypatch.setattr(Triangulation, "from_simple_rotations", counting)
        code, out = run(capsys, "enumerate", "--n", "9", "--count-only")
        assert code == 0
        assert out.strip() == "50"
        assert built == []

    def test_stream_parses_back(self, capsys):
        from spheresys.triangulation import Triangulation
        code, out = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        g = Triangulation.from_text(out)
        assert g.n_vertices == 4

    def test_resource_limit(self, capsys):
        code, _ = run(capsys, "enumerate", "--n", "13", "--count-only")
        assert code == 3

    def test_closed_pipe_exits_quietly(self):
        # n = 10 prints about 120 kB, more than a pipe holds, so the
        # command is still writing when its reader closes after one line
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "spheresys.cli", "enumerate", "--n", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.readline().startswith(b"rotation 0:")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""

    @pytest.mark.parametrize("unbuffered", ("", "1"))
    def test_closed_pipe_keeps_exit_code(self, tmp_path, unbuffered):
        # validate prints its report, then fails; a reader that has
        # closed the pipe does not turn that failure into success
        path = tmp_path / "loop.txt"
        path.write_text("rotation 0: 0 1\ntwin 0 1\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "spheresys.cli", "validate", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered))
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err == b"error: triangulation is invalid\n"

    def test_lines_stream_before_the_command_returns(self, capsys,
                                                     monkeypatch):
        def one_class_then_check(q):
            yield tetrahedron()
            assert capsys.readouterr().out.startswith("rotation 0:")

        monkeypatch.setattr(cli, "enumerate_triangulations",
                            one_class_then_check)
        assert cli.main(["enumerate", "--n", "4"]) == 0


class TestVerifyPaper:
    def test_small_selector(self, capsys):
        code, out = run(capsys, "verify-paper", "n=4")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert all(re.match(r"PASS \S+ \(\d+\.\d\d s\): ", l) for l in lines)
        # the density row says what it covers: every simple class, and
        # only the constructed degenerate maps, with their systole traces
        (density,) = [l for l in lines if l.startswith("PASS density-n4 ")]
        assert "over simple triangulations" in density
        assert density.endswith("constructed degenerate maps by systole "
                                "trace: bipyramid 6, loop-with-pendant 4")

    def test_gamma5_report(self, capsys):
        code, out = run(capsys, "verify-paper", "gamma5-n10")
        assert code == 0
        assert "determinant 449" in out

    def test_json_report(self, capsys):
        code, out = run(capsys, "--json", "verify-paper", "a7")
        assert code == 0
        data = json.loads(out)
        assert all(r["ok"] for r in data)
        assert {r["claim"] for r in data} == {"a7-determinants",
                                              "a7-word-traces"}
        assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0
                   for r in data)

    def test_unknown_selector(self, capsys):
        code, _ = run(capsys, "verify-paper", "n=99")
        assert code == 2

    def test_claim_failure_exit(self, capsys, monkeypatch):
        rows = [(*row[:-2], ["1.0000"] * 5, row[-1])
                if row[0] == "b7-perturbed-traces" else row
                for row in cli.PAPER_CLAIMS]
        monkeypatch.setattr(cli, "PAPER_CLAIMS", rows)
        code, out = run(capsys, "verify-paper", "b7")
        assert code == 1
        assert "FAIL" in out


# the cusp count each claim is about, in the suite's order
CLAIM_N = {
    **{f"density-n{n}": n for n in range(4, 13)},
    "schmutz-equality-n12": 12, "systole-tetrahedron": 4,
    "systole-octahedron": 6, "systole-icosahedron": 12,
    "systole-ten-cusp": 10, "systole-eleven-cusp": 11,
    "a7-determinants": 7, "a7-word-traces": 7, "b7-perturbed-traces": 7,
    "gamma10-determinants": 10, "gamma5-correction": 10,
    "gamma10-word-traces": 10, "alpha10-perturbed-traces": 10,
    "alpha10-certified-absence": 10, "gamma11-determinants": 11,
    "gamma11-word-traces": 11, "gamma11-basis": 11,
    "gamma11-systole-classes": 11, "alpha11-perturbed-traces": 11,
    "alpha11-basis": 11, "alpha11-certified-absence": 11,
    "example2-polygon": 10,
}
FIXTURE_SELECTORS = {
    "a7": {"a7-determinants", "a7-word-traces"},
    "b7": {"b7-perturbed-traces"},
    "gamma10": {"gamma10-determinants", "gamma5-correction",
                "gamma10-word-traces"},
    "gamma5-n10": {"gamma5-correction"},
    "alpha10": {"alpha10-perturbed-traces", "alpha10-certified-absence"},
    "gamma11": {"gamma11-determinants", "gamma11-word-traces",
                "gamma11-basis", "gamma11-systole-classes"},
    "alpha11": {"alpha11-perturbed-traces", "alpha11-basis",
                "alpha11-certified-absence"},
    "example2": {"example2-polygon"},
}
# the three certified sweeps and the n >= 11 enumerations take seconds each
SLOW_CLAIMS = {"density-n11", "density-n12", "alpha10-certified-absence",
               "gamma11-systole-classes", "alpha11-certified-absence"}


def perturbed(value):
    if isinstance(value, list):
        return value[:-1] + [perturbed(value[-1])]
    if isinstance(value, str):
        return value + "1"
    return value + 1


GOLDEN = pathlib.Path(__file__).parent / "golden"
# the detail each claim printed when the golden outputs were written
CLAIM_DETAILS = {row["claim"]: row["detail"] for row in json.loads(
    (GOLDEN / "verify-paper-all.json").read_text())}


class TestClaimTable:
    @pytest.mark.parametrize(
        "row", [row for row in cli.PAPER_CLAIMS if row[0] not in SLOW_CLAIMS],
        ids=lambda row: row[0])
    def test_row(self, row):
        name, selectors, check, *values = row
        assert f"n={CLAIM_N[name]}" in selectors
        assert check(*values) == (True, CLAIM_DETAILS[name])
        assert not check(*values[:-1], perturbed(values[-1]))[0]

    # the certified-sweep check, whose rows in the table are all slow
    @pytest.mark.parametrize("gens_name, classes, detail", [
        ("a7", 5, "5777 states, 5 classes of |trace| 14, minimum above: 18"),
        ("b7", 0, "5775 states, 0 classes of |trace| 14, "
                  "minimum above: 33959/2425"),
    ])
    def test_certified_sweep(self, gens_name, classes, detail):
        assert cli._certified_sweep(gens_name, 14, classes) == (
            True, "bound 14, diameter 2.99573227355, horizon 11.2592961348, "
            + detail)
        assert not cli._certified_sweep(gens_name, 14, classes + 1)[0]

    def test_names_and_selectors(self):
        assert [row[0] for row in cli.PAPER_CLAIMS] == list(CLAIM_N)
        expected = {f"n={n}": {name for name, k in CLAIM_N.items() if k == n}
                    for n in range(4, 13)}
        expected.update(FIXTURE_SELECTORS)
        for selector, names in expected.items():
            assert {row[0] for row in cli.PAPER_CLAIMS
                    if selector in row[1]} == names, selector


class TestGolden:
    """Outputs checked in under tests/golden/; golden/rewrite.py
    rewrites them when a change alters an answer on purpose."""

    @staticmethod
    def check(capsys, name):
        code, out = run(capsys, *GOLDEN_CASES[name])
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize(
        "name", [n[len("systole-"):] for n in GOLDEN_CASES
                 if n.startswith("systole-")])
    def test_systole_json(self, capsys, name):
        self.check(capsys, f"systole-{name}")

    @pytest.mark.parametrize(
        "name", [n for n in GOLDEN_CASES if not n.startswith("systole-")])
    def test_json(self, capsys, name):
        self.check(capsys, name)

    def test_byte_order_mark(self, capsys, tmp_path):
        """A file that starts with a UTF-8 byte-order mark, as some
        editors save it, reads as the same file without one."""
        *argv, original = GOLDEN_CASES["systole-two-generators"]
        path = tmp_path / "two-generators.json"
        path.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(original).read_bytes())
        code, out = run(capsys, *argv, str(path))
        assert code == 0
        assert out == (GOLDEN / "systole-two-generators.json").read_text()

    def test_string_diameter_as_decimal(self):
        # "3/10" and 0.3 are one diameter, so the sweeps print alike
        assert ((GOLDEN / "systole-two-generators-string-diameter.json")
                .read_bytes() == (GOLDEN / "systole-two-generators-"
                                  "decimal-diameter.json").read_bytes())


class TestNoAssertStatements:
    def test_package_checks_survive_optimize(self):
        """``python -O`` drops assert statements, so every check in the
        package raises AssertionError explicitly instead."""
        package = pathlib.Path(cli.__file__).parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []


class TestConsoleScripts:
    def test_entry_points_run(self, capsys):
        """Each [project.scripts] entry resolves to a working main."""
        tomllib = pytest.importorskip("tomllib")     # Python 3.11 and up
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts
        for target in scripts.values():
            module, _, name = target.partition(":")
            main = getattr(importlib.import_module(module), name)
            assert main(["verify-paper", "n=4"]) == 0
            assert "PASS density-n4 " in capsys.readouterr().out


class TestToJson:
    def test_unknown_type_refused(self):
        # not its str(): every reported type has a declared JSON form
        with pytest.raises(TypeError, match="Triangulation"):
            cli.to_json({"map": tetrahedron()})


class TestRender:
    def test_stdout(self, capsys, tetra_file):
        code, out = run(capsys, "render", tetra_file)
        assert code == 0
        assert out.startswith("<svg")

    def test_output_file(self, capsys, tetra_file, tmp_path):
        target = tmp_path / "poly.svg"
        code, _ = run(capsys, "render", tetra_file, "-o", str(target))
        assert code == 0
        assert "</svg>" in target.read_text()


GENS_14 = {"1": ["1", "0", "4", "1"], "2": ["5", "-4", "4", "-3"]}
# a diagonal generator with 401-digit entries, as exponents
GENS_HUGE = {"1": ["1e400", "0", "0", "1e-400"], "2": ["1", "0", "4", "1"]}


def one_line_error(capsys, tmp_path, content, *argv):
    """Run `argv[0] FILE argv[1:]` on a file holding content; return the
    one `error:` line, checking exit 2 and nothing on stdout."""
    path = tmp_path / "input"
    path.write_text(content)
    code = cli.main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    return captured.err


class TestBadInput:
    @pytest.mark.parametrize("content", [
        "rotation 0: 5 1 2\nrotation 1: 3 4\ntwin 0 3\n",
        "twin 0 9\n",
        json.dumps({"generators": [["1", "0", "4", "1"]]}),
        json.dumps({"generators": {}}),
        json.dumps({"generators": GENS_14, "diameter": float("nan")}),
        json.dumps({"generators": GENS_14, "diameter": 400}),
        json.dumps({"generators": {"1": ["1e3000000", "0", "0", "1"]}}),
        # diameters refused by their size before any exact value is built
        *(pytest.param(f'{{"generators": {json.dumps(GENS_14)}, '
                       f'"diameter": {d}}}', id=f"diameter-{d}")
          for d in ("1e3000000", "1e-3000000")),
        # the icosahedron's systole has |trace| 23, above the bound
        pytest.param(icosahedron().to_text(), id="bound-below-systole"),
    ])
    def test_one_line_error(self, capsys, tmp_path, content):
        start = time.perf_counter()
        one_line_error(capsys, tmp_path, content,
                       "systole", "--trace-bound", "14")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("content, message", [
        *(pytest.param(json.dumps({"generators": GENS_14, "diameter": d}),
                       "diameter must be a real number", id=f"diameter-{d}")
          for d in ("abc", [1], True)),
        *(pytest.param(f'{{"generators": {json.dumps(GENS_14)}, '
                       f'"diameter": {d}}}',
                       "diameter must be finite and >= 0", id=f"diameter-{d}")
          for d in ("NaN", "-1")),
        pytest.param(json.dumps({"generators": {"1": ["1/0", 0, 0, 1]}}),
                     "generator '1': an entry has denominator 0",
                     id="zero-denominator"),
        # every other refusal of a generator names it too
        *(pytest.param(f'{{"generators": {{"1": [{entry}, 0, 0, 1]}}}}',
                       "generator '1':", id=f"entry-{name}")
          for name, entry in (("abc", '"abc"'), ("NaN", "NaN"),
                              ("Infinity", "Infinity"), ("dict", '{"a": 1}'))),
        pytest.param(json.dumps({"generators": {"1": [1, 2, 3, 4]}}),
                     "generator '1':", id="determinant--2"),
    ])
    def test_parse_refusal_names_file(self, capsys, tmp_path, content,
                                      message):
        err = one_line_error(capsys, tmp_path, content, "systole")
        assert err.startswith(f"error: {tmp_path / 'input'}: {message}")

    def test_identity_generator(self, capsys, tmp_path):
        err = one_line_error(
            capsys, tmp_path,
            json.dumps({"generators": {"1": [1, 0, 0, 1]}}), "systole")
        assert err == ("error: the generators satisfy a relation, so they "
                       "are not a free basis: the word 1^1 gives the "
                       "identity\n")

    @pytest.mark.parametrize("quad,digits", [(["1e1000"] * 4, 1001),
                                             (["1e400", 0, 0, 1], 401)],
                             ids=["four-1e1000", "one-1e400"])
    def test_long_entries_abridged(self, capsys, tmp_path, quad, digits):
        """A refused matrix prints each long entry as its leading digits
        and a digit count, so the message stays one short line."""
        err = one_line_error(capsys, tmp_path,
                             json.dumps({"generators": {"1": quad}}),
                             "systole")
        message = err.removeprefix(f"error: {tmp_path / 'input'}: ")
        assert message.startswith("generator '1': matrix (")
        assert len(message.rstrip("\n")) <= 200
        assert f"1000000000...({digits} digits)" in message

    def test_undecodable_file_named(self, capsys, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe\x00")
        code = cli.main(["systole", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {path}: ") and "decode" in line

    def test_trace_bound_overflow(self, capsys, tmp_path):
        one_line_error(capsys, tmp_path, json.dumps({"generators": GENS_14}),
                       "systole", "--trace-bound", "1" + "0" * 400)

    def test_non_discrete_group(self, capsys, tmp_path):
        # a rotation of infinite order: its trace 6/5 is not 0, 1 or 2
        err = one_line_error(capsys, tmp_path, json.dumps(
            {"generators": {"1": ["3/5", "-4/5", "4/5", "3/5"]},
             "diameter": 1}), "systole")
        assert "not discrete" in err and "1^1" in err and "6/5" in err

    def test_generators_with_relation(self, capsys, tmp_path):
        # the square of the first parabolic is the second
        err = one_line_error(capsys, tmp_path, json.dumps(
            {"generators": {"1": ["1", "2", "0", "1"],
                            "2": ["1", "4", "0", "1"]},
             "diameter": 1}), "systole")
        assert "relation" in err and "1^1 1^1" in err and "2^1" in err

    def test_disconnected_map(self, capsys, tmp_path):
        for command in ("density", "develop", "render", "systole"):
            err = one_line_error(capsys, tmp_path,
                                 tetrahedron_and_torus().to_text(), command)
            assert "2 connected components" in err, command

    def test_unwritable_render_output(self, capsys, tmp_path):
        # a missing directory, and a directory in place of the file
        for target in (tmp_path / "missing" / "x.svg", tmp_path):
            err = one_line_error(capsys, tmp_path, tetrahedron().to_text(),
                                 "render", "-o", str(target))
            assert str(target) in err

    def test_huge_entries_run(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"generators": GENS_HUGE}))
        code = cli.main(["systole", str(path), "--trace-bound", "14"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "certified False" in captured.out


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
_entry = (st.integers(-3, 3).map(str) | st.integers(-3, 3) | st.floats()
          | st.sampled_from(["1/0", "1/2", "x", "1e400", "1e-400",
                             "1e3000000"]) | _json)
_generator_docs = st.fixed_dictionaries(
    {"generators": st.dictionaries(
        st.text(max_size=2),
        st.lists(_entry, min_size=4, max_size=4) | st.lists(_entry) | _json,
        max_size=3) | _json},
    optional={"diameter": _json}).map(json.dumps)
_text_lines = st.lists(
    st.builds("rotation {}: {}".format, st.integers(-1, 3),
              st.lists(st.integers(-1, 9), max_size=5).map(
                  lambda ds: " ".join(map(str, ds))))
    | st.builds("twin {} {}".format, st.integers(-1, 9), st.integers(-1, 9))
    | st.text(max_size=12),
    max_size=8).map("\n".join)


class TestParseInput:
    @settings(max_examples=300, deadline=None)
    @given(_text_lines | _generator_docs | _json.map(json.dumps))
    def test_value_or_input_error(self, text):
        """Rotation text and generator JSON: a value or ValueError, never
        another exception."""
        try:
            loaded = cli.parse_input(text)
        except ValueError:
            return
        if not isinstance(loaded, Triangulation):
            gens, _ = loaded
            assert all(isinstance(m, MoebiusMap) for m in gens.values())

    def test_entry_size_bounded(self):
        gens, _ = cli.parse_input(json.dumps({"generators": GENS_HUGE}))
        assert gens["1"].den == 10 ** 400
        for entries in (["1e3000000", "0", "0", "1e-3000000"],
                        ["1" + "0" * 1000, "0", "0", "1/1" + "0" * 1000]):
            with pytest.raises(ValueError, match="longer than"):
                cli.parse_input(json.dumps({"generators": {"1": entries}}))

    def test_json_numbers_exact(self):
        gens, diameter = cli.parse_input(
            '{"generators": {"1": [1, 0.1, 0, 1]}, "diameter": 1.5}')
        assert gens["1"].b == Q(1, 10)
        assert diameter == Q(3, 2) and isinstance(diameter, Q)
        # a diameter no binary float holds is read exactly too
        assert cli.parse_input('{"generators": {"1": [1, 0, 0, 1]}, '
                               '"diameter": 0.3}')[1] == Q(3, 10)
        # a string diameter is read by the rule for a string entry
        _, diameter = cli.parse_input(json.dumps(
            {"generators": GENS_14, "diameter": "1/3"}))
        assert diameter == Q(1, 3) and isinstance(diameter, Q)
        # the size check reads the number's text before any exact value
        start = time.perf_counter()
        with pytest.raises(ValueError, match="longer than"):
            cli.parse_input('{"generators": {"1": [1e3000000, 0, 0, 1]}}')
        assert time.perf_counter() - start < 1

    def test_boolean_entry_refused(self):
        # JSON true would otherwise read as 1: the parabolic (1 1; 0 1)
        with pytest.raises(ValueError, match="booleans"):
            cli.parse_input(json.dumps(
                {"generators": {"1": [True, 1, 0, 1]}, "diameter": 1}))

    def test_both_branches_parse(self):
        assert isinstance(cli.parse_input(tetrahedron().to_text()),
                          Triangulation)
        gens, diameter = cli.parse_input(json.dumps(
            {"generators": GENS_14, "diameter": 1.5}))
        assert set(gens) == {"1", "2"} and diameter == 1.5


def seven_vertex_torus():
    """The 7-vertex torus: a connected map whose Euler characteristic
    is 0, not 2."""
    return Triangulation.from_oriented_faces(
        [face for i in range(7)
         for a, b, c, d in [[(i + s) % 7 for s in range(4)]]
         for face in ((a, b, d), (a, d, c))])


class TestErrorPaths:
    """Each refused command exits with its code and one stderr line."""

    @staticmethod
    def one_line(capsys, code, prefix, *argv):
        assert cli.main(list(argv)) == code
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(prefix)
        return line

    def test_unknown_fixture(self, capsys):
        line = self.one_line(capsys, 2, "error: ", "systole", "fixture:nope")
        assert line == ("error: unknown fixture 'nope'; choices: eleven, "
                        "icosahedron, octahedron, seven, ten, tetrahedron, "
                        "a7, alpha10, alpha11, b7, gamma10, gamma11")

    def test_generator_set_where_a_map_is_needed(self, capsys):
        line = self.one_line(capsys, 2, "error: ", "validate", "fixture:a7")
        assert line == "error: fixture:a7: a generator set, not a triangulation"

    @pytest.mark.parametrize("option, value, message", [
        ("--tree", "0-1,x", "error: bad tree edge 'x'; expected u-v"),
        ("--seed-edge", "1", "error: bad seed edge '1'; expected u-v")])
    def test_bad_edge_syntax(self, capsys, option, value, message):
        assert self.one_line(capsys, 2, "error: ", "develop",
                             "fixture:tetrahedron", option, value) == message

    def test_one_refusal_for_an_invalid_map(self, tmp_path):
        # the loader, the development and the dual walk give one message
        torus = Triangulation.from_rotation_lists([[0, 2, 1, 3]], [(0, 1), (2, 3)])
        path = tmp_path / "torus.txt"
        path.write_text(torus.to_text())
        messages = []
        for refuse in (lambda: cli.load_input(str(path)),
                       lambda: develop(torus, SpanningTree.bfs_tree(torus)),
                       lambda: geodesics.enumerate_geodesics_combinatorial(torus, 10)):
            with pytest.raises(ValueError) as exc:
                refuse()
            messages.append(str(exc.value))
        assert messages == [f"{path}: {messages[1]}"] + [
            "invalid triangulation: non-triangular face 0 with 4 sides; "
            "euler characteristic 0 != 2"] * 2

    def test_validate_non_sphere(self, capsys, tmp_path):
        path = tmp_path / "torus.txt"
        path.write_text(seven_vertex_torus().to_text())
        line = self.one_line(capsys, 2, "error: ", "validate", str(path))
        assert line == "error: triangulation is invalid"

    def test_seed_edge_without_tree(self, capsys):
        # the breadth-first tree of the octahedron is the star at 0 and
        # the edge 1-5, so 0-1 is not terminal and 0-2 is
        line = self.one_line(capsys, 2, "error: ", "develop",
                             "fixture:octahedron", "--seed-edge", "0-1")
        assert line == "error: 0-1 is not a terminal edge of the spanning tree"
        code, out = run(capsys, "develop", "fixture:octahedron",
                        "--seed-edge", "0-2")
        assert code == 0 and "cusp parabolic check: pass" in out

    def test_develop_claim_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_cusp_parabolics", lambda dev: False)
        line = self.one_line(capsys, 1, "failure: ", "develop",
                             "fixture:tetrahedron")
        assert line == "failure: cusp parabolic check failed"

    def test_systole_claim_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(geodesics, "MAX_SWEEP_STATES", 10)
        line = self.one_line(capsys, 1, "failure: ", "systole", "fixture:a7",
                             "--trace-bound", "14")
        assert line == "failure: search frontier not exhausted"
