import json

import pytest
from hypothesis import given, settings, strategies as st

from spheresys import cli, fixtures
from spheresys.modular import MoebiusMap
from spheresys.triangulation import Triangulation, tetrahedron


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

    def test_svg_side_file(self, capsys, tetra_file, tmp_path):
        svg = tmp_path / "out.svg"
        code, _ = run(capsys, "develop", tetra_file, "--svg", str(svg))
        assert code == 0
        assert svg.read_text().startswith("<svg")

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

    def test_perturbed_generator_fixture(self, capsys):
        code, out = run(capsys, "systole", "fixture:b7", "--trace-bound", "14")
        assert code == 0
        assert "no elements at or below the bound" in out
        assert "certified True" in out

    def test_generator_json(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"generators": {
            "1": ["1", "0", "4", "1"],
            "2": ["5", "-4", "4", "-3"]}}))
        code, out = run(capsys, "systole", str(path), "--trace-bound", "14")
        assert code == 0
        assert "certified False" in out
        assert "trace 14" in out

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

    def test_stream_parses_back(self, capsys):
        from spheresys.triangulation import Triangulation
        code, out = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        g = Triangulation.from_text(out)
        assert g.n_vertices == 4

    def test_resource_limit(self, capsys):
        code, _ = run(capsys, "enumerate", "--n", "13", "--count-only")
        assert code == 3


class TestVerifyPaper:
    def test_small_selector(self, capsys):
        code, out = run(capsys, "verify-paper", "n=4")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines and all(l.startswith("PASS") for l in lines)

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

    def test_unknown_selector(self, capsys):
        code, _ = run(capsys, "verify-paper", "n=99")
        assert code == 2

    def test_claim_failure_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(fixtures, "SEVEN_CUSP_PERTURBED_TRACES",
                            ["1.0000"] * 5)
        code, out = run(capsys, "verify-paper", "b7")
        assert code == 1
        assert "FAIL" in out


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


class TestBadInput:
    @pytest.mark.parametrize("content", [
        "rotation 0: 5 1 2\nrotation 1: 3 4\ntwin 0 3\n",
        "twin 0 9\n",
        json.dumps({"generators": [["1", "0", "4", "1"]]}),
        json.dumps({"generators": GENS_14, "diameter": float("nan")}),
        json.dumps({"generators": GENS_14, "diameter": 400}),
        json.dumps({"generators": {"1": ["1e3000000", "0", "0", "1"]}}),
    ])
    def test_one_line_error(self, capsys, tmp_path, content, bound="14"):
        path = tmp_path / "input"
        path.write_text(content)
        code = cli.main(["systole", str(path), "--trace-bound", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_trace_bound_overflow(self, capsys, tmp_path):
        self.test_one_line_error(capsys, tmp_path,
                                 json.dumps({"generators": GENS_14}),
                                 bound="1" + "0" * 400)

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
        """Rotation text and generator JSON: a value or InputError, never
        another exception."""
        try:
            loaded = cli.parse_input(text)
        except cli.InputError:
            return
        if not isinstance(loaded, Triangulation):
            gens, _ = loaded
            assert all(isinstance(m, MoebiusMap) for m in gens.values())

    def test_entry_size_bounded(self):
        gens, _ = cli.parse_input(json.dumps({"generators": GENS_HUGE}))
        assert gens["1"].den == 10 ** 400
        for entries in (["1e3000000", "0", "0", "1e-3000000"],
                        ["1" + "0" * 1000, "0", "0", "1/1" + "0" * 1000]):
            with pytest.raises(cli.InputError, match="longer than"):
                cli.parse_input(json.dumps({"generators": {"1": entries}}))

    def test_both_branches_parse(self):
        assert isinstance(cli.parse_input(tetrahedron().to_text()),
                          Triangulation)
        gens, diameter = cli.parse_input(json.dumps(
            {"generators": GENS_14, "diameter": 1.5}))
        assert set(gens) == {"1", "2"} and diameter == 1.5
