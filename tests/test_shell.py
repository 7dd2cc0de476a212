import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from crnlap import bdi_membership, bdi_report, mass_action_rhs
from crnlap.cli import run_command
from crnlap.errors import SchemaError, SemanticError
from crnlap.io import (
    NetworkDocument,
    parse_document,
    parse_network,
    parse_number,
)

from conftest import SAMPLE_DIR
from oracles import bdi_member_by_orders, tie_chain_orders

TRIANGLE = SAMPLE_DIR / "triangle.json"
CYCLE3 = SAMPLE_DIR / "cycle3.json"
TWO_COMPONENT = SAMPLE_DIR / "two_component.json"
SRC = SAMPLE_DIR.parent / "src"


class TestParseNetwork:
    def test_running_example_parses(self):
        doc, net = parse_network(TRIANGLE.read_text())
        assert net.graph.n_components == 1
        assert net.graph.n_edges == 4
        assert net.exact
        assert net.graph.labels[("1", "2")] == Fraction(1, 2)

    def test_two_component_file(self):
        doc, net = parse_network(TWO_COMPONENT.read_text())
        assert net.graph.n_components == 2

    def test_missing_k_names_the_edge(self):
        text = json.dumps(
            {
                "species": ["A"],
                "vertices": [
                    {"id": "1", "complex": {"A": 1}},
                    {"id": "2", "complex": {"A": 2}},
                ],
                "edges": [{"from": "1", "to": "2"}],
            }
        )
        with pytest.raises(SchemaError) as err:
            parse_network(text)
        assert "edges[0]" in err.value.path

    def test_zero_k_is_semantic_error(self):
        text = json.dumps(
            {
                "species": ["A"],
                "vertices": [
                    {"id": "1", "complex": {"A": 1}},
                    {"id": "2", "complex": {"A": 2}},
                ],
                "edges": [{"from": "1", "to": "2", "k": 0}],
            }
        )
        with pytest.raises(SemanticError) as err:
            parse_network(text)
        assert err.value.path == "edges[0].k"

    def test_duplicate_complex_rejected(self):
        text = json.dumps(
            {
                "species": ["A"],
                "vertices": [
                    {"id": "1", "complex": {"A": 1}},
                    {"id": "2", "complex": {"A": 1}},
                ],
                "edges": [{"from": "1", "to": "2", "k": 1}],
            }
        )
        with pytest.raises(SemanticError):
            parse_network(text)

    def test_unknown_species_in_complex(self):
        text = json.dumps(
            {
                "species": ["A"],
                "vertices": [{"id": "1", "complex": {"B": 1}}],
                "edges": [],
            }
        )
        with pytest.raises(SemanticError):
            parse_network(text)


class TestNumbers:
    def test_integer_and_string_and_pair_are_exact(self):
        assert parse_number(3, "p") == Fraction(3)
        assert parse_number("0.5", "p") == Fraction(1, 2)
        assert parse_number("3/4", "p") == Fraction(3, 4)
        assert parse_number({"num": 2, "den": 6}, "p") == Fraction(1, 3)

    def test_raw_float_forces_float(self):
        v = parse_number(0.5, "p")
        assert isinstance(v, float)

    def test_exact_mode_rejects_raw_float(self):
        with pytest.raises(SemanticError):
            parse_number(0.5, "p", mode="exact")

    def test_float_mode_coerces(self):
        assert parse_number({"num": 1, "den": 2}, "p", mode="float") == 0.5

    def test_bad_pair(self):
        with pytest.raises(SchemaError):
            parse_number({"num": 1}, "p")
        with pytest.raises(SchemaError):
            parse_number({"num": 1, "den": 0}, "p")


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        for path in (TRIANGLE, CYCLE3, TWO_COMPONENT):
            doc = parse_document(path.read_text())
            again = parse_document(doc.serialize())
            assert again == doc

    def test_fraction_survives_roundtrip(self):
        doc = NetworkDocument(
            species=["A"],
            vertices=[("1", {"A": Fraction(1)}), ("2", {"A": Fraction(5, 3)})],
            edges=[("1", "2", Fraction(7, 2)), ("2", "1", Fraction(4))],
        )
        again = parse_document(doc.serialize())
        assert again == doc
        assert again.edges[0][2] == Fraction(7, 2)


class TestCli:
    def run(self, argv, capsys):
        code = run_command(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_analyze_report(self, capsys):
        code, out, err = self.run(["analyze", str(TRIANGLE)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["weakly_reversible"] is True
        assert report["components"] == [["1", "2", "3"]]
        assert report["tree_constants"]["enumeration"] == report["tree_constants"]["minors"]
        assert report["decomposition"]["checks"]["passed"] is True

    def test_certify_matches_reference_value(self, capsys):
        code, out, _ = self.run(
            ["certify", str(CYCLE3), "--x", "0.5,0.5"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "strict_decrease"
        assert report["value"] == pytest.approx(-0.43321698784996576, rel=1e-9)

    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        out_file = tmp_path / "traj.json"
        code, out, _ = self.run(
            [
                "simulate", str(CYCLE3),
                "--x0", "0.5,0.5", "--t", "50", "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert np.max(np.abs(np.asarray(report["final_state"]) - 1.0)) <= 1e-6
        traj = json.loads(out_file.read_text())
        lyap = traj["lyapunov"]
        assert all(b <= a + 1e-9 for a, b in zip(lyap, lyap[1:]))

    def test_equilibria_exit_codes(self, tmp_path, capsys):
        code, out, _ = self.run(["equilibria", str(CYCLE3)], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "found"
        # deficiency-one instance with generic rates has no CBE
        doc = {
            "species": ["X"],
            "vertices": [
                {"id": "1", "complex": {}},
                {"id": "2", "complex": {"X": 1}},
                {"id": "3", "complex": {"X": 2}},
            ],
            "edges": [
                {"from": "1", "to": "2", "k": 1},
                {"from": "2", "to": "1", "k": 3},
                {"from": "2", "to": "3", "k": 1},
                {"from": "3", "to": "1", "k": 5},
            ],
        }
        p = tmp_path / "def1.json"
        p.write_text(json.dumps(doc))
        code, out, _ = self.run(["equilibria", str(p)], capsys)
        assert code == 3
        assert json.loads(out)["status"] == "infeasible"
        # --tol is checked before the analysis, whatever its outcome
        code, out, err = self.run(["equilibria", str(p), "--tol=-5"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "SemanticError"

    def test_equilibria_wide_labels_found(self, tmp_path, capsys):
        # {} <-> {A} with labels 1e300 and 1e10: K = (1e10, 1e300) fits float64
        doc = {
            "species": ["A"],
            "vertices": [{"id": "1", "complex": {}}, {"id": "2", "complex": {"A": 1}}],
            "edges": [
                {"from": "1", "to": "2", "k": 1e300},
                {"from": "2", "to": "1", "k": 1e10},
            ],
        }
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        code, out, _ = self.run(["equilibria", str(p)], capsys)
        assert code == 0
        assert json.loads(out)["witness"] == pytest.approx([1e290], rel=1e-12)

    def test_equilibria_overflowing_flows_exit_2(self, tmp_path):
        # the witness x = 1e300 is found, but x^2 at vertex 2 overflows:
        # one JSON error, no numpy warnings and no Infinity in the report
        doc = {
            "species": ["A"],
            "vertices": [{"id": "1", "complex": {"A": 1}}, {"id": "2", "complex": {"A": 2}}],
            "edges": [
                {"from": "1", "to": "2", "k": 1e300},
                {"from": "2", "to": "1", "k": 1.0},
            ],
        }
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(doc))
        path = os.pathsep.join(q for q in (str(SRC), os.environ.get("PYTHONPATH")) if q)
        proc = subprocess.run(
            [sys.executable, "-m", "crnlap.cli", "equilibria", str(p)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["type"] == "FloatRangeError"

    def test_bdi_check(self, capsys):
        code, out, _ = self.run(["bdi-check", str(CYCLE3), "--x", "0.5,0.5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["member"] is True
        cone = report["cone"]
        assert cone["contains"] is True
        assert cone["edges"] == [["1", "2"], ["2", "3"]]
        assert cone["margin"] > 0
        assert len(cone["multipliers"]) == 2 and min(cone["multipliers"]) > 0

    def test_bdi_check_on_manifold_has_no_cone(self, capsys):
        code, out, _ = self.run(["bdi-check", str(CYCLE3), "--x", "1,1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["on_manifold"] is True and report["cone"] is None

    def test_bdi_check_tie_one_cone(self, capsys):
        # at (2, 1/2) the scaled monomials of vertices 1 and 3 tie (both 2),
        # above vertex 2 (1/4): the cone's edges run from 2 to each of them
        code, out, _ = self.run(["bdi-check", str(CYCLE3), "--x", "2,0.5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["on_manifold"] is False
        assert report["cone"]["edges"] == [["2", "1"], ["2", "3"]]
        _, net = parse_network(CYCLE3.read_text())
        f = mass_action_rhs(net, [2.0, 0.5])
        assert report["member"] is bdi_membership(net, [1, 1], [2.0, 0.5], f)
        assert report["member"] is bdi_member_by_orders(net, [2.0, 0.5], f)

    def test_bdi_check_tie_past_64_orders(self, tmp_path, capsys):
        # K5 with complexes (i, 4 - i) and X1 <-> 0, unit rates: at (2, 2)
        # the five K5 monomials tie, 5! = 120 chain orders, all decided by
        # one cone that keeps only the edge 7 -> 6
        vertices = [{"id": str(i + 1), "complex": {"A": i, "B": 4 - i}} for i in range(5)]
        vertices += [{"id": "6", "complex": {"A": 1}}, {"id": "7", "complex": {}}]
        edges = [
            {"from": str(a), "to": str(b), "k": 1}
            for a in range(1, 6) for b in range(1, 6) if a != b
        ]
        edges += [{"from": "6", "to": "7", "k": 1}, {"from": "7", "to": "6", "k": 1}]
        p = tmp_path / "k5.json"
        p.write_text(json.dumps({"species": ["A", "B"], "vertices": vertices, "edges": edges}))
        argv = ["bdi-check", str(p), "--x", "2,2", "--x-star", "1,1"]
        code, out, _ = self.run(argv, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["member"] is False
        assert report["cone"]["edges"] == [["7", "6"]]
        _, net = parse_network(p.read_text())
        assert len(tie_chain_orders(net, [2, 2])) == 120
        f = np.asarray(report["v"])
        assert not bdi_member_by_orders(net, [2, 2], f)
        for v in (-f, np.array([1.0, -1.0])):
            assert bdi_report(net, [2, 2], v).member == bdi_member_by_orders(net, [2, 2], v)

    def test_bdi_check_rejects_non_equilibrium_x_star(self, capsys):
        argv = ["--x", "0.5,0.5", "--x-star", "5,7"]
        for cmd in ("certify", "bdi-check"):
            code, out, err = self.run([cmd, str(CYCLE3), *argv], capsys)
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["type"] == "NotACbeError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--x", "nan,0.5"],
            ["bdi-check", "--x", "nan,0.5"],
            ["simulate", "--x0", "inf,0.5", "--t", "1"],
            ["certify", "--x", "0.5,0.5", "--x-star", "nan,1"],
            ["bdi-check", "--x", "0.5,0.5", "--x-star", "nan,1"],
            ["simulate", "--x0", "1,0.5", "--x-star", "nan,1", "--t", "1"],
        ],
    )
    def test_non_finite_state_exit_2(self, argv, capsys):
        code, out, err = self.run([argv[0], str(CYCLE3), *argv[1:]], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "NonPositiveStateError"

    @pytest.mark.parametrize("t_end", ["nan", "inf", "0"])
    def test_simulate_rejects_bad_end_time(self, t_end):
        # a separate process, so a hang fails the test instead of the suite
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "crnlap.cli", "simulate", str(CYCLE3),
             "--x0", "1,0.5", "--t", t_end],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["type"] == "SemanticError"

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["certify", "--x", "abc,1"], "abc"),
            (["simulate", "--x0", "1,1/0", "--t", "1"], "1/0"),
            (["certify", "--x", "0.5,0.5", "--x-star", "1,x"], "x"),
            (["bdi-check", "--x", "0.5,0.5", "--v", "x,1"], "x"),
        ],
    )
    def test_malformed_number_exit_2(self, argv, token, capsys):
        code, out, err = self.run([argv[0], str(CYCLE3), *argv[1:]], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "SemanticError" and repr(token) in error["message"]

    @pytest.mark.parametrize("v", ["1,2,3", "nan,1"])
    def test_bdi_check_rejects_bad_v(self, v, capsys):
        argv = ["bdi-check", str(CYCLE3), "--x", "0.5,0.5", "--v", v]
        code, out, err = self.run(argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ShapeMismatchError"

    @pytest.mark.parametrize("spec", ["chain:1,2,3;", "chain:"])
    def test_decompose_empty_chain_group_exit_2(self, spec, capsys):
        code, out, err = self.run(["decompose", str(CYCLE3), "--aux", spec], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "BadOrderError"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["decompose"], ["bdi-check", "--x", "0.7,1.3"]],
        ids=["analyze", "decompose", "bdi-check"],
    )
    def test_bad_tol_exit_2(self, argv, tol, capsys):
        cmd = [argv[0], str(CYCLE3), *argv[1:], "--mode", "float", f"--tol={tol}"]
        code, out, err = self.run(cmd, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "SemanticError"

    @pytest.mark.parametrize(
        "argv", [["certify", "--x", "0.5,0.5"], ["simulate", "--x0", "0.5,0.5", "--t", "1"]]
    )
    def test_tol_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_command([argv[0], str(CYCLE3), *argv[1:], "--tol=-5"])
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--x", "1e200,1"],
            ["bdi-check", "--x", "1e200,1"],
            ["certify", "--x", "1e400,1"],
            ["bdi-check", "--x", "1e400,1"],
            ["simulate", "--x0", "1e400,1", "--t", "1"],
            ["certify", "--x", "1e-400,1"],
        ],
    )
    def test_exact_state_out_of_float_range_exit_2(self, argv, capsys):
        code, out, err = self.run([argv[0], str(CYCLE3), *argv[1:]], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "FloatRangeError"

    @pytest.mark.parametrize("cmd", ["analyze", "decompose", "equilibria"])
    def test_float_tree_constants_out_of_range_exit_2(self, cmd, tmp_path, capsys):
        doc = json.loads(CYCLE3.read_text())
        for edge in doc["edges"]:
            edge["k"] = 1e200
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        code, out, err = self.run([cmd, str(p)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "FloatRangeError"

    def test_decompose_not_weakly_reversible_exit_2(self, tmp_path, capsys):
        doc = {
            "species": ["A"],
            "vertices": [
                {"id": "1", "complex": {"A": 1}},
                {"id": "2", "complex": {"A": 2}},
            ],
            "edges": [{"from": "1", "to": "2", "k": 1}],
        }
        p = tmp_path / "one_way.json"
        p.write_text(json.dumps(doc))
        code, _, err = self.run(["decompose", str(p)], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "NotStronglyConnectedError"

    def test_decompose_star(self, capsys):
        code, out, _ = self.run(
            ["decompose", str(TRIANGLE), "--aux", "star:root=1"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["aux"]["kind"] == "star"
        assert report["checks"]["passed"] is True

    def test_validation_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"species": ["A"], "vertices": [], "edges": [}')
        code, out, err = self.run(["analyze", str(p)], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "SchemaError"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = self.run(["analyze", "/nonexistent/net.json"], capsys)
        assert code == 2

    def test_analyze_deterministic(self, capsys):
        _, out1, _ = self.run(["analyze", str(TRIANGLE), "--seed", "5"], capsys)
        _, out2, _ = self.run(["analyze", str(TRIANGLE), "--seed", "5"], capsys)
        assert out1 == out2

    def test_certify_deterministic(self, capsys):
        argv = ["certify", str(CYCLE3), "--x", "0.7,1.3", "--seed", "5"]
        _, out1, _ = self.run(argv, capsys)
        _, out2, _ = self.run(argv, capsys)
        assert out1 == out2

    def test_float_mode_flag(self, capsys):
        code, out, _ = self.run(
            ["analyze", str(TRIANGLE), "--mode", "float"], capsys
        )
        assert code == 0
        assert json.loads(out)["mode"] == "float"
