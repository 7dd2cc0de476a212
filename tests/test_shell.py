import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from crnlap import bdi_membership, bdi_report, mass_action_rhs
from crnlap.cli import _json_default, run_command
from crnlap.crn import MAX_MONOMIAL_BITS
from crnlap.errors import SchemaError, SemanticError
from crnlap.io import (
    NetworkDocument,
    parse_document,
    parse_network,
    parse_number,
)

from conftest import SAMPLE_DIR
from generators import random_wr_network
from oracles import bdi_member_by_orders, rank, tie_chain_orders

TRIANGLE = SAMPLE_DIR / "triangle.json"
CYCLE3 = SAMPLE_DIR / "cycle3.json"
TWO_COMPONENT = SAMPLE_DIR / "two_component.json"
SRC = SAMPLE_DIR.parent / "src"


def _cli(*argv: str):
    """`crnlap argv` in a fresh interpreter where a numpy RuntimeWarning is
    an error, so a refusal must come before any overflow."""
    path = os.pathsep.join(q for q in (str(SRC), os.environ.get("PYTHONPATH")) if q)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "crnlap.cli", *argv],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": path},
    )


def _cli_process(tmp_path, doc: dict, cmd: str, *args: str):
    """`crnlap cmd <doc> args` in a fresh interpreter (`_cli`)."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    return _cli(cmd, str(p), *args)


def _dimer_doc(k: str) -> dict:
    return {
        "species": ["A"],
        "vertices": [{"id": "1", "complex": {"A": 1}}, {"id": "2", "complex": {"A": 2}}],
        "edges": [{"from": "1", "to": "2", "k": k}, {"from": "2", "to": "1", "k": 1}],
    }


def _one_way_doc(k) -> dict:
    """A -> 2A alone, labeled k: not weakly reversible."""
    doc = _dimer_doc(k)
    return dict(doc, edges=doc["edges"][:1])


def _complex_doc(a1, a2) -> dict:
    """A <-> 2A with unit labels, its complexes' A entries replaced by a1 and a2."""
    return dict(_dimer_doc("1"), vertices=[{"id": "1", "complex": {"A": a1}},
                                          {"id": "2", "complex": {"A": a2}}])


# a deficiency-one instance whose generic rates admit no CBE
DEFICIENCY_ONE_DOC = {
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


FARKAS_OVERFLOW_DOC = {
    "species": ["A", "B"],
    "vertices": [
        {"id": "1", "complex": {}},
        {"id": "2", "complex": {"A": 1, "B": 1}},
        {"id": "3", "complex": {"A": 2, "B": 3}},
    ],
    "edges": [
        {"from": "1", "to": "2", "k": 1},
        {"from": "2", "to": "3", "k": 1},
        {"from": "3", "to": "1", "k": 1},
    ],
}


# complexes of size ~1e-300: the log-coordinate witness z is ~1e300, so
# exp(z) overflows
CBE_WITNESS_OVERFLOW_DOC = {
    "species": ["A", "B"],
    "vertices": [
        {"id": "1", "complex": {}},
        {"id": "2", "complex": {"A": 1e-300, "B": 1e-300}},
        {"id": "3", "complex": {"A": 2e-300, "B": 3e-300}},
    ],
    "edges": [
        {"from": "1", "to": "2", "k": 2},
        {"from": "2", "to": "3", "k": 5},
        {"from": "3", "to": "1", "k": 1},
    ],
}


DEGREE_300_DOC = {
    "species": ["A", "B"],
    "vertices": [
        {"id": "1", "complex": {"A": 300}},
        {"id": "2", "complex": {"B": 300}},
        {"id": "3", "complex": {"A": 150, "B": 150}},
    ],
    "edges": [
        {"from": "1", "to": "2", "k": 1},
        {"from": "2", "to": "3", "k": 1},
        {"from": "3", "to": "1", "k": 1},
    ],
}


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

    def test_duplicate_vertex_id_reported_at_vertices(self):
        text = json.dumps(
            {
                "species": ["A"],
                "vertices": [
                    {"id": "1", "complex": {"A": 1}},
                    {"id": "1", "complex": {"A": 2}},
                ],
                "edges": [{"from": "1", "to": "1", "k": 1}],
            }
        )
        with pytest.raises(SemanticError) as err:
            parse_network(text)
        assert err.value.path == "vertices"

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
        assert parse_number("0", "p", mode="float") == 0.0
        assert parse_number("1e-300", "p", mode="float") == 1e-300

    @pytest.mark.parametrize(
        "value", ["1e400", "-1e400", "1e-400", {"num": 1, "den": 10**400}, 10**400],
        ids=["1e400", "-1e400", "1e-400", "pair-1e-400", "int-1e400"],
    )
    def test_float_mode_refuses_values_outside_float64(self, value):
        # beyond float64, or nonzero but rounding to 0: refused with the
        # path, not an OverflowError or a silent 0
        with pytest.raises(SemanticError, match="outside the float64 range") as err:
            parse_number(value, "edges[0].k", mode="float")
        assert err.value.path == "edges[0].k"
        assert parse_number(value, "p") != 0  # exact in auto mode

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
        p = tmp_path / "def1.json"
        p.write_text(json.dumps(DEFICIENCY_ONE_DOC))
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
        proc = _cli_process(tmp_path, doc, "equilibria")
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["type"] == "FloatRangeError"

    @pytest.mark.parametrize(
        "doc, argv",
        [
            # A <-> 2A with an exact label that float64 cannot hold: the
            # tree constant K_2 = k becomes inf or 0 as a float
            (_dimer_doc("1e400"), ["equilibria"]),
            (_dimer_doc("1e-400"), ["equilibria"]),
            # degree-300 complexes: x^Y, and so f_k(x), overflows at x
            (DEGREE_300_DOC, ["bdi-check", "--mode", "float", "--x", "20.0,10.0",
                              "--x-star", "1,1"]),
            # the first Farkas multiplier is 1.41 times |v|_inf = 1.7e308
            (FARKAS_OVERFLOW_DOC, ["bdi-check", "--x", "2,2", "--v=-1.7e308,-1e308"]),
            # x^(0, 2) = 1e400 overflows: b, and so value, leave float64
            (json.loads(CYCLE3.read_text()), ["certify", "--mode", "float",
                                              "--x", "1e-200,1e200"]),
            # the equilibrium witness exp(z) overflows, whoever solves for it
            (CBE_WITNESS_OVERFLOW_DOC, ["equilibria", "--mode", "float"]),
            (CBE_WITNESS_OVERFLOW_DOC, ["bdi-check", "--mode", "float", "--x", "2,2"]),
        ],
        ids=["label-1e400", "label-1e-400", "degree-300", "multipliers", "certify-b",
             "cbe-witness", "cbe-witness-bdi"],
    )
    def test_beyond_float_range_one_error_exit_2(self, doc, argv, tmp_path):
        proc = _cli_process(tmp_path, doc, *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["type"] == "FloatRangeError"

    def test_certify_log_ratio_beyond_float_range(self, tmp_path):
        # x / x* = 1e-350 underflows to 0; ln x - ln x* does not
        proc = _cli_process(tmp_path, _dimer_doc(1e150), "certify", "--mode", "float",
                            "--x", "1e-200", "--x-star", "1e150")
        assert proc.returncode == 0 and proc.stderr == ""
        assert "Infinity" not in proc.stdout and "NaN" not in proc.stdout
        report = json.loads(proc.stdout)
        assert report["a"] == [math.log(1e150) - math.log(1e-200)]
        assert math.isfinite(report["value"]) and report["verdict"] == "strict_decrease"

    @pytest.mark.parametrize(
        "x, want_a",
        [("1.000000000000001,0.999999999999999", 3e-15),
         ("1.0000000000001,0.9999999999999", 3e-13)],
        ids=["1e-15", "1e-13"],
    )
    def test_certify_near_the_manifold(self, x, want_a):
        # exact states off the manifold (exact is_cbe rejects them): a and b
        # come from the same exact scaled monomials, so no rounding in
        # ln x - ln x* reads as a wrong sign or as a zero b
        proc = _cli("certify", str(CYCLE3), "--x-star", "1,1", "--x", x)
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["verdict"] == "strict_decrease" and report["value"] < 0
        assert report["a"][0] == pytest.approx(want_a, rel=1e-12)
        assert all(v > 0 for v in report["a"] + report["b"])

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

    def test_simulate_rejects_non_equilibrium_x_star(self):
        proc = _cli("simulate", str(CYCLE3), "--x0", "0.5,1.5", "--t", "1", "--x-star", "2,2")
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["type"] == "NotACbeError"

    def test_no_equilibrium_within_tolerance_exit_3(self, tmp_path, capsys):
        # the running example with K_2^2 = K_1 K_3 (1 + 5e-13): no complex-
        # balanced equilibrium, so nothing is solved for and no x* is advised
        doc = dict(DEFICIENCY_ONE_DOC, edges=[
            {"from": "1", "to": "2", "k": 1}, {"from": "2", "to": "1", "k": 1},
            {"from": "2", "to": "3", "k": 1}, {"from": "3", "to": "1", "k": "2.000000000001"},
        ])
        p = tmp_path / "near.json"
        p.write_text(json.dumps(doc))
        code, out, _ = self.run(["equilibria", str(p)], capsys)
        assert code == 3 and json.loads(out)["status"] == "infeasible"
        code, out, err = self.run(["certify", str(p), "--x", "0.5"], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "NoConvergenceError", "message": "network has no complex-balanced equilibrium"
        }

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
        "doc, argv, kind, message",
        [
            (None, ["simulate", "--x0", "0.5,1.5", "--t", "1", "--rtol", "-1"],
             "SemanticError", "rtol"),
            (None, ["simulate", "--x0", "0.5,1.5", "--t", "1", "--atol=-1e-3"],
             "SemanticError", "atol"),
            (None, ["simulate", "--x0", "0.5,1.5", "--t", "1", "--rtol", "nan"],
             "SemanticError", "rtol"),
            (None, ["simulate", "--x0", "0.5,1.5", "--t", "1", "--rtol", "inf"],
             "SemanticError", "rtol"),
            (None, ["simulate", "--x0", "0.5,1.5", "--t", "1", "--atol", "0", "--rtol", "0"],
             "SemanticError", "not both be 0"),
            (None, ["equilibria", "--samples", "-2"], "SemanticError", "count=-2"),
            (None, ["equilibria", "--samples", "2", "--seed", "-1"],
             "SemanticError", "seed=-1"),
            # numbers that float64 cannot hold, in an option or a document
            (None, ["bdi-check", "--x", "0.5,0.5", "--v", "1e400,1"],
             "FloatRangeError", "v leaves the float64 range"),
            (_dimer_doc("1e400"), ["analyze", "--mode", "float"],
             "SemanticError", "outside the float64 range"),
            (_dimer_doc("1e-400"), ["analyze", "--mode", "float"],
             "SemanticError", "outside the float64 range"),
            (dict(_dimer_doc("1"), vertices=[{"id": "1", "complex": {"A": "1e-400"}},
                                             {"id": "2", "complex": {"A": 2}}]),
             ["analyze", "--mode", "float"], "SemanticError", "outside the float64 range"),
        ],
        ids=["rtol-negative", "atol-negative", "rtol-nan", "rtol-inf", "both-zero",
             "samples-negative", "seed-negative", "v-1e400", "k-1e400-float",
             "k-1e-400-float", "complex-1e-400-float"],
    )
    def test_bad_numeric_option_exit_2(self, doc, argv, kind, message, tmp_path):
        # a fresh process with numpy warnings as errors: the refusal comes
        # before the integrator or the sampler runs
        proc = _cli_process(tmp_path, doc or json.loads(CYCLE3.read_text()), *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == kind and message in error["message"]

    def test_samples_past_the_limit_refused_at_once(self):
        # 10^21 points would grow a list without bound: refused before any is drawn
        start = time.perf_counter()
        proc = _cli("equilibria", str(CYCLE3), "--samples", "1000000000000000000000")
        assert time.perf_counter() - start < 2
        assert proc.returncode == 3 and proc.stdout == ""
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "DimensionTooLargeError" and "MAX_SAMPLES=10000" in error["message"]

    @pytest.mark.parametrize("cmd", ["certify", "bdi-check"])
    @pytest.mark.parametrize("exponent", ["1e300", MAX_MONOMIAL_BITS + 1], ids=["1e300", "past"])
    def test_monomial_bits_past_the_limit_refused_at_once(self, cmd, exponent, tmp_path):
        # x = 1/2 costs one bit per unit of A's exponent: 2^-(10^300) would
        # grow without bound, so it is refused before any power; x* = 1 costs none
        start = time.perf_counter()
        proc = _cli_process(tmp_path, _complex_doc(1, exponent), cmd, "--x", "0.5", "--x-star", "1")
        assert time.perf_counter() - start < 2
        assert proc.returncode == 3 and proc.stdout == ""
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "DimensionTooLargeError"
        assert f"MAX_MONOMIAL_BITS={MAX_MONOMIAL_BITS}" in error["message"]

    @pytest.mark.parametrize("cmd", ["certify", "bdi-check"])
    def test_monomial_bits_at_the_limit_run(self, cmd, tmp_path):
        proc = _cli_process(tmp_path, _complex_doc(1, MAX_MONOMIAL_BITS), cmd, "--x", "0.5", "--x-star", "1")
        assert proc.returncode == 0 and proc.stderr == ""

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (_dimer_doc("1e400"), ["simulate", "--x0", "0.5", "--t", "1"], "a rate constant"),
            (_dimer_doc("1e400"), ["certify", "--x", "0.5", "--x-star", "1"],
             "complex-balance residual"),
            (_dimer_doc("1e400"), ["bdi-check", "--x", "0.5", "--x-star", "1"],
             "complex-balance residual"),
            (_complex_doc(2, "1e400"), ["equilibria"], "a complex entry"),
            (_complex_doc(2, "1e400"), ["certify", "--x", "0.5"], "a complex entry"),
            (_complex_doc(2, "1e400"), ["certify", "--x", "0.5", "--x-star", "1"],
             "a complex entry"),
            (_complex_doc(2, "1e400"), ["simulate", "--x0", "0.5", "--t", "1"], "a complex entry"),
            (_complex_doc(2, "1e400"), ["bdi-check", "--x", "0.5"], "a complex entry"),
            (dict(_dimer_doc("1e400"), edges=[{"from": "1", "to": "2", "k": 0.5},
                                              {"from": "2", "to": "1", "k": "1e400"}]),
             ["analyze"], "label 2->1"),
            (dict(_dimer_doc("1e400"), edges=[{"from": "1", "to": "2", "k": 0.5},
                                              {"from": "2", "to": "1", "k": "1e-400"}]),
             ["analyze"], "label 2->1"),
            (_complex_doc(1.0, "1e400"), ["analyze"], "a complex entry"),
            # json reads NaN and Infinity as raw floats: refused where they enter
            (_one_way_doc(math.nan), ["analyze"], "label 1->2"),
            (_one_way_doc(math.inf), ["analyze"], "label 1->2"),
            (_complex_doc(1, math.nan), ["analyze"], "a complex entry"),
            (_complex_doc(1, math.inf), ["analyze"], "a complex entry"),
            (_complex_doc(1, math.inf), ["equilibria"], "a complex entry"),
        ],
        ids=["simulate-k-1e400", "certify-k-1e400", "bdi-k-1e400", "equilibria-y-1e400",
             "certify-y-1e400", "certify-y-1e400-x-star", "simulate-y-1e400", "bdi-y-1e400",
             "analyze-mixed-k-1e400", "analyze-mixed-k-1e-400", "analyze-mixed-y-1e400",
             "analyze-k-nan", "analyze-k-inf", "analyze-y-nan", "analyze-y-inf",
             "equilibria-y-inf"],
    )
    def test_float_view_refusals_exit_2(self, doc, argv, message, tmp_path):
        # numbers that float64 cannot hold, met on a float path: one JSON
        # FloatRangeError, before any overflow, and no traceback
        proc = _cli_process(tmp_path, doc, *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "FloatRangeError"
        assert f"{message} is outside the float64 range" in error["message"]

    @pytest.mark.parametrize("doc", [_dimer_doc("1e400"), None], ids=["k-1e400", "y-1e400"])
    def test_exact_analyze_beyond_float64(self, doc, tmp_path):
        # the float view is lazy: exact analysis never converts
        proc = _cli_process(tmp_path, doc or _complex_doc(2, "1e400"), "analyze")
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["mode"] == "exact"

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["decompose"], ["certify", "--x", "0.5,0.5"],
         ["bdi-check", "--x", "0.5,0.5"], ["simulate", "--x0", "0.5,0.5", "--t", "1"]],
        ids=["analyze", "decompose", "certify", "bdi-check", "simulate"],
    )
    def test_seed_only_where_read(self, argv, capsys):
        # only equilibria samples; elsewhere --seed is an unknown option
        with pytest.raises(SystemExit) as exit_:
            run_command([argv[0], str(CYCLE3), *argv[1:], "--seed", "5"])
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""

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

    @staticmethod
    def _cycle3_rates_1e200(tmp_path) -> str:
        doc = json.loads(CYCLE3.read_text())
        for edge in doc["edges"]:
            edge["k"] = 1e200
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("cmd", ["analyze", "decompose"])
    def test_float_tree_constants_out_of_range_exit_2(self, cmd, tmp_path, capsys):
        code, out, err = self.run([cmd, self._cycle3_rates_1e200(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "FloatRangeError"

    def test_float_tree_constants_out_of_range_equilibria_witness(self, tmp_path, capsys):
        # K = 1e400 leaves float64, but equilibria reads only the exact ratios
        # K_b / K_a = 1, so it finds x* = (1, 1), which balances exactly
        code, out, _ = self.run(["equilibria", self._cycle3_rates_1e200(tmp_path)], capsys)
        report = json.loads(out)
        assert code == 0 and report["status"] == "found"
        assert (report["witness"], report["log_residual"], report["balance_residual"]) == (
            [1.0, 1.0], 0.0, 0.0
        )

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

    def test_stoichiometric_dim_is_rank_n(self, tmp_path, capsys):
        # analyze reports dim S as n - dim S-perp (rank-nullity); both
        # modes must give rank N, exact Gaussian elimination on Fractions
        rng = random.Random(23)
        path = tmp_path / "net.json"
        deficient = 0
        for _ in range(60):
            net = random_wr_network(rng)
            g = net.graph
            doc = NetworkDocument(
                species=list(net.species),
                vertices=[(v, dict(zip(net.species, net.complexes[:, j])))
                          for j, v in enumerate(g.vertex_ids)],
                edges=[(a, b, g.labels[(a, b)]) for a, b in g.edges],
            )
            path.write_text(doc.serialize())
            want = rank(net.reactions)
            deficient += want < net.n_species
            for mode in ("exact", "float"):
                code, out, _ = self.run(["analyze", str(path), "--mode", mode], capsys)
                report = json.loads(out)
                assert code == 0 and report["mode"] == mode
                assert report["stoichiometric_dim"] == want
                assert report["conservation_dim"] == net.n_species - want
        assert deficient >= 10  # S-perp is nontrivial on many of them

    def test_analyze_deterministic(self, capsys):
        _, out1, _ = self.run(["analyze", str(TRIANGLE)], capsys)
        _, out2, _ = self.run(["analyze", str(TRIANGLE)], capsys)
        assert out1 == out2

    def test_certify_deterministic(self, capsys):
        argv = ["certify", str(CYCLE3), "--x", "0.7,1.3"]
        _, out1, _ = self.run(argv, capsys)
        _, out2, _ = self.run(argv, capsys)
        assert out1 == out2

    def test_float_mode_flag(self, capsys):
        code, out, _ = self.run(
            ["analyze", str(TRIANGLE), "--mode", "float"], capsys
        )
        assert code == 0
        assert json.loads(out)["mode"] == "float"


# the top-level keys of each report, and of the records nested in them
DECOMPOSITION_KEYS = {"aux", "core", "residual", "checks"}
CHECKS_KEYS = {"residual_ok", "invertible", "chain_signs_ok", "star_signs_ok", "passed"}
AUX_KEYS = {"edges", "kind"}
TRAJECTORY_KEYS = {"times", "states", "lyapunov", "accepted", "rejected"}
CONE_KEYS = {"edges", "contains", "lineality_products", "multipliers", "margin"}
SIMULATE_KEYS = {"command", "mode", "t_end", "final_time", "final_state", "final_lyapunov",
                 "accepted", "rejected"}
ANALYZE_KEYS = {"command", "mode", "species", "components", "weakly_reversible", "laplacian",
                "stoichiometric_dim", "conservation_dim"}
EQUILIBRIA_KEYS = {"command", "mode", "status", "log_residual"}
FOUND_KEYS = EQUILIBRIA_KEYS | {"witness", "balance_residual", "balance_scale"}


class TestReportRecords:
    """Reports serialize library records by field: a field added to a record
    would enter a report, so each command's keys are pinned."""

    def run(self, argv, capsys):
        code = run_command(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_record_encodes_its_fields_only(self, triangle_net):
        consts = triangle_net.tree_constants()
        consts.as_float()  # fills the cache kept beside the field
        assert set(json.loads(json.dumps(consts, default=_json_default))) == {"values"}

    def test_analyze_keys(self, tmp_path, capsys):
        code, report = self.run(["analyze", str(TRIANGLE)], capsys)
        assert code == 0
        assert set(report) == ANALYZE_KEYS | {"tree_constants", "decomposition"}
        assert set(report["tree_constants"]) == {"enumeration", "minors"}
        dec = report["decomposition"]
        assert set(dec) == DECOMPOSITION_KEYS
        assert set(dec["checks"]) == CHECKS_KEYS and set(dec["aux"]) == AUX_KEYS
        p = tmp_path / "one_way.json"
        p.write_text(json.dumps(_one_way_doc(1)))
        code, report = self.run(["analyze", str(p)], capsys)
        assert code == 0 and set(report) == ANALYZE_KEYS

    @pytest.mark.parametrize("aux", [None, "star:root=1;root=4"])
    def test_decompose_keys(self, aux, capsys):
        argv = ["decompose", str(TWO_COMPONENT)] + (["--aux", aux] if aux else [])
        code, report = self.run(argv, capsys)
        assert code == 0
        assert set(report) == {"command", "mode"} | DECOMPOSITION_KEYS
        assert set(report["checks"]) == CHECKS_KEYS and set(report["aux"]) == AUX_KEYS
        assert report["aux"]["kind"] == ("star" if aux else "chain")
        assert all(len(e) == 2 for e in report["aux"]["edges"])

    def test_equilibria_keys(self, tmp_path, capsys):
        code, report = self.run(["equilibria", str(TWO_COMPONENT)], capsys)
        assert code == 0 and set(report) == FOUND_KEYS
        argv = ["equilibria", str(TWO_COMPONENT), "--samples", "2"]
        code, report = self.run(argv, capsys)
        assert code == 0 and set(report) == FOUND_KEYS | {"manifold_samples"}
        p = tmp_path / "def1.json"
        p.write_text(json.dumps(DEFICIENCY_ONE_DOC))
        code, report = self.run(["equilibria", str(p)], capsys)
        assert code == 3 and set(report) == EQUILIBRIA_KEYS

    def test_certify_keys(self, capsys):
        code, report = self.run(["certify", str(CYCLE3), "--x", "0.5,0.5"], capsys)
        assert code == 0
        assert set(report) == {"command", "mode", "x", "x_star", "aux", "a", "b", "core",
                               "value", "verdict", "witness_edge", "lyapunov_value"}
        assert set(report["aux"]) == AUX_KEYS and len(report["witness_edge"]) == 2

    @pytest.mark.parametrize("x, on_manifold", [("0.5,0.5", False), ("1,1", True)])
    def test_bdi_check_keys(self, x, on_manifold, capsys):
        code, report = self.run(["bdi-check", str(CYCLE3), "--x", x], capsys)
        assert code == 0 and report["on_manifold"] is on_manifold
        assert set(report) == {"command", "mode", "x", "v", "on_manifold", "member", "cone"}
        if on_manifold:
            assert report["cone"] is None
        else:
            assert set(report["cone"]) == CONE_KEYS

    def test_simulate_keys(self, tmp_path, capsys):
        argv = ["simulate", str(CYCLE3), "--x0", "0.5,1.5", "--t", "1"]
        code, report = self.run(argv, capsys)
        assert code == 0 and set(report) == SIMULATE_KEYS | {"trajectory"}
        assert set(report["trajectory"]) == TRAJECTORY_KEYS
        out = tmp_path / "traj.json"
        code, written = self.run(argv + ["--out", str(out)], capsys)
        assert code == 0 and set(written) == SIMULATE_KEYS | {"trajectory_file"}
        assert json.loads(out.read_text()) == report["trajectory"]


class TestUnusablePaths:
    @pytest.mark.parametrize(
        "case, kind",
        [
            ("network-is-directory", "IsADirectoryError"),
            ("not-utf-8", "UnicodeDecodeError"),
            ("out-is-directory", "IsADirectoryError"),
            ("simulate-out-is-directory", "IsADirectoryError"),
            ("missing", "FileNotFound"),
        ],
    )
    def test_unusable_path_exit_2(self, case, kind, tmp_path):
        doc = tmp_path / "latin-1.json"
        doc.write_bytes(b'{"species": ["\xe9"], "vertices": [], "edges": []}')
        argv = {
            "network-is-directory": ["analyze", str(tmp_path)],
            "not-utf-8": ["analyze", str(doc)],
            "out-is-directory": ["analyze", str(CYCLE3), "--out", str(tmp_path)],
            "simulate-out-is-directory": ["simulate", str(CYCLE3), "--x0", "0.5,1.5",
                                          "--t", "1", "--out", str(tmp_path)],
            "missing": ["analyze", str(tmp_path / "missing.json")],
        }[case]
        proc = _cli(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == kind


class TestReadme:
    def test_library_example_runs(self, capsys):
        # the README's python block is documentation of the API: run it
        text = (SAMPLE_DIR.parent / "README.md").read_text(encoding="utf-8")
        blocks = text.split("```python\n")[1:]
        assert len(blocks) == 1
        exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("strict_decrease -0.4332")
