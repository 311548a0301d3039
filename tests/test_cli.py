"""End-to-end tests of the command-line interface, run in process."""

import json
from dataclasses import fields
from fractions import Fraction

import pytest

from grigorchuk import (BuildParams, OptimizerSchedule, parse_graph,
                        verify_graph)
from grigorchuk.automaton import buffer_text
from grigorchuk.cli import _parser, main
from grigorchuk.growth import SubgroupGrowthCheck
from grigorchuk.minforms import SCALE, parse_weights

from conftest import FIXTURE_PATH, replay_potentials

FIXTURE = str(FIXTURE_PATH)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestWordCommands:
    def test_act(self, capsys):
        assert run(capsys, "act", "abab", "0000") == (0, "0110\n", "")

    def test_act_rejects_junk_letters(self, capsys):
        rc, _, err = run(capsys, "act", "xq", "01")
        assert rc == 1
        assert err.startswith("error:")

    def test_act_rejects_junk_string(self, capsys):
        rc, _, err = run(capsys, "act", "a", "012")
        assert rc == 1
        assert "binary string" in err

    def test_reduce(self, capsys):
        assert run(capsys, "reduce", "bc") == (0, "d\n", "")
        assert run(capsys, "reduce", "dd") == (0, "-\n", "")
        assert run(capsys, "reduce", "-") == (0, "-\n", "")

    def test_minform_default_and_explicit_weights(self, capsys):
        assert run(capsys, "minform", "dada") == (0, "adad\n", "")
        rc, out, _ = run(capsys, "minform", "dada",
                         "--weights", "a=1,b=3.33,c=2.8,d=1.06")
        assert (rc, out) == (0, "adad\n")

    @pytest.mark.parametrize("command", [
        ("minform", "c"),
        ("growth", "--max-radius", "2"),
        ("build", "--out", "built.graph"),
        ("optimize", "--graph", FIXTURE, "--out", "weights.txt"),
    ], ids=["minform", "growth", "build", "optimize"])
    def test_non_triangular_weights_rejected(self, capsys, tmp_path,
                                             monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, *command, "--weights", "a=1,b=1,c=5,d=1")
        assert rc == 1
        assert out == ""
        assert "weights must be triangular" in err

    def test_repeated_weight_rejected(self, capsys):
        rc, out, err = run(capsys, "minform", "dada",
                           "--weights", "a=1,a=5,b=1,c=1,d=1")
        assert (rc, out) == (1, "")
        assert err.startswith("error: repeated weight for generator 'a'")

    def test_trivial(self, capsys):
        assert run(capsys, "trivial", "adadadad") == (0, "true\n", "")
        assert run(capsys, "trivial", "ad") == (0, "false\n", "")

    def test_psi(self, capsys):
        assert run(capsys, "psi", "abab") == (0, "(ca,ac)\n", "")

    def test_psi_rejects_odd_a_count(self, capsys):
        rc, _, err = run(capsys, "psi", "ab")
        assert rc == 1
        assert "not in H" in err

    def test_preimage_basic(self, capsys):
        assert run(capsys, "preimage-basic", "ca", "ac") == (0, "abab\n", "")


class TestGrowthCommands:
    def test_growth_default_two_tables(self, capsys):
        rc, out, _ = run(capsys, "growth", "--max-radius", "3")
        assert rc == 0
        assert out == (
            "# a=1 b=1 c=1 d=1\nradius,count\n0,1\n1,5\n2,11\n3,23\n"
            "\n"
            "# a=1 b=3.33 c=2.8 d=1.06\nradius,count\n0,1\n1,2\n2,3\n3,6\n")

    def test_growth_subgroup_json(self, capsys):
        rc, out, _ = run(capsys, "growth", "--weights", "a=1,b=1,c=1,d=1",
                         "--subgroup", "--max-radius", "1", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["tables"][0]["rows"] == [["0", 1], ["1", 4]]

    def test_check_sbgp(self, capsys):
        rc, out, err = run(capsys, "check-sbgp", "--max-radius", "3")
        assert (rc, err) == (0, "")
        assert out == ("radius 0: 0 <= 2 <= 5 ok\n"
                       "radius 1: 1 <= 8 <= 11 ok\n"
                       "radius 2: 5 <= 8 <= 23 ok\n"
                       "radius 3: 11 <= 14 <= 40 ok\n")

    def test_check_sbgp_json(self, capsys):
        rc, out, err = run(capsys, "check-sbgp", "--max-radius", "2", "--json")
        assert (rc, err) == (0, "")
        rows = [dict(radius=r, lower=lo, middle=mid, upper=up, holds=True)
                for r, lo, mid, up in [("0", 0, 2, 5), ("1", 1, 8, 11),
                                       ("2", 5, 8, 23)]]
        assert json.loads(out) == {"checks": rows}

    def test_check_sbgp_failure(self, capsys, monkeypatch):
        # a row outside its sandwich prints FAIL and exits 1
        monkeypatch.setattr(
            "grigorchuk.cli.check_subgroup_growth",
            lambda *args: [SubgroupGrowthCheck(SCALE, 1, 12, 11)])
        rc, out, err = run(capsys, "check-sbgp", "--max-radius", "1")
        assert rc == 1
        assert out == "radius 1: 1 <= 12 <= 11 FAIL\n"
        assert err == "error: subgroup growth sandwich failed\n"

    @pytest.mark.parametrize("command", ["growth", "check-sbgp"])
    def test_negative_max_radius_rejected(self, capsys, command):
        rc, out, err = run(capsys, command, "--max-radius", "-1")
        assert (rc, out) == (1, "")
        assert err.startswith("error: --max-radius")

    def test_alpha(self, capsys):
        assert run(capsys, "alpha", "4") == (0, "0.5\n", "")
        assert run(capsys, "alpha", "2") == (0, "1\n", "")
        assert run(capsys, "alpha", "3.83414") == (0, "0.515756\n", "")

    def test_alpha_rejects_small_eta(self, capsys):
        rc, _, err = run(capsys, "alpha", "1")
        assert rc == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_alpha_rejects_non_finite_eta(self, capsys, eta):
        assert run(capsys, "alpha", eta) == (1, "",
                                             "error: eta must be finite\n")

    def test_bound(self, capsys):
        rc, out, _ = run(capsys, "bound", "1000", "--eta", "4", "--shift",
                         "12", "--base-radius", "8", "--base-count", "271")
        assert rc == 0
        assert out == "log gamma lower bound: 35.1129 (doublings: 3)\n"

    def test_bound_json(self, capsys):
        rc, out, _ = run(capsys, "bound", "200", "--eta", "4", "--shift",
                         "12", "--base-radius", "8", "--base-count", "271",
                         "--json")
        assert rc == 0
        assert json.loads(out)["doublings"] == 2

    def test_bound_rejects_flat_radius(self, capsys):
        rc, out, err = run(capsys, "bound", "100", "--eta", "1", "--shift",
                           "0", "--base-radius", "1", "--base-count", "5")
        assert (rc, out) == (1, "")
        assert err.startswith("error: no bound")

    def test_bound_seed_count_beyond_float(self, capsys):
        # 10^400 has no float, but its logarithm does
        rc, out, err = run(capsys, "bound", "100", "--eta", "4", "--shift",
                           "12", "--base-radius", "8", "--base-count",
                           "1" + "0" * 400)
        assert (rc, err) == (0, "")
        assert out == "log gamma lower bound: 1840.68 (doublings: 1)\n"


class TestGraphCommands:
    def test_verify_graph(self, capsys):
        rc, out, err = run(capsys, "verify-graph", FIXTURE)
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert "input states: 12" in lines
        assert "swapped successors: 23" in lines
        assert lines[-1] == "violations: 0"

    def test_verify_graph_json(self, capsys):
        rc, out, _ = run(capsys, "verify-graph", FIXTURE, "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["transitions"] == 237

    def test_verify_graph_rejects_corruption(self, capsys, tmp_path):
        bad = FIXTURE_PATH.read_text().replace(
            "out acacacac -> (-,-)", "out acacacad -> (-,-)", 1)
        target = tmp_path / "bad.graph"
        target.write_text(bad)
        rc, out, err = run(capsys, "verify-graph", str(target))
        assert rc == 1
        assert "graph verification failed" in err
        assert "violations: 1" in out

    def test_verify_graph_prints_note(self, capsys, tmp_path):
        # a minimal-weight label in another spelling is noted, not refused
        respelled = FIXTURE_PATH.read_text().replace(
            "out acacacac -> (-,-)", "out cacacaca -> (-,-)", 1)
        target = tmp_path / "respelled.graph"
        target.write_text(respelled)
        rc, out, err = run(capsys, "verify-graph", str(target))
        assert (rc, err) == (0, "")
        assert out.splitlines()[-2:] == [
            "note: output 'cacacaca' at (adad,adad) is minimal-weight but "
            "not the canonical spelling",
            "violations: 0"]

    def test_verify_graph_rejects_moved_start(self, capsys, tmp_path):
        # runs start at (-,-); flagged elsewhere, the file is refused where
        # it loses the flags, before any transduce could get stuck
        bad = FIXTURE_PATH.read_text().replace(
            "state (-,-) input initial final\nstate (da,da) input\n",
            "state (-,-) input\nstate (da,da) input initial final\n")
        target = tmp_path / "moved.graph"
        target.write_text(bad)
        rc, out, err = run(capsys, "verify-graph", str(target))
        assert (rc, out) == (1, "")
        assert err.startswith("error: line 2: no initial state")

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "verify-graph", str(tmp_path / "nope.graph"))
        assert rc == 2
        assert err.startswith("error:")

    def test_eta(self, capsys):
        rc, out, _ = run(capsys, "eta", FIXTURE)
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "4.23361"
        assert all(line.startswith("cycle: ") for line in lines[1:])
        assert len(lines) > 1

    def test_eta_json_witness_consistent(self, capsys):
        rc, out, _ = run(capsys, "eta", FIXTURE, "--json")
        assert rc == 0
        payload = json.loads(out)
        recomputed = 2 * payload["out_weight"] / (
            payload["in_weight0"] + payload["in_weight1"])
        assert recomputed == pytest.approx(payload["eta"], abs=1e-9)

    def test_eta_json_certificate_replays(self, capsys):
        # the exact eta, its witness's weights and the potentials certify
        # the ratio from the JSON and the parsed file alone
        rc, out, _ = run(capsys, "eta", FIXTURE, "--json")
        payload = json.loads(out)
        eta = Fraction(payload["eta_exact"])
        assert (rc, eta, payload["eta"]) == (0, Fraction(6651, 1571),
                                             float(eta))
        graph = parse_graph(FIXTURE_PATH.read_text())
        potentials = payload["potentials"]
        assert list(potentials) == [buffer_text(b) for b in graph.states]
        replay_potentials(graph, eta, {b: potentials[buffer_text(b)]
                                       for b in graph.states})
        witness = [round(payload[k] * SCALE)
                   for k in ("out_weight", "in_weight0", "in_weight1")]
        assert Fraction(2 * witness[0], witness[1] + witness[2]) == eta

    def test_transduce(self, capsys):
        rc, out, _ = run(capsys, "transduce", FIXTURE, "dada", "dada")
        assert rc == 0
        assert out == "cacabacacabacacacacabacacabacacacacacaca\n"

    def test_transduce_lambda(self, capsys):
        assert run(capsys, "transduce", FIXTURE, "-", "-") == (0, "-\n", "")

    def test_transduce_json(self, capsys):
        rc, out, _ = run(capsys, "transduce", FIXTURE, "-", "b", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload == {"output": "d", "used_special": True,
                           "consumed_chunks": 0}

    def test_transduce_rejects_pair_outside_image(self, capsys):
        rc, _, err = run(capsys, "transduce", FIXTURE, "da", "ca")
        assert rc == 1
        assert err.startswith("error:")


class TestBuildOptimize:
    @pytest.mark.parametrize("argv, params", [
        (["build", "--weights", "unit", "--out", "m.graph"], BuildParams),
        (["optimize", "--graph", "m.graph", "--out", "w.txt"],
         OptimizerSchedule),
    ], ids=["build", "optimize"])
    def test_defaults_are_the_dataclass_defaults(self, argv, params):
        # each numeric default of the dataclass is its option's default
        args = _parser().parse_args(argv)
        defaults = {f.name: f.default for f in fields(params)
                    if isinstance(f.default, (int, float))}
        assert {name: getattr(args, name) for name in defaults} == defaults

    def test_build_then_inspect(self, capsys, tmp_path):
        out_path = tmp_path / "built.graph"
        rc, out, _ = run(capsys, "build", "--weights",
                         "a=1,b=2.7,c=2.0,d=1.3", "--out", str(out_path))
        assert rc == 0
        assert out.splitlines()[0] == "candidate outputs: 18221"
        graph = parse_graph(out_path.read_text())
        assert len(graph.states) == 182
        assert verify_graph(graph).ok
        rc, out, _ = run(capsys, "eta", str(out_path))
        assert rc == 0
        assert out.splitlines()[0] == "4.12389"

    def test_build_budget_exceeded(self, capsys, tmp_path):
        rc, _, err = run(capsys, "build", "--weights",
                         "a=1,b=2.7,c=2.0,d=1.3", "--budget", "50",
                         "--out", str(tmp_path / "x.graph"))
        assert rc == 1
        assert "budget exceeded" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_build_rejects_budget_below_one(self, capsys, tmp_path, budget):
        # rejected before any candidate is settled, not as an exhausted
        # budget after the candidate table is built
        rc, out, err = run(capsys, "build", "--weights",
                           "a=1,b=2.7,c=2.0,d=1.3", "--budget", budget,
                           "--out", str(tmp_path / "x.graph"))
        assert (rc, out) == (1, "")
        assert err == "error: budget must be at least 1\n"
        assert not (tmp_path / "x.graph").exists()

    def test_build_rejects_infinite_delta(self, capsys, tmp_path):
        rc, out, err = run(capsys, "build", "--weights",
                           "a=1,b=2.7,c=2.0,d=1.3", "--delta", "inf",
                           "--max-len", "8",
                           "--out", str(tmp_path / "x.graph"))
        assert (rc, out) == (1, "")
        assert err == "error: delta must be finite\n"
        assert not (tmp_path / "x.graph").exists()

    def test_optimize_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "weights.txt"
        rc, out, err = run(capsys, "optimize", "--graph", FIXTURE,
                           "--schedule", "0.1", "--max-iterations", "6",
                           "--out", str(out_path))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "iteration,coordinate,step,eta,accepted"
        assert 1 <= len(lines) - 1 <= 6
        assert err.startswith("eta ")
        written = parse_weights(out_path.read_text())
        assert written["a"] == 10000

    def test_optimize_from_a_not_one(self, capsys, tmp_path):
        out_path = tmp_path / "weights.txt"
        rc, _, err = run(capsys, "optimize", "--graph", FIXTURE,
                         "--weights", "a=3 b=2 c=1 d=1",
                         "--out", str(out_path))
        assert (rc, err) == (0, "eta 3.93124\n")
        assert out_path.read_text() == "a=1 b=6.1425 c=4.8968 d=3.2456\n"

    @pytest.mark.parametrize("schedule", ["inf", "nan", "0.00001"])
    def test_optimize_rejects_off_grid_steps(self, capsys, tmp_path,
                                             schedule):
        out_path = tmp_path / "weights.txt"
        rc, out, err = run(capsys, "optimize", "--graph", FIXTURE,
                           "--schedule", schedule, "--out", str(out_path))
        assert (rc, out) == (1, "")
        assert err.startswith("error: step sizes must be")
        assert len(err.splitlines()) == 1
        assert not out_path.exists()
