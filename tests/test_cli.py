import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from dolearn.cli import UsageError, dispatch, format_significant, parse_assignment
from dolearn.errors import FormatError
from dolearn.learn import BayesNetModel, save_learned_model
from dolearn.model import parse_samples_csv


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def pipeline(tmp_path, capsys):
    """gen-graph -> gen-model -> sample chain shared by several tests."""
    graph = tmp_path / "g.json"
    model = tmp_path / "m.json"
    samples = tmp_path / "s.csv"
    assert dispatch(["gen-graph", "--nodes", "5", "--in-degree", "2", "--ccomp-size", "2",
                     "--x-var", "0", "--seed", "3", "--out", str(graph)]) == 0
    assert dispatch(["gen-model", "--graph", str(graph), "--lambda", "0.25", "--seed", "4",
                     "--out", str(model)]) == 0
    assert dispatch(["sample", "--model", str(model), "--m", "20000", "--seed", "5",
                     "--out", str(samples)]) == 0
    capsys.readouterr()
    return graph, model, samples


class TestParseAssignment:
    def test_basic(self):
        assert parse_assignment("x=0,y=1", ["x", "y"], 2) == [0, 1]

    def test_order_insensitive(self):
        assert parse_assignment("y=1,x=0", ["x", "y"], 2) == [0, 1]

    def test_duplicate_rejected(self):
        with pytest.raises(UsageError, match="duplicate"):
            parse_assignment("x=0,x=1", ["x"], 2)

    def test_range_rejected(self):
        with pytest.raises(UsageError, match="outside alphabet"):
            parse_assignment("x=5", ["x"], 2)

    def test_unknown_name(self):
        with pytest.raises(UsageError, match="unknown"):
            parse_assignment("q=0", ["x"], 2)

    def test_missing_variable(self):
        with pytest.raises(UsageError, match="missing"):
            parse_assignment("x=0", ["x", "y"], 2)


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_significant(0.5) == "0.500000000000"
        assert format_significant(1.0 / 3.0) == "0.333333333333"

    def test_small_values_stay_fixed_point(self):
        s = format_significant(1.23456789e-7)
        assert "e" not in s and s.startswith("0.000000123456")


class TestPipeline:
    def test_learn_eval_round_trip(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        code, _, _ = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                         "--x-var", "v0", "--x-val", "1", "--m", "20000", "--t", "20",
                         "--seed", "0", "--truth-model", str(model), "--out", str(learned))
        assert code == 0
        report = json.loads((tmp_path / "learned.json.report.json").read_text())
        assert report["m"] == 20000
        assert report["tv_exact"] is not None and report["tv_exact"] < 0.2

        code, out, _ = run(capsys, "eval", "--learned", str(learned),
                           "--assignment", "v1=0,v2=0,v3=1,v4=0")
        assert code == 0
        val = float(out.strip())
        assert 0.0 <= val <= 1.0
        assert len(out.strip().replace("0.", "").lstrip("0")) <= 12

    def test_sample_do(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "5000", "--t", "20", "--out", str(learned))
        out_csv = tmp_path / "do.csv"
        code, _, _ = run(capsys, "sample-do", "--learned", str(learned), "--m", "50",
                         "--seed", "1", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 51
        assert lines[0].count(",") == 3  # four remaining variables

    def test_epsilon_mode_estimates_alpha(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        learned = tmp_path / "learned2.json"
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "0", "--x-val", "1", "--epsilon", "0.2",
                           "--out", str(learned))
        assert code == 0
        assert "empirical estimate" in err
        report = json.loads((tmp_path / "learned2.json.report.json").read_text())
        assert report["alpha_est"] is not None
        assert report["m"] <= 20000  # capped at the available rows

    def test_alpha_estimate_of_zero_is_floored(self, tmp_path, capsys):
        # Two rows of the walkthrough model leave a parent configuration of
        # x's component unseen: the estimate is 0 and the budget uses 1 / (2 m).
        graph, model, samples, learned = (tmp_path / name for name in ("g.json", "m.json", "s.csv", "l.json"))
        for argv in (["gen-graph", "--nodes", "6", "--in-degree", "2", "--ccomp-size", "2", "--x-var", "0",
                      "--seed", "1", "--out", str(graph)],
                     ["gen-model", "--graph", str(graph), "--lambda", "0.25", "--seed", "2", "--out", str(model)],
                     ["sample", "--model", str(model), "--m", "2", "--seed", "3", "--out", str(samples)]):
            assert dispatch(argv) == 0
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "v0", "--x-val", "1", "--out", str(learned))
        assert code == 0
        assert "using empirical estimate 0.25" in err
        report = json.loads((tmp_path / "l.json.report.json").read_text())
        assert report["alpha_est"] == 0.0
        assert report["params"]["alpha_floored"] is True

    def test_marginal_both_routes(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        out_a = tmp_path / "marg_a.json"
        out_b = tmp_path / "marg_b.json"
        code, _, _ = run(capsys, "marginal", "--graph", str(graph), "--samples", str(samples),
                         "--x-var", "0", "--x-val", "1", "--targets", "v3",
                         "--m", "20000", "--t", "20", "--out", str(out_a))
        assert code == 0
        code, _, _ = run(capsys, "marginal", "--graph", str(graph), "--samples", str(samples),
                         "--x-var", "0", "--x-val", "1", "--targets", "v3",
                         "--m", "20000", "--t", "20", "--via-generator", "--out", str(out_b))
        assert code == 0
        code, out, _ = run(capsys, "tv", "--dense-a", str(out_a), "--dense-b", str(out_b))
        assert code == 0
        assert float(out.strip()) <= 0.2

    def test_tv_of_file_with_itself(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        out_a = tmp_path / "marg.json"
        run(capsys, "marginal", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--targets", "v3,v4", "--m", "5000",
            "--t", "20", "--out", str(out_a))
        code, out, _ = run(capsys, "tv", "--dense-a", str(out_a), "--dense-b", str(out_a))
        assert code == 0
        assert out.strip() == "0.000000000000"

    def test_dense_file_reserializes_identically(self, pipeline, tmp_path, capsys):
        from dolearn.cli import _dense_to_json, _load_dense

        graph, model, samples = pipeline
        out_a = tmp_path / "marg.json"
        run(capsys, "marginal", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--targets", "v2,v4", "--m", "5000",
            "--t", "20", "--out", str(out_a))
        text = out_a.read_text()
        names = json.loads(text)["names"]
        assert _dense_to_json(_load_dense(str(out_a)), names) == text


class TestExitCodes:
    def test_unidentifiable_graph_is_contract_error(self, tmp_path, capsys):
        # Bow-tie: X -> Y with X <-> Y; learning do(X) must fail up front.
        bow = tmp_path / "bow.json"
        bow.write_text(json.dumps({
            "n": 2, "names": ["X", "Y"], "alphabet": 2,
            "directed": [[0, 1]], "bidirected": [[0, 1]],
        }))
        samples = tmp_path / "s.csv"
        samples.write_text("X,Y\n0,0\n1,1\n")
        learned = tmp_path / "l.json"
        code, _, err = run(capsys, "learn-do", "--graph", str(bow), "--samples", str(samples),
                           "--x-var", "X", "--x-val", "0", "--m", "2", "--out", str(learned))
        assert code == 4
        assert "contract violation" in err
        assert not learned.exists()

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "alphabet": 2, "directed": [[0, 1]], "bidirected": [')
        code, _, err = run(capsys, "gen-model", "--graph", str(bad), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "input error" in err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sample", "--model", str(tmp_path / "nope.json"),
                           "--m", "10", "--out", str(tmp_path / "s.csv"))
        assert code == 3

    def test_gen_model_tables_above_the_guard_is_contract_error(self, tmp_path):
        # Node 1 sits on two bidirected edges, so at --hidden-domain 100000 its
        # table alone would hold 10^10 * 2 entries. The run is a child
        # process under a 2 GB address-space limit, so a missing guard ends
        # in a MemoryError there and not in the memory of the test host.
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 3, "alphabet": 2, "directed": [], "bidirected": [[0, 1], [1, 2]]}))
        model = tmp_path / "m.json"
        limit = 2 * 1024**3
        done = subprocess.run(
            [sys.executable, "-m", "dolearn", "gen-model", "--graph", str(graph), "--hidden-domain", "100000",
             "--out", str(model)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 4, done.stderr
        assert "contract violation: the tables and priors would hold 20000600000 entries" in done.stderr
        assert not model.exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tv", "--nonsense", "x")
        assert code == 2
        assert "usage error" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_x_var_is_usage_error(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "nosuch", "--x-val", "1", "--m", "100",
                           "--out", str(tmp_path / "l.json"))
        assert code == 2
        assert "unknown variable" in err

    def _named_chain(self, tmp_path, names):
        """Graph, model and samples of a 3-node chain whose names are given."""
        graph, model, samples = (tmp_path / f for f in ("g.json", "m.json", "s.csv"))
        graph.write_text(json.dumps({"n": 3, "names": names, "alphabet": 2, "directed": [[0, 1], [1, 2]],
                                     "bidirected": []}))
        assert dispatch(["gen-model", "--graph", str(graph), "--seed", "1", "--out", str(model)]) == 0
        assert dispatch(["sample", "--model", str(model), "--m", "200", "--seed", "2", "--out", str(samples)]) == 0
        return graph, model, samples

    def test_digit_names_resolve_before_indices(self, tmp_path, capsys):
        graph, _, samples = self._named_chain(tmp_path, ["1", "0", "2"])
        learned = tmp_path / "l.json"
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "0", "--x-val", "1", "--m", "200", "--out", str(learned))
        assert (code, err) == (0, "")
        assert json.loads(learned.read_text())["x_substitution"] == [1, 1]
        assert json.loads((tmp_path / "l.json.report.json").read_text())["params"]["x_var"] == "0"
        # "1" names node 0, so it is a target apart from the intervened node 1.
        code, _, err = run(capsys, "marginal", "--graph", str(graph), "--samples", str(samples), "--x-var", "0",
                           "--x-val", "1", "--targets", "1", "--m", "200", "--out", str(tmp_path / "marg.json"))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "marg.json").read_text())["names"] == ["1"]

    def test_digit_name_above_the_node_count(self, tmp_path, capsys):
        graph, _, samples = self._named_chain(tmp_path, ["10", "11", "12"])
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "10", "--x-val", "1", "--m", "200", "--out", str(tmp_path / "l.json"))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "l.json.report.json").read_text())["params"]["x_var"] == "10"

    def test_bool_x_var_in_spec_is_format_error(self, tmp_path, capsys):
        _, model, _ = self._named_chain(tmp_path, ["a", "b", "c"])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "convergence", "model": str(model), "x_var": True, "x_val": 1,
                                    "m_grid": [100], "trials": 1}))
        code, _, err = run(capsys, "experiment", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert f"input error: {spec}:1: unknown variable name True" in err

    def test_non_string_graph_names_are_input_error(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text('{\n"n": 3,\n"alphabet": 2,\n"names": [2, null, true],\n"directed": [],\n"bidirected": []\n}')
        model = tmp_path / "m.json"
        code, _, err = run(capsys, "gen-model", "--graph", str(graph), "--out", str(model))
        assert code == 3
        assert f"input error: {graph}:4: names must be strings" in err
        assert not model.exists()

    def test_graph_name_with_a_comma_is_input_error(self, tmp_path, capsys):
        # eval --assignment "a,b=0" could never address it.
        graph = tmp_path / "g.json"
        graph.write_text('{\n"n": 2,\n"alphabet": 2,\n"names": ["a,b", "c"],\n"directed": [],\n"bidirected": []\n}')
        code, _, err = run(capsys, "gen-model", "--graph", str(graph), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert err.startswith(f"input error: {graph}:4: name 'a,b' cannot be addressed")

    def test_graph_name_utf8_cannot_encode_is_input_error(self, tmp_path, capsys):
        # JSON's "\ud800" is a lone surrogate: taken as a name, the model was
        # written and sample then failed on its CSV header with exit 5.
        graph, model = tmp_path / "g.json", tmp_path / "m.json"
        graph.write_text('{\n"n": 2,\n"alphabet": 2,\n"names": ["a", "\\ud800"],\n"directed": [],\n"bidirected": []\n}')
        code, _, err = run(capsys, "gen-model", "--graph", str(graph), "--out", str(model))
        if code == 0:
            code, _, err = run(capsys, "sample", "--model", str(model), "--m", "10", "--out", str(tmp_path / "s.csv"))
        assert code == 3, err
        assert err.startswith(f"input error: {graph}:4: name '\\ud800' cannot be addressed")

    def test_repeated_graph_names_are_input_error_at_names(self, tmp_path, capsys):
        graph, model = tmp_path / "g.json", tmp_path / "m.json"
        graph.write_text('{\n"n": 2,\n"alphabet": 2,\n"names": ["a", "a"],\n"directed": [],\n"bidirected": []\n}')
        code, _, err = run(capsys, "gen-model", "--graph", str(graph), "--out", str(model))
        assert code == 3
        assert err.startswith(f"input error: {graph}:4: names must be 2 distinct identifiers")
        assert not model.exists()

    @pytest.mark.parametrize("nodes, seed", [(5, 3), (6, 8)])
    def test_truth_model_over_another_graph_is_input_error(self, tmp_path, capsys, nodes, seed):
        # The truth model's graph has 5 nodes, or 6 nodes and other edges.
        graph, other, model, samples = (tmp_path / f for f in ("g.json", "h.json", "m.json", "s.csv"))
        for argv in (["gen-graph", "--nodes", "6", "--in-degree", "2", "--ccomp-size", "2", "--seed", "3",
                      "--out", str(graph)],
                     ["gen-graph", "--nodes", str(nodes), "--in-degree", "2", "--ccomp-size", "2",
                      "--seed", str(seed), "--out", str(other)],
                     ["gen-model", "--graph", str(graph), "--seed", "4", "--out", str(samples) + ".m"],
                     ["sample", "--model", str(samples) + ".m", "--m", "200", "--seed", "5", "--out", str(samples)],
                     ["gen-model", "--graph", str(other), "--seed", "4", "--out", str(model)]):
            assert dispatch(argv) == 0
        assert json.loads(graph.read_text()) != json.loads(other.read_text())
        learned = tmp_path / "l.json"
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "0", "--x-val", "1", "--m", "200", "--truth-model", str(model),
                           "--out", str(learned))
        assert code == 3
        assert err.startswith(f"input error: {model}:1: truth model is over another graph than {graph}")
        assert not learned.exists()

    def test_x_val_outside_alphabet_is_usage_error(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "0", "--x-val", "9", "--m", "100",
                           "--out", str(tmp_path / "l.json"))
        assert code == 2
        assert "outside alphabet" in err

    def test_bad_assignment_is_usage_error(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "1000", "--t", "10", "--out", str(learned))
        code, _, err = run(capsys, "eval", "--learned", str(learned), "--assignment", "v1=9")
        assert code == 2

    @pytest.mark.parametrize("assignment, message", [
        ("v1", "malformed assignment term 'v1'"),
        ("v1=x,v2=1,v3=0,v4=1", "non-integer value for 'v1'"),
    ])
    def test_malformed_assignment_term_is_usage_error(self, pipeline, tmp_path, capsys, assignment, message):
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "1000", "--t", "10", "--out", str(learned))
        code, out, err = run(capsys, "eval", "--learned", str(learned), "--assignment", assignment)
        assert code == 2
        assert message in err and out == ""

    def test_empty_assignment_term_is_skipped(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "1000", "--t", "10", "--out", str(learned))
        outputs = [run(capsys, "eval", "--learned", str(learned), "--assignment", assignment)
                   for assignment in ("v1=0,v2=1,v3=0,v4=1", "v1=0,,v2=1, ,v3=0,v4=1,")]
        assert outputs[0][0] == 0 and outputs[0][1] != ""
        assert outputs[1] == outputs[0]

    def test_oversized_conditioning_space_is_contract_error(self, tmp_path, capsys):
        # |Σ| = 10 on a 21-node bidirected chain: the last node conditions on
        # 20 others, so its keys would overflow int64 if it were counted.
        n = 21
        graph = tmp_path / "chain.json"
        graph.write_text(json.dumps({
            "n": n, "names": [f"v{i}" for i in range(n)], "alphabet": 10,
            "directed": [], "bidirected": [[i, i + 1] for i in range(n - 1)],
        }))
        samples = tmp_path / "s.csv"
        samples.write_text(",".join(f"v{i}" for i in range(n)) + "\n"
                           + "".join(",".join(str((r * 7 + c) % 10) for c in range(n)) + "\n" for r in range(5)))
        learned = tmp_path / "l.json"
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "v0", "--x-val", "1", "--m", "5", "--t", "1", "--out", str(learned))
        assert code == 4
        assert "would need" in err
        assert not learned.exists()
        # With --epsilon the alpha estimate counts over the same 21 variables first.
        code, _, err = run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                           "--x-var", "v0", "--x-val", "1", "--epsilon", "0.2", "--out", str(learned))
        assert code == 4
        assert "exceeds" in err
        assert not learned.exists()

    @pytest.mark.parametrize("field, value", [
        ("row", [float("nan"), float("nan")]),
        ("row", [float("inf"), 0.0]),
        ("assignment", [2]),
        ("assignment", [-1]),
        ("assignment", [True]),
    ])
    def test_bad_learned_row_is_input_error(self, pipeline, tmp_path, capsys, field, value):
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "1000", "--t", "10", "--out", str(learned))
        raw = json.loads(learned.read_text())
        entry = next(e for e in raw["cpts"] if len(e["assignment"]) == 1)
        entry[field] = value
        learned.write_text(json.dumps(raw))
        code, out, err = run(capsys, "eval", "--learned", str(learned),
                             "--assignment", "v1=0,v2=1,v3=0,v4=1")
        assert code == 3
        assert "input error" in err and out == ""

    @pytest.mark.parametrize("command", ["eval", "sample-do"])
    @pytest.mark.parametrize("field, value", [
        ("names", None),
        ("names", ["v0", "v1"]),
        ("names", ["v0", "v1", "v2", "v3", 4]),
        ("x_substitution", [0]),
        ("x_substitution", [9, 1]),
        ("x_substitution", [0, 7]),
        # The learned x_substitution is [0, 1] and substituted_nodes [1, 2]:
        # true equals 1.
        ("x_substitution", [0, True]),
        ("substituted_nodes", [True, 2]),
    ])
    def test_malformed_learned_model_is_input_error(self, pipeline, tmp_path, capsys, command, field, value):
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "1000", "--t", "10", "--out", str(learned))
        raw = json.loads(learned.read_text())
        raw[field] = value
        learned.write_text(json.dumps(raw))
        if command == "eval":
            argv = ["eval", "--learned", str(learned), "--assignment", "v1=0,v2=1,v3=0,v4=1"]
        else:
            argv = ["sample-do", "--learned", str(learned), "--m", "5", "--out", str(tmp_path / "do.csv")]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert f"input error: {learned}:1: " in err and out == ""

    def test_bool_node_of_learned_entry_is_input_error(self, pipeline, tmp_path, capsys):
        # true equals 1, so the entry would still read as one of node 1's.
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "1000", "--t", "10", "--out", str(learned))
        raw = json.loads(learned.read_text())
        next(e for e in raw["cpts"] if e["node"] == 1)["node"] = True
        learned.write_text(json.dumps(raw))
        code, out, err = run(capsys, "eval", "--learned", str(learned), "--assignment", "v1=0,v2=1,v3=0,v4=1")
        assert code == 3
        assert f"input error: {learned}:1: invalid learned model: node True" in err and out == ""

    @pytest.mark.parametrize("command", ["eval", "sample-do"])
    def test_unaddressable_learned_name_is_input_error(self, pipeline, tmp_path, capsys, command):
        # Loaded, the name "a,b" would only fail later, as a malformed
        # assignment term (exit 2).
        graph, model, samples = pipeline
        learned = tmp_path / "learned.json"
        run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
            "--x-var", "0", "--x-val", "1", "--m", "1000", "--t", "10", "--out", str(learned))
        raw = json.loads(learned.read_text())
        raw["names"][1] = "a,b"
        learned.write_text(json.dumps(raw))
        if command == "eval":
            argv = ["eval", "--learned", str(learned), "--assignment", "a,b=0,v2=1,v3=0,v4=1"]
        else:
            argv = ["sample-do", "--learned", str(learned), "--m", "5", "--out", str(tmp_path / "do.csv")]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert f"input error: {learned}:1: invalid learned model: name 'a,b' cannot be addressed" in err and out == ""

    def test_tv_over_different_variables_is_input_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, var in ((a, 1), (b, 2)):
            path.write_text(json.dumps({"variables": [var], "names": None, "domain_sizes": [2], "mass": [0.5, 0.5]}))
        code, out, err = run(capsys, "tv", "--dense-a", str(a), "--dense-b", str(b))
        assert code == 3
        assert f"input error: {b}:1: variables [2]" in err and "variables [1]" in err and out == ""

    @pytest.mark.parametrize("field", ["variables", "domain_sizes"])
    def test_infinite_distribution_field_is_input_error(self, tmp_path, capsys, field):
        # 1e400 is valid JSON and parses as infinity, which has no integer value.
        raw = {"variables": [1], "names": None, "domain_sizes": [2], "mass": [0.5, 0.5]}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(raw).replace(json.dumps(raw[field]), "[1e400]", 1))
        code, out, err = run(capsys, "tv", "--dense-a", str(path), "--dense-b", str(path))
        assert code == 3
        assert f"input error: {path}:1: invalid distribution" in err and out == ""


    def _two_node_graph(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({
            "n": 2, "names": ["v0", "v1"], "alphabet": 2, "directed": [[0, 1]], "bidirected": [],
        }))
        return graph

    def _learn(self, capsys, graph, samples, out):
        return run(capsys, "learn-do", "--graph", str(graph), "--samples", str(samples),
                   "--x-var", "v0", "--x-val", "1", "--m", "1", "--out", str(out))

    def test_cell_above_csv_field_limit_is_input_error(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text("v0,v1\n" + "1" * 200_000 + ",0\n")
        code, _, err = self._learn(capsys, self._two_node_graph(tmp_path), samples, tmp_path / "l.json")
        assert code == 3
        assert f"input error: {samples}:2: unreadable CSV: field larger than field limit" in err

    def test_cr_inside_header_is_input_error(self, tmp_path, capsys):
        text = "v0\r,v1\n0,1\n"
        with pytest.raises(FormatError, match=r"^s\.csv:1: unreadable CSV: new-line character"):
            parse_samples_csv(text, ("v0", "v1"), 2, source="s.csv")
        # A file read in text mode turns the CR into a line break, so the CLI
        # sees a header that names one variable.
        samples = tmp_path / "s.csv"
        samples.write_text(text, newline="")
        code, _, err = self._learn(capsys, self._two_node_graph(tmp_path), samples, tmp_path / "l.json")
        assert code == 3
        assert f"input error: {samples}:1: header does not match" in err

    @pytest.mark.parametrize("argv", [
        ["learn-do", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--t", "0"],
        ["learn-do", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1", "--m", "0"],
        ["sample", "--model", "m.json", "--m", "0"],
        ["sample-do", "--learned", "l.json", "--m", "-3"],
        ["marginal", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1",
         "--targets", "v1", "--t", "0"],
        ["marginal", "--graph", "g.json", "--samples", "s.csv", "--x-var", "v0", "--x-val", "1",
         "--targets", "v1", "--m", "0"],
    ])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, argv):
        # The files do not exist: the count is refused before any is opened.
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2
        assert "must be at least 1" in err

    @pytest.mark.parametrize("edit, message", [
        # 1e400 is valid JSON and parses as infinity, which has no integer value.
        (lambda text: text.replace('"hidden_domain": 2', '"hidden_domain": 1e400'), "invalid model"),
        (lambda text: text.replace('"hidden_domain": 2', '"hidden_domain": 2.7'), "hidden_domain 2.7 is not an integer"),
        (lambda text: json.dumps("graph hidden_domain hidden_priors cpts"), "expected a JSON object"),
        (lambda text: json.dumps(["graph", "hidden_domain", "hidden_priors", "cpts"]), "expected a JSON object"),
        (lambda text: text.replace('"hidden_domain": 2', '"hidden_domain": 2.0'), "hidden_domain 2.0 is not an integer"),
        (lambda text: json.dumps(dict(json.loads(text), hidden_priors=json.loads(text)["hidden_priors"][1:])),
         "one hidden prior per bidirected edge required"),
        (lambda text: json.dumps(dict(json.loads(text),
                                      hidden_priors=[p + [0.0] for p in json.loads(text)["hidden_priors"]])),
         "hidden priors must have shape (2,)"),
    ], ids=["infinite_hidden_domain", "fractional_hidden_domain", "top_level_string", "top_level_array",
            "integral_float_hidden_domain", "hidden_prior_missing", "hidden_prior_too_wide"])
    def test_malformed_model_file_is_input_error(self, tmp_path, capsys, edit, message):
        graph, model = tmp_path / "g.json", tmp_path / "m.json"
        assert dispatch(["gen-graph", "--nodes", "4", "--in-degree", "2", "--ccomp-size", "2",
                         "--x-var", "0", "--seed", "3", "--out", str(graph)]) == 0
        assert dispatch(["gen-model", "--graph", str(graph), "--seed", "4", "--out", str(model)]) == 0
        text = model.read_text()
        assert edit(text) != text
        model.write_text(edit(text))
        code, out, err = run(capsys, "sample", "--model", str(model), "--m", "5", "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert f"input error: {model}:1: " in err and message in err and out == ""


class TestEvalUnderflow:
    """eval of a hand-built model: x (v0) uniform and k more nodes, each with
    the row [q, 1 - q], so that P(v1..vk = 0 | do(v0 = 1)) = q^k."""

    def _eval(self, tmp_path, capsys, k, q):
        nodes = tuple(range(k + 1))
        model = BayesNetModel.from_entries(nodes, dict.fromkeys(nodes, ()), 2, nodes, [()] * (k + 1),
                                           [[0.5, 0.5]] + [[q, 1.0 - q]] * k, x_substitution=(0, 1),
                                           names=tuple(f"v{v}" for v in nodes))
        learned = tmp_path / "learned.json"
        save_learned_model(model, str(learned))
        return run(capsys, "eval", "--learned", str(learned),
                   "--assignment", ",".join(f"v{v}=0" for v in range(1, k + 1)))

    @pytest.mark.parametrize("k, zero", [(40, True), (31, False)], ids=["zero", "subnormal"])
    def test_value_below_the_normal_range_is_contract_error(self, tmp_path, capsys, k, zero):
        code, out, err = self._eval(tmp_path, capsys, k, 1e-10)
        assert (code, out) == (4, "")
        found = re.fullmatch(r"contract violation: the probability underflows float64: a term of the sum over v0 "
                             r"has only positive factors, but the sum is (\S+), below 2\.2250738585072014e-308\n", err)
        assert found and (float(found[1]) == 0.0) == zero

    def test_smallest_values_of_the_normal_range_still_print(self, tmp_path, capsys):
        assert self._eval(tmp_path, capsys, 30, 1e-10) == (0, format_significant(1e-10**30) + "\n", "")

    def test_exact_zero_still_prints_zero(self, tmp_path, capsys):
        # Every term of the sum over v0 has v1's zero factor.
        assert self._eval(tmp_path, capsys, 1, 0.0) == (0, "0.00000000000\n", "")


class TestExperimentCommand:
    def test_convergence_spec(self, pipeline, tmp_path, capsys):
        graph, model, samples = pipeline
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "convergence", "model": str(model), "x_var": "v0", "x_val": 1,
            "m_grid": [500, 2000], "trials": 3, "seed": 1, "t": 20,
        }))
        out_csv = tmp_path / "exp.csv"
        code, _, _ = run(capsys, "experiment", "--spec", str(spec), "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "m,trial,tv,seconds"
        assert len(lines) == 7
        summary = json.loads((tmp_path / "exp.csv.summary.json").read_text())
        assert "slope" in summary

    def test_alpha_sweep_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "alpha-sweep", "alphas": [0.1, 0.4], "n_effect": 4,
            "epsilon": 0.2, "m": 2000, "trials": 2, "seed": 0,
        }))
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "experiment", "--spec", str(spec), "--out", str(out_csv))
        assert code == 0
        assert out_csv.read_text().startswith("alpha,trial,tv,seconds")

    @pytest.mark.parametrize("key, value", [
        ("m_grid", None),
        ("x_val", 5),
        ("t", 0),
        ("m_grid", [0]),
        ("m_grid", "1000"),
        ("trials", 0),
        ("seed", -1),
        ("model", 5),
        ("model", ["m.json"]),
        # Fractions and bools that int() would read as valid values.
        ("trials", 1.7),
        ("trials", True),
        ("m_grid", [200.9]),
        ("m_grid", [100, True]),
        ("x_val", True),
        ("seed", False),
        ("t", 5.5),
    ])
    def test_bad_convergence_field_is_format_error(self, tmp_path, capsys, key, value):
        # The model is binary; a None value leaves the field out.
        graph, model = tmp_path / "g.json", tmp_path / "m.json"
        assert dispatch(["gen-graph", "--nodes", "3", "--in-degree", "1", "--ccomp-size", "1",
                         "--seed", "1", "--out", str(graph)]) == 0
        assert dispatch(["gen-model", "--graph", str(graph), "--seed", "2", "--out", str(model)]) == 0
        fields = {"kind": "convergence", "model": str(model), "x_var": "v0", "x_val": 1,
                  "m_grid": [100, 200], "trials": 2, "seed": 0, "t": 5}
        fields[key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({k: v for k, v in fields.items() if v is not None}))
        code, _, err = run(capsys, "experiment", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert f"{spec}:1: {key} must be" in err

    @pytest.mark.parametrize("key, value", [
        ("alphas", [0.9]),
        ("alphas", []),
        ("epsilon", 5.0),
        ("m", 0),
        ("trials", 0),
        ("n_effect", None),
        ("m", 200.5),
        ("n_effect", True),
        ("alphas", [0.1, True]),
        ("epsilon", False),
        ("confounded", "no"),
        ("confounded", 1),
        ("confounded", [True]),
    ])
    def test_bad_alpha_sweep_field_is_format_error(self, tmp_path, capsys, key, value):
        fields = {"kind": "alpha-sweep", "alphas": [0.1, 0.4], "n_effect": 4,
                  "epsilon": 0.2, "m": 200, "trials": 2, "seed": 0}
        fields[key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({k: v for k, v in fields.items() if v is not None}))
        code, _, err = run(capsys, "experiment", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert f"{spec}:1: " in err

    def test_integer_in_a_number_field_reaches_the_range_check(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "alpha-sweep", "alphas": [1], "n_effect": 4,
                                    "epsilon": 0.2, "m": 200, "trials": 2, "seed": 0}))
        code, _, err = run(capsys, "experiment", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert f"{spec}:1: alpha must lie" in err

    def test_top_level_array_is_format_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "convergence"}]')
        code, _, err = run(capsys, "experiment", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert f"{spec}:1: unknown experiment kind" in err

    def test_unknown_kind(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "nope"}')
        code, _, _ = run(capsys, "experiment", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert code == 3
