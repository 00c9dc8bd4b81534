"""The cordia command line: JSON payloads, exit codes, determinism."""

import json
import re
import shlex
from pathlib import Path

import pytest

from cordia import (
    GraphProperty,
    LinearOperator,
    apply,
    edge_graph,
    has_property,
    identity_operator,
    operator_table,
    parse_graph6,
    survey,
)
from cordia.cli import run
from cordia.graphs import pair_table


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1, "exactly one JSON object per invocation"
    return code, json.loads(lines[0])


# ----------------------------------------------------------------------- check

def test_check_member_exits_zero(capsys):
    code, payload = invoke(capsys, "check", "--property", "product", "--named", "2k2")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["command"] == "check"
    result = payload["result"]
    assert result["holds"] is True
    assert result["graph"]["graph6"] == "C`"
    assert result["witness"]["ones"] == [0, 1]


def test_check_nonmember_exits_one(capsys):
    code, payload = invoke(capsys, "check", "--property", "sum", "--named", "2k2")
    assert code == 1
    result = payload["result"]
    assert result["holds"] is False
    assert result["witness"] is None
    assert result["labelings_examined"] == 6


def test_check_graph6_input(capsys):
    code, payload = invoke(capsys, "check", "--property", "sum", "--graph6", "C~")
    assert code == 1
    assert payload["result"]["graph"]["n"] == 4
    assert payload["inputs"]["graph6"] == "C~"


def test_check_orientation_witness_arcs(capsys):
    code, payload = invoke(capsys, "check", "--property", "orient23", "--named", "c4")
    assert code == 0
    witness = payload["result"]["witness"]
    arcs = [tuple(a) for a in witness["arcs"]]
    edges = {tuple(e) for e in payload["result"]["graph"]["edges"]}
    assert len(arcs) == len(edges)
    assert all((a, b) in edges or (b, a) in edges for a, b in arcs)
    # 3-friendly recount from the reported labels and arcs
    labels = witness["labels"]
    counts = {-1: 0, 0: 0, 1: 0}
    for tail, head in arcs:
        counts[int(labels[head]) - int(labels[tail])] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_check_ambient_flag_changes_the_three_matching_verdict(capsys):
    code, _ = invoke(capsys, "check", "--property", "orient23", "--graph6", "F`?G?")
    assert code == 1
    code, payload = invoke(
        capsys, "check", "--property", "orient23", "--graph6", "F`?G?", "--ambient-friendly"
    )
    assert code == 0
    assert payload["inputs"]["ambient_friendly"] is True


def test_ambient_flag_rejected_for_sum(capsys):
    code, payload = invoke(
        capsys, "check", "--property", "sum", "--named", "2k2", "--ambient-friendly"
    )
    assert code == 2
    assert payload["error"]["kind"] == "usage"


def test_malformed_graph6(capsys):
    code, payload = invoke(capsys, "check", "--property", "sum", "--graph6", "~??")
    assert code == 2
    assert payload["error"]["kind"] == "malformed-graph6"
    assert "result" not in payload


def test_unknown_named_tag(capsys):
    code, payload = invoke(capsys, "check", "--property", "sum", "--named", "nonesuch")
    assert code == 2
    assert payload["error"]["kind"] == "unknown-tag"


def test_edgeless_graph_is_a_usage_error(capsys):
    code, payload = invoke(capsys, "check", "--property", "sum", "--graph6", "@")
    assert code == 2
    assert payload["error"]["kind"] == "usage"


# ----------------------------------------------------------------------- bound

def test_bound_orientable(capsys):
    code, payload = invoke(capsys, "bound", "--property", "orient23", "--n", "6")
    assert code == 0
    assert payload["result"] == {
        "alternate_bound": None,
        "bound": 14,
        "n": 6,
        "property": "orient23",
    }


def test_bound_product_reports_both_values(capsys):
    code, payload = invoke(capsys, "bound", "--property", "product", "--n", "4")
    assert code == 0
    assert payload["result"]["bound"] == 2
    assert payload["result"]["alternate_bound"] == 3


def test_bound_below_domain(capsys):
    code, payload = invoke(capsys, "bound", "--property", "orient23", "--n", "5")
    assert code == 2
    assert payload["error"]["kind"] == "usage"


# -------------------------------------------------------------------- extremal

def test_extremal_empirical(capsys):
    code, payload = invoke(
        capsys, "extremal", "--property", "product", "--n", "4", "--mode", "empirical"
    )
    assert code == 0
    result = payload["result"]
    assert result["max_edges"] == 3
    assert result["bound"] == 2
    assert result["alternate_bound"] == 3
    assert result["witness"]["graph6"] == "Cw"


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("prop", list(GraphProperty), ids=lambda p: p.value)
def test_extremal_empirical_reports_the_survey_cell(capsys, prop, n):
    code, payload = invoke(capsys, "extremal", "--property", prop.value, "--n", str(n))
    assert code == 0
    result = payload["result"]
    report = survey(prop, n)
    assert result["max_edges"] == report.empirical_max
    assert (result["bound"], result["alternate_bound"]) == (report.bound, report.alternate_bound)
    assert result["witness"]["edges"] == [list(e) for e in report.witness.edge_list()]
    assert (result["n"], result["property"]) == (n, prop.value)


def test_extremal_empirical_needs_n(capsys):
    code, payload = invoke(capsys, "extremal", "--property", "product", "--mode", "empirical")
    assert code == 2
    assert payload["error"]["kind"] == "usage"


def test_extremal_minimal(capsys):
    code, payload = invoke(
        capsys, "extremal", "--property", "product", "--mode", "minimal", "--edge-cap", "4"
    )
    assert code == 0
    result = payload["result"]
    assert result["count"] == 3
    assert [g["graph6"] for g in result["graphs"]] == ["C{", "C]", "D`K"]
    assert all(g["edge_count"] == 4 for g in result["graphs"])


def test_extremal_budget_exceeded(capsys):
    code, payload = invoke(
        capsys, "extremal", "--property", "product", "--n", "8", "--mode", "empirical"
    )
    assert code == 3
    assert payload["error"]["kind"] == "budget"


# ------------------------------------------------------------------- enumerate

def test_enumerate_counts_and_lists(capsys):
    code, payload = invoke(capsys, "enumerate", "--n", "6", "--edges", "3")
    assert code == 0
    assert payload["result"]["count"] == 5
    graphs = payload["result"]["graphs"]
    assert len(graphs) == 5
    for g6 in graphs:
        assert parse_graph6(g6).edge_count == 3


def test_enumerate_over_budget(capsys):
    code, payload = invoke(capsys, "enumerate", "--n", "12", "--edges", "6")
    assert code == 3
    assert payload["error"]["kind"] == "budget"


def test_enumerate_negative_n_is_a_usage_error(capsys):
    code, payload = invoke(capsys, "enumerate", "--n", "-2", "--edges", "1")
    assert code == 2
    assert payload["error"]["kind"] == "usage"


def test_enumerate_zero_vertices_is_a_usage_error(capsys):
    code, payload = invoke(capsys, "enumerate", "--n", "0", "--edges", "0")
    assert code == 2
    assert payload["error"] == {"kind": "usage", "message": "vertex count must be at least 1, got 0"}


# ------------------------------------------------------------------ preservers

def test_preservers_exhaustive_summary(capsys):
    code, payload = invoke(
        capsys, "preservers", "--property", "sum", "--n", "4", "--mode", "exhaustive"
    )
    assert code == 0
    result = payload["result"]
    assert result["candidates_checked"] == 720
    assert result["operators_materialized"] == 48
    assert result["survivors_vertex_induced"] == 24
    assert result["all_survivors_vertex_induced"] is False


@pytest.mark.parametrize("prop, survivors", [("sum", 48), ("orient23", 720)])
def test_preservers_exhaustive_candidates_passed_counts_survivors(capsys, prop, survivors):
    # orient23 membership at n=4 depends only on the edge count, so all 720
    # bijections survive; sum keeps the 48 that permute the perfect matchings.
    code, payload = invoke(
        capsys, "preservers", "--property", prop, "--n", "4", "--mode", "exhaustive"
    )
    assert code == 0
    result = payload["result"]
    assert result["candidates_checked"] == 720
    assert result["candidates_passed"] == survivors
    assert result["operators_materialized"] == survivors


@pytest.mark.parametrize(
    "mode, argv, echoed",
    [
        ("exhaustive", (), None),
        ("exhaustive", ("--count", "5"), None),
        ("vertex-only", (), None),
        ("sample", ("--count", "20"), 20),
    ],
)
def test_preservers_echo_count_only_where_the_mode_reads_it(capsys, mode, argv, echoed):
    code, payload = invoke(
        capsys, "preservers", "--property", "sum", "--n", "4", "--mode", mode, *argv
    )
    assert code == 0
    assert payload["inputs"]["count"] == echoed


def test_preservers_sample_deterministic(capsys):
    args = (
        "preservers", "--property", "sum", "--n", "4",
        "--mode", "sample", "--count", "200", "--seed", "7",
    )
    code_a, payload_a = invoke(capsys, *args)
    code_b, payload_b = invoke(capsys, *args)
    assert code_a == code_b == 0
    assert payload_a == payload_b
    result = payload_a["result"]
    assert result["candidates_checked"] == 200
    assert result["discarded_vertex_induced"] == 6
    assert result["operators_materialized"] == 5
    assert result["failures_recorded"] == 189


def test_preservers_vertex_only(capsys):
    code, payload = invoke(
        capsys, "preservers", "--property", "product", "--n", "5", "--mode", "vertex-only"
    )
    assert code == 0
    result = payload["result"]
    assert result["candidates_checked"] == 120
    assert result["operators_materialized"] == 120
    assert result["all_survivors_vertex_induced"] is True


def assert_usage_error(capsys, *argv):
    code, payload = invoke(capsys, "preservers", "--property", "sum", *argv)
    assert code == 2
    assert payload["error"]["kind"] == "usage"
    assert "result" not in payload


@pytest.mark.parametrize("mode", ["exhaustive", "vertex-only", "sample"])
def test_preservers_negative_n_is_a_usage_error(capsys, mode):
    assert_usage_error(capsys, "--n", "-2", "--mode", mode)


def test_preservers_nonpositive_workers_is_a_usage_error(capsys):
    assert_usage_error(capsys, "--n", "4", "--mode", "sample", "--count", "10", "--workers", "-3")
    assert_usage_error(capsys, "--n", "4", "--mode", "sample", "--count", "10", "--workers", "0")


def test_preservers_ignore_the_workers_variable(capsys, monkeypatch):
    argv = ["preservers", "--property", "sum", "--n", "4", "--mode", "sample", "--count", "50"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("CORDIA_WORKERS", "abc")
    assert run(argv) == 0
    assert capsys.readouterr().out == plain


def test_vertex_only_spot_checks_ignore_the_count(capsys):
    argv = ["preservers", "--property", "sum", "--n", "7", "--mode", "vertex-only"]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run(argv + ["--count", "5"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["result"]["candidates_checked"] == 5040


def test_preservers_negative_count_is_a_usage_error(capsys):
    assert_usage_error(capsys, "--n", "7", "--mode", "vertex-only", "--count", "-5")


# ---------------------------------------------------------- command-line errors

@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "--property", "bogus", "--named", "paw"), "invalid choice: 'bogus'"),
        (("bound", "--property", "sum", "--n", "x"), "invalid int value: 'x'"),
        (
            ("preservers", "--property", "sum", "--n", "4", "--mode", "sample", "--bogus", "1"),
            "unrecognized arguments: --bogus 1",
        ),
        (("enumerate", "--n", "6"), "the following arguments are required: --edges"),
        (
            ("preservers", "--property", "sum", "--n", "4", "--mode", "sample", "--workers", "2"),
            "unrecognized arguments: --workers 2",
        ),
        (
            ("extremal", "--property", "sum", "--mode", "minimal", "--n", "5"),
            "--n only applies to empirical mode",
        ),
        (
            ("extremal", "--property", "sum", "--n", "5", "--edge-cap", "2"),
            "--edge-cap only applies to minimal mode",
        ),
    ],
    ids=[
        "bad-choice",
        "bad-int",
        "unknown-option",
        "missing-required",
        "workers",
        "extremal-minimal-n",
        "extremal-empirical-edge-cap",
    ],
)
def test_parser_errors_are_json_usage_errors(capsys, argv, message):
    code, payload = invoke(capsys, *argv)
    assert code == 2
    assert payload["command"] == argv[0]
    assert payload["error"]["kind"] == "usage"
    assert message in payload["error"]["message"]
    assert "result" not in payload


# -------------------------------------------------------------- operator-check

def test_operator_check_identity(capsys, tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text(operator_table(identity_operator(4)), encoding="ascii")
    code, payload = invoke(
        capsys, "operator-check", "--table", str(path), "--property", "sum"
    )
    assert code == 0
    result = payload["result"]
    assert result["strongly_preserves"] is True
    assert result["vertex_permutation"] == [0, 1, 2, 3]
    assert result["nonsingular"] is True
    assert result["counterexample"] is None


def test_operator_check_failing_operator(capsys, tmp_path):
    collapse = LinearOperator(4, tuple(edge_graph(4, pair_table(4)[0]) for _ in range(6)))
    path = tmp_path / "collapse.txt"
    path.write_text(operator_table(collapse), encoding="ascii")
    code, payload = invoke(
        capsys, "operator-check", "--table", str(path), "--property", "sum"
    )
    assert code == 1
    result = payload["result"]
    assert result["strongly_preserves"] is False
    assert result["vertex_permutation"] is None
    g = parse_graph6(result["counterexample"]["graph6"])
    assert has_property(g, GraphProperty.SUM) != has_property(
        apply(collapse, g), GraphProperty.SUM
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["operator-check", "--property", "sum", "--table", "{table}"],
        ["preservers", "--property", "sum", "--n", "7", "--mode", "sample", "--count", "5"],
    ],
    ids=["operator-check", "sample"],
)
def test_membership_limit_is_one_budget_refusal(capsys, tmp_path, argv):
    table = tmp_path / "identity7.txt"
    table.write_text(operator_table(identity_operator(7)), encoding="ascii")
    code, payload = invoke(capsys, *[a.format(table=table) for a in argv])
    assert code == 3
    assert payload["error"] == {
        "kind": "budget",
        "message": "membership tables are kept only up to n=6; n=7 requested",
    }


def test_operator_check_missing_file(capsys, tmp_path):
    code, payload = invoke(
        capsys, "operator-check", "--table", str(tmp_path / "absent.txt"), "--property", "sum"
    )
    assert code == 2
    assert payload["error"]["kind"] == "usage"


# ----------------------------------------------------------------- determinism

def test_repeated_runs_are_byte_identical(capsys):
    run(["check", "--property", "orient23", "--named", "petersen"])
    first = capsys.readouterr().out
    run(["check", "--property", "orient23", "--named", "petersen"])
    second = capsys.readouterr().out
    assert first == second


def test_timing_flag_adds_payload_field(capsys):
    code, payload = invoke(capsys, "bound", "--property", "sum", "--n", "6", "--timing")
    assert code == 0
    assert "timing" in payload and "seconds" in payload["timing"]
    code, payload = invoke(capsys, "bound", "--property", "sum", "--n", "6")
    assert "timing" not in payload


def test_readme_command_lines_run(capsys, tmp_path):
    # Every `cordia ...` line of the README's command-line block prints one
    # JSON object and exits as its comment says (0 when it says nothing).
    table = tmp_path / "op.txt"
    table.write_text(operator_table(identity_operator(4)), encoding="ascii")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith("cordia ")]
    assert len(lines) == 9
    for line in lines:
        argv = [str(table) if a == "op.txt" else a for a in shlex.split(line, comments=True)]
        expected = re.search(r"# exit (\d)", line)
        code, _ = invoke(capsys, *argv[1:])
        assert code == (int(expected.group(1)) if expected else 0), line


def test_json_keys_sorted(capsys):
    run(["bound", "--property", "sum", "--n", "6"])
    out = capsys.readouterr().out.strip()
    assert out == json.dumps(json.loads(out), sort_keys=True)
