"""End-to-end tests for the command line interface.

Each test drives main() in process and checks the exit code, stdout, and
stderr against behaviour already pinned down by the unit tests for the
underlying modules.
"""

from pathlib import Path

import pytest

from ropas.cli import FAILURE, OK, USAGE, main
from ropas.fixtures import dispatch_goals
from ropas.formats import MODEL_HEADER, parse_model, serialize_model
from ropas.goals import solve_rdrp
from ropas.solver import decode_selection, rop, solve_rop

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALERTS = str(FIXTURES / "alerts.model")
DISPATCH = str(FIXTURES / "dispatch.model")
RESPOND = str(FIXTURES / "respond.model")
SHOCK = str(FIXTURES / "shock.model")
ALERTS_TRACE = str(FIXTURES / "alerts_failure.trace")
SHOCK_TRACE = str(FIXTURES / "shock.trace")

RADIO_LOCAL = (
    "alert_call=0,alert_email=0,alert_push=0,alert_radio=1,alert_sms=0,"
    "store_cloud=0,store_edge=0,store_local=1,store_mirror=0,store_tape=0"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ---


def test_validate_accepts_every_shipped_fixture(capsys):
    for path in (ALERTS, DISPATCH, RESPOND, SHOCK):
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, out, err) == (OK, "ok\n", "")


def test_validate_reports_semantic_problems(capsys, tmp_path):
    path = tmp_path / "bad.model"
    path.write_text(
        "ropas-model v1\n"
        "\n"
        "[variables]\n"
        "criterion utility int:0:10 kind=utility pref=higher-better\n"
        "parameter x bool default=0\n"
        "\n"
        "[depends]\n"
        "weighted-sum s -> utility : 1.0*ghost\n"
        "\n"
        "[decision]\n"
        "rule utility\n"
        "set x\n"
    )
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == FAILURE
    assert "semantic" in out
    assert "ghost" in out
    assert err == ""


def test_validate_reports_syntax_problems(capsys, tmp_path):
    path = tmp_path / "bad.model"
    path.write_text(
        "ropas-model v1\n"
        "\n"
        "[variables]\n"
        "banana\n"
        "parameter x bool default=0\n"
    )
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == USAGE
    assert "syntax" in out


def test_validate_rejects_a_trace_file(capsys):
    code, out, _ = run_cli(capsys, "validate", ALERTS_TRACE)
    assert code == USAGE
    assert "syntax" in out


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.model"))
    assert code == USAGE
    assert "cannot read" in err


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == USAGE


# --- enumerate ---


def test_enumerate_machine_output(capsys):
    code, out, err = run_cli(capsys, "enumerate", ALERTS)
    assert code == OK
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[-1] == "count 20"
    spec_lines = lines[:-1]
    assert len(spec_lines) == 20
    assert all(line.startswith("spec ") for line in spec_lines)
    assert f"spec {RADIO_LOCAL}" in spec_lines


def test_enumerate_human_output(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--format", "human", ALERTS)
    assert code == OK
    lines = out.strip().splitlines()
    assert lines[-1] == "20 feasible specification(s)"
    assert all(line.startswith("spec: ") for line in lines[:-1])


def test_enumerate_oracle_agrees(capsys):
    _, plain, _ = run_cli(capsys, "enumerate", ALERTS)
    code, out, err = run_cli(capsys, "enumerate", "--oracle", ALERTS)
    assert code == OK
    assert out == plain
    assert err == ""


def test_enumerate_respects_the_cap(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--cap", "100", ALERTS)
    assert code == FAILURE
    assert out == ""
    assert "exceeds cap" in err


def _alerts_without_demand_shift(tmp_path):
    text = Path(ALERTS).read_text().replace(",demand_shift=0\n", "\n")
    assert "demand_shift=" not in text
    path = tmp_path / "no_shift.model"
    path.write_text(text)
    return str(path)


def test_enumerate_names_a_monitored_input_without_a_value(capsys, tmp_path):
    path = _alerts_without_demand_shift(tmp_path)
    for extra in ((), ("--oracle",)):
        code, out, err = run_cli(capsys, "enumerate", *extra, path)
        assert (code, out) == (FAILURE, "")
        assert err == "missing value for variable 'demand_shift'\n"


# --- solve ---


def test_solve_machine_output(capsys):
    code, out, err = run_cli(capsys, "solve", ALERTS)
    assert code == OK
    assert err == ""
    assert out.splitlines() == [
        "class variables=binary depends=general",
        "objective 165",
        f"optimum {RADIO_LOCAL}",
    ]


def test_solve_human_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--format", "human", ALERTS)
    assert code == OK
    lines = out.splitlines()
    assert lines[0] == "problem class: binary variables, general depends"
    assert lines[1] == "objective utility = 165"
    assert lines[2].startswith("optimum: ")
    assert "alert_radio=1" in lines[2]


def test_solve_oracle_agrees(capsys):
    _, plain, _ = run_cli(capsys, "solve", ALERTS)
    code, out, err = run_cli(capsys, "solve", "--oracle", ALERTS)
    assert code == OK
    assert out == plain
    assert err == ""


def test_solve_reports_infeasibility(capsys, tmp_path):
    path = tmp_path / "stuck.model"
    path.write_text(
        "ropas-model v1\n"
        "\n"
        "[variables]\n"
        "criterion utility int:0:10 kind=utility pref=higher-better\n"
        "parameter x bool default=0\n"
        "parameter y bool default=0\n"
        "\n"
        "[depends]\n"
        "weighted-sum score -> utility : 1.0*x + 1.0*y\n"
        "cardinality both : x,y == 2\n"
        "incompatibility never : x y\n"
        "\n"
        "[decision]\n"
        "rule utility\n"
        "set x,y\n"
    )
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == FAILURE
    assert out == "infeasible\n"
    code, out, _ = run_cli(capsys, "solve", "--format", "human", str(path))
    assert code == FAILURE
    assert out.startswith("infeasible: ")


def test_solve_names_a_monitored_input_without_a_value(capsys, tmp_path):
    path = _alerts_without_demand_shift(tmp_path)
    for extra in ((), ("--oracle",)):
        code, out, err = run_cli(capsys, "solve", *extra, path)
        assert (code, out) == (FAILURE, "")
        assert err == "missing value for variable 'demand_shift'\n"


def test_solve_respects_the_cap(capsys):
    code, _, err = run_cli(capsys, "solve", "--cap", "100", ALERTS)
    assert code == FAILURE
    assert "exceeds cap" in err


# --- encode-rdrp ---


def test_encode_rdrp_emits_a_solvable_model_file(capsys):
    code, out, err = run_cli(capsys, "encode-rdrp", DISPATCH)
    assert code == OK
    assert err == ""
    assert out.startswith(MODEL_HEADER)
    bundle = parse_model(out)
    assert bundle.model is not None
    result = solve_rop(rop(bundle.model, {}))
    decoded = {decode_selection(dispatch_goals(), spec) for spec in result.optima}
    assert decoded == set(solve_rdrp(dispatch_goals()))


def test_encode_rdrp_output_reserializes_byte_identically(capsys):
    _, out, _ = run_cli(capsys, "encode-rdrp", DISPATCH)
    assert serialize_model(parse_model(out)) == out


def test_encode_rdrp_oracle_agrees(capsys):
    _, plain, _ = run_cli(capsys, "encode-rdrp", DISPATCH)
    code, out, err = run_cli(capsys, "encode-rdrp", "--oracle", DISPATCH)
    assert code == OK
    assert out == plain
    assert err == ""


def test_encode_rdrp_needs_a_goal_graph(capsys):
    code, out, err = run_cli(capsys, "encode-rdrp", ALERTS)
    assert code == FAILURE
    assert out == ""
    assert "goal graph" in err


# --- rank ---


def test_rank_machine_output(capsys):
    code, out, err = run_cli(capsys, "rank", RESPOND)
    assert code == OK
    assert err == ""
    assert out.splitlines() == [
        "rank 1 heli 46.200000",
        "rank 2 als_unit 39.000000",
        "rank 3 volunteer 16.000000",
    ]


def test_rank_human_output(capsys):
    code, out, _ = run_cli(capsys, "rank", "--format", "human", RESPOND)
    assert code == OK
    assert out.splitlines() == [
        "1. heli (expected utility 46.200000)",
        "2. als_unit (expected utility 39.000000)",
        "3. volunteer (expected utility 16.000000)",
    ]


def test_rank_oracle_agrees(capsys):
    _, plain, _ = run_cli(capsys, "rank", RESPOND)
    code, out, err = run_cli(capsys, "rank", "--oracle", RESPOND)
    assert code == OK
    assert out == plain
    assert err == ""


def test_rank_ties_share_a_position(capsys, tmp_path):
    path = tmp_path / "tie.model"
    path.write_text(
        "ropas-model v1\n"
        "\n"
        "[attributes]\n"
        "attribute yield bool\n"
        "\n"
        "[alternatives]\n"
        "alternative a\n"
        "alternative b\n"
        "alternative c\n"
        "lottery a yield 1:0.5 0:0.5\n"
        "lottery b yield 1:0.5 0:0.5\n"
        "lottery c yield 1:0.25 0:0.75\n"
        "\n"
        "[utility]\n"
        "weighted-sum 4.0*yield\n"
        "\n"
        "[transform]\n"
        "identity\n"
    )
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == OK
    assert out.splitlines() == [
        "rank 1 a 2.000000",
        "rank 1 b 2.000000",
        "rank 3 c 1.000000",
    ]


def test_rank_needs_a_decision_model(capsys):
    code, _, err = run_cli(capsys, "rank", DISPATCH)
    assert code == FAILURE
    assert "decision model" in err


# --- simulate ---


def test_simulate_machine_output(capsys):
    code, out, err = run_cli(capsys, "simulate", ALERTS, ALERTS_TRACE)
    assert code == OK
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[-1] == (
        "metrics status=completed optimal_time_fraction=1.000000 "
        "trigger_count=0 adaptation_tick_total=0 ignored_event_count=0"
    )


def test_simulate_human_output(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--format", "human", ALERTS, ALERTS_TRACE)
    assert code == OK
    assert "status: completed" in out
    assert "optimal time fraction: 1.000000" in out


def test_simulate_shock_fixture(capsys):
    code, out, _ = run_cli(capsys, "simulate", SHOCK, SHOCK_TRACE)
    assert code == OK
    assert "ignored=power_grid@1=0,shock@2=1" in out
    assert "optimal_time_fraction=0.500000" in out


def test_simulate_oracle_agrees(capsys):
    _, plain, _ = run_cli(capsys, "simulate", ALERTS, ALERTS_TRACE)
    code, out, err = run_cli(capsys, "simulate", "--oracle", ALERTS, ALERTS_TRACE)
    assert code == OK
    assert out == plain
    assert err == ""


def test_simulate_repeated_runs_match_byte_for_byte(capsys):
    _, first, _ = run_cli(capsys, "simulate", SHOCK, SHOCK_TRACE)
    _, second, _ = run_cli(capsys, "simulate", SHOCK, SHOCK_TRACE)
    assert first == second


def test_simulate_duration_override(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--duration", "2", ALERTS, ALERTS_TRACE)
    assert code == OK
    assert "kind=adaptation" in out
    assert "adaptation_tick_total=2" in out


def test_simulate_relaxation_prevents_firing(capsys, tmp_path):
    trace = tmp_path / "shift.trace"
    trace.write_text("ropas-trace v1\nt=2 demand_shift=-20\n")
    code, out, _ = run_cli(capsys, "simulate", ALERTS, str(trace))
    assert code == OK
    assert "trigger_count=1" in out
    code, out, _ = run_cli(
        capsys, "simulate", "--relax", "coverage=20", ALERTS, str(trace)
    )
    assert code == OK
    assert "trigger_count=0" in out


def test_simulate_rejects_malformed_relax(capsys):
    code, _, err = run_cli(capsys, "simulate", "--relax", "coverage", ALERTS, ALERTS_TRACE)
    assert code == USAGE
    assert "CRITERION=BAND" in err
    code, _, err = run_cli(
        capsys, "simulate", "--relax", "coverage=wide", ALERTS, ALERTS_TRACE
    )
    assert code == USAGE
    assert "is not a number" in err


def test_simulate_respects_the_cap(capsys):
    code, _, err = run_cli(capsys, "simulate", "--cap", "100", ALERTS, ALERTS_TRACE)
    assert code == FAILURE
    assert "exceeds cap" in err
