"""End-to-end tests for the command line interface.

Each test drives main() in process and checks the exit code, stdout, and
stderr against behaviour already pinned down by the unit tests for the
underlying modules.
"""

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from ropas import cli, runtime
from ropas.cli import FAILURE, OK, USAGE, main
from ropas.decisions import ALTERNATIVE_PARAMETER
from ropas.formats import MODEL_HEADER, parse_model, serialize_model
from ropas.goals import solve_rdrp
from ropas.model import Specification
from ropas.solver import (
    Infeasible,
    OptimalSolutions,
    brute_force_oracle,
    decode_selection,
    rop,
    solve_rop,
)
from genmodels import grid_decision_files, grid_table_files
from shipped import load

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


@pytest.mark.parametrize(
    "record, message",
    [
        ("initial m=5", "initial value 5 outside the domain of 'm'"),
        ("initial m=1 # note", "initial value '1 # note' outside the domain of 'm'"),
        ("initial-spec p=7", "initial-spec value 7 outside the domain of 'p'"),
    ],
)
def test_validate_checks_initial_values_against_their_domains(capsys, tmp_path, record, message):
    path = tmp_path / "bad.model"
    path.write_text(
        "ropas-model v1\n"
        "[variables]\n"
        "criterion score int:0:10 kind=utility pref=higher-better\n"
        "parameter p bool\n"
        "monitored m bool\n"
        "[depends]\n"
        "weighted-sum s -> score : 1.0*p\n"
        "[decision]\n"
        "rule score\n"
        "set p\n"
        "[simulation]\n"
        f"{record}\n"
    )
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (FAILURE, f"line 12: semantic: {message}\n", "")


def test_validate_rejects_a_trace_file(capsys):
    code, out, _ = run_cli(capsys, "validate", ALERTS_TRACE)
    assert code == USAGE
    assert "syntax" in out


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.model"))
    assert code == USAGE
    assert "cannot read" in err


@pytest.mark.parametrize("command", ("validate", "simulate"))
@pytest.mark.parametrize("kind", ("directory", "not utf-8"))
def test_an_unreadable_file_is_a_usage_error(capsys, tmp_path, command, kind):
    path = tmp_path / "unreadable"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(MODEL_HEADER.encode() + b"\n\xff\xfe\n")
    # simulate reads the model first, so the unreadable file is its trace.
    argv = ["validate", str(path)] if command == "validate" else ["simulate", ALERTS, str(path)]
    assert run_cli(capsys, *argv) == (USAGE, "", f"cannot read {path}\n")


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


def test_solve_names_a_decision_rule_that_nothing_computes(capsys, tmp_path):
    path = tmp_path / "unset_rule.model"
    path.write_text(
        "ropas-model v1\n"
        "\n"
        "[variables]\n"
        "criterion score int:0:10 kind=utility pref=higher-better\n"
        "parameter x bool default=0\n"
        "\n"
        "[decision]\n"
        "rule score\n"
        "set x\n"
    )
    assert run_cli(capsys, "validate", str(path)) == (OK, "ok\n", "")
    missing = "missing value for variable 'score'\n"
    assert run_cli(capsys, "solve", str(path)) == (FAILURE, "", missing)


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


def test_solve_oracle_computes_a_derived_parameter_from_a_default(capsys, tmp_path):
    path = tmp_path / "derived.model"
    path.write_text(
        "ropas-model v1\n"
        "\n"
        "[variables]\n"
        "criterion u int:0:9 kind=utility pref=higher-better\n"
        "parameter p bool\n"
        "parameter fix bool default=1\n"
        "parameter d bool\n"
        "\n"
        "[depends]\n"
        "boolean-formula d_def -> d : !fix\n"
        "weighted-sum u_sum -> u : 1.0*p + 2.0*d\n"
        "\n"
        "[decision]\n"
        "rule u\n"
        "set p\n"
    )
    _, plain, _ = run_cli(capsys, "solve", str(path))
    code, out, err = run_cli(capsys, "solve", "--oracle", str(path))
    assert (code, out, err) == (OK, plain, "")
    assert out.splitlines()[-1] == "optimum d=0,fix=1,p=1"


def test_solve_skips_a_cut_branch_that_the_oracle_evaluates(capsys, tmp_path):
    # x=1 gives u=-1, outside u's domain; the objective cut never computes it.
    path = tmp_path / "narrow.model"
    path.write_text(
        "ropas-model v1\n"
        "\n"
        "[variables]\n"
        "criterion u int:0:0 kind=utility pref=higher-better\n"
        "parameter x bool\n"
        "\n"
        "[depends]\n"
        "weighted-sum u_sum -> u : -1.0*x\n"
        "\n"
        "[decision]\n"
        "rule u\n"
        "set x\n"
    )
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, err) == (OK, "")
    assert out.splitlines()[-2:] == ["objective 0", "optimum x=0"]
    code, out, err = run_cli(capsys, "solve", "--oracle", str(path))
    assert (code, out) == (FAILURE, "")
    assert "not in integer range" in err


def test_solve_respects_the_cap(capsys):
    code, _, err = run_cli(capsys, "solve", "--cap", "100", ALERTS)
    assert code == FAILURE
    assert "exceeds cap" in err


WIDE_MODEL = """ropas-model v1

[variables]
criterion u int:0:10 kind=utility pref=higher-better
parameter p int:0:10 default=0
parameter q int:0:199999 default=0

[depends]
weighted-sum def_u -> u : 1.0*p

[decision]
rule u
set p

[simulation]
horizon 2
"""


@pytest.mark.parametrize("cap", (10, 11, 1000))
def test_solve_and_simulate_read_the_cap_alike(capsys, tmp_path, cap):
    """With no computed parameter, ``--cap`` bounds the decision set's space
    in both, not the 2.2 M specifications of the full product."""
    model, trace = tmp_path / "wide.model", tmp_path / "empty.trace"
    model.write_text(WIDE_MODEL, encoding="utf-8")
    trace.write_text("ropas-trace v1\n", encoding="utf-8")
    solved = run_cli(capsys, "solve", "--cap", str(cap), str(model))
    simulated = run_cli(capsys, "simulate", "--cap", str(cap), str(model), str(trace))
    if cap < 11:
        assert solved[:2] == simulated[:2] == (FAILURE, "")
        assert solved[2] == simulated[2] == f"search space 11 exceeds cap {cap}\n"
    else:
        assert solved[0] == simulated[0] == OK
        assert "optimum p=10,q=0" in solved[1]
        assert "spec=p=10,q=0" in simulated[1]


# --- encode-rdrp ---


def test_encode_rdrp_emits_a_solvable_model_file(capsys):
    code, out, err = run_cli(capsys, "encode-rdrp", DISPATCH)
    assert code == OK
    assert err == ""
    assert out.startswith(MODEL_HEADER)
    bundle = parse_model(out)
    assert bundle.model is not None
    result = solve_rop(rop(bundle.model, {}))
    goals = load("dispatch.model").goals
    decoded = {decode_selection(goals, spec) for spec in result.optima}
    assert decoded == set(solve_rdrp(goals))


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


def test_rank_looks_a_grid_outcome_up_by_its_grid_point(capsys, tmp_path):
    # The outcome 0.30000000000000004 and the table key 0.3 name one grid
    # point, 0.1 * 3.
    path = tmp_path / "grid.model"
    path.write_text(
        "ropas-model v1\n\n[attributes]\nattribute a grid:0:0.5:0.1\n\n"
        "[alternatives]\nalternative x\nalternative y\n"
        "lottery x a 0.30000000000000004:1.0\nlottery y a 0.2:0.5 0.5:0.5\n\n"
        "[utility]\nlookup-table 0=0 ; 0.1=1 ; 0.2=2 ; 0.3=3 ; 0.4=4 ; 0.5=5\n"
    )
    assert run_cli(capsys, "validate", str(path)) == (OK, "ok\n", "")
    expected = (OK, "rank 1 y 3.500000\nrank 2 x 3.000000\n", "")
    assert run_cli(capsys, "rank", str(path)) == expected
    assert run_cli(capsys, "rank", "--oracle", str(path)) == expected


def test_grid_outcomes_rank_as_their_short_literals(capsys, tmp_path):
    mixed, plain = tmp_path / "mixed.model", tmp_path / "plain.model"
    for seed in range(20):
        mixed_text, plain_text = grid_decision_files(random.Random(seed))
        mixed.write_text(mixed_text, encoding="utf-8")
        plain.write_text(plain_text, encoding="utf-8")
        expected = run_cli(capsys, "rank", str(plain))
        assert expected[0] == OK, seed
        assert run_cli(capsys, "validate", str(mixed)) == (OK, "ok\n", ""), seed
        assert run_cli(capsys, "rank", str(mixed)) == expected, seed
        assert run_cli(capsys, "rank", "--oracle", str(mixed)) == expected, seed


GRID_DECISION = (
    "ropas-model v1\n\n[attributes]\nattribute a grid:0:0.5:0.1\n\n"
    "[alternatives]\nalternative x\nalternative y\n{lotteries}\n\n"
    "[utility]\nweighted-sum 1.0*a\n"
)


def test_two_spellings_of_a_grid_outcome_tie_under_a_weighted_sum(capsys, tmp_path):
    # 0.3 and 0.30000000000000004 name one grid point, 0.1 * 3.
    path = tmp_path / "spellings.model"
    path.write_text(
        GRID_DECISION.format(lotteries="lottery x a 0.3:1.0\nlottery y a 0.30000000000000004:1.0"),
        encoding="utf-8",
    )
    expected = (OK, "rank 1 x 0.300000\nrank 1 y 0.300000\n", "")
    assert run_cli(capsys, "rank", str(path)) == expected
    assert run_cli(capsys, "rank", "--oracle", str(path)) == expected


def test_validate_rejects_two_spellings_of_one_outcome_in_a_lottery(capsys, tmp_path):
    path = tmp_path / "repeated.model"
    path.write_text(
        GRID_DECISION.format(
            lotteries="lottery x a 0.3:0.5 0.30000000000000004:0.5\nlottery y a 0.3:1.0"
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, err) == (FAILURE, "")
    assert out == "line 9: semantic: x/a: duplicate outcome 0.30000000000000004\n"


# Alternative b's lottery comes before its record, which is valid; zz is never declared.
UNDECLARED_ALTERNATIVE = (
    "ropas-model v1\n\n[attributes]\nattribute x int:0:5\n\n"
    "[alternatives]\nlottery b x 3:1.0\nalternative a\nlottery a x 1:1.0\n{zz}alternative b\n\n"
    "[utility]\nweighted-sum 1.0*x\n"
)


def test_a_lottery_for_an_undeclared_alternative_is_reported_at_its_line(capsys, tmp_path):
    path = tmp_path / "undeclared.model"
    path.write_text(UNDECLARED_ALTERNATIVE.format(zz="lottery zz x 2:1.0\n"), encoding="utf-8")
    finding = "line 10: semantic: lottery for undeclared alternative 'zz'\n"
    assert run_cli(capsys, "validate", str(path)) == (FAILURE, finding, "")
    code, out, err = run_cli(capsys, "rank", str(path))
    assert (code, out) == (FAILURE, "") and finding.strip() in err
    path.write_text(UNDECLARED_ALTERNATIVE.format(zz=""), encoding="utf-8")
    assert run_cli(capsys, "validate", str(path)) == (OK, "ok\n", "")
    ranked = (OK, "rank 1 b 3.000000\nrank 2 a 1.000000\n", "")
    assert run_cli(capsys, "rank", str(path)) == ranked


def test_a_goal_graph_finding_is_reported_at_the_record_it_names(capsys, tmp_path):
    path = tmp_path / "goals.model"
    path.write_text(
        "ropas-model v1\n\n[goalgraph]\natom r r mandatory\natom s0 s\natom s1 s\n"
        "refine r <- s0\nrefine r <- s0,zz\n",
        encoding="utf-8",
    )
    finding = "line 8: semantic: refinement references unknown atom 'zz'\n"
    assert run_cli(capsys, "validate", str(path)) == (FAILURE, finding, "")


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


def test_simulate_checks_but_never_applies_events_at_or_past_the_horizon(capsys, tmp_path):
    # shock.model's horizon is 4: a later event is bound and checked, then
    # neither applied nor counted as ignored.
    expected = run_cli(capsys, "simulate", SHOCK, SHOCK_TRACE)
    trace = tmp_path / "late.trace"
    text = Path(SHOCK_TRACE).read_text(encoding="utf-8")
    for late in ("t=4 shock=1", "t=9 shock=1", "t=9 power_grid=1"):
        trace.write_text(f"{text}{late}\n", encoding="utf-8")
        assert run_cli(capsys, "simulate", SHOCK, str(trace)) == expected
    for late, message in (
        ("t=9 zz=1", "event variable 'zz' is neither monitored nor declared in the change scope"),
        ("t=9 shock=7", "event value 7 outside the domain of 'shock'"),
    ):
        trace.write_text(f"{text}{late}\n", encoding="utf-8")
        assert run_cli(capsys, "simulate", SHOCK, str(trace)) == (FAILURE, "", message + "\n")


def test_simulate_oracle_agrees(capsys):
    _, plain, _ = run_cli(capsys, "simulate", ALERTS, ALERTS_TRACE)
    code, out, err = run_cli(capsys, "simulate", "--oracle", ALERTS, ALERTS_TRACE)
    assert code == OK
    assert out == plain
    assert err == ""


def test_simulate_oracle_solves_its_repeated_run_afresh(capsys, monkeypatch):
    # The repeated run gets a fresh copy of the model: it must re-solve, not
    # read back the first run's memo.
    solves, run, candidates = [], runtime.run_simulation, runtime.adaptation_candidates

    def counted_run(*args):
        solves.append(0)
        return run(*args)

    def counted_candidates(*args):
        solves[-1] += 1
        return candidates(*args)

    monkeypatch.setattr(cli, "run_simulation", counted_run)
    monkeypatch.setattr(runtime, "adaptation_candidates", counted_candidates)
    code, _, err = run_cli(capsys, "simulate", "--oracle", ALERTS, ALERTS_TRACE)
    assert (code, err) == (OK, "")
    assert len(solves) == 2 and solves[0] == solves[1] > 0


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


@pytest.mark.parametrize("band", ("nan", "inf", "-Infinity"))
def test_simulate_rejects_a_non_finite_relax_band(capsys, band):
    code, out, err = run_cli(capsys, "simulate", "--relax", f"capacity={band}", ALERTS, ALERTS_TRACE)
    assert (code, out, err) == (USAGE, "", f"--relax band '{band}' is not finite\n")


def test_simulate_respects_the_cap(capsys):
    code, _, err = run_cli(capsys, "simulate", "--cap", "100", ALERTS, ALERTS_TRACE)
    assert code == FAILURE
    assert "exceeds cap" in err
    code, out, err = run_cli(capsys, "simulate", "--cap", "3", SHOCK, SHOCK_TRACE)
    assert (code, out, err) == (FAILURE, "", "horizon 4 exceeds cap 3\n")


# --- decision set, parser, hash seed ---

DECISION_SET_MODEL = (
    "ropas-model v1\n"
    "\n"
    "[variables]\n"
    "criterion u int:0:6 kind=utility pref=higher-better\n"
    "parameter p bool default=0\n"
    "parameter q bool default=0\n"
    "\n"
    "[depends]\n"
    "weighted-sum u_total -> u : 1.0*p + 5.0*q\n"
    "\n"
    "[decision]\n"
    "rule u\n"
    "set p\n"
)


def test_solve_and_simulate_agree_on_a_parameter_outside_the_decision_set(capsys, tmp_path):
    model = tmp_path / "pq.model"
    model.write_text(DECISION_SET_MODEL)
    trace = tmp_path / "empty.trace"
    trace.write_text("ropas-trace v1\n")
    code, out, _ = run_cli(capsys, "solve", str(model))
    assert code == OK
    assert "optimum p=1,q=0\n" in out
    code, out, _ = run_cli(capsys, "simulate", str(model), str(trace))
    assert code == OK
    assert "spec=p=1,q=0 instance=u=1 " in out
    assert "optimal_time_fraction=1.000000" in out


GRID_TABLE = """ropas-model v1

[variables]
criterion level int:0:5 kind=quality-variable
criterion u int:0:9 kind=utility pref=higher-better
parameter p int:0:2
monitored m grid:0:0.5:0.1

[depends]
lookup-table t -> level : m : 0=0 ; 0.1=1 ; 0.2=2 ; 0.3=3 ; 0.4=4 ; 0.5=5
weighted-sum w -> u : 1*level + 2*p

[decision]
rule u
set p

[simulation]
initial m=0.3
"""


def test_a_table_key_names_a_grid_point_by_its_literal(capsys, tmp_path):
    # ``0.3`` keys the grid point ``0.1 * 3``, which is 0.30000000000000004.
    path = tmp_path / "grid.model"
    path.write_text(GRID_TABLE, encoding="utf-8")
    for oracle in ((), ("--oracle",)):
        code, out, err = run_cli(capsys, "solve", *oracle, str(path))
        assert (code, out.splitlines()[1:], err) == (OK, ["objective 7", "optimum p=2"], "")


def test_grid_keyed_tables_pass_every_subcommand(capsys, tmp_path):
    model, trace = tmp_path / "grid.model", tmp_path / "grid.trace"
    for seed in range(20):
        model_text, trace_text = grid_table_files(random.Random(seed))
        model.write_text(model_text, encoding="utf-8")
        trace.write_text(trace_text, encoding="utf-8")
        for argv in (
            ("validate",), ("solve",), ("solve", "--oracle"), ("enumerate", "--oracle"),
        ):
            code, _, err = run_cli(capsys, *argv, str(model))
            assert (code, err) == (OK, ""), (seed, argv)
        code, _, err = run_cli(capsys, "simulate", str(model), str(trace))
        assert (code, err) == (OK, ""), seed
        bundle = parse_model(model_text)
        problem = rop(bundle.model, dict(bundle.config.initial_exogenous))
        assert solve_rop(problem) == brute_force_oracle(problem), seed


def test_detect_names_a_grid_point_by_its_literal(capsys, tmp_path):
    # ``detect=0,0.3`` sees the event ``m=0.3`` and ignores only ``m=0.2``.
    path, trace = tmp_path / "detect.model", tmp_path / "detect.trace"
    path.write_text(
        "ropas-model v1\n\n[variables]\ncriterion u int:0:4 kind=utility pref=higher-better\n"
        "parameter p int:0:2\nmonitored m grid:0:0.5:0.1 detect=0,0.3\n\n[depends]\n"
        "weighted-sum w -> u : 2*p\n\n[decision]\nrule u\nset p\n\n"
        "[simulation]\ninitial m=0\n",
        encoding="utf-8",
    )
    trace.write_text("ropas-trace v1\nt=1 m=0.3\nt=2 m=0.2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path), str(trace))
    assert (code, err) == (OK, "")
    assert " ignored=m@2=0.200000 " in out
    assert out.endswith(" ignored_event_count=1\n")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    import ropas.cli as cli

    built = []
    original = cli.build_arg_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_arg_parser", counting)
    cli._parser.cache_clear()
    try:
        assert run_cli(capsys, "validate", SHOCK)[0] == OK
        assert run_cli(capsys, "validate", SHOCK)[0] == OK
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_repeated_parses_do_not_share_the_relax_list():
    from ropas.cli import _parser

    first = _parser().parse_args(["simulate", "m", "t", "--relax", "coverage=20"])
    second = _parser().parse_args(["simulate", "m", "t"])
    third = _parser().parse_args(["simulate", "m", "t", "--relax", "capacity=5"])
    assert first.relax == ["coverage=20"]
    assert second.relax == []
    assert third.relax == ["capacity=5"]


@pytest.mark.parametrize(
    "body, atom",
    [
        ("atom g r\nrefine g <- a,b\n", "'a'"),
        ("atom g r\natom s s\nrefine g <- s\nconflict x y\n", "'x'"),
    ],
)
def test_goal_graph_diagnostics_do_not_depend_on_the_hash_seed(tmp_path, body, atom):
    import os
    import subprocess
    import sys

    import ropas

    path = tmp_path / "goals.model"
    path.write_text("ropas-model v1\n\n[goalgraph]\n" + body)
    src = str(Path(ropas.__file__).resolve().parent.parent)
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "ropas", "validate", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == FAILURE, done.stderr
        assert f"unknown atom {atom}" in done.stdout, (seed, done.stdout)


# --- inputs deeper than the interpreter's recursion limit ---


def _write_model(tmp_path, lines) -> str:
    path = tmp_path / "deep.model"
    path.write_text("ropas-model v1\n" + "".join(f"{line}\n" for line in lines))
    return str(path)


@pytest.mark.parametrize(
    "body",
    ["!" * 10_000 + "a", "(" * 10_000 + "a" + ")" * 10_000, "!" * 101 + "a", "(" * 101 + "a)"],
    ids=["10000 nots", "10000 parentheses", "101 nots", "101 parentheses"],
)
def test_a_formula_nested_past_the_limit_is_a_syntax_issue(capsys, tmp_path, body):
    path = _write_model(tmp_path, [
        "[variables]", "criterion u bool kind=quality-variable", "parameter a bool default=0",
        "[depends]", f"boolean-formula fc -> u : {body}",
    ])
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, err) == (USAGE, "")
    assert out == "line 6: syntax: formula nested deeper than 100 levels\n"


@pytest.mark.parametrize(
    "body, message",
    [("(a", "missing ')'"), ("a $ a", "bad formula character '$'"), ("a &", "formula ends unexpectedly")],
)
def test_a_formula_syntax_error_exits_2(capsys, tmp_path, body, message):
    path = _write_model(tmp_path, [
        "[variables]", "criterion u bool kind=quality-variable", "parameter a bool default=0",
        "[depends]", f"boolean-formula fc -> u : {body}",
    ])
    assert run_cli(capsys, "validate", path) == (USAGE, f"line 6: syntax: {message}\n", "")


def test_a_formula_at_the_nesting_limit_is_read(capsys, tmp_path):
    path = _write_model(tmp_path, [
        "[variables]", "criterion u bool kind=quality-variable", "parameter a bool default=0",
        "[depends]", "boolean-formula fc -> u : " + "!" * 100 + "a",
    ])
    assert run_cli(capsys, "validate", path) == (OK, "ok\n", "")


def test_a_long_chain_of_functional_depends_is_ordered_without_recursion(capsys, tmp_path):
    # z0000 reads z0001, ..., and z1499 reads the parameter a: 1,500 links.
    path = _write_model(tmp_path, [
        "[variables]",
        *(f"criterion z{i:04d} bool kind=quality-variable" for i in range(1500)),
        "criterion util int:0:1 kind=utility pref=higher-better",
        "parameter a bool default=0",
        "[depends]",
        *(f"boolean-formula f{i:04d} -> z{i:04d} : z{i + 1:04d}" for i in range(1499)),
        "boolean-formula f1499 -> z1499 : a",
        "weighted-sum fu -> util : 1.0*z0000",
        "[decision]", "rule util", "set a",
    ])
    assert run_cli(capsys, "validate", path) == (OK, "ok\n", "")
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, out.splitlines()[-2:], err) == (OK, ["objective 1", "optimum a=1"], "")
    assert run_cli(capsys, "enumerate", path) == (OK, "spec a=0\nspec a=1\ncount 2\n", "")


def test_encode_rdrp_reads_a_long_chain_of_refinements(capsys, tmp_path):
    # The encoder names its criteria in sorted order: x0000 reads s, and
    # each later x reads the one before it.
    path = _write_model(tmp_path, [
        "[goalgraph]", "atom r r mandatory", "atom s s",
        *(f"atom x{i:04d}" for i in range(1500)),
        "refine x0000 <- s",
        *(f"refine x{i:04d} <- x{i - 1:04d}" for i in range(1, 1500)),
        "refine r <- x1499",
    ])
    code, out, err = run_cli(capsys, "encode-rdrp", "--oracle", path)
    assert (code, err) == (OK, "")
    result = solve_rop(rop(parse_model(out).model, {}))
    goals = parse_model(Path(path).read_text()).goals
    assert [decode_selection(goals, spec) for spec in result.optima] == [frozenset({"s"})]


def test_a_search_over_more_parameters_than_the_recursion_limit(capsys, tmp_path):
    # 1,200 one-value parameters in the decision set: a space of 1.
    ids = [f"p{i:04d}" for i in range(1200)]
    path = _write_model(tmp_path, [
        "[variables]", "criterion util int:0:1 kind=utility pref=higher-better",
        *(f"parameter {pid} int:0:0 default=0" for pid in ids),
        "[depends]", "weighted-sum fu -> util : 1.0*p0000",
        "[decision]", "rule util", "set " + ",".join(ids),
    ])
    assignment = ",".join(f"{pid}=0" for pid in ids)
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, out.splitlines()[-2:], err) == (OK, ["objective 0", f"optimum {assignment}"], "")
    assert run_cli(capsys, "enumerate", path) == (OK, f"spec {assignment}\ncount 1\n", "")


# --- every oracle disagreement ---


def _second_report_differs(real):
    calls = []

    def write_report(timeline, metrics, fmt):
        calls.append(fmt)
        return real(timeline, metrics, fmt) + "#" * len(calls)
    return write_report


@pytest.mark.parametrize(
    "argv, name, replace, message",
    [
        (
            ["enumerate", ALERTS], "brute_force_enumeration", lambda real: lambda *a: [],
            "oracle disagrees with the enumeration",
        ),
        (
            ["solve", ALERTS], "brute_force_oracle", lambda real: lambda *a, **k: Infeasible(),
            "oracle disagrees with the solver",
        ),
        (
            ["encode-rdrp", DISPATCH], "solve_rop", lambda real: lambda problem: Infeasible(),
            "oracle found selections but the encoding is infeasible",
        ),
        (
            ["encode-rdrp", DISPATCH], "solve_rdrp", lambda real: lambda graph: [],
            "decoded optima differ from the direct goal solver",
        ),
        (
            ["encode-rdrp", DISPATCH], "check_drp",
            lambda real: lambda graph, selection: SimpleNamespace(satisfaction=False),
            "a decoded selection fails its requirements",
        ),
        (
            ["rank", RESPOND], "solve_rop", lambda real: lambda problem: Infeasible(),
            "oracle reformulation came out infeasible",
        ),
        (
            ["rank", RESPOND], "solve_rop",
            lambda real: lambda problem: OptimalSolutions(
                (Specification.from_mapping({ALTERNATIVE_PARAMETER: "nobody"}),), 0.0
            ),
            "oracle head group differs from the ranking",
        ),
        (
            ["rank", RESPOND], "expected_utility",
            lambda real: lambda decision, alternative: real(decision, alternative) + 1.0,
            "oracle objective differs from the head expected utility",
        ),
        (
            ["simulate", ALERTS, ALERTS_TRACE], "write_report", _second_report_differs,
            "repeated run produced a different report",
        ),
    ],
)
def test_every_oracle_disagreement_fails_with_its_message(
    capsys, monkeypatch, argv, name, replace, message
):
    monkeypatch.setattr(f"ropas.cli.{name}", replace(getattr(cli, name)))
    assert run_cli(capsys, *argv, "--oracle") == (FAILURE, "", message + "\n")
