"""End-to-end tests for the command line interface.

Each test drives main() in process and checks the exit code, stdout, and
stderr against behaviour already pinned down by the unit tests for the
underlying modules.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from ropas import cli
from ropas.cli import FAILURE, OK, USAGE, main
from ropas.decisions import ALTERNATIVE_PARAMETER
from ropas.fixtures import dispatch_goals
from ropas.formats import MODEL_HEADER, parse_model, serialize_model
from ropas.goals import solve_rdrp
from ropas.model import Specification
from ropas.solver import Infeasible, OptimalSolutions, decode_selection, rop, solve_rop

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


@pytest.mark.parametrize("band", ("nan", "inf", "-Infinity"))
def test_simulate_rejects_a_non_finite_relax_band(capsys, band):
    code, out, err = run_cli(capsys, "simulate", "--relax", f"capacity={band}", ALERTS, ALERTS_TRACE)
    assert (code, out, err) == (USAGE, "", f"--relax band '{band}' is not finite\n")


def test_simulate_respects_the_cap(capsys):
    code, _, err = run_cli(capsys, "simulate", "--cap", "100", ALERTS, ALERTS_TRACE)
    assert code == FAILURE
    assert "exceeds cap" in err


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
