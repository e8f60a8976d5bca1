"""Metamorphic properties: changes to an input whose effect on the answer is
known from the definitions alone.

- Declaration order carries no meaning: shuffling a model's criteria,
  parameters, monitored variables and depends changes no solve, enumeration
  or simulation, and shuffling the ``alternative`` and ``lottery`` records
  of a decision file changes no byte of ``validate``, ``rank`` or
  ``rank --oracle`` (attribute order is left alone: it orders the sum).
  Shuffling the records within each section of a shipped model file
  changes no byte of any CLI run on it.
- A constraint only removes specifications: adding one leaves exactly the
  old feasible specifications that also satisfy it.
- A cap only refuses work: raising it never changes a result that fit under
  the lower one.

Renaming a goal graph's atoms is covered in ``test_goals.py``.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest

from genmodels import (
    decision_file,
    random_goal_graph,
    random_rop,
    random_runtime_scenario,
    with_derived_parameter,
)
from ropas.cli import main
from ropas.domains import domain_bounds
from ropas.errors import SizeLimitError
from ropas.goals import solve_rdrp, solve_rp2, solve_rp3
from ropas.model import (
    DEFAULT_ENUMERATION_CAP,
    LinearConstraint,
    enumerate_specifications,
    is_feasible,
    search_space_size,
)
from ropas.runtime import run_simulation
from ropas.solver import brute_force_oracle, rop, solve_rop
from shipped import FIXTURES


def _problems(count: int):
    """``count`` seeded ``random_rop`` problems, every second one with a
    derived parameter, each with the generator left for the test to draw on."""
    for seed in range(count):
        rng = random.Random(seed)
        problem = random_rop(rng, max_space=256)
        if seed % 2:
            problem = with_derived_parameter(rng, problem)
        yield seed, rng, problem


def _shuffled(rng: random.Random, model):
    def mixed(group):
        group = list(group)
        rng.shuffle(group)
        return tuple(group)

    return replace(
        model,
        criteria=mixed(model.criteria),
        parameters=mixed(model.parameters),
        monitored=mixed(model.monitored),
        depends=mixed(model.depends),
    )


def test_shuffled_declarations_solve_and_enumerate_the_same():
    for seed, rng, problem in _problems(200):
        model, exogenous = problem.model, problem.exogenous_map()
        shuffled = _shuffled(rng, model)
        assert repr(solve_rop(rop(shuffled, exogenous))) == repr(solve_rop(problem)), seed
        expected = repr(enumerate_specifications(model, exogenous))
        assert repr(enumerate_specifications(shuffled, exogenous)) == expected, seed


def test_shuffled_declarations_simulate_the_same():
    for seed in range(150):
        rng = random.Random(seed)
        model, trace, config = random_runtime_scenario(rng)
        shuffled = _shuffled(rng, model)
        expected = repr(run_simulation(model, trace, config))
        assert repr(run_simulation(shuffled, trace, config)) == expected, seed


def _cli_outputs(path) -> list:
    outputs = []
    for argv in (["validate", path], ["rank", path], ["rank", "--oracle", path]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def _shuffled_alternatives(rng: random.Random, text: str) -> str:
    """``text`` with the records of its ``[alternatives]`` section shuffled."""
    lines = text.splitlines(keepends=True)
    start = lines.index("[alternatives]\n") + 1
    end = lines.index("\n", start)
    records = lines[start:end]
    rng.shuffle(records)
    return "".join(lines[:start] + records + lines[end:])


def test_shuffled_alternative_records_rank_the_same(tmp_path):
    path = tmp_path / "decision.model"
    for seed in range(16):
        rng = random.Random(seed)
        text = decision_file(rng)
        path.write_text(text, encoding="utf-8")
        expected = _cli_outputs(str(path))
        assert [code for code, _, _ in expected] == [0, 0, 0], seed
        shuffled = _shuffled_alternatives(rng, text)
        assert shuffled != text
        path.write_text(shuffled, encoding="utf-8")
        assert _cli_outputs(str(path)) == expected, seed


def _shuffled_sections(rng: random.Random, text: str) -> str:
    """``text`` with the records of each section shuffled among that
    section's lines, apart from ``[attributes]``, whose order orders a
    weighted sum (see the float note in ``docs/formats.md``)."""
    lines = text.splitlines(keepends=True)
    sections: dict[str, list[int]] = {}
    section = None
    for at, line in enumerate(lines):
        record = line.strip()
        if record.startswith("["):
            section = record
        elif section not in (None, "[attributes]") and record and not record.startswith("#"):
            sections.setdefault(section, []).append(at)
    for places in sections.values():
        records = [lines[at] for at in places]
        rng.shuffle(records)
        for at, record in zip(places, records):
            lines[at] = record
    return "".join(lines)


def _every_cli_run(path: str) -> list:
    """The exit code, stdout and stderr of every subcommand on ``path``, in
    both report formats, with and without ``--oracle``; ``simulate`` with
    each shipped trace."""
    traces = sorted(str(trace) for trace in FIXTURES.glob("*.trace"))
    inputs = [[command, path] for command in ("enumerate", "solve", "encode-rdrp", "rank")]
    inputs += [["simulate", path, trace] for trace in traces]
    runs = [["validate", path]] + [
        [*given, "--format", fmt, *oracle]
        for given in inputs for fmt in ("machine", "human") for oracle in ([], ["--oracle"])
    ]
    outputs = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        outputs.append((argv[0], code, out.getvalue(), err.getvalue()))
    return outputs


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.model")))
def test_shuffled_records_in_each_section_change_no_cli_output(tmp_path, name):
    source = FIXTURES / name
    text = source.read_text(encoding="utf-8")
    expected = _every_cli_run(str(source))
    assert any(code == 0 for command, code, _, _ in expected if command != "validate")
    path = tmp_path / name
    shuffles = 0
    for seed in range(6):
        shuffled = _shuffled_sections(random.Random(seed), text)
        shuffles += shuffled != text
        path.write_text(shuffled, encoding="utf-8")
        named = str(path), str(source)
        outputs = [
            (command, code, out.replace(*named), err.replace(*named))
            for command, code, out, err in _every_cli_run(str(path))
        ]
        assert outputs == expected, seed
    assert shuffles >= 5


def test_an_added_constraint_only_filters_the_enumeration():
    for seed, rng, problem in _problems(200):
        model, exogenous = problem.model, problem.exogenous_map()
        numeric = sorted(
            v.id
            for v in model.criteria + model.parameters + model.monitored
            if domain_bounds(v.domain) is not None
        )
        inputs = tuple(rng.sample(numeric, min(len(numeric), rng.randint(1, 3))))
        weights = tuple(float(rng.randint(-3, 3)) for _ in inputs)
        bound = float(rng.randint(-6, 6))
        comparator = rng.choice(("<=", ">=", "=="))
        extra = LinearConstraint("extra", inputs, weights, comparator, bound)
        constrained = replace(model, depends=model.depends + (extra,))
        before = enumerate_specifications(model, exogenous)
        after = enumerate_specifications(constrained, exogenous)
        assert after == [s for s in before if is_feasible(constrained, s, exogenous)], seed


def test_raising_a_cap_keeps_every_result_that_fit():
    for seed, _, problem in _problems(100):
        model, exogenous = problem.model, problem.exogenous_map()
        space = search_space_size(model)
        decisions = search_space_size(model, model.decision_set)
        with pytest.raises(SizeLimitError):
            enumerate_specifications(model, exogenous, cap=space - 1)
        with pytest.raises(SizeLimitError):
            solve_rop(problem, cap=decisions - 1)
        with pytest.raises(SizeLimitError):
            brute_force_oracle(problem, cap=decisions - 1)
        fitted = enumerate_specifications(model, exogenous, cap=space)
        solved = solve_rop(problem, cap=decisions)
        oracle = brute_force_oracle(problem, cap=decisions)
        for cap in (space + 1, 2 * space, DEFAULT_ENUMERATION_CAP):
            assert enumerate_specifications(model, exogenous, cap=cap) == fitted, seed
        for cap in (decisions + 1, 2 * decisions, DEFAULT_ENUMERATION_CAP):
            assert solve_rop(problem, cap=cap) == solved, seed
            assert brute_force_oracle(problem, cap=cap) == oracle, seed


def test_raising_a_goal_solver_cap_keeps_every_result_that_fit():
    rng = random.Random(61)
    for index in range(100):
        g = random_goal_graph(rng, max_s=6, wide=index % 2 == 1)
        selections = 2 ** len(g.s_atoms)
        for solve in (solve_rp2, solve_rp3, solve_rdrp):
            with pytest.raises(SizeLimitError):
                solve(g, cap=selections - 1)
            fitted = solve(g, cap=selections)
            for cap in (selections + 1, 2 * selections):
                assert solve(g, cap=cap) == fitted, index
