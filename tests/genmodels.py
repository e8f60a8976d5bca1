"""Seeded random generators shared across the test suite.

Every generator takes a ``random.Random`` so test runs are reproducible.
The optimization-problem generator keeps all computed values on the integer
lattice (integer domains, integer weights) so that weighted-sum outputs
always land inside an integer-range criterion domain.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from itertools import product
from math import ceil, floor

from ropas.decisions import (
    Alternative,
    DecisionModel,
    IdentityTransform,
    Lottery,
    PowerTransform,
    TableTransform,
)
from ropas.domains import Boolean, Domain, Enumerated, IntegerRange, RealGrid, domain_bounds
from ropas.formats import format_scalar, parse_domain
from ropas.goals import GoalGraph, goal_graph
from ropas.model import (
    BooleanFormula,
    CardinalityConstraint,
    Criterion,
    Incompatibility,
    LinearConstraint,
    LookupTable,
    Model,
    MonitoredVariable,
    Parameter,
    Specification,
    ThresholdStep,
    WeightedSum,
    and_,
    not_,
    or_,
    validate_model,
    var,
)
from ropas.runtime import (
    AwarenessTrigger,
    Event,
    EventTrace,
    ForbiddenTransition,
    ForbiddenValue,
    IntervalRange,
    MaxParameterChanges,
    SimulationConfig,
)
from ropas.solver import Rop, rop


# ---------------------------------------------------------------------------
# Goal graphs


def random_goal_graph(rng: random.Random, max_s: int = 10, wide: bool = False) -> GoalGraph:
    """A goal graph, partitioned and refinement-acyclic unless ``wide``.

    With ``wide``, the graph also has atoms ``x<i>`` in no partition (refined
    from any atoms and feeding requirements), refinements that may close
    cycles (``s_j <- s_k`` with k > j, ``r <- r'``, a requirement feeding an
    ``x`` atom, self-loops) and conflicts drawn from the refinements'
    conclusions, so derived atoms clash too.
    """
    n_s = rng.randint(1, max_s)
    s_atoms = [f"s{i}" for i in range(n_s)]
    r_atoms = [f"r{i}" for i in range(rng.randint(1, 3))]
    k_atoms = [f"k{i}" for i in range(rng.randint(0, 2))]
    x_atoms = [f"x{i}" for i in range(rng.randint(0, 2))] if wide else []
    atoms = r_atoms + k_atoms + s_atoms + x_atoms
    refinements: list[tuple[str, tuple[str, ...]]] = []
    for r in r_atoms:
        for _ in range(rng.randint(1, 3)):
            pool = s_atoms + k_atoms + x_atoms
            size = rng.randint(1, min(3, len(pool)))
            refinements.append((r, tuple(rng.sample(pool, size))))
    # Selectable atoms may be derivable from strictly earlier ones, which
    # keeps the refinement graph acyclic by construction.
    for j in range(1, n_s):
        if rng.random() < 0.25:
            pool = s_atoms[:j] + k_atoms
            size = rng.randint(1, min(2, len(pool)))
            refinements.append((s_atoms[j], tuple(rng.sample(pool, size))))
    if wide:
        for x in x_atoms:
            for _ in range(rng.randint(0, 2)):
                refinements.append((x, tuple(rng.sample(atoms, rng.randint(1, 2)))))
        for j in range(n_s - 1):
            if rng.random() < 0.3:
                refinements.append((s_atoms[j], (rng.choice(s_atoms[j + 1 :]),)))
        for r in r_atoms:
            if rng.random() < 0.4:
                premises = {rng.choice(r_atoms)} | set(rng.sample(s_atoms, rng.randint(0, 1)))
                refinements.append((r, tuple(sorted(premises))))
    conflicts: list[tuple[str, str]] = []
    if len(atoms) >= 2:
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(atoms, 2)
            conflicts.append((a, b))
    if wide and rng.random() < 0.5:
        derived = sorted({conclusion for conclusion, _ in refinements})
        a = rng.choice(derived)
        b = rng.choice([atom for atom in atoms if atom != a])
        conflicts.append((a, b))
    mandatory = [r for r in r_atoms if rng.random() < 0.6]
    return goal_graph(atoms, refinements, conflicts, r_atoms, k_atoms, s_atoms, mandatory)


# ---------------------------------------------------------------------------
# Decision models


def dyadic_probabilities(rng: random.Random, count: int) -> list[float]:
    """Probabilities with denominator 64, so they sum to exactly 1.0."""
    if count == 1:
        return [1.0]
    cuts = sorted(rng.sample(range(1, 64), count - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [64])]
    return [w / 64 for w in weights]


def random_table_transform(rng: random.Random) -> TableTransform:
    mids = rng.randint(0, 3)
    ps = sorted(rng.sample([i / 16 for i in range(1, 16)], mids))
    fs = sorted(round(rng.random(), 3) for _ in range(mids))
    points = [(0.0, 0.0)] + list(zip(ps, fs)) + [(1.0, 1.0)]
    return TableTransform(tuple(points))


def random_decision_model(rng: random.Random) -> DecisionModel:
    n_alt = rng.randint(2, 6)
    n_attr = rng.randint(1, 4)
    attributes = []
    for i in range(n_attr):
        pick = rng.random()
        if pick < 0.3:
            domain: Domain = Boolean()
        elif pick < 0.6:
            lo = rng.randint(-5, 5)
            domain = IntegerRange(lo, lo + rng.randint(1, 4))
        else:
            count = rng.randint(2, 5)
            values = sorted(rng.sample([x / 4 for x in range(-40, 81)], count))
            domain = Enumerated(tuple(values))
        attributes.append(Criterion(f"a{i}", domain))
    alternatives = []
    for j in range(n_alt):
        lots = []
        for attr in attributes:
            values = list(attr.domain.values())
            n_out = rng.randint(1, min(5, len(values)))
            outcomes = rng.sample(values, n_out)
            probs = dyadic_probabilities(rng, n_out)
            lots.append((attr.id, Lottery(tuple(zip(outcomes, probs)))))
        alternatives.append(Alternative(f"alt{j}", tuple(lots)))
    attr_ids = tuple(a.id for a in attributes)
    sizes = 1
    for a in attributes:
        sizes *= a.domain.size
    if rng.random() < 0.4 and sizes <= 200:
        entries = tuple(
            (key, round(rng.uniform(-50.0, 50.0), 3))
            for key in product(*(a.domain.values() for a in attributes))
        )
        utility = LookupTable("utility", "utility", attr_ids, entries)
    else:
        weights = tuple(float(rng.randint(-5, 5)) for _ in attributes)
        utility = WeightedSum(
            "utility", "utility", attr_ids, weights, float(rng.randint(-3, 3))
        )
    pick = rng.random()
    if pick < 0.5:
        transform = IdentityTransform()
    elif pick < 0.8:
        transform = PowerTransform(rng.choice([0.5, 1.0, 2.0, 3.0]))
    else:
        transform = random_table_transform(rng)
    return DecisionModel(tuple(alternatives), attributes=tuple(attributes), utility=utility, transform=transform)


# The pair whose expected utilities are both 9/10 on paper but split in
# floats: 0.7*0 + 0.3*3 = 0.8999999999999999 and 0.1*0 + 0.9*1 = 0.9.
FLOAT_SPLIT_PAIR = (((0, "0.7"), (3, "0.3")), ((0, "0.1"), (1, "0.9")))


def _decimal_probabilities(rng: random.Random, count: int) -> list[str]:
    """``count`` decimal literals summing to 1 on paper: multiples of 1/4 or
    1/64 (exact in a float) or of 1/10 or 1/100 (most of them not)."""
    denominator = rng.choice((4, 10, 64, 100))
    cuts = sorted(rng.sample(range(1, denominator), count - 1))
    return [repr((b - a) / denominator) for a, b in zip([0] + cuts, cuts + [denominator])]


def decision_file(rng: random.Random, alternatives: int = 32, attributes: int = 4) -> str:
    """The text of a valid decision model file, ``alternatives`` x
    ``attributes`` lotteries of one to three outcomes each (the size of the
    ``cli-rank`` benchmark's files).  Attribute ``x0`` is ``int:-5:5``; the
    others are integer ranges, booleans or numeric enumerations mixing ints
    and floats, each holding 0.  The last two alternatives are
    ``FLOAT_SPLIT_PAIR`` on ``x0`` with every other outcome 0.  The utility
    is an integer-weighted sum; the transform is the identity, a power or a
    table."""
    domains = ["int:-5:5"]
    for _ in range(attributes - 1):
        domains.append(rng.choice(("int:-5:5", "int:0:3", "bool", "enum:-1.5,0,0.25,2,7.5")))
    values = [[format_scalar(v) for v in parse_domain(d).values()] for d in domains]
    names = [f"x{i}" for i in range(attributes)]
    lines = ["ropas-model v1", "", "[attributes]"]
    lines += [f"attribute {name} {domain}" for name, domain in zip(names, domains)]
    lines += ["", "[alternatives]"]
    alt_ids = [f"alt{n:02d}" for n in range(alternatives - 2)] + ["tie_x", "tie_y"]
    lines += [f"alternative {alt}" for alt in alt_ids]
    for alt in alt_ids[:-2]:
        for name, choices in zip(names, values):
            outcomes = rng.sample(choices, rng.randint(1, min(3, len(choices))))
            probabilities = _decimal_probabilities(rng, len(outcomes))
            pairs = " ".join(f"{v}:{p}" for v, p in zip(outcomes, probabilities))
            lines.append(f"lottery {alt} {name} {pairs}")
    for alt, split in zip(alt_ids[-2:], FLOAT_SPLIT_PAIR):
        lines.append(f"lottery {alt} x0 " + " ".join(f"{v}:{p}" for v, p in split))
        lines += [f"lottery {alt} {name} 0:1.0" for name in names[1:]]
    weights = [rng.randint(-5, 5) or 1 for _ in names]
    terms = " + ".join(f"{w}.0*{name}" for w, name in zip(weights, names))
    lines += ["", "[utility]", f"weighted-sum {terms} + {rng.randint(-3, 3)}.0", "", "[transform]"]
    lines.append(rng.choice(("identity", "identity", "power 2.0", "table 0.0:0.0 0.5:0.6 1.0:1.0")))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Optimization problems


def _small_domain(rng: random.Random) -> Domain:
    pick = rng.random()
    if pick < 0.4:
        return Boolean()
    if pick < 0.75:
        lo = rng.randint(-3, 3)
        return IntegerRange(lo, lo + rng.randint(1, 4))
    count = rng.randint(2, 4)
    return Enumerated(tuple(sorted(rng.sample(range(-6, 7), count))))


def random_rop(rng: random.Random, max_space: int = 1024) -> Rop:
    """A valid random optimization problem with search space <= max_space."""
    params: list[Parameter] = []
    space = 1
    for i in range(rng.randint(1, 5)):
        domain = _small_domain(rng)
        if space * domain.size > max_space:
            break
        space *= domain.size
        params.append(Parameter(f"p{i}", domain))
    decision_ids = tuple(p.id for p in params)
    if rng.random() < 0.4:
        domain = _small_domain(rng)
        params.append(Parameter("fix0", domain, default=rng.choice(domain.values())))
    monitored = []
    exogenous = {}
    for i in range(rng.randint(0, 2)):
        monitored.append(MonitoredVariable(f"m{i}", IntegerRange(-4, 4)))
        exogenous[f"m{i}"] = rng.randint(-4, 4)

    bounds: dict[str, tuple[float, float]] = {}
    booleans: list[str] = []
    for p in params:
        bounds[p.id] = domain_bounds(p.domain)
        if isinstance(p.domain, Boolean):
            booleans.append(p.id)
    for m in monitored:
        bounds[m.id] = domain_bounds(m.domain)

    criteria: list[Criterion] = []
    depends: list = []

    def add_weighted(cid: str, kind: str, preference) -> None:
        pool = list(bounds)
        ins = tuple(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        ws = tuple(float(rng.randint(-3, 3)) for _ in ins)
        offset = float(rng.randint(-2, 2))
        lo = offset + sum(min(w * bounds[n][0], w * bounds[n][1]) for w, n in zip(ws, ins))
        hi = offset + sum(max(w * bounds[n][0], w * bounds[n][1]) for w, n in zip(ws, ins))
        domain = IntegerRange(floor(lo), ceil(hi) if ceil(hi) > floor(lo) else floor(lo) + 1)
        criteria.append(Criterion(cid, domain, kind, preference))
        depends.append(WeightedSum(f"def_{cid}", cid, ins, ws, offset))
        bounds[cid] = (float(domain.lo), float(domain.hi))

    for i in range(rng.randint(1, 3)):
        cid = f"c{i}"
        form = rng.choice(("sum", "lookup", "step", "formula"))
        if form == "lookup":
            pool = [n for n in bounds if _lookup_ok(n, params, monitored, criteria)]
            pool = [n for n in pool if _var_size(n, params, monitored, criteria) <= 9]
            if pool:
                count = 1 if len(pool) == 1 else rng.randint(1, 2)
                ins = tuple(rng.sample(pool, count))
                combos = list(
                    product(*(_var_values(n, params, monitored, criteria) for n in ins))
                )
                if len(combos) <= 30:
                    entries = tuple(
                        (combo, rng.randint(-5, 5)) for combo in combos
                    )
                    criteria.append(Criterion(cid, IntegerRange(-5, 5), "quality-variable"))
                    depends.append(LookupTable(f"def_{cid}", cid, ins, entries))
                    bounds[cid] = (-5.0, 5.0)
                    continue
            form = "sum"
        if form == "step":
            pool = list(bounds)
            name = rng.choice(pool)
            lo, hi = bounds[name]
            cut = float(rng.randint(int(floor(lo)), int(ceil(hi))))
            criteria.append(Criterion(cid, Boolean(), "quality-variable"))
            depends.append(ThresholdStep(f"def_{cid}", cid, name, cut))
            bounds[cid] = (0.0, 1.0)
            booleans.append(cid)
        elif form == "formula" and booleans:
            names = rng.sample(booleans, rng.randint(1, min(3, len(booleans))))
            leaves = [not_(var(n)) if rng.random() < 0.4 else var(n) for n in names]
            expr = and_(*leaves) if rng.random() < 0.5 else or_(*leaves)
            criteria.append(Criterion(cid, Boolean(), "quality-variable"))
            depends.append(BooleanFormula(f"def_{cid}", cid, expr))
            bounds[cid] = (0.0, 1.0)
            booleans.append(cid)
        elif form == "sum":
            add_weighted(cid, "quality-variable", None)
            if isinstance(criteria[-1].domain, Boolean):
                booleans.append(cid)

    add_weighted("goal", "utility", "higher-better")

    constraints: list = []
    for i in range(rng.randint(0, 3)):
        kind = rng.choice(("linear", "cardinality", "incompatibility"))
        if kind == "linear":
            pool = list(bounds)
            ins = tuple(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
            ws = tuple(float(rng.randint(-2, 2)) for _ in ins)
            lo = sum(min(w * bounds[n][0], w * bounds[n][1]) for w, n in zip(ws, ins))
            hi = sum(max(w * bounds[n][0], w * bounds[n][1]) for w, n in zip(ws, ins))
            bound = float(rng.randint(int(floor(lo)), max(int(ceil(hi)), int(floor(lo)) + 1)))
            constraints.append(
                LinearConstraint(f"con{i}", ins, ws, rng.choice(("<=", ">=", "==")), bound)
            )
        elif kind == "cardinality" and booleans:
            ins = tuple(rng.sample(booleans, rng.randint(1, min(3, len(booleans)))))
            constraints.append(
                CardinalityConstraint(
                    f"con{i}", ins, rng.choice(("<=", ">=", "==")), rng.randint(0, len(ins))
                )
            )
        elif kind == "incompatibility" and len(booleans) >= 2:
            a, b = rng.sample(booleans, 2)
            constraints.append(Incompatibility(f"con{i}", a, b))

    model = Model(
        criteria=tuple(criteria),
        parameters=tuple(params),
        monitored=tuple(monitored),
        depends=tuple(depends) + tuple(constraints),
        decision_rule="goal",
        decision_set=decision_ids,
    )
    problems = validate_model(model)
    assert not problems, problems
    return rop(model, exogenous)


def with_derived_parameter(rng: random.Random, problem: Rop) -> Rop:
    """The problem plus a boolean parameter ``d0`` that a threshold step computes.

    The step reads the defaulted ``fix0`` when the model has one, otherwise a
    decision parameter, and the utility gains a term in ``d0``.  It draws from
    ``rng`` only after ``random_rop`` is done, so ``random_rop``'s stream is
    unchanged.
    """
    model = problem.model
    source = "fix0" if model.has_variable("fix0") else rng.choice(model.decision_set)
    lo, hi = domain_bounds(model.parameter(source).domain)
    step = ThresholdStep("def_d0", "d0", source, float(rng.randint(int(lo), int(hi))))
    weight = float(rng.randint(-3, 3))
    default = rng.choice((None, 0, 1))
    criteria = tuple(
        replace(c, domain=IntegerRange(c.domain.lo - 3, c.domain.hi + 3))
        if c.id == "goal"
        else c
        for c in model.criteria
    )
    depends = tuple(
        replace(d, inputs=d.inputs + ("d0",), weights=d.weights + (weight,))
        if d.id == "def_goal"
        else d
        for d in model.depends
    )
    model = replace(
        model,
        criteria=criteria,
        parameters=model.parameters + (Parameter("d0", Boolean(), default=default),),
        depends=depends + (step,),
    )
    problems = validate_model(model)
    assert not problems, problems
    return rop(model, problem.exogenous_map())


def with_real_coefficients(rng: random.Random, problem: Rop) -> Rop:
    """The problem with tenths for coefficients: every linear constraint gets
    coefficients and a bound that are multiples of 0.1, and the utility gets
    such weights and offset over a ``RealGrid`` domain of step 0.1.

    Tenths are not dyadic, so the sums the search keeps round differently
    from the sums ``evaluate`` and ``is_feasible`` compute.  It draws from
    ``rng`` only after ``random_rop`` (and ``with_derived_parameter``) are
    done, so their streams are unchanged.
    """
    model = problem.model

    def tenths(dep) -> tuple[int, ...]:
        return tuple(rng.randint(-20, 20) for _ in dep.inputs)

    def extremes(dep, weights, offset: int = 0) -> tuple[float, float]:
        """Smallest and largest offset + sum(weight * input), in tenths."""
        lo = hi = offset
        for w, name in zip(weights, dep.inputs):
            b0, b1 = domain_bounds(model.variable_domain(name))
            ends = (w * b0, w * b1)
            lo, hi = lo + min(ends), hi + max(ends)
        return lo, hi

    utility = next(d for d in model.depends if d.id == "def_goal")
    weights, offset = tenths(utility), rng.randint(-20, 20)
    lo, hi = extremes(utility, weights, offset)
    utility = replace(utility, weights=tuple(w / 10 for w in weights), offset=offset / 10)
    grid = RealGrid(floor(lo) / 10, ceil(hi) / 10, 0.1)
    model = replace(
        model,
        criteria=tuple(replace(c, domain=grid) if c.id == "goal" else c for c in model.criteria),
    )
    depends = []
    for dep in model.depends:
        if dep.id == "def_goal":
            dep = utility
        elif isinstance(dep, LinearConstraint):
            weights = tenths(dep)
            lo, hi = extremes(dep, weights)
            bound = rng.randint(floor(lo), ceil(hi)) / 10
            dep = replace(dep, coefficients=tuple(w / 10 for w in weights), bound=bound)
        depends.append(dep)
    model = replace(model, depends=tuple(depends))
    problems = validate_model(model)
    assert not problems, problems
    return rop(model, problem.exogenous_map())


def large_integral_rows(rng: random.Random) -> Model:
    """Integer rows whose scale (the bound on every partial sum) lies within
    12,000 of 2**50, on either side, over boolean and small integer
    parameters.  Below 2**50 the search tests such a row from its running
    sums; from 2**50 on it sums the row again.  Each bound is the row's sum
    at one leaf drawn for the model, moved by -1, 0 or 1 for an inequality;
    the utility's weights are drawn the same way as the rows'."""
    n = rng.randint(3, 6)
    ids = [f"p{j}" for j in range(n)]
    domains = {
        pid: Boolean()
        if rng.random() < 0.5
        else IntegerRange(-rng.randint(0, 1), rng.randint(1, 2))
        for pid in ids
    }
    leaf = {pid: rng.choice(domain.values()) for pid, domain in domains.items()}

    def coefficients(inputs) -> tuple[int, ...]:
        raw = [rng.choice((1, -1)) * rng.randint(1, 1000) for _ in inputs]
        span = sum(
            abs(c) * max(map(abs, domain_bounds(domains[name])))
            for c, name in zip(raw, inputs)
        )
        times = int(2**50 // span) + rng.choice((0, 1))
        return tuple(c * times for c in raw)

    weights = coefficients(ids)
    top = sum(abs(w) * 2 for w in weights)
    depends = [WeightedSum("def_u", "u", tuple(ids), tuple(map(float, weights)))]
    for c in range(rng.randint(1, 3)):
        inputs = tuple(rng.sample(ids, rng.randint(2, n)))
        row = coefficients(inputs)
        total = sum(w * leaf[name] for w, name in zip(row, inputs))
        comparator = rng.choice(("==", "==", "<=", ">="))
        if comparator != "==":
            total += rng.choice((-1, 0, 1))
        depends.append(
            LinearConstraint(f"c{c}", inputs, tuple(map(float, row)), comparator, float(total))
        )
    model = Model(
        criteria=(Criterion("u", IntegerRange(-top, top), "utility", "higher-better"),),
        parameters=tuple(Parameter(pid, domain) for pid, domain in domains.items()),
        depends=tuple(depends),
        decision_rule="u",
        decision_set=tuple(ids),
    )
    problems = validate_model(model)
    assert not problems, problems
    return model


def at_most_one_rop(rng: random.Random) -> Rop:
    """A valid random problem whose booleans fall into at-most-one rows under
    a utility with weights of both signs.

    Two or three groups of two or three boolean parameters each get the row
    ``cardinality ... == 1``, ``cardinality ... <= 1`` or an incompatibility
    of its first two inputs, which are shuffled.  One member of the first
    group is an input of the second group's row too.  Each of the monitored
    boolean ``m`` (exogenous), the boolean ``fix`` outside the decision set
    (pinned to its default) and the boolean criterion ``d`` (a formula over
    two members) joins one group's row in most problems.  The utility ``u``
    weighs all of them and the free ``q int:0:2`` by integers from -6 to 6,
    or in half the problems by tenths of those over a ``RealGrid`` of step
    0.1.
    """
    groups = [[f"b{g}{j}" for j in range(rng.randint(2, 3))] for g in range(rng.randint(2, 3))]
    booleans = [name for group in groups for name in group]
    rows = [list(group) for group in groups]
    rows[1].append(rng.choice(groups[0]))
    for extra in ("m", "fix", "d"):
        if rng.random() < 0.8:
            rng.choice(rows).append(extra)
    depends: list = []
    for r, inputs in enumerate(rows):
        rng.shuffle(inputs)
        kind = rng.choice(("==", "<=", "incompatibility"))
        if kind == "incompatibility":
            depends.append(Incompatibility(f"g{r}", inputs[0], inputs[1]))
        else:
            depends.append(CardinalityConstraint(f"g{r}", tuple(inputs), kind, 1))
    x, y = rng.sample(booleans, 2)
    depends.append(
        BooleanFormula("def_d", "d", rng.choice((and_, or_))(var(x), not_(var(y))))
    )
    weighed = booleans + ["m", "fix", "d", "q"]
    weights = [rng.randint(-6, 6) for _ in weighed]
    offset = rng.randint(-5, 5)
    lo = offset + sum(min(0, w * (2 if n == "q" else 1)) for w, n in zip(weights, weighed))
    hi = offset + sum(max(0, w * (2 if n == "q" else 1)) for w, n in zip(weights, weighed))
    scale: float = 1
    domain: Domain = IntegerRange(lo, hi)
    if rng.random() < 0.5:
        scale, domain = 10.0, RealGrid(lo / 10, hi / 10, 0.1)
    depends.insert(
        0,
        WeightedSum(
            "def_u", "u", tuple(weighed), tuple(w / scale for w in weights), offset / scale
        ),
    )
    model = Model(
        criteria=(
            Criterion("u", domain, "utility", "higher-better"),
            Criterion("d", Boolean(), "quality-variable"),
        ),
        parameters=(
            *(Parameter(name, Boolean()) for name in booleans),
            Parameter("fix", Boolean(), default=rng.randint(0, 1)),
            Parameter("q", IntegerRange(0, 2)),
        ),
        monitored=(MonitoredVariable("m", Boolean()),),
        depends=tuple(depends),
        decision_rule="u",
        decision_set=tuple(booleans) + ("q",),
    )
    problems = validate_model(model)
    assert not problems, problems
    return rop(model, {"m": rng.randint(0, 1)})


def _find_domain(name, params, monitored, criteria) -> Domain:
    for p in params:
        if p.id == name:
            return p.domain
    for m in monitored:
        if m.id == name:
            return m.domain
    for c in criteria:
        if c.id == name:
            return c.domain
    raise KeyError(name)


def _lookup_ok(name, params, monitored, criteria) -> bool:
    try:
        _find_domain(name, params, monitored, criteria)
        return True
    except KeyError:
        return False


def _var_size(name, params, monitored, criteria) -> int:
    return _find_domain(name, params, monitored, criteria).size


def _var_values(name, params, monitored, criteria):
    return _find_domain(name, params, monitored, criteria).values()


# ---------------------------------------------------------------------------
# Simulation scenarios


def random_runtime_pair(
    rng: random.Random,
) -> tuple[Model, EventTrace, SimulationConfig]:
    """An always-feasible model, a trace, and a duration-0 configuration.

    Watched criteria read only monitored variables, so trigger firing does
    not depend on which specification is active.
    """
    params = tuple(Parameter(f"p{i}", Boolean()) for i in range(rng.randint(1, 3)))
    monitored = tuple(
        MonitoredVariable(f"m{i}", IntegerRange(-50, 50))
        for i in range(rng.randint(1, 2))
    )
    criteria: list[Criterion] = []
    depends: list = []
    triggers = []
    initial = {m.id: rng.randint(-5, 5) for m in monitored}
    for i, m in enumerate(monitored):
        cid = f"w{i}"
        weight = float(rng.randint(1, 2))
        criteria.append(Criterion(cid, IntegerRange(-200, 200), "quality-variable"))
        depends.append(WeightedSum(f"def_{cid}", cid, (m.id,), (weight,)))
        center = weight * initial[m.id]
        triggers.append(
            AwarenessTrigger(
                cid,
                IntervalRange(center - rng.randint(0, 5), center + rng.randint(0, 5)),
            )
        )
    goal_ins = tuple(p.id for p in params) + tuple(m.id for m in monitored)
    goal_ws = tuple(float(rng.randint(-3, 3)) for _ in goal_ins)
    criteria.append(Criterion("goal", IntegerRange(-400, 400), "utility", "higher-better"))
    depends.append(WeightedSum("def_goal", "goal", goal_ins, goal_ws))
    model = Model(
        criteria=tuple(criteria),
        parameters=params,
        monitored=monitored,
        depends=tuple(depends),
        decision_rule="goal",
        decision_set=tuple(p.id for p in params),
    )
    assert not validate_model(model)

    ticks = sorted(rng.randint(0, 12) for _ in range(rng.randint(3, 10)))
    events = tuple(
        Event(t, rng.choice(monitored).id, rng.randint(-10, 10)) for t in ticks
    )
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=tuple(triggers),
        initial_exogenous=tuple(sorted(initial.items())),
    )
    return model, EventTrace(events), config


def random_runtime_scenario(
    rng: random.Random,
) -> tuple[Model, EventTrace, SimulationConfig]:
    """A ``random_runtime_pair`` widened to reach every simulator path.

    It draws only after ``random_runtime_pair`` does, so the pair's random
    stream is unchanged.  On top of it come an adaptation duration of 0-3, an
    optional initial specification, events at tick 0 (some on a change-scope
    variable), evolution constraints, a linear constraint that a monitored
    value can break for every specification, and narrowed detectable ranges.
    """
    model, trace, config = random_runtime_pair(rng)
    params = [p.id for p in model.parameters]
    watched = model.monitored[0].id
    breakable = LinearConstraint(
        "breakable", (params[0], watched), (float(rng.choice((-1, 1))), 1.0),
        "<=", float(rng.randint(-2, 8)),
    )
    monitored = tuple(
        replace(m, detectable_range=tuple(range(rng.randint(-12, 0), rng.randint(0, 12) + 1)))
        if rng.random() < 0.5 else m
        for m in model.monitored
    )
    model = replace(model, monitored=monitored, depends=model.depends + (breakable,))
    assert not validate_model(model)

    scope = (("noise", Boolean()),)
    early = []
    for _ in range(rng.randint(0, 2)):
        name = rng.choice([m.id for m in monitored] + ["noise"])
        early.append(Event(0, name, rng.randint(0, 1) if name == "noise" else rng.randint(-10, 10)))
    later = tuple(
        Event(e.tick, "noise", 1) if rng.random() < 0.2 else e for e in trace.events
    )
    constraints: list = []
    if rng.random() < 0.4:
        constraints.append(MaxParameterChanges(rng.randint(0, 2)))
    if rng.random() < 0.3:
        constraints.append(ForbiddenValue(rng.choice(params), rng.randint(0, 1)))
    if rng.random() < 0.3:
        constraints.append(
            ForbiddenTransition(((rng.choice(params), 0),), ((rng.choice(params), 1),))
        )
    initial = None
    if rng.random() < 0.5:
        initial = Specification.from_mapping({pid: rng.randint(0, 1) for pid in params})
    config = replace(
        config,
        adaptation_duration=rng.randint(0, 3),
        constraints=tuple(constraints),
        initial_spec=initial,
        change_scope=scope,
        horizon=rng.choice((None, rng.randint(1, 16))),
    )
    return model, EventTrace(tuple(early) + later), config


def random_runtime_pinned(
    rng: random.Random,
) -> tuple[Model, EventTrace, SimulationConfig]:
    """A ``random_runtime_scenario`` with a parameter outside the decision set.

    It draws only after ``random_runtime_scenario`` does, so the scenario's
    random stream is unchanged.  The parameter ``k`` (0 up to 1-3, with a
    default) sorts before every decision parameter, and both the utility and
    the breakable constraint read it.  An initial specification gives ``k``
    a value of its own, so each re-solve keeps either that value or the
    default, and a monitored value can break the constraint for that ``k``
    whatever the decision set does.
    """
    model, trace, config = random_runtime_scenario(rng)
    k = Parameter("k", IntegerRange(0, rng.randint(1, 3)), rng.randint(0, 1))
    extra = {
        "def_goal": ("weights", float(rng.randint(-3, 3))),
        "breakable": ("coefficients", float(rng.choice((-1, 1)))),
    }
    depends = []
    for dep in model.depends:
        if dep.id in extra:
            field, term = extra[dep.id]
            dep = replace(dep, inputs=dep.inputs + ("k",), **{field: getattr(dep, field) + (term,)})
        depends.append(dep)
    model = replace(model, parameters=model.parameters + (k,), depends=tuple(depends))
    assert not validate_model(model)
    if config.initial_spec is not None:
        start = dict(config.initial_spec.items, k=rng.randint(0, k.domain.hi))
        config = replace(config, initial_spec=Specification.from_mapping(start))
    return model, trace, config


# ---------------------------------------------------------------------------
# Grid-keyed lookup tables


def grid_table_files(rng: random.Random) -> tuple[str, str]:
    """The text of a valid model file and of a trace over one ``RealGrid``
    whose points both files name by their short decimal literals: ``0.3``
    for the grid point ``0.1 * 3``.

    The grid is the domain of the parameter ``g`` and of the monitored
    variable ``m``, which has an ``initial`` value and, in half the files, a
    ``detect=`` subset.  The table ``t`` maps each point of ``m`` to
    ``level``, the table ``s`` each pair of ``g`` and ``m`` to ``bonus``, and
    the decision rule is ``u = level + bonus + 2*p`` over the decision set
    ``g,p``, watched by one trigger.  The trace moves ``m`` through grid
    points.
    """
    step, scale = rng.choice(((1, 10), (2, 10), (5, 10), (5, 100), (25, 100)))
    first = rng.randint(0, 3)
    points = [f"{(first + i) * step / scale:g}" for i in range(rng.randint(2, 6))]
    grid = f"grid:{points[0]}:{points[-1]}:{step / scale:g}"
    top = rng.randint(1, 5)
    detect = ""
    if rng.random() < 0.5:
        detect = " detect=" + ",".join(rng.sample(points, rng.randint(1, len(points))))
    level = " ; ".join(f"{point}={rng.randint(0, top)}" for point in points)
    bonus = " ; ".join(
        f"{a},{b}={rng.randint(0, top)}" for a, b in product(points, points)
    )
    lines = [
        "ropas-model v1", "", "[variables]",
        f"criterion level int:0:{top} kind=quality-variable",
        f"criterion bonus int:0:{top} kind=quality-variable",
        f"criterion u int:0:{2 * top + 4} kind=utility pref=higher-better",
        f"parameter g {grid}", "parameter p int:0:2", f"monitored m {grid}{detect}",
        "", "[depends]",
        f"lookup-table t -> level : m : {level}",
        f"lookup-table s -> bonus : g,m : {bonus}",
        "weighted-sum w -> u : 1*level + 1*bonus + 2*p",
        "", "[decision]", "rule u", "set g,p",
        "", "[triggers]", f"trigger u in [{rng.randint(0, 2 * top + 4)},*]",
        "", "[simulation]", f"initial m={rng.choice(points)}",
    ]
    ticks = sorted(rng.sample(range(1, 12), rng.randint(1, 5)))
    events = [f"t={tick} m={rng.choice(points)}" for tick in ticks]
    return "\n".join(lines) + "\n", "\n".join(["ropas-trace v1", *events]) + "\n"


def grid_decision_files(rng: random.Random) -> tuple[str, str]:
    """The texts of two valid decision files that differ only in how they
    name grid points.  The second names each point by its short decimal
    literal (``0.3``); the first names each outcome and each table key, at
    random, by that literal or by the ``repr`` of the grid's own float
    (``0.30000000000000004`` for ``0.1 * 3``).

    One or two attributes range over grids of two to four points, the
    utility is a weighted sum of them with small integer weights or a lookup
    table over every combination of their points, and two to four
    alternatives hold lotteries of one to three outcomes.
    """
    grids = []
    for _ in range(rng.randint(1, 2)):
        step, scale = rng.choice(((1, 10), (2, 10), (5, 10), (5, 100), (25, 100)))
        first = rng.randint(0, 3)
        short = [f"{(first + i) * step / scale:g}" for i in range(rng.randint(2, 4))]
        domain = f"grid:{short[0]}:{short[-1]}:{step / scale:g}"
        grids.append((domain, short, [repr(v) for v in parse_domain(domain).values()]))
    # The template names point i of attribute g as <g.i>.
    lines = ["ropas-model v1", "", "[attributes]"]
    lines += [f"attribute a{g} {domain}" for g, (domain, _, _) in enumerate(grids)]
    alternatives = [f"alt{n}" for n in range(rng.randint(2, 4))]
    lines += ["", "[alternatives]"] + [f"alternative {alt}" for alt in alternatives]
    for alt in alternatives:
        for g, (_, short, _) in enumerate(grids):
            points = rng.sample(range(len(short)), rng.randint(1, min(3, len(short))))
            probabilities = _decimal_probabilities(rng, len(points))
            pairs = " ".join(f"<{g}.{i}>:{p}" for i, p in zip(points, probabilities))
            lines.append(f"lottery {alt} a{g} {pairs}")
    if rng.random() < 0.5:
        terms = " + ".join(f"{rng.randint(1, 3)}*a{g}" for g in range(len(grids)))
        utility = f"weighted-sum {terms}"
    else:
        keys = product(*(range(len(short)) for _, short, _ in grids))
        entries = (",".join(f"<{g}.{i}>" for g, i in enumerate(key)) for key in keys)
        utility = "lookup-table " + " ; ".join(f"{entry}={rng.randint(0, 9)}" for entry in entries)
    template = "\n".join(lines + ["", "[utility]", utility]) + "\n"

    def point(match: re.Match, mixed: bool) -> str:
        _, short, exact = grids[int(match[1])]
        names = (short[int(match[2])], exact[int(match[2])])
        return rng.choice(names) if mixed else names[0]

    pattern = re.compile(r"<(\d)\.(\d)>")
    return (
        pattern.sub(lambda match: point(match, True), template),
        pattern.sub(lambda match: point(match, False), template),
    )
