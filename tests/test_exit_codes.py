"""The exit-code contract on mutated documents: 0 success, 1 violations (and
only with a non-empty violation list), 2 a bad document, 3 a cap.  `main`
runs in process and must raise nothing, whatever the document holds."""

import io
import json
import sys
import types
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import STRESS_TOWER
from test_golden import SEED
from torictower.cli import EXIT_RESOURCE, EXIT_USAGE, EXIT_VIOLATIONS, main
from torictower.documents import emit_tower, random_tower
from torictower.lattice import DEFAULT_MAX_DIM, MAX_SAMPLES, ResourceCapError
from torictower.verify import random_towers

TOWER_DOCS = [json.loads(emit_tower(spec)) for spec in random_towers(12, SEED)]
DIVISOR_DOCS = [
    {"fiber_dim": "2", "hyperplane_coefficients": ["1", "1", "1"], "polarization": "1"},
    {"fiber_dim": "3", "hyperplane_coefficients": ["1/2", "-3", 2], "polarization": "2"},
]
# small caps: no mutated tower starts a large enumeration
TOWER_COMMANDS = [[c, "--max-dim", "6", "--max-rays", "60"] for c in ("build", "fan", "map-to-proj", "local-model", "lc-check")]
DIVISOR_COMMANDS = [["degree"], ["volume"]]

BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-(10**6), 10**6),
    st.sampled_from([10**400, -(10**400), 2**63, -1, 0, 11, 20000]),
    st.sampled_from(["1_0", " 2\n", "２", "٣", "", "+", "-3", "+3", "007", "1e1000000000", "1/0", "1/2", "0x10", "1" * 5000]),
    st.text(max_size=6),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-3, 3), max_size=4),
    st.integers(1, 60).map(lambda k: json.loads("[" * k + "]" * k)),
)


def _paths(value, path=()):
    """Every path to a value inside a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _paths(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _paths(sub, path + (i,))


_DELETE = object()


def _replace(doc, path, value):
    """A copy of `doc` with the value at `path` replaced, or deleted for _DELETE."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_cases(draw):
    """(argv, document text): a golden document with one to three values
    swapped for bad ones or deleted, or a document nested past the recursion
    limit."""
    if draw(st.booleans()):
        doc, argv = draw(st.sampled_from(TOWER_DOCS)), draw(st.sampled_from(TOWER_COMMANDS))
    else:
        doc, argv = draw(st.sampled_from(DIVISOR_DOCS)), draw(st.sampled_from(DIVISOR_COMMANDS))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(st.one_of(BAD_VALUES, st.just(_DELETE)) if path else BAD_VALUES)
        doc = _replace(doc, path, value)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        depth = draw(st.sampled_from([100, 100_000]))
        text = '{"fiber_dim": ' + "[" * depth + "]" * depth + ', "base_dim": "1"}'
    return argv, text


def run_main(argv, text):
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@settings(max_examples=120, deadline=2000)
@given(mutated_cases())
@example((["degree"], '{"fiber_dim": null, "hyperplane_coefficients": ["1"]}'))
@example((["degree"], '{"fiber_dim": [2], "hyperplane_coefficients": ["1"]}'))
@example((["volume"], '{"fiber_dim": "2", "hyperplane_coefficients": 5}'))
@example((["build"], '{"base_dim": "1_0", "moves": []}'))
def test_every_document_gets_a_contract_exit_code(case):
    argv, text = case
    code, out = run_main(argv, text)
    assert code in (0, 1, 2, 3)
    if code == EXIT_VIOLATIONS:
        assert json.loads(out)["violations"]


# five node moves with every exponent 10^999: the tower fits the dimension
# and ray caps, but its ray coordinates multiply across levels past the
# interpreter's int-to-str digit limit, which build_model caps
HUGE = str(10**999)
DIGIT_LIMIT_TOWER = json.dumps({
    "base_dim": "1",
    "moves": [{"type": "node", "alpha_exponents": [HUGE] * i, "t_exponents": [HUGE]} for i in range(5)],
})


@pytest.mark.parametrize("command", ["build", "fan", "map-to-proj", "local-model", "lc-check"])
def test_a_report_past_the_digit_limit_is_a_cap(command):
    assert run_main([command, "--max-dim", "6", "--max-rays", "60"], DIGIT_LIMIT_TOWER) == (EXIT_RESOURCE, "")
    # one move fewer stays inside the limit
    shorter = json.loads(DIGIT_LIMIT_TOWER)
    del shorter["moves"][-1]
    assert run_main([command, "--max-dim", "6", "--max-rays", "60"], json.dumps(shorter))[0] in (0, 1)


def test_moves_that_are_not_a_list_are_a_bad_document():
    assert run_main(["build"], '{"base_dim": "1", "moves": {}}') == (EXIT_USAGE, "")


def test_the_ray_cap_holds_level_one():
    """--max-rays is a per-level cap, and the level-1 orthant of a base_dim 3
    tower has 3 rays."""
    doc = '{"base_dim": "3", "moves": []}'
    assert run_main(["build", "--max-rays", "2"], doc) == (EXIT_RESOURCE, "")
    assert run_main(["build", "--max-rays", "3"], doc)[0] == 0


def test_a_base_change_past_the_digit_limit_is_a_cap():
    order = "1" + "0" * 2999
    doc = json.dumps({"base_dim": "1", "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": [order]}]})
    assert run_main(["base-change", "--orders", order, "--on-boundary"], doc) == (EXIT_RESOURCE, "")


def test_random_over_the_dimension_cap_is_a_cap_before_any_draw():
    assert run_main(["random", "--p", "1", "--d", "100000"], "") == (EXIT_RESOURCE, "")
    assert run_main(["random", "--p", "3", "--d", str(DEFAULT_MAX_DIM - 2)], "")[0] == 0
    with pytest.raises(ResourceCapError):
        random_tower(DEFAULT_MAX_DIM, 2, 3, 0)


def test_sample_counts_over_the_cap_are_a_cap_before_any_work(monkeypatch):
    import torictower.cli as cli
    import torictower.tower as tower
    import torictower.verify as verify

    def forbidden(*args, **kwargs):
        raise AssertionError("no model is built and no sample drawn over the sample cap")

    spec = random_tower(2, 3, 2, 7)
    assert run_main(["lc-check", "--samples", str(MAX_SAMPLES)], emit_tower(spec))[0] == 0
    model = tower.build_model(spec)
    # lc-check builds its model through the cli's binding, and lc_place_transfer_check
    # draws every sample from its own random.Random
    monkeypatch.setattr(cli, "build_model", forbidden)
    monkeypatch.setattr(tower, "build_model", forbidden)
    monkeypatch.setattr(tower, "random", types.SimpleNamespace(Random=forbidden))
    for name in verify.SUITES[:-1]:
        monkeypatch.setattr(verify, f"suite_{name}", forbidden)
    cli._model_of.cache_clear()  # the model kept from the call above would hide a build made before the cap check
    assert run_main(["lc-check", "--samples", str(MAX_SAMPLES + 1)], emit_tower(spec)) == (EXIT_RESOURCE, "")
    for suite in verify.SUITES:
        assert run_main(["verify", "--suite", suite, "--samples", str(MAX_SAMPLES + 1)], "") == (EXIT_RESOURCE, "")
    with pytest.raises(ResourceCapError):
        tower.lc_place_transfer_check(model, samples=MAX_SAMPLES + 1, seed=0)


def test_face_walks_past_the_face_cap_are_a_cap(monkeypatch):
    import torictower.cli as cli
    import torictower.lattice as lattice
    import torictower.toric as toric
    import torictower.tower as tower

    doc = emit_tower(STRESS_TOWER)  # its level fans have up to 2,972 faces, its searches 78
    assert run_main(["local-model"], doc)[0] == 0
    monkeypatch.setattr(lattice, "MAX_FACES", 100)
    cli._model_of.cache_clear()  # a cap constant is no part of the kept model's or levels' keys: build again under it
    tower._LEVELS.clear()
    assert run_main(["build"], doc)[0] == 0  # build walks no face lattice
    assert run_main(["local-model"], doc) == (EXIT_RESOURCE, "")
    monkeypatch.setattr(toric, "MAX_FACES", 50)
    cli._model_of.cache_clear()  # a cap constant is no part of the kept model's or levels' keys: build again under it
    tower._LEVELS.clear()
    assert run_main(["build"], doc) == (EXIT_RESOURCE, "")
    assert run_main(["local-model"], doc) == (EXIT_RESOURCE, "")


@st.composite
def towers_growing_across_levels(draw):
    """(argv, document text): a tower of 3 to 6 node moves over p = 1 or 2
    whose exponents are 0 or +/- powers of ten of up to 1,501 digits.  Each
    exponent fits the int-to-str digit limit; ray coordinates multiply across
    levels and pass it only after a few levels.  The caps keep every model
    under 60 rays, so no example starts a large enumeration."""
    p = draw(st.integers(1, 2))
    exponent = st.one_of(
        st.just(0),
        st.tuples(st.sampled_from([1, 1, 1, -1]), st.integers(0, 1500)).map(lambda sk: sk[0] * 10 ** sk[1]),
    )
    moves = [
        {"type": "node", "alpha_exponents": [str(draw(exponent)) for _ in range(i)],
         "t_exponents": [str(draw(exponent)) for _ in range(p)]}
        for i in range(draw(st.integers(3, 6)))
    ]
    command = draw(st.sampled_from(TOWER_COMMANDS + [["base-change", "--on-boundary", "--orders"]]))
    if command[0] == "base-change":
        # an order of up to 4,001 digits times an exponent can pass the limit too
        orders = [str(10 ** draw(st.integers(0, 4000))) for _ in range(p)]
        command = command + [",".join(orders)]
    return command, json.dumps({"base_dim": str(p), "moves": moves})


@settings(max_examples=40, deadline=None)
@given(towers_growing_across_levels())
def test_exponents_that_grow_across_levels_get_a_contract_exit_code(case):
    argv, text = case
    code, out = run_main(argv, text)
    assert code in (0, EXIT_VIOLATIONS, EXIT_RESOURCE)
    if code == EXIT_VIOLATIONS:
        assert json.loads(out)["violations"]
    if code == EXIT_RESOURCE:
        assert out == ""
