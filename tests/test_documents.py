import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torictower.documents import (
    Report,
    TowerDocumentError,
    _canonical_json,
    _Kept,
    emit_tower,
    parse_divisor,
    parse_tower,
    random_tower,
)
from torictower.lattice import LatticeError, ResourceCapError
from torictower.tower import CheckOutcome, NodeMove, ProductMove, TowerSpec


def test_parse_simple_node_document():
    text = '{"base_dim": 1, "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": [2]}]}'
    spec = parse_tower(text)
    assert spec == TowerSpec(1, (NodeMove((), (2,)),))


def test_parse_accepts_decimal_strings():
    text = '{"base_dim": "2", "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": ["3", "-1"]}]}'
    spec = parse_tower(text)
    assert spec.moves[0].t_exponents == (3, -1)


def test_document_integers_are_ascii_decimal_strings():
    """`int(s, 10)` also takes spaces, digit-group underscores and non-ASCII
    digits; a document integer string is `[+-]?[0-9]+` and nothing else, and
    one over the int-to-str digit limit is a bad document too."""
    def tower(base_dim, t):
        return json.dumps({"base_dim": base_dim, "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": [t]}]})

    assert parse_tower(tower("+1", "-007")).moves[0].t_exponents == (-7,)
    for text in ("1_0", " 2\n", "2 ", "\uff12", "\u0663", "", "+", "+-1", "0x10", "1e1", "1.0"):
        with pytest.raises(TowerDocumentError, match=r"moves\[0\]\.t_exponents\[0\]: .* is not a decimal integer"):
            parse_tower(tower("1", text))
        with pytest.raises(TowerDocumentError, match="base_dim: .* is not a decimal integer"):
            parse_tower(tower(text, "1"))
    with pytest.raises(TowerDocumentError, match="base_dim: .* is not a decimal integer"):
        parse_tower(tower("1" * 5000, "1"))


def test_parse_empty_moves_is_depth_one():
    spec = parse_tower('{"base_dim": 3, "moves": []}')
    assert spec.depth == 1 and spec.base_dim == 3


def test_parse_schema_error_names_move_index():
    text = '{"base_dim": 1, "moves": [{"type": "node", "alpha_exponents": [1], "t_exponents": [1]}]}'
    with pytest.raises(TowerDocumentError, match="move 0"):
        parse_tower(text)


def test_parse_rejects_a_base_dim_below_one():
    with pytest.raises(TowerDocumentError, match="^invalid tower: base_dim 0 must be >= 1$"):
        parse_tower('{"base_dim": "0", "moves": []}')


def test_parse_missing_field_error():
    # the fields are NodeMove's, checked in its field order
    for move in ('{"type": "node", "t_exponents": [1]}', '{"type": "node"}'):
        with pytest.raises(TowerDocumentError, match=r"^moves\[0\]: node move missing field 'alpha_exponents'$"):
            parse_tower('{"base_dim": 1, "moves": [' + move + ']}')
    with pytest.raises(TowerDocumentError, match=r"^moves\[0\]: node move missing field 't_exponents'$"):
        parse_tower('{"base_dim": 1, "moves": [{"type": "node", "alpha_exponents": []}]}')
    with pytest.raises(TowerDocumentError, match="base_dim"):
        parse_tower('{"moves": []}')
    with pytest.raises(TowerDocumentError, match="^missing field 'fiber_dim'$"):
        parse_divisor('{"hyperplane_coefficients": ["1"]}')


def test_parse_rejects_moves_and_exponents_that_are_not_lists():
    with pytest.raises(TowerDocumentError, match="^moves: expected a list$"):
        parse_tower('{"base_dim": "1", "moves": {}}')
    with pytest.raises(TowerDocumentError, match=r"^moves\[0\]\.t_exponents: expected a list$"):
        parse_tower('{"base_dim": "1", "moves": [{"type": "node", "alpha_exponents": [], "t_exponents": "1"}]}')


def test_parse_malformed_text_carries_position():
    with pytest.raises(TowerDocumentError, match="line 1"):
        parse_tower("{nope")


def test_parse_rejects_unknown_move_type():
    with pytest.raises(TowerDocumentError, match="unknown move type"):
        parse_tower('{"base_dim": 1, "moves": [{"type": "mystery"}]}')
    with pytest.raises(TowerDocumentError, match=r"^moves\[1\]: expected an object$"):
        parse_tower('{"base_dim": 1, "moves": [{"type": "product"}, "product"]}')
    with pytest.raises(TowerDocumentError, match="^format_version: unsupported version 2$"):
        parse_tower('{"format_version": "2", "base_dim": 1, "moves": []}')


def test_emit_serializes_integers_as_strings():
    spec = TowerSpec(1, (NodeMove((), (10**30,)),))
    doc = json.loads(emit_tower(spec))
    assert doc["moves"][0]["t_exponents"] == [str(10**30)]
    assert parse_tower(emit_tower(spec)) == spec  # huge exponents survive


def test_round_trip_on_random_specs():
    for i in range(100):
        spec = random_tower(p=1 + i % 3, d=1 + i % 5, max_exponent=3, seed=i)
        assert parse_tower(emit_tower(spec)) == spec


def test_random_tower_deterministic():
    a = random_tower(2, 4, 3, seed=99)
    b = random_tower(2, 4, 3, seed=99)
    assert a == b
    assert emit_tower(a) == emit_tower(b)


def test_random_tower_validates():
    for i in range(50):  # TowerSpec checks the tower rules on construction
        assert random_tower(3, 5, 3, seed=i).depth == 5


def test_random_tower_bad_params():
    with pytest.raises(LatticeError, match="^p must be >= 1, got 0$"):
        random_tower(0, 1, 3, seed=0)


def test_report_serialization_is_deterministic():
    r1 = Report(command="verify:kernel", seed=5, checked=10, passed=10)
    r2 = Report(command="verify:kernel", seed=5, checked=10, passed=10)
    r1.elapsed_ms = 12.5
    r2.elapsed_ms = 99.9  # wall clock differs; canonical bytes must not
    assert r1.to_json() == r2.to_json()
    assert r1.to_json(include_timing=True) != r2.to_json(include_timing=True)


def test_report_violations_gate_ok():
    r = Report(command="x")
    r.add_violation("k", "d")
    assert not r.ok()
    assert json.loads(r.to_json())["violations"]


def test_report_is_a_check_outcome_and_keeps_what_it_is_built_from():
    outcome = CheckOutcome(checked=5, passed=3)
    outcome.add_violation("k", "d", vector=[1, -1])
    outcome.add_skip("degenerate sample (zero vector)", origin="sample")
    r = Report(command="lc-check", seed=11).merge(outcome)
    assert isinstance(r, CheckOutcome) and not r.ok()
    assert (r.checked, r.passed, r.skipped) == (5, 3, 1)
    assert r.violations == outcome.violations and r.skips == outcome.skips
    assert r.violations[0] is not outcome.violations[0]
    counts = json.loads(r.to_json())["counts"]
    assert counts == {"checked": "5", "passed": "3", "skipped": "1"}


# escapes, control characters, non-ASCII and astral text
TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZ09é€😀\u2028') | st.characters(), max_size=8)
NUMBER_FREE_SCALARS = TEXT | st.none() | st.booleans() | st.floats(allow_nan=True, allow_infinity=True)
NUMBERS = st.integers(-(10**40), 10**40) | st.fractions()


def _json_values(scalars):
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(scalars, max_size=4)  # the emitter joins a list of scalars at once
        | st.dictionaries(TEXT, inner, max_size=4),
        max_leaves=30,
    )


def _numbers_as_text(value):
    """`value` with every int (not bool) and Fraction replaced by its str."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_numbers_as_text(x) for x in value]
    if isinstance(value, dict):
        return {k: _numbers_as_text(v) for k, v in value.items()}
    return value


@settings(max_examples=200, deadline=None)
@given(_json_values(NUMBER_FREE_SCALARS | NUMBERS))
def test_canonical_json_equals_indented_json_dumps(value):
    """The emitter is json.dumps with every number written as a decimal string."""
    expected = json.dumps(_numbers_as_text(value), indent=2, sort_keys=True) + "\n"
    assert _canonical_json(value) == expected


@settings(max_examples=100, deadline=None)
@given(_json_values(NUMBER_FREE_SCALARS))
def test_canonical_json_of_number_free_values_is_indented_json_dumps(value):
    assert _canonical_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_canonical_json_writes_numbers_as_decimal_strings_and_caps_their_digits():
    assert _canonical_json([True, False, 1, -2, Fraction(6, 4), Fraction(-3), None]) == (
        '[\n  true,\n  false,\n  "1",\n  "-2",\n  "3/2",\n  "-3",\n  null\n]\n'
    )
    assert _canonical_json(True) == "true\n" and _canonical_json({"k": 7}) == '{\n  "k": "7"\n}\n'
    for huge in (10**5000, Fraction(10**5000, 3)):
        for value in (huge, [huge], [[huge]], {"k": huge}):
            with pytest.raises(ResourceCapError, match="too many digits"):
                _canonical_json(value)


def _reference(value):
    return json.dumps(_numbers_as_text(value), indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(_json_values(NUMBER_FREE_SCALARS | NUMBERS))
def test_one_object_at_many_indents_equals_indented_json_dumps(shared):
    """The emitter keeps a flat value's text per (id, indent): one object
    written at several indents, as a list item, a list-of-lists item, a
    record value and a dict value, gets the text of each indent."""
    value = [shared, [shared], {"k": shared}, [{"k": shared, "j": [shared]}], {"a": [[shared], shared]}]
    assert _canonical_json(value) == _reference(value)


def test_a_list_and_a_flat_dict_at_two_indents():
    """One ray and one node character at several indents, the deeper first
    and the shallower first, and looked up from lists of lists and of records."""
    ray = (1, -2, 3)
    character = {"t_exponents": [3], "alpha_exponents": ray}
    face = {"rays": [ray, (0, 1, 0)], "kind": "node", "node_character": character}
    for value in (
        {"a": ray, "b": [[ray], [ray, ray]], "c": [face, face], "d": character, "e": [{"x": [face]}]},
        [{"x": [face]}, face, character, [ray], ray],  # the deeper indent first
        [[1, 2], {"k": [1, 2]}, {"k": character}, [{"k": character}]],
    ):
        assert _canonical_json(value) == _reference(value)
    lst = [1, 2]
    # one object as a list item, a record value and a nested item, in lists of lists and of records
    for value in ([lst, {"k": lst}, [lst]], [{"a": 1}, lst, {"k": lst}, [lst]], [{"k": lst}, lst]):
        assert _canonical_json(value) == _reference(value)


def test_a_kept_value_writes_the_text_of_each_indent():
    """A dict value kept with its text (as map-to-proj's projective part is)
    reads as the value itself at every indent, the deeper first and the
    shallower first, and again from the kept texts."""
    fan = {"ambient_dim": 2, "rays": [(0, 1), (1, 0)], "maximal_cones": [[0, 1]]}
    value = {"fan": fan, "identification": [[1, 0], [0, 1]], "boundary_coefficients": {"[0, 1]": 1}}
    kept = {key: _Kept(v) for key, v in value.items()}
    for shape in (lambda x: {"data": {"x": x}, "y": x}, lambda x: {"y": x, "data": {"x": x}}, lambda x: x):
        for _ in range(2):
            assert _canonical_json(shape(kept)) == _reference(shape(value))
    assert {len(k.texts) for k in kept.values()} == {3}


def test_records_with_equal_and_different_key_sets():
    """Key lines are made once per key set and indent, and each key set is
    sorted: records with one key set in different insertion orders, other
    key sets, empty dicts and non-dicts between them."""
    value = [
        {"b": 1, "a": 2},
        {"a": 3, "b": 4},
        {"c": [5, 6]},
        {},
        7,
        [8],
        None,
        {"b": {"z": 1, "y": [2]}, "a": [[3]]},
        {"b": 1, "a": 2, "0": "x"},
    ]
    assert _canonical_json(value) == _reference(value)
    assert _canonical_json([{"b": 1, "a": 2}]) == '[\n  {\n    "a": "2",\n    "b": "1"\n  }\n]\n'


def test_nested_lists_and_records_inside_a_list_of_lists():
    """A list of lists whose items are not all lists of scalars is written
    item by item; a record (a tuple subclass) is no array anywhere."""
    for value in ([[1], [[2], [3]]], [[1], [], [2, [3]], {"k": [4]}, 5], [[[1, 2]], [[1, 2]]]):
        assert _canonical_json(value) == _reference(value)
    move = NodeMove((1,), (2,))
    for value in ([[1], move], [[1], [2, move]], [move], {"k": move}, [{"k": move}], [{"k": {"m": move}}],
                  [{"k": [move]}], [{"k": [[1], move]}]):
        with pytest.raises(TypeError):
            _canonical_json(value)


def test_a_number_past_the_digit_limit_is_a_cap_in_every_memoized_value():
    """The TypeError fallbacks of the list-of-lists and flat-value paths do
    not swallow the digit cap."""
    huge = 10**5000
    for value in ([[1], [2, huge]], [[huge]], [(1,), [huge, 1]], [{"k": {"a": [1, huge]}}], [{"k": {"a": huge}}],
                  [{"k": (1, huge)}], {"k": {"a": [huge]}}, [{"k": [[huge]]}]):
        with pytest.raises(ResourceCapError, match="too many digits"):
            _canonical_json(value)
