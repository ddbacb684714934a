"""What the package's records keep now that they are named tuples.

The eight immutable records are `collections.namedtuple` subclasses: equal
records hash equal and no field can be assigned.  `TowerSpec` and
`ProjectiveDivisorData` check their rules in `__new__`, and `_make`, which
`_replace` builds through, is overridden so no construction path skips
them.  `NodeMove` and `CurveGermData` keep a list field as a tuple, on
every construction path too, so they hash.  `ProductMove` has no fields, so
it defines its truth value.  A record is a tuple, but the report emitter
rejects it as it rejects any object that is not JSON data.
"""

from fractions import Fraction

import pytest

from torictower.documents import Report, _canonical_json, emit_tower
from torictower.lattice import (
    Cone,
    Fan,
    LatticeError,
    ResourceCapError,
    halfspace_intersection,
    hnf,
    kernel_basis,
    orthant_fan,
    projective_fan,
    snf,
)
from torictower.polytope import LatticePolytope, ProjectiveDivisorData, normalized_volume
from torictower.toric import CartierData, ToricDivisor
from torictower.tower import (
    CurveGermData,
    NodeMove,
    ProductMove,
    TowerLevel,
    TowerModel,
    TowerSpec,
    base_change_to_curve,
)
from torictower.verify import SUITES, run_suite

NODE = NodeMove((), (1,))
TRIANGLE = ((0, 0), (1, 0), (0, 1))
SPEC = TowerSpec(1, (NODE, ProductMove()))
RECORDS = {
    "CartierData": lambda: CartierData(orthant_fan(1), ((Fraction(1),),), 1),
    "ProjectiveDivisorData": lambda: ProjectiveDivisorData(2, (1, Fraction(1, 2)), polarization=3),
    "ProductMove": ProductMove,
    "NodeMove": lambda: NodeMove((2,), (-1, 0)),
    "TowerSpec": lambda: TowerSpec(1, (NodeMove((), (1,)), ProductMove())),
    "CurveGermData": lambda: CurveGermData((1, 0), True),
    "TowerLevel": lambda: TowerLevel(orthant_fan(2)),
    "TowerModel": lambda: TowerModel(SPEC, (TowerLevel(orthant_fan(1)),)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_and_equal_records_hash_equal(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == name and first is not second
    assert first == second and hash(first) == hash(second)
    for field in first._fields:
        with pytest.raises(AttributeError):
            setattr(first, field, None)
    with pytest.raises(AttributeError):
        first.extra = None
    assert first == second


BAD_SPECS = [
    ((0, ()), "base_dim 0 must be >= 1"),
    ((1, (NodeMove((), (1, 2)),)), "t_exponents has length 2, expected 1"),
    ((1, (NodeMove((1,), (1,)),)), "alpha_exponents has length 1, expected 0"),
    ((1, ("product",)), "unknown type str"),
    ((1, (NodeMove((), (1.7,)),)), "exponent 1.7 is not an int"),
    ((1.5, ()), "base_dim 1.5 is not an int"),
    # a bool is an int to isinstance, but a tower document cannot hold one
    ((True, ()), "base_dim True is not an int"),
    ((1, (NodeMove((), (True,)),)), r"move 0 \(level 2\): exponent True is not an int"),
    ((1, (ProductMove(), NodeMove((False,), (1,)))), r"move 1 \(level 3\): exponent False is not an int"),
    # a number past the int-to-str digit limit is named, not left to raise a bare ValueError
    ((-10**5000, ()), r"^invalid tower: base_dim -<int of 16610 bits> must be >= 1$"),
    ((10**5000, (NodeMove((), (1,)),)), r"t_exponents has length 1, expected <int of 16610 bits>$"),
    ((1, (NodeMove((), (Fraction(10**5000, 3),)),)), r"exponent <Fraction past the digit limit> is not an int$"),
]


@pytest.mark.parametrize("args, message", BAD_SPECS)
def test_a_tower_spec_checks_its_rules_on_every_construction_path(args, message):
    base_dim, moves = args
    with pytest.raises(LatticeError, match=message):
        TowerSpec(*args)
    with pytest.raises(LatticeError, match=message):
        TowerSpec(base_dim=base_dim, moves=moves)
    with pytest.raises(LatticeError, match=message):
        TowerSpec._make(args)
    with pytest.raises(LatticeError, match=message):
        SPEC._replace(base_dim=base_dim, moves=moves)


def test_replacing_one_field_checks_it_against_the_others():
    with pytest.raises(LatticeError, match="t_exponents has length 1, expected 2"):
        SPEC._replace(base_dim=2)
    with pytest.raises(LatticeError, match="alpha_exponents has length 0, expected 1"):
        SPEC._replace(moves=(ProductMove(), NODE))


def test_a_valid_replacement_builds_a_tower_spec():
    assert SPEC._replace(moves=()) == TowerSpec(1, ()) == TowerSpec._make((1, ()))
    assert type(SPEC._replace(moves=())) is TowerSpec
    assert SPEC._replace(base_dim=2, moves=(NodeMove((), (1, 1)),)).depth == 2


BAD_DIVISORS = [
    ((0, (1,), 1), LatticeError, "^fiber dimension must be >= 1, got 0$"),
    ((11, (1,), 1), ResourceCapError, "^fiber dimension 11 exceeds cap 10$"),
    ((2, (1,), 0), LatticeError, "^polarization degree must be >= 1, got 0$"),
    ((2.5, (2,), 1), LatticeError, "fiber dimension 2.5 is not an int"),
    ((True, (2,), 1), LatticeError, "fiber dimension True is not an int"),
    ((2, (2,), 1.5), LatticeError, "polarization degree 1.5 is not an int"),
    # a coefficient is an int, a Fraction or a decimal string p or p/q: no float, exponent, bool or q = 0
    ((2, (0.1,), 1), LatticeError, "coefficient 0.1 is not an int, a Fraction or a decimal string"),
    ((2, ("1e5",), 1), LatticeError, "coefficient '1e5' is not an int"),
    ((2, (1, True), 1), LatticeError, "coefficient True is not an int"),
    ((2, ("1/0",), 1), LatticeError, "coefficient '1/0' is not an int"),
]


@pytest.mark.parametrize("args, error, message", BAD_DIVISORS)
def test_projective_divisor_data_checks_its_rules_on_every_construction_path(args, error, message):
    good = ProjectiveDivisorData(2, (1,))
    with pytest.raises(error, match=message):
        ProjectiveDivisorData(*args)
    with pytest.raises(error, match=message):
        ProjectiveDivisorData._make(args)
    with pytest.raises(error, match=message):
        good._replace(fiber_dim=args[0], hyperplane_coefficients=args[1], polarization=args[2])


def test_projective_divisor_data_holds_fractions_on_every_construction_path():
    made = ProjectiveDivisorData._make((2, ["1", 2], 1))
    replaced = ProjectiveDivisorData(2, ())._replace(hyperplane_coefficients=("1/2",))
    assert made.hyperplane_coefficients == (Fraction(1), Fraction(2))
    assert replaced.hyperplane_coefficients == (Fraction(1, 2),)
    assert all(type(c) is Fraction for c in made.hyperplane_coefficients + replaced.hyperplane_coefficients)
    assert ProjectiveDivisorData(2, (1,)).polarization == 1


# a field that must hold entries by position is a list or a tuple: a string is not read as its characters,
# and a number or a set is named, not left to raise a bare TypeError; a matrix row has the length its reader
# expects, a divisor's ray is read by the integer rule, and a fan's cone that is no Cone is named
NOT_SEQUENCES = [
    pytest.param(lambda: TowerSpec(1, 5), "invalid tower: moves 5 is not a sequence", id="moves"),
    pytest.param(lambda: TowerSpec(1, (NodeMove(5, (1,)),)),
                 "invalid tower: move 0 (level 2): alpha_exponents 5 is not a sequence", id="alpha_exponents"),
    pytest.param(lambda: TowerSpec(0, (ProductMove(), NodeMove((1,), "1"), NodeMove(None, {1}))),
                 "invalid tower: base_dim 0 must be >= 1; move 1 (level 3): t_exponents '1' is not a sequence; "
                 "move 2 (level 4): alpha_exponents None is not a sequence; "
                 "move 2 (level 4): t_exponents {1} is not a sequence", id="every-failure"),
    pytest.param(lambda: base_change_to_curve(SPEC, CurveGermData(5, True)), "orders 5 is not a sequence", id="orders"),
    pytest.param(lambda: base_change_to_curve(SPEC, CurveGermData("1", True)), "orders '1' is not a sequence",
                 id="orders-str"),
    pytest.param(lambda: ProjectiveDivisorData(2, "12"), "hyperplane_coefficients '12' is not a sequence",
                 id="coefficients-str"),
    pytest.param(lambda: ProjectiveDivisorData(2, 5), "hyperplane_coefficients 5 is not a sequence", id="coefficients"),
    pytest.param(lambda: Cone.generated_by([(1.5, 0)]), "1.5 is not an integer", id="generated_by"),
    pytest.param(lambda: hnf(((1.5, 2), (3, 4))), "1.5 is not an integer", id="hnf-float"),
    pytest.param(lambda: hnf((("1", 2), (3, 4))), "'1' is not an integer", id="hnf-str"),
    pytest.param(lambda: hnf(((1, 2), (3,))), "matrix row 1 has length 1, expected 2", id="hnf-ragged"),
    pytest.param(lambda: snf(((1, 2), (3, 4.0))), "4.0 is not an integer", id="snf-float"),
    pytest.param(lambda: kernel_basis(((1.5, 2),), 2), "1.5 is not an integer", id="kernel_basis-float"),
    pytest.param(lambda: kernel_basis([[1, 2]], 3), "matrix row 0 has length 2, expected 3", id="kernel_basis-short"),
    pytest.param(lambda: kernel_basis([[1, 2, 3]], 2), "matrix row 0 has length 3, expected 2", id="kernel_basis-long"),
    pytest.param(lambda: halfspace_intersection([(1.5, 0), (0, 1)], 2), "1.5 is not an integer",
                 id="halfspace_intersection-float"),
    pytest.param(lambda: Cone(2, [5]), "vector 5 is not a sequence", id="cone-vector"),
    pytest.param(lambda: Cone.generated_by([5]), "vector 5 is not a sequence", id="generated_by-vector"),
    pytest.param(lambda: ToricDivisor(projective_fan(2), {(1.0, 0): 1}), "1.0 is not an integer",
                 id="divisor-float-ray"),
    pytest.param(lambda: ToricDivisor(projective_fan(2), {5: 2}), "vector 5 is not a sequence", id="divisor-ray"),
    pytest.param(lambda: Fan(2, [[(1, 0)]]), "cone [(1, 0)] is not a Cone", id="fan-cone"),
    # and an argument that holds vectors, rows, cones or divisor entries is read by one rule
    pytest.param(lambda: Cone(2, None), "generators None is not a sequence", id="cone-none"),
    pytest.param(lambda: Fan(2, None), "cones None is not a sequence", id="fan-none"),
    pytest.param(lambda: Cone.generated_by(None), "vectors None is not a sequence", id="generated_by-none"),
    pytest.param(lambda: hnf(None), "matrix None is not a sequence", id="hnf-none"),
    pytest.param(lambda: kernel_basis(None, 2), "matrix None is not a sequence", id="kernel_basis-none"),
    pytest.param(lambda: ToricDivisor(projective_fan(2), 5), "coefficients 5 is not a sequence", id="divisor-number"),
    # and a suite name that is no suite, unhashable or past the int-to-str digit limit, is named
    pytest.param(lambda: run_suite([], 0), f"unknown suite []; choose from {', '.join(SUITES)}", id="run_suite-list"),
    pytest.param(lambda: run_suite(10**5000, 0), f"unknown suite <int of 16610 bits>; choose from {', '.join(SUITES)}",
                 id="run_suite-digits"),
    # and a polytope's points are a sequence of sequences, and its dimension a count (not a bool)
    pytest.param(lambda: normalized_volume(LatticePolytope(2, None)), "points None is not a sequence", id="polytope-none"),
    pytest.param(lambda: normalized_volume(LatticePolytope(2, [None])), "point None is not a sequence",
                 id="polytope-point-none"),
    pytest.param(lambda: normalized_volume(LatticePolytope(2, [5])), "point 5 is not a sequence",
                 id="polytope-point-number"),
    pytest.param(lambda: normalized_volume(LatticePolytope("2", TRIANGLE)), "ambient dimension '2' is not an int",
                 id="polytope-dim-str"),
    pytest.param(lambda: normalized_volume(LatticePolytope(None, TRIANGLE)), "ambient dimension None is not an int",
                 id="polytope-dim-none"),
    pytest.param(lambda: normalized_volume(LatticePolytope(True, ((0,), (1,)))), "ambient dimension True is not an int",
                 id="polytope-dim-bool"),
]


@pytest.mark.parametrize("call, message", NOT_SEQUENCES)
def test_an_input_that_is_not_a_sequence_is_named(call, message):
    with pytest.raises(LatticeError) as info:
        call()
    assert type(info.value) is LatticeError and str(info.value) == message


def test_a_tower_spec_keeps_its_moves_and_exponents_as_tuples():
    listed = TowerSpec(1, [ProductMove(), NodeMove([2], [-1])])
    given = TowerSpec(1, (ProductMove(), NodeMove((2,), (-1,))))
    assert listed == given and hash(listed) == hash(given)
    assert type(listed.moves) is tuple and all(type(e) is tuple for e in listed.moves[1])
    assert TowerSpec(1, [ProductMove()]) == TowerSpec(1, (ProductMove(),))
    assert emit_tower(listed) == emit_tower(given)


LISTED = [  # (a record built with list fields on one construction path, the same record with tuples)
    pytest.param(lambda: NodeMove([1], [2]), NodeMove((1,), (2,)), id="NodeMove"),
    pytest.param(lambda: NodeMove(t_exponents=[2], alpha_exponents=[1]), NodeMove((1,), (2,)), id="NodeMove-keywords"),
    pytest.param(lambda: NodeMove._make([[], [-1, 0]]), NodeMove((), (-1, 0)), id="NodeMove-make"),
    pytest.param(lambda: NODE._replace(t_exponents=[3]), NodeMove((), (3,)), id="NodeMove-replace"),
    pytest.param(lambda: CurveGermData([1, 0], True), CurveGermData((1, 0), True), id="CurveGermData"),
    pytest.param(lambda: CurveGermData._make([[2], False]), CurveGermData((2,), False), id="CurveGermData-make"),
    pytest.param(lambda: CurveGermData((), True)._replace(orders=[0]), CurveGermData((0,), True),
                 id="CurveGermData-replace"),
]


@pytest.mark.parametrize("make, given", LISTED)
def test_a_node_move_or_a_germ_keeps_list_fields_as_tuples(make, given):
    listed = make()
    assert type(listed) is type(given) and listed == given and hash(listed) == hash(given)
    assert all(type(v) is tuple for v in listed if not isinstance(v, bool))


def test_a_field_that_is_no_list_stays_as_given():
    assert NodeMove(5, (1,)).alpha_exponents == 5 and NodeMove("1", None)[:] == ("1", None)
    assert CurveGermData("1", True).orders == "1" and CurveGermData(5, 1).on_boundary == 1


def test_a_product_move_is_true():
    assert bool(ProductMove()) is True
    assert all(SPEC.moves) and all(TowerSpec(1, (ProductMove(),) * 3).moves)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_the_report_emitter_rejects_a_record(name):
    record = RECORDS[name]()
    for value in (record, [record], [1, record], [[1], record], {"k": record}, {"k": [record]}):
        with pytest.raises(TypeError):
            _canonical_json(value)
    report = Report(command="build", data={"record": record})
    with pytest.raises(TypeError):
        report.to_json()
