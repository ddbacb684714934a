"""What the package's records keep now that they are named tuples.

The eight immutable records are `collections.namedtuple` subclasses: equal
records hash equal and no field can be assigned.  `TowerSpec` and
`ProjectiveDivisorData` check their rules in `__new__`, and `_make`, which
`_replace` builds through, is overridden so no construction path skips
them.  `ProductMove` has no fields, so it defines its truth value.  A
record is a tuple, but the report emitter rejects it as it rejects any
object that is not JSON data.
"""

from fractions import Fraction

import pytest

from torictower.documents import Report, _canonical_json
from torictower.lattice import LatticeError, ResourceCapError, orthant_fan
from torictower.polytope import ProjectiveDivisorData
from torictower.toric import CartierData
from torictower.tower import (
    CurveGermData,
    NodeMove,
    ProductMove,
    TowerLevel,
    TowerModel,
    TowerSpec,
)

NODE = NodeMove((), (1,))
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
