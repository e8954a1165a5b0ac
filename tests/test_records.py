"""The six small records of lattice, weyl and series are NamedTuples: each is
immutable, equal and hashed by its fields, and prints as it did when it was a
frozen dataclass.  The strings below were captured from the dataclass records.
"""

import dataclasses
from fractions import Fraction as Q

import pytest

from orthoforms import (
    DegenerateLatticeError,
    DiscriminantGroup,
    Lattice,
    Monomial,
    SumRuleReport,
    WeylVector,
    build_dual_set,
    builtin_lattice,
    discriminant_group,
    quadratic_weyl_constant,
    qzero_from_dual_sets,
    realize,
    solve_weight,
    weyl_vector,
)
from orthoforms.series import ProductFactor, product_factors


def a1_iii_table():
    """The q^0 table of the A1 component with subcase iii, weight symbolic."""
    comp = dataclasses.replace(realize("A", 1, 1), subcase="iii")
    return qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)])


def a1_iii_weyl_vector():
    phi = a1_iii_table()
    return weyl_vector(phi.with_weight(solve_weight(phi)))


def a1_iii_first_factor():
    phi = a1_iii_table()
    return product_factors(phi.with_weight(solve_weight(phi)).coefficient_table(), (Q(1), Q(1)), 1)[0]


# name -> (build a record afresh, a record with one field changed, its repr, its str)
RECORDS = {
    "Lattice": (
        lambda: Lattice(((2, -1), (-1, 2)), "A2"),
        Lattice(((2, -1), (-1, 2)), "A2(1)"),
        "Lattice(A2)",
        "Lattice(A2)",
    ),
    "Lattice unlabelled": (
        lambda: Lattice(((2, 1), (1, 2))),
        Lattice(((2, 1), (1, 4))),
        "Lattice(rank2)",
        "Lattice(rank2)",
    ),
    "DiscriminantGroup": (
        lambda: discriminant_group(Lattice(((2, -1), (-1, 2)))),
        DiscriminantGroup((3,), 3, 6),
        "DiscriminantGroup(elementary_divisors=(3,), order=3, level=3)",
        "Z/3",
    ),
    "DiscriminantGroup trivial": (
        lambda: discriminant_group(builtin_lattice("E8")),
        DiscriminantGroup((), 1, 2),
        "DiscriminantGroup(elementary_divisors=(), order=1, level=1)",
        "trivial",
    ),
    "WeylVector": (
        a1_iii_weyl_vector,
        WeylVector(Q(5, 2), (Q(1, 4),), Q(1, 2)),
        "WeylVector(a=Fraction(5, 2), b=(Fraction(1, 4),), c=Fraction(3, 2))",
        "WeylVector(a=Fraction(5, 2), b=(Fraction(1, 4),), c=Fraction(3, 2))",
    ),
    "SumRuleReport": (
        lambda: quadratic_weyl_constant(a1_iii_table()),
        SumRuleReport(Q(3, 2), "why"),
        "SumRuleReport(c=Fraction(3, 2), reason=None)",
        "SumRuleReport(c=Fraction(3, 2), reason=None)",
    ),
    "SumRuleReport failed": (
        lambda: quadratic_weyl_constant(qzero_from_dual_sets(builtin_lattice("A1"), [], 12)),
        SumRuleReport(None, "no q^0 coefficients"),
        "SumRuleReport(c=None, reason='no nonzero q^0 coefficients')",
        "SumRuleReport(c=None, reason='no nonzero q^0 coefficients')",
    ),
    "Monomial": (
        lambda: Monomial(Q(1, 2), (Q(1), Q(-1, 3)), Q(0)),
        Monomial(Q(1, 2), (Q(1), Q(-1, 3)), Q(1)),
        "Monomial(a=Fraction(1, 2), b=(Fraction(1, 1), Fraction(-1, 3)), c=Fraction(0, 1))",
        "Monomial(a=Fraction(1, 2), b=(Fraction(1, 1), Fraction(-1, 3)), c=Fraction(0, 1))",
    ),
    "Monomial zero": (
        lambda: Monomial.zero(2),
        Monomial.zero(3),
        "Monomial(a=Fraction(0, 1), b=(Fraction(0, 1), Fraction(0, 1)), c=Fraction(0, 1))",
        "Monomial(a=Fraction(0, 1), b=(Fraction(0, 1), Fraction(0, 1)), c=Fraction(0, 1))",
    ),
    "ProductFactor": (
        a1_iii_first_factor,
        ProductFactor(-1, (Q(0),), 1, 2),
        "ProductFactor(n=-1, l=(Fraction(0, 1),), m=1, exponent=1)",
        "(1 - q^-1 zeta^(0/1) xi^1)^1",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_fields_and_attributes_cannot_be_assigned(self, name):
        record = RECORDS[name][0]()
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_fields_give_equal_records(self, name):
        make, other, _, _ = RECORDS[name]
        first, second = make(), make()
        assert first == second and hash(first) == hash(second)
        assert type(first) is type(other) and first != other

    def test_repr_and_str_are_unchanged(self, name):
        make, _, shown, printed = RECORDS[name]
        assert (repr(make()), str(make())) == (shown, printed)


def test_lattice_copies_are_checked():
    a2 = builtin_lattice("A2")
    assert a2._replace(label="x") == Lattice(a2.gram, "x")
    with pytest.raises(DegenerateLatticeError):
        a2._replace(gram=((1, 1), (1, 1)))


@pytest.mark.parametrize(
    "gram, error, message",
    [
        ((), ValueError, "gram matrix must be square and nonempty"),
        (((1, 2),), ValueError, "gram matrix must be square and nonempty"),
        (((2, 1), (1, 2, 0)), ValueError, "gram matrix must be square and nonempty"),
        (((2, 1), (1, "x")), ValueError, "gram entry (1,1) is not an integer"),
        (((2, True), (True, 2)), ValueError, "gram entry (0,1) is not an integer"),
        (((2, 1.0), (1, 2)), ValueError, "gram entry (0,1) is not an integer"),
        (((2, 1), (0, 2)), ValueError, "gram matrix is not symmetric at entries (0,1) and (1,0)"),
        (((2, 0), (1, 2)), ValueError, "gram matrix is not symmetric at entries (0,1) and (1,0)"),
        (((1, 1), (1, 1)), DegenerateLatticeError, "degenerate lattice"),
    ],
    ids=["empty", "not square", "ragged", "str entry", "bool entry", "float entry", "asymmetric", "asymmetric below",
         "degenerate"],
)
def test_lattice_validation_messages_are_unchanged(gram, error, message):
    with pytest.raises(error) as info:
        Lattice(gram)
    assert type(info.value) is error and str(info.value) == message
