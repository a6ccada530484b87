"""The record types: value types compare and hash field-wise and cannot
be assigned to; mutable records compare field-wise and are unhashable."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from conftest import parse

from fibrant.blowup import BaseModification, BlowupStep, DivisorRecord, LocalModel, Tower
from fibrant.lagrange import TopParams
from fibrant.monodromy import NotUnimodularError, Presentation, Relation, SL2Z, T
from fibrant.planecurve import AffineChart
from fibrant.poly import INFINITE_ORDER
from fibrant.weierstrass import (
    DualGraph,
    KodairaType,
    MirandaFiber,
    OrderTriple,
    TotalSpaceSingularity,
)

HASHABLE_VALUES = [
    (SL2Z, (2, 1, 1, 1)),
    (TopParams, (F(1, 2), F(-3, 7))),
    (AffineChart, (1, ("u", "v"))),
    (OrderTriple, (1, 2, INFINITE_ORDER)),
    (DualGraph, ("chain", (1, 2), ((0, 1),))),
    (KodairaType, ("I3*",)),
    (
        MirandaFiber,
        ((KodairaType("I1"), KodairaType("I2")), DualGraph.cycle(1, 1, 1), "I3", "I3", "none"),
    ),
    (TotalSpaceSingularity, ((F(5, 16), F(0), F(1)), (F(1), F(0), F(-1)))),
    (BlowupStep, ((F(0), F(1, 3)), "A", ("x", "y"), ("x1", "y1"), OrderTriple(1, 1, 2))),
]
# MultiPoly is unhashable, so a LocalModel hashes like its tuple of fields: not at all.
VALUES = HASHABLE_VALUES + [(LocalModel, (("x", "y"), parse("x^2 + y"), parse("x - 3*y^3")))]


def ids(cases):
    return [cls.__name__ for cls, _ in cases]


@pytest.mark.parametrize("cls, fields", VALUES, ids=ids(VALUES))
def test_value_equality_and_immutability(cls, fields):
    x, y = cls(*fields), cls(*fields)
    assert x == y and not x != y and x is not y
    assert x != fields and x != list(fields)
    with pytest.raises(TypeError):
        iter(x)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y
    if (cls, fields) in HASHABLE_VALUES:
        assert hash(x) == hash(y)
        assert {x: 1}[y] == 1
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("cls, fields", VALUES, ids=ids(VALUES))
def test_values_copy_and_pickle(cls, fields):
    x = cls(*fields)
    twins = [copy.copy(x)]
    if cls is not LocalModel:  # a MultiPoly field can be neither deep-copied nor pickled
        twins += [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    for twin in twins:
        assert twin == x and type(twin) is cls


@pytest.mark.parametrize("cls, fields", VALUES, ids=ids(VALUES))
def test_values_differ_in_any_field(cls, fields):
    x = cls(*fields)
    for name in cls.__slots__:
        other = cls(*fields)
        object.__setattr__(other, name, "changed")
        assert x != other


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SL2Z(1, 1, 1, 1), NotUnimodularError),
        (lambda: OrderTriple(-1, 0, 0), ValueError),
        (lambda: OrderTriple(1, 2, 3.0), ValueError),
        (lambda: KodairaType("I01"), ValueError),
        (lambda: KodairaType("V"), ValueError),
        (lambda: AffineChart(3, ("u", "v")), ValueError),
        (lambda: TopParams(m=F(-1)), ValueError),
    ],
    ids=["SL2Z", "OrderTriple", "OrderTriple-float", "KodairaType", "KodairaType-V", "AffineChart", "TopParams"],
)
def test_validation_is_unchanged(build, error):
    with pytest.raises(error):
        build()


def test_sl2z_error_names_the_matrix():
    with pytest.raises(NotUnimodularError, match=r"det \(\(1, 1\), \(1, 1\)\) != 1"):
        SL2Z(1, 1, 1, 1)


def test_constructor_defaults_and_keywords():
    assert TopParams() == TopParams(F(0), F(0)) == TopParams(a_cas=F(0))
    assert TotalSpaceSingularity((F(0),), None).base_curve is None


def test_local_model_discriminant():
    a, b = parse("x^2 + y"), parse("x - 3*y^3")
    model = LocalModel(("x", "y"), a, b)
    assert model.discriminant == a**3 - 27 * b**2
    assert model.delta() is model.discriminant
    assert (model.history, model.t_record) == ((), ())
    given = parse("x*y")
    assert LocalModel(("x", "y"), a, b, (), (), given).discriminant is given


def test_kodaira_component_count_matches_graph():
    tags = ["I0", "I1", "I2", "I7", "II", "III", "IV", "I0*", "I1*", "I6*", "IV*", "III*", "II*"]
    for tag in tags:
        k = KodairaType(tag)
        graph = k.dual_graph()
        assert k.component_count() == graph.component_count() == len(graph.multiplicities())
        assert k.to_json()["components"] == len(graph.nodes)


def test_huge_kodaira_index_is_validated_from_the_tag():
    k = KodairaType("I1000000000000")
    assert k.component_count() == 10**12
    assert KodairaType("I1000000000000*").component_count() == 10**12 + 5
    assert k == KodairaType("I1000000000000") and hash(k) == hash(KodairaType("I1000000000000"))


def test_mutable_records_compare_field_wise():
    triple, kodaira = OrderTriple(2, 3, 7), KodairaType("I1*")
    d1 = DivisorRecord("L~", "line", triple, kodaira)
    d2 = DivisorRecord("L~", "line", OrderTriple(2, 3, 7), KodairaType("I1*"))
    assert d1 == d2 and d1 != DivisorRecord("L~", "other", triple, kodaira)
    with pytest.raises(TypeError):
        hash(d1)
    d2.origin = "other"
    assert d1 != d2
    assert Relation("node", ("g1", "g2"), (T, T)) == Relation("node", ("g1", "g2"), (T, T))
    assert Relation("node", ("g1", "g2"), (T, T)).to_json()["certified"] is True
    assert Presentation([], [], {}) == Presentation([], [], {}, [])


def test_mutable_defaults_are_fresh_per_record():
    first, second = Tower("a", "point"), Tower("a", "point")
    first.divisors.append("E1")
    assert second.divisors == [] and first != second
    mod = BaseModification()
    assert (mod.towers, mod.notes, mod.equations, mod.residual_degree) == ([], [], {}, 0)
    assert mod.towers is not BaseModification().towers
    assert mod.equations is not BaseModification().equations
    mod.equations["Q~"] = parse("A0^5 + A1^5 + A2^5")
    assert mod.residual_degree == 5 and first.blow_ups == 1


def test_repr_names_the_fields():
    assert repr(SL2Z(1, 1, 0, 1)) == "SL2Z(a=1, b=1, c=0, d=1)"
    assert repr(KodairaType("I2")) == "KodairaType(tag='I2')"
