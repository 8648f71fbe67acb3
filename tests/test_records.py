"""The value records: construction, equality, hashing, immutability, repr, pickling."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from milnor_mu import (
    AmbiguousResidue,
    CaseReport,
    CharacteristicData,
    DiskBundleInvariants,
    FixedPointContributions,
    MilnorBundle,
    QuotientReport,
    ResidueModZ,
    ResidueSolution,
    TheoremSweep,
    Verdict,
    VerifyRow,
)
from milnor_mu import verify
from milnor_mu._record import Record
from milnor_mu.verify import Case

R1, R31 = ResidueModZ(Fraction(1, 32)), ResidueModZ(Fraction(31, 32))
R1_REPR = "ResidueModZ(rep=Fraction(1, 32))"
MU = AmbiguousResidue((R1, R31))
MU_REPR = f"AmbiguousResidue(values=({R1_REPR}, ResidueModZ(rep=Fraction(31, 32))))"
A1 = FixedPointContributions(Fraction(15, 16))
A1_REPR = "FixedPointContributions(a1_magnitude=Fraction(15, 16))"

# (class, field names, values, another valid set of values, repr of the first)
RECORDS = [
    (ResidueModZ, ("rep",), (Fraction(1, 32),), (Fraction(1, 2),), R1_REPR),
    (AmbiguousResidue, ("values",), ((R1, R31),), ((R1,),), MU_REPR),
    (MilnorBundle, ("h",), (8,), (2,), "MilnorBundle(h=8)"),
    (CharacteristicData, ("p1_magnitude",), (30,), (6,), "CharacteristicData(p1_magnitude=30)"),
    (DiskBundleInvariants, ("p1_squared",), (900,), (36,),
     "DiskBundleInvariants(p1_squared=900)"),
    (FixedPointContributions, ("a1_magnitude",), (Fraction(15, 16),), (Fraction(3, 16),),
     A1_REPR),
    (QuotientReport, ("h", "contributions", "mu_quotient", "verdict"),
     (8, A1, MU, Verdict.REAL_PROJECTIVE_7), (2, A1, None, Verdict.NOT_APPLICABLE),
     f"QuotientReport(h=8, contributions={A1_REPR}, mu_quotient={MU_REPR}, "
     "verdict=<Verdict.REAL_PROJECTIVE_7: 'RP7'>)"),
    (ResidueSolution, ("modulus", "residues"), (56, (0, 1, 8, 49)), (8, (0, 1)),
     "ResidueSolution(modulus=56, residues=(0, 1, 8, 49))"),
    (CaseReport, ("case", "k_min", "k_max", "period_failures"),
     (Case.III, -2, 3, (1,)), (Case.I, 0, 0, ()),
     "CaseReport(case=<Case.III: 8>, k_min=-2, k_max=3, period_failures=(1,))"),
    (TheoremSweep, ("h_min", "h_max", "checked", "failures"),
     (-60, 60, 10, (8,)), (0, 0, 1, ()),
     "TheoremSweep(h_min=-60, h_max=60, checked=10, failures=(8,))"),
    (VerifyRow, ("h", "mu_set", "verdict", "passed"),
     (8, MU, "RP7", True), (1, MU, "derivation_mismatch", False),
     f"VerifyRow(h=8, mu_set={MU_REPR}, verdict='RP7', passed=True)"),
]


@pytest.fixture(params=RECORDS, ids=[spec[0].__name__ for spec in RECORDS])
def record(request):
    return request.param


def test_positional_and_keyword_construction_agree(record):
    cls, names, values, _, _ = record
    by_position = cls(*values)
    assert by_position == cls(**dict(zip(names, values)))
    assert tuple(getattr(by_position, name) for name in names) == values


@pytest.mark.parametrize(
    "made,expected",
    [
        (lambda: MilnorBundle(8), MilnorBundle(8, -7)),
        (lambda: MilnorBundle(h=-3), MilnorBundle(-3, j=4)),
        (lambda: CaseReport(Case.I, 0, 0), CaseReport(Case.I, 0, 0, ())),
        (lambda: TheoremSweep(0, 0, 1), TheoremSweep(0, 0, 1, ())),
    ],
    ids=["MilnorBundle.j", "MilnorBundle.j-keyword", "CaseReport.period_failures",
         "TheoremSweep.failures"],
)
def test_defaults(made, expected):
    assert made() == expected
    assert repr(made()) == repr(expected)


def test_equality_and_hash_within_one_class(record):
    cls, _, values, other, _ = record
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, cls(*other)}) == 2
    assert a != cls(*other)


def test_unequal_to_other_classes_with_equal_field_values(record):
    cls, _, values, _, _ = record
    a = cls(*values)
    assert a != values
    assert a.__eq__(values) is NotImplemented
    assert a.__eq__(object()) is NotImplemented


def test_single_field_records_of_different_classes_differ():
    class SubResidue(ResidueModZ):
        pass

    assert CharacteristicData(4) != DiskBundleInvariants(4)
    assert CharacteristicData(4) != (4,)
    assert SubResidue(Fraction(1, 32)) != R1


def test_fields_cannot_be_assigned_or_deleted(record):
    cls, names, values, other, _ = record
    a = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == cls(*values)


def test_repr(record):
    cls, _, values, _, text = record
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("duplicate", [pickle.loads, copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_round_trips(record, duplicate):
    cls, _, values, _, text = record
    a = cls(*values)
    b = duplicate(pickle.dumps(a) if duplicate is pickle.loads else a)
    assert type(b) is cls and b == a and hash(b) == hash(a) and repr(b) == text


def test_pickle_round_trip_at_every_protocol(record):
    cls, _, values, _, _ = record
    a = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) == a


def _all_records():
    """Every Record subclass of the package, found recursively."""
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("milnor_mu."):
            found.append(cls)
    return found


def test_every_record_takes_its_slots_first_and_in_order():
    # Record.__reduce__ rebuilds a record from its slot values, in order
    records = _all_records()
    assert {cls.__name__ for cls in records} == {spec[0].__name__ for spec in RECORDS}
    for cls in records:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert tuple(params[:len(cls.__slots__)]) == cls.__slots__, cls.__name__


# (record, property, its value, the value it is derived from)
DERIVED = [
    (MilnorBundle(8), "j", -7, 1 - 8),
    (MilnorBundle(-3), "j", 4, 1 - (-3)),
    (CaseReport(Case.III, -2, 3), "h_residue", 8, Case.III.value),
    (CaseReport(Case.III, -2, 3), "quad_constant", Fraction(1, 2),
     verify._CASE_CONSTANTS[Case.III][0]),
    (CaseReport(Case.I, 0, 0), "linear_constant", Fraction(-1, 32),
     verify._CASE_CONSTANTS[Case.I][1]),
    (TheoremSweep(-60, 60, 10, (8, 49)), "failed", 2, len((8, 49))),
    (TheoremSweep(-60, 60, 10, (8, 49)), "passed", 8, 10 - len((8, 49))),
    (VerifyRow(-55, MU, "RP7", True), "residue_class", 1, -55 % 56),
    (VerifyRow(8, MU, "RP7", True), "residue_class", 8, 8 % 56),
]


@pytest.mark.parametrize("made,name,value,derived", DERIVED,
                         ids=[f"{type(r).__name__}.{n}" for r, n, _, _ in DERIVED])
def test_derived_properties_are_read_not_stored(made, name, value, derived):
    assert getattr(made, name) == value == derived
    assert name not in type(made).__slots__
    with pytest.raises(AttributeError):
        setattr(made, name, value)
    assert f"{name}=" not in repr(made)


@pytest.mark.parametrize("make", [
    lambda: CaseReport(Case.III, 8, Fraction(1, 2), Fraction(15, 32), -2, 3, (1,)),
    lambda: TheoremSweep(-60, 60, 10, 9, 1, (8,)),
], ids=["CaseReport", "TheoremSweep"])
def test_the_old_constructor_shapes_are_refused(make):
    with pytest.raises(TypeError):
        make()
