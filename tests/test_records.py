"""The value-record contract of the package's twelve records.

Each record is built positionally, by keyword and with its defaults left
out; it validates what it validated before; it compares and hashes on its
fields and only against its own class; it prints as ``Name(field=value, ...)``;
it survives copy, deepcopy and pickle; and assigning or deleting a field
raises ``dataclasses.FrozenInstanceError``.  The repr texts were recorded on
the frozen-dataclass records these classes replace.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from sinecone.catalog import ProductMarker
from sinecone.conemaps import ConeEinsteinSpectrum, ConeOneFormSpectrum
from sinecone.errors import IllPosed, InvariantViolation
from sinecone.exactreal import from_rational, make_quad
from sinecone.radialoracle import RadialProblem
from sinecone.rigidity import IEDCertificate, ProductScanRow
from sinecone.spectra import GeometricSpectrum, Origin, Record, SpectralLine, Spectrum, empty_spectrum
from sinecone.stability import CrossCheckResult, NotionVerdict, StabilityReport


def q(x):
    return from_rational(Fraction(x))


LINE = SpectralLine(q(4), 3, (Origin("fun", 1, 0, 3),))
SPEC = Spectrum((LINE,), q(5))
EMPTY = empty_spectrum(q(2))
SCALARS = Spectrum((SpectralLine(q(0), 1),), q(2))
VERDICT = NotionVerdict(True, False, make_quad(1, 1, 2), "tt")
REPORT = StabilityReport(3, VERDICT, VERDICT, VERDICT, VERDICT, (("hardy", q(-1)),))
CERT = IEDCertificate(q(-16), 4, False, 1)

#: record -> (class, required fields, defaulted fields at their defaults,
#: one field changed)
CASES = {
    "ProductMarker": (ProductMarker, {"n1": 4, "n2": 5}, {}, {"n2": 6}),
    "ConeOneFormSpectrum": (
        ConeOneFormSpectrum, {"exact_part": SPEC, "coclosed_part": EMPTY}, {},
        {"coclosed_part": SPEC}),
    "ConeEinsteinSpectrum": (
        ConeEinsteinSpectrum,
        {"conformal_block": EMPTY, "vector_block": EMPTY, "tt_block": SPEC,
         "scalar_boundary_case": True, "oneform_boundary_case": False},
        {}, {"oneform_boundary_case": True}),
    "RadialProblem": (
        RadialProblem, {"n": 3, "coupling": Fraction(3)},
        {"block": "function", "grid_points": 4000, "boundary_offset": 1e-6},
        {"coupling": Fraction(7, 2)}),
    "IEDCertificate": (
        IEDCertificate, {"kappa": q(-16), "j": 4, "bounded": False, "multiplicity": 1}, {},
        {"j": 3}),
    "ProductScanRow": (
        ProductScanRow,
        {"n": 9, "kappa": q(-16), "unbounded_below": False, "certificates": (CERT,)}, {},
        {"certificates": ()}),
    "SpectralLine": (
        SpectralLine, {"value": q(4), "multiplicity": 3}, {"origins": ()},
        {"origins": (Origin("fun", 1, 0, 3),)}),
    "Spectrum": (Spectrum, {"lines": (LINE,), "cutoff": q(5)}, {}, {"cutoff": q(6)}),
    "GeometricSpectrum": (
        GeometricSpectrum,
        {"n": 3, "spec0": SCALARS, "spec1D": EMPTY, "specE_TT": EMPTY},
        {"hypothesis_override": False}, {"specE_TT": SPEC}),
    "NotionVerdict": (
        NotionVerdict,
        {"holds": True, "strict": False, "witness_value": make_quad(1, 1, 2),
         "witness_origin": "tt"},
        {}, {"strict": None}),
    "StabilityReport": (
        StabilityReport,
        {"n": 3, "eh": VERDICT, "linear": VERDICT, "tangential": VERDICT,
         "physical": VERDICT, "thresholds": (("hardy", q(-1)),)},
        {}, {"thresholds": ()}),
    "CrossCheckResult": (
        CrossCheckResult,
        {"consistent": False, "discrepancies": ("eh.holds",), "predicted": REPORT,
         "direct": None, "cone_unbounded": True},
        {}, {"direct": REPORT}),
}

_VERDICT = (
    "NotionVerdict(holds=True, strict=False, witness_value=QuadReal(a=Fraction(1, 1), "
    "b=Fraction(1, 1), s=2), witness_origin='tt')"
)
_REPORT = (
    f"StabilityReport(n=3, eh={_VERDICT}, linear={_VERDICT}, tangential={_VERDICT}, "
    f"physical={_VERDICT}, thresholds=(('hardy', QuadReal(a=Fraction(-1, 1), "
    "b=Fraction(0, 1), s=1)),))"
)
_LINE = (
    "SpectralLine(value=QuadReal(a=Fraction(4, 1), b=Fraction(0, 1), s=1), "
    "multiplicity=3, origins=(Origin(block='fun', i=1, j=0, mult=3),))"
)
_SPEC = (
    f"Spectrum(lines=({_LINE},), cutoff=QuadReal(a=Fraction(5, 1), b=Fraction(0, 1), s=1))"
)
_EMPTY = "Spectrum(lines=(), cutoff=QuadReal(a=Fraction(2, 1), b=Fraction(0, 1), s=1))"
_KAPPA = "QuadReal(a=Fraction(-16, 1), b=Fraction(0, 1), s=1)"
_CERT = f"IEDCertificate(kappa={_KAPPA}, j=4, bounded=False, multiplicity=1)"

#: The repr of each case, as the frozen dataclasses printed it.
REPRS = {
    "ProductMarker": "ProductMarker(n1=4, n2=5)",
    "ConeOneFormSpectrum": f"ConeOneFormSpectrum(exact_part={_SPEC}, coclosed_part={_EMPTY})",
    "ConeEinsteinSpectrum": (
        f"ConeEinsteinSpectrum(conformal_block={_EMPTY}, vector_block={_EMPTY}, "
        f"tt_block={_SPEC}, scalar_boundary_case=True, oneform_boundary_case=False)"
    ),
    "RadialProblem": (
        "RadialProblem(n=3, coupling=Fraction(3, 1), block='function', grid_points=4000, "
        "boundary_offset=1e-06)"
    ),
    "IEDCertificate": _CERT,
    "ProductScanRow": (
        f"ProductScanRow(n=9, kappa={_KAPPA}, unbounded_below=False, certificates=({_CERT},))"
    ),
    "SpectralLine": (
        "SpectralLine(value=QuadReal(a=Fraction(4, 1), b=Fraction(0, 1), s=1), "
        "multiplicity=3, origins=())"
    ),
    "Spectrum": _SPEC,
    "GeometricSpectrum": (
        "GeometricSpectrum(n=3, spec0=Spectrum(lines=(SpectralLine(value=QuadReal("
        "a=Fraction(0, 1), b=Fraction(0, 1), s=1), multiplicity=1, origins=()),), "
        "cutoff=QuadReal(a=Fraction(2, 1), b=Fraction(0, 1), s=1)), "
        f"spec1D={_EMPTY}, specE_TT={_EMPTY}, hypothesis_override=False)"
    ),
    "NotionVerdict": _VERDICT,
    "StabilityReport": _REPORT,
    "CrossCheckResult": (
        "CrossCheckResult(consistent=False, discrepancies=('eh.holds',), "
        f"predicted={_REPORT}, direct=None, cone_unbounded=True)"
    ),
}

RECORDS = sorted(CASES)


def _build(name):
    cls, required, defaults, _ = CASES[name]
    return cls(**required, **defaults)


def test_the_cases_cover_twelve_records():
    assert len(CASES) == 12 and REPRS.keys() == CASES.keys()


@pytest.mark.parametrize("name", RECORDS)
def test_positional_keyword_and_default_construction_agree(name):
    cls, required, defaults, _ = CASES[name]
    record = cls(*required.values(), *defaults.values())
    assert cls(**required, **defaults) == record
    assert cls(*required.values()) == record
    assert cls(**required) == record
    for field, value in {**required, **defaults}.items():
        assert getattr(record, field) is value


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_are_type_strict_and_field_wise(name):
    cls, required, defaults, changed = CASES[name]
    record, twin = _build(name), cls(**required, **defaults)
    assert record == twin and not record != twin and hash(record) == hash(twin)
    other = cls(**{**required, **defaults, **changed})
    assert record != other and other != record

    class Sub(cls):
        pass

    look_alike = Sub(**required, **defaults)
    assert record != look_alike and look_alike != record
    assert record != tuple({**required, **defaults}.values())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_recorded_text(name):
    assert repr(_build(name)) == REPRS[name]


@pytest.mark.parametrize("name", RECORDS)
def test_copy_deepcopy_and_pickle_round_trip(name):
    record = _build(name)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    cls, required, defaults, changed = CASES[name]
    record = _build(name)
    for field in {**required, **defaults}:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, changed.get(field))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1
    assert record == _build(name)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_slotted(name):
    cls, required, defaults, _ = CASES[name]
    assert set(cls.__slots__) == {**required, **defaults}.keys()
    assert not hasattr(_build(name), "__dict__")


@pytest.mark.parametrize(
    "name, changed, error, message",
    [
        ("ProductMarker", {"n1": 1}, InvariantViolation, "product factors must each have dimension >= 2"),
        ("ProductMarker", {"n2": 1}, InvariantViolation, "product factors must each have dimension >= 2"),
        ("SpectralLine", {"multiplicity": 0}, InvariantViolation, "multiplicity must be positive"),
        ("SpectralLine", {"origins": (Origin("fun", 1, 0, 2),)}, InvariantViolation,
         "multiplicity must equal the sum over origins"),
        ("Spectrum", {"lines": (LINE, LINE)}, InvariantViolation,
         "spectrum lines must be strictly ascending"),
        ("Spectrum", {"cutoff": q(3)}, InvariantViolation, "spectrum line exceeds its cutoff"),
        ("GeometricSpectrum", {"n": 1}, InvariantViolation, "dimension n=1 below 2"),
        ("GeometricSpectrum", {"spec0": EMPTY}, InvariantViolation,
         "scalar spectrum must contain 0 (constants)"),
        ("RadialProblem", {"block": "bogus"}, InvariantViolation, "unknown block 'bogus'"),
        ("RadialProblem", {"block": "tt", "n": 2}, InvariantViolation,
         "the tt block needs base dimension n >= 3, got 2"),
        ("RadialProblem", {"grid_points": 99}, InvariantViolation, "need at least 100 grid points"),
        ("RadialProblem", {"boundary_offset": 1.0}, InvariantViolation,
         "boundary offset must lie in (0, pi/(4N))"),
        ("RadialProblem", {"block": "tt", "coupling": Fraction(-2)}, IllPosed,
         "coupling -2 below the Hardy bound -1: the form is unbounded below "
         "(see rayleigh_unbounded_demo)"),
        ("RadialProblem", {"coupling": Fraction(-1)}, IllPosed, "scalar couplings are nonnegative"),
        # the radial problem computes in floats, on arrays of the grid's length
        ("RadialProblem", {"n": 10 ** 150 + 1}, InvariantViolation,
         f"the radial pencil needs base dimension n <= 10**150, got {10 ** 150 + 1}"),
        ("RadialProblem", {"grid_points": 10 ** 6 + 1}, InvariantViolation,
         "need at most 10**6 grid points, got 1000001"),
    ],
)
def test_validation_errors_are_unchanged(name, changed, error, message):
    cls, required, defaults, _ = CASES[name]
    with pytest.raises(error) as info:
        cls(**{**required, **defaults, **changed})
    assert str(info.value) == message


#: The seven records whose constructor only fills its fields, and the
#: TypeError texts that a missing field, an unknown keyword and one
#: positional argument too many raise.
COPYING = {
    "ConeEinsteinSpectrum": (
        "ConeEinsteinSpectrum.__init__() missing 1 required positional argument: "
        "'oneform_boundary_case'",
        "ConeEinsteinSpectrum.__init__() got an unexpected keyword argument 'bogus'",
        "ConeEinsteinSpectrum.__init__() takes 6 positional arguments but 7 were given",
    ),
    "ConeOneFormSpectrum": (
        "ConeOneFormSpectrum.__init__() missing 1 required positional argument: 'coclosed_part'",
        "ConeOneFormSpectrum.__init__() got an unexpected keyword argument 'bogus'",
        "ConeOneFormSpectrum.__init__() takes 3 positional arguments but 4 were given",
    ),
    "CrossCheckResult": (
        "CrossCheckResult.__init__() missing 1 required positional argument: 'cone_unbounded'",
        "CrossCheckResult.__init__() got an unexpected keyword argument 'bogus'",
        "CrossCheckResult.__init__() takes 6 positional arguments but 7 were given",
    ),
    "IEDCertificate": (
        "IEDCertificate.__init__() missing 1 required positional argument: 'multiplicity'",
        "IEDCertificate.__init__() got an unexpected keyword argument 'bogus'",
        "IEDCertificate.__init__() takes 5 positional arguments but 6 were given",
    ),
    "NotionVerdict": (
        "NotionVerdict.__init__() missing 1 required positional argument: 'witness_origin'",
        "NotionVerdict.__init__() got an unexpected keyword argument 'bogus'",
        "NotionVerdict.__init__() takes 5 positional arguments but 6 were given",
    ),
    "ProductScanRow": (
        "ProductScanRow.__init__() missing 1 required positional argument: 'certificates'",
        "ProductScanRow.__init__() got an unexpected keyword argument 'bogus'",
        "ProductScanRow.__init__() takes 5 positional arguments but 6 were given",
    ),
    "StabilityReport": (
        "StabilityReport.__init__() missing 1 required positional argument: 'thresholds'",
        "StabilityReport.__init__() got an unexpected keyword argument 'bogus'",
        "StabilityReport.__init__() takes 7 positional arguments but 8 were given",
    ),
}


@pytest.mark.parametrize("name", sorted(COPYING))
def test_argument_errors_name_the_record_and_the_field(name):
    cls, required, _, _ = CASES[name]
    missing, unknown, too_many = COPYING[name]
    *head, _ = required.values()
    for args, kwargs, text in (
        (head, {}, missing),
        ((), dict(zip(required, head)), missing),
        ((), {**required, "bogus": 1}, unknown),
        ((*required.values(), None), {}, too_many),
    ):
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert str(info.value) == text


@pytest.mark.parametrize("name", RECORDS)
def test_the_signature_lists_the_slots_in_order(name):
    cls = CASES[name][0]
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)


def test_a_subclass_keeps_its_parents_validation_and_defaults():
    class Sub(GeometricSpectrum):
        pass

    required = CASES["GeometricSpectrum"][1]
    record = Sub(*required.values())
    assert record.hypothesis_override is False
    assert record.__getstate__() == _build("GeometricSpectrum").__getstate__()
    with pytest.raises(InvariantViolation, match="dimension n=1 below 2"):
        Sub(**{**required, "n": 1})
    with pytest.raises(InvariantViolation, match="scalar spectrum must contain 0"):
        Sub(**{**required, "spec0": EMPTY})


def test_a_record_that_only_holds_its_fields_needs_no_constructor():
    class Pair(Record):
        __slots__ = ("left", "right")

    class Nothing(Record):
        __slots__ = ()

    pair = Pair(1, right=2)
    assert (pair.left, pair.right) == (1, 2) and pair == Pair(left=1, right=2)
    assert Pair.__init__.__qualname__.endswith("Pair.__init__")
    assert repr(Nothing()) == "test_a_record_that_only_holds_its_fields_needs_no_constructor.<locals>.Nothing()"
    with pytest.raises(TypeError, match=r"Pair.__init__\(\) missing 1 required positional argument: 'right'"):
        Pair(1)


class SlottedGeometricSpectrum(GeometricSpectrum):
    """A subclass of a record with a written constructor, adding no field."""

    __slots__ = ()


class SlottedVerdict(NotionVerdict):
    """A subclass of a record with a compiled constructor, adding no field."""

    __slots__ = ()


@pytest.mark.parametrize("sub, name", [(SlottedGeometricSpectrum, "GeometricSpectrum"),
                                       (SlottedVerdict, "NotionVerdict")])
def test_a_slotted_subclass_keeps_its_parents_fields(sub, name):
    cls, required, defaults, changed = CASES[name]
    assert sub._fields == cls._fields == cls.__slots__
    record, twin = sub(**required, **defaults), sub(*required.values())
    other = sub(**{**required, **defaults, **changed})
    assert repr(record) == sub.__qualname__ + REPRS[name].removeprefix(name)
    assert record == twin and hash(record) == hash(twin)
    assert record != other and hash(record) != hash(other)
    assert record != _build(name) and record.__getstate__() == _build(name).__getstate__()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is sub and clone == record and repr(clone) == repr(record)
