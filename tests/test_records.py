"""The rings and answer records are values.Record.  Each compares, hashes
and prints as the frozen dataclass it replaced did, and refuses bad input
with the same messages: the pins below were recorded from that
implementation.  Each refuses assignment and deletion and has no instance
__dict__, and a ring derives nothing from its modulus before it is asked."""

import copy
import pickle

import pytest

from ttsupport import homalg
from ttsupport.errors import InputError
from ttsupport.homalg import (
    CanonicalModule,
    HomExtResult,
    IntegersLocalized,
    LocalNilpotentAlgebra,
    ModularIntegers,
    ResidueOutcome,
)
from ttsupport.support import SpecOf, SupportDescriptor, spec
from ttsupport.values import Record

CM = CanonicalModule((2, 4), 1, ((3, 1),))
GENERIC = "generic point plus all primes outside the inverted set"

# (record, its fields in order, its repr, its hash; None where the hash
# changes from run to run, as hash(None) and the hashes of strings do)
RECORDS = [
    (
        IntegersLocalized(),
        {"inverted": frozenset(), "at_prime": None},
        "IntegersLocalized(inverted=frozenset(), at_prime=None)",
        None,
    ),
    (
        IntegersLocalized(inverted=[3]),
        {"inverted": frozenset({3}), "at_prime": None},
        "IntegersLocalized(inverted=frozenset({3}), at_prime=None)",
        None,
    ),
    (
        IntegersLocalized(at_prime=5),
        {"inverted": frozenset(), "at_prime": 5},
        "IntegersLocalized(inverted=frozenset(), at_prime=5)",
        -8942417165186773632,
    ),
    (ModularIntegers(12), {"n": 12}, "ModularIntegers(n=12)", -860454829093830431),
    (
        LocalNilpotentAlgebra(2, [["x", 2]]),
        {"p": 2, "generators": (("x", 2),)},
        "LocalNilpotentAlgebra(p=2, generators=(('x', 2),))",
        None,
    ),
    (
        LocalNilpotentAlgebra(3, (("x", 2), ("y", 3))),
        {"p": 3, "generators": (("x", 2), ("y", 3))},
        "LocalNilpotentAlgebra(p=3, generators=(('x', 2), ('y', 3)))",
        None,
    ),
    (
        CanonicalModule(),
        {"factors": (), "rank": 0, "divisible": ()},
        "CanonicalModule(factors=(), rank=0, divisible=())",
        -7607471665537739291,
    ),
    (
        CM,
        {"factors": (2, 4), "rank": 1, "divisible": ((3, 1),)},
        "CanonicalModule(factors=(2, 4), rank=1, divisible=((3, 1),))",
        7900064900802161453,
    ),
    (
        ResidueOutcome(2, ((0, 1), (1, 0))),
        {"prime": 2, "dims": ((0, 1), (1, 0))},
        "ResidueOutcome(prime=2, dims=((0, 1), (1, 0)))",
        -3942884977547836116,
    ),
    (
        HomExtResult((0, 1), ((0, CM), (1, CanonicalModule())), True),
        {"window": (0, 1), "groups": ((0, CM), (1, CanonicalModule())), "certified": True, "note": ""},
        "HomExtResult(window=(0, 1), groups=((0, CanonicalModule(factors=(2, 4), rank=1, "
        "divisible=((3, 1),))), (1, CanonicalModule(factors=(), rank=0, divisible=()))), "
        "certified=True, note='')",
        -6939218505097417118,
    ),
    (
        HomExtResult((0, 0), (), False, "gens"),
        {"window": (0, 0), "groups": (), "certified": False, "note": "gens"},
        "HomExtResult(window=(0, 0), groups=(), certified=False, note='gens')",
        None,
    ),
    (
        spec(IntegersLocalized()),
        {
            "ring": IntegersLocalized(),
            "space": None,
            "closed_points": (),
            "has_generic": True,
            "description": GENERIC,
        },
        "SpecOf(ring=IntegersLocalized(inverted=frozenset(), at_prime=None), space=None, "
        "closed_points=(), has_generic=True, description='%s')" % GENERIC,
        None,
    ),
    (
        SpecOf(ModularIntegers(6), None, ("(2)", "(3)"), False, "finite discrete"),
        {
            "ring": ModularIntegers(6),
            "space": None,
            "closed_points": ("(2)", "(3)"),
            "has_generic": False,
            "description": "finite discrete",
        },
        "SpecOf(ring=ModularIntegers(n=6), space=None, closed_points=('(2)', '(3)'), "
        "has_generic=False, description='finite discrete')",
        None,
    ),
    (
        SupportDescriptor(),
        {"generic": False, "cofinite": False, "explicit": frozenset(), "exceptions": frozenset()},
        "SupportDescriptor(generic=False, cofinite=False, explicit=frozenset(), "
        "exceptions=frozenset())",
        -772234010941794790,
    ),
    (
        SupportDescriptor(explicit=frozenset({2, 3})),
        {"generic": False, "cofinite": False, "explicit": frozenset({2, 3}), "exceptions": frozenset()},
        "SupportDescriptor(generic=False, cofinite=False, explicit=frozenset({2, 3}), "
        "exceptions=frozenset())",
        -5346318448514915938,
    ),
    (
        SupportDescriptor(True, True, exceptions=frozenset({5})),
        {"generic": True, "cofinite": True, "explicit": frozenset(), "exceptions": frozenset({5})},
        "SupportDescriptor(generic=True, cofinite=True, explicit=frozenset(), "
        "exceptions=frozenset({5}))",
        -8462205151324833425,
    ),
]


@pytest.mark.parametrize("record, fields, text, pinned", RECORDS, ids=[row[2] for row in RECORDS])
def test_a_record_is_its_fields_in_repr_and_hash(record, fields, text, pinned):
    assert [(f, getattr(record, f)) for f in fields] == list(fields.items())
    assert repr(record) == text
    assert hash(record) == hash(tuple(fields.values()))
    if pinned is not None:
        assert hash(record) == pinned


@pytest.mark.parametrize("record, fields, _text, _pinned", RECORDS, ids=[row[2] for row in RECORDS])
def test_a_record_refuses_assignment_and_deletion_and_has_no_dict(record, fields, _text, _pinned):
    assert isinstance(record, Record)
    assert not hasattr(record, "__dict__")
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == value


def test_a_record_pickles_and_copies_to_an_equal_record():
    ring = ModularIntegers(12)
    assert ring.crt_primes == (2, 3)
    records = [ring, IntegersLocalized(inverted=[3]), LocalNilpotentAlgebra(2, [["x", 2]])]
    records += [CM, ResidueOutcome(0, ()), HomExtResult((0, 0), ((0, CM),), True)]
    records += [spec(IntegersLocalized()), SupportDescriptor(True, True, exceptions=frozenset({5}))]
    for record in records:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


# (a, b, whether a == b)
EQUALITIES = [
    (IntegersLocalized(inverted=[3]), IntegersLocalized(inverted={3}), True),
    (IntegersLocalized(at_prime=2, inverted=[]), IntegersLocalized(at_prime=2), True),
    (IntegersLocalized(), IntegersLocalized(at_prime=2), False),
    (ModularIntegers(4), ModularIntegers(4), True),
    (ModularIntegers(4), ModularIntegers(8), False),
    (ModularIntegers(4), 4, False),
    (ModularIntegers(2), IntegersLocalized(at_prime=2), False),
    (LocalNilpotentAlgebra(2, [["x", 2]]), LocalNilpotentAlgebra(2, (("x", 2),)), True),
    (LocalNilpotentAlgebra(2, [["x", 2]]), LocalNilpotentAlgebra(2, (("y", 2),)), False),
    (CanonicalModule(), CanonicalModule((), 0, ()), True),
    (CanonicalModule((2,)), CanonicalModule((2,), 0), True),
    (CanonicalModule((2,)), CanonicalModule((4,)), False),
    (CanonicalModule(), (), False),
    (ResidueOutcome(0, ()), ResidueOutcome(0, ()), True),
    (ResidueOutcome(0, ()), ResidueOutcome(2, ()), False),
    (HomExtResult((0, 0), (), True), HomExtResult((0, 0), (), True, ""), True),
    (HomExtResult((0, 0), (), True), HomExtResult((0, 0), (), True, "x"), False),
    (spec(ModularIntegers(6)), spec(ModularIntegers(6)), True),
    (spec(IntegersLocalized()), spec(IntegersLocalized()), True),
    (SupportDescriptor(), SupportDescriptor(False, False, frozenset(), frozenset()), True),
    (SupportDescriptor(generic=True), SupportDescriptor(), False),
]


@pytest.mark.parametrize("a, b, equal", EQUALITIES, ids=[repr(row) for row in EQUALITIES])
def test_records_are_equal_by_class_and_fields(a, b, equal):
    assert (a == b, a != b, b == a, b != a) == (equal, not equal, equal, not equal)


# the third refusal of SupportDescriptor, exceptions meeting the explicit
# primes, needs both sets nonempty, which one of the first two refuses first
REFUSALS = [
    (lambda: IntegersLocalized(at_prime=4), "at_prime must be prime"),
    (lambda: IntegersLocalized(inverted=[2], at_prime=3), "at_prime form keeps no explicit inverted set"),
    (lambda: IntegersLocalized(inverted=[4]), "inverted set must consist of primes"),
    (lambda: ModularIntegers(1), "ModularIntegers wants n >= 2"),
    (lambda: ModularIntegers("6"), "ModularIntegers wants n >= 2"),
    (lambda: LocalNilpotentAlgebra(4, [["x", 2]]), "characteristic must be prime"),
    (
        lambda: LocalNilpotentAlgebra(2, [[1, 2]]),
        "generator names must be strings and exponents integers",
    ),
    (lambda: LocalNilpotentAlgebra(2, []), "a local nilpotent ring needs at least one generator"),
    (lambda: LocalNilpotentAlgebra(2, [["x", 1]]), "nilpotency exponents must be >= 2"),
    (lambda: LocalNilpotentAlgebra(2, [["x", 2], ["x", 3]]), "duplicate generator names"),
    (
        lambda: SupportDescriptor(cofinite=True, explicit=frozenset({2})),
        "cofinite descriptors list exceptions, not members",
    ),
    (
        lambda: SupportDescriptor(cofinite=True, explicit=frozenset({2}), exceptions=frozenset({2})),
        "cofinite descriptors list exceptions, not members",
    ),
    (
        lambda: SupportDescriptor(exceptions=frozenset({2})),
        "exceptions only make sense for cofinite descriptors",
    ),
]


@pytest.mark.parametrize("build, message", REFUSALS)
def test_a_record_refuses_bad_fields_with_its_message(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_a_ring_factors_its_modulus_only_when_asked(monkeypatch):
    calls = []
    take = homalg.factorize
    monkeypatch.setattr(homalg, "factorize", lambda n: calls.append(n) or take(n))
    # both prime factors lie past smith.FACTOR_TRIAL_MAX
    n = 1000000007 * 1000000009
    ring = ModularIntegers(n)
    assert ring == ModularIntegers(n) != ModularIntegers(12)
    assert hash(ring) == hash((n,)) and repr(ring) == "ModularIntegers(n=%d)" % n
    assert calls == []
    z12 = ModularIntegers(12)
    assert z12.crt_primes == (2, 3) and z12.field_prime is None and calls == [12]
    # a derived fact is neither a field nor compared
    assert z12 == ModularIntegers(12) and repr(z12) == "ModularIntegers(n=12)"
