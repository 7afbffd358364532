"""The public record classes: equal fields give equal records with equal
hashes, fields are read-only, defaults hold, construction still validates,
and the cached properties are computed once per record."""

from fractions import Fraction

import pytest

from voganlab import (
    ArthurVerdict,
    Chain,
    ComponentGroup,
    OrbitRecord,
    Rectangle,
    RootDatum,
    VoganVariety,
)
from voganlab.errors import InputError
from voganlab.variety import GL


def chain():
    return Chain(Fraction(-1, 2), (1, 2, 1))


def record_pairs():
    """Two separately built, field-by-field equal instances of each record,
    with the name of one field."""
    v = VoganVariety(GL, "chain", (chain(),))
    rect = Rectangle(2, 1, Fraction(0))
    yield chain(), chain(), "dims"
    yield v, VoganVariety(GL, "chain", (chain(),)), "chains"
    yield (
        OrbitRecord(v, 0, 0, False, True, (0, 0, 0), msegs=(((0, 0), (1, 1), (1, 1), (2, 2)),)),
        OrbitRecord(v, 0, 0, False, True, (0, 0, 0), msegs=(((0, 0), (1, 1), (1, 1), (2, 2)),)),
        "dim",
    )
    yield rect, Rectangle(2, 1, Fraction(0)), "center"
    yield ArthurVerdict(True, (rect,)), ArthurVerdict(True, (rect,)), "is_arthur"
    yield ComponentGroup((2,)), ComponentGroup((2,)), "elementary_divisors"
    yield (
        RootDatum(2, GL, ((1, -1),)),
        RootDatum(2, GL, ((1, -1),)),
        "roots",
    )


@pytest.mark.parametrize("a, b, field", record_pairs(), ids=lambda x: type(x).__name__)
def test_equal_fields_give_equal_records_and_hashes(a, b, field):
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("a, b, field", record_pairs(), ids=lambda x: type(x).__name__)
def test_fields_are_read_only(a, b, field):
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


def test_unequal_fields_give_unequal_records():
    assert Chain(0, (1, 2)) != Chain(Fraction(1, 2), (1, 2))
    assert ArthurVerdict(True) != ArthurVerdict(True, per_chain_criterion=True)


def test_defaults():
    v = VoganVariety(GL, "chain", ())
    assert v.n is None
    verdict = ArthurVerdict(False)
    assert verdict.decomposition == ()
    assert verdict.per_chain_criterion is False
    assert Rectangle(2, 1) == Rectangle(2, 1, Fraction(0))
    assert ComponentGroup().elementary_divisors == ()
    assert ComponentGroup().is_trivial
    assert RootDatum(1, GL, ()).center_generators == ()
    record = OrbitRecord(v, 0, 0, True, True, ())
    assert (record.msegs, record.subset, record.rank) == (None, None, None)


def test_repr_names_every_field():
    assert repr(Chain(Fraction(-1, 2), (2, 2))) == "Chain(offset=Fraction(-1, 2), dims=(2, 2))"
    assert repr(ComponentGroup((2,))) == "ComponentGroup(elementary_divisors=(2,))"
    assert str(ComponentGroup((2, 4))) == "Z/2 x Z/4"


def test_chain_validation_and_offset_normalisation():
    with pytest.raises(InputError, match="dims must all be >= 1"):
        Chain(Fraction(0), (1, 0, 1))
    with pytest.raises(InputError, match="dims must all be >= 1"):
        Chain(Fraction(0), (-2,))
    with pytest.raises(InputError, match="half-integer"):
        Chain(Fraction(1, 3), (1, 1))
    with pytest.raises(InputError, match="half-integer"):
        Chain("1/4", (1,))
    for offset in (0, -1, "1/2", Fraction(3, 2)):
        c = Chain(offset, (1,))
        assert type(c.offset) is Fraction
        assert c == Chain(offset=Fraction(offset), dims=(1,))


def test_root_datum_validation():
    with pytest.raises(InputError, match="unknown family"):
        RootDatum(1, "E8", ())
    with pytest.raises(InputError, match="root length"):
        RootDatum(2, GL, ((1, -1, 0),))
    with pytest.raises(InputError, match="center generator length"):
        RootDatum(2, GL, ((1, -1),), ((Fraction(1, 2),),))
    with pytest.raises(InputError, match="non-integral pairing"):
        RootDatum(2, GL, ((1, -1),), ((Fraction(1, 3), Fraction(0)),))
    rd = RootDatum(2, GL, ((1, -1),), ((Fraction(1, 2), Fraction(1, 2)),))
    assert rd == RootDatum(rank=2, family=GL, roots=((1, -1),),
                           center_generators=((Fraction(1, 2), Fraction(1, 2)),))


def test_cached_properties_are_computed_once():
    c = Chain(Fraction(-3, 2), (1, 1, 1, 1))
    labels = c.exponent_labels
    assert labels == ("-3/2", "-1/2", "1/2", "3/2")
    assert c.exponent_labels is labels
