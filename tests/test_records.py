"""The value records compare and hash by their fields, refuse assignment and
keep their repr text; game specs compare by name within one class."""

import pytest

from goldennugget import cli, nugget, verify
from goldennugget import fibonacci as fw
from goldennugget import positions as pos

# each record twice, built by separate calls, and a record differing in one field
RECORDS = {
    "FibRepr": (lambda: fw.even_repr(117), lambda: fw.even_repr(118)),
    "HeapClass": (lambda: nugget.classify(45), lambda: nugget.classify(46)),
    "RcfValue": (lambda: nugget.heap_rcf(19), lambda: nugget.heap_rcf(14)),
    "Move": (lambda: pos.Move(0, 1), lambda: pos.Move(0, 2)),
    "Position": (lambda: pos.Position.parse("3b+20r"), lambda: pos.Position.parse("3b+20b")),
    "PeriodReport": (lambda: pos.PeriodReport(1, 2), lambda: pos.PeriodReport(None, None)),
    "Check": (lambda: verify.Check("name", True), lambda: verify.Check("name", False)),
    "Table": (lambda: cli.Table(["h"], [["1"]], "rows"), lambda: cli.Table(["h"], [["2"]], "rows")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_and_hash_by_their_fields(name):
    make, other = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and a != other()
    if name != "Table":  # a table holds lists, so it has no hash
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name][0]()
    first_field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first_field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_record_repr_text():
    assert repr(fw.even_repr(117)) == "FibRepr(kind='even', terms=((10, 2), (4, 2), (2, 1)))"
    assert repr(nugget.classify(45)) == "HeapClass(kind='g-switch', n=2, i=2)"
    assert repr(nugget.heap_rcf(19)) == "RcfValue(kind='number', value=Dyadic(11, 4))"
    assert repr(pos.Move(0, 1)) == "Move(index=0, amount=1)"
    assert repr(pos.Position.parse("3b+20r")) == "Position(heaps=(('b', 3), ('r', 20)))"


def test_position_validates_its_heaps():
    with pytest.raises(ValueError, match="bad heap"):
        pos.Position((("g", 1),))
    with pytest.raises(ValueError, match="bad heap"):
        pos.Position(((pos.BLUE, -1),))


def test_specs_are_equal_by_name_within_one_class():
    spec = pos.parse_spec("mod:3:L=2,1")
    assert spec == pos.parse_spec("mod:3:L=1,2") and hash(spec) == hash(pos.parse_spec("mod:3:L=1,2"))
    assert spec != pos.parse_spec("mod:3:L=1")
    assert nugget.GOLDEN == nugget.GoldenSpec()
    assert nugget.GOLDEN != nugget.CSGameSpec("golden", fw.in_a)  # a GoldenSpec equals only a GoldenSpec
