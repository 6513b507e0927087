"""The six record classes keep one behaviour: field-wise ``==`` and ``repr``,
the field tuple as ``__match_args__``, construction by position or keyword,
copy and pickle round trips, and two flavours. The frozen records (the two
ring contexts, ``InvertibilityVerdict`` and ``WeightVectors``) refuse
assignment and deletion and hash as their field tuple; the mutable reports
are unhashable and list their fields, in order, in ``vars()``.

A subprocess test also pins the import set of a cold ``cauchykit.cli``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cauchykit
from cauchykit.canary import CanaryReport
from cauchykit.cauchy import InvertibilityVerdict
from cauchykit.densela import WeightVectors
from cauchykit.ring import PrimeField, RationalRing
from cauchykit.verify import VerificationReport

ECHO = {"kind": "cauchy", "ring": "rational", "xs": ["1"], "ys": ["2"]}

# (record, an equal record built afresh, an unequal one, field names, repr)
FROZEN = [
    (RationalRing(), RationalRing(), PrimeField(), (), "RationalRing()"),
    (PrimeField(), PrimeField(101), PrimeField(7), ("p",), "PrimeField(p=101)"),
    (InvertibilityVerdict(False, ("x", 0, 1)), InvertibilityVerdict(False, ("x", 0, 1)),
     InvertibilityVerdict(False, ("y", 0, 1)), ("invertible", "witness"),
     "InvertibilityVerdict(invertible=False, witness=('x', 0, 1))"),
    (InvertibilityVerdict(True), InvertibilityVerdict(True, None), InvertibilityVerdict(False),
     ("invertible", "witness"), "InvertibilityVerdict(invertible=True, witness=None)"),
    (WeightVectors((1, 2), (3,)), WeightVectors((1, 2), (3,)), WeightVectors((1, 2), (4,)),
     ("xs", "ys"), "WeightVectors(xs=(1, 2), ys=(3,))"),
]
MUTABLE = [
    (VerificationReport("sum", "3", "3", True, ECHO), VerificationReport("sum", "3", "3", True, dict(ECHO)),
     VerificationReport("sum", "3", "3", True, ECHO, 5),
     ("identity", "lhs", "rhs", "passed", "spec_echo", "seed"),
     "VerificationReport(identity='sum', lhs='3', rhs='3', passed=True, spec_echo={'kind': 'cauchy', "
     "'ring': 'rational', 'xs': ['1'], 'ys': ['2']}, seed=None)"),
    (CanaryReport(3, "gauss_pp", 0.5, 0.25, 0.001), CanaryReport(3, "gauss_pp", 0.5, 0.25, 0.001),
     CanaryReport(3, "closed_form", 0.5, 0.25, 0.001),
     ("n", "method", "entry_sum_residual", "identity_residual", "elapsed"),
     "CanaryReport(n=3, method='gauss_pp', entry_sum_residual=0.5, identity_residual=0.25, "
     "elapsed=0.001)"),
]
ALL = FROZEN + MUTABLE


def fields_of(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("record, equal, unequal, names, text", ALL)
def test_repr_is_the_class_and_its_fields(record, equal, unequal, names, text):
    assert repr(record) == repr(equal) == text


@pytest.mark.parametrize("record, equal, unequal, names, text", ALL)
def test_equality_is_field_wise_within_one_class(record, equal, unequal, names, text):
    assert record == equal and not record != equal
    assert record != unequal and not record == unequal
    for other in (None, 0, fields_of(record, names), text, object()):
        assert record != other and not record == other
        assert record.__eq__(other) is NotImplemented


@pytest.mark.parametrize("record, equal, unequal, names, text", ALL)
def test_match_args_are_the_fields(record, equal, unequal, names, text):
    assert type(record).__match_args__ == names
    match record:
        case PrimeField(p):
            assert p == record.p
        case InvertibilityVerdict(invertible, witness):
            assert (invertible, witness) == fields_of(record, names)
        case CanaryReport(n, method):
            assert (n, method) == fields_of(record, names)[:2]


@pytest.mark.parametrize("record, equal, unequal, names, text", ALL)
def test_copy_and_pickle_round_trips(record, equal, unequal, names, text):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(record) and c == record and repr(c) == text


@pytest.mark.parametrize("record, equal, unequal, names, text", ALL)
def test_positional_and_keyword_construction_agree(record, equal, unequal, names, text):
    values = fields_of(record, names)
    cls = type(record)
    assert cls(*values) == cls(**dict(zip(names, values))) == record


@pytest.mark.parametrize("record, equal, unequal, names, text", FROZEN)
def test_frozen_records_hash_as_their_field_tuple(record, equal, unequal, names, text):
    assert hash(record) == hash(equal) == hash(fields_of(record, names))
    table = {record: "first", unequal: "second"}
    assert table[equal] == "first" and len({record, equal, unequal}) == 2


@pytest.mark.parametrize("record, equal, unequal, names, text", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(record, equal, unequal, names, text):
    for name in names + ("kind", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == equal and repr(record) == text


@pytest.mark.parametrize("record, equal, unequal, names, text", MUTABLE)
def test_mutable_records_are_unhashable_and_list_their_fields_in_vars(record, equal, unequal, names,
                                                                      text):
    with pytest.raises(TypeError):
        hash(record)
    assert tuple(vars(record)) == names
    record = copy.copy(record)
    setattr(record, names[1], "changed")
    assert getattr(record, names[1]) == "changed" and record != equal


def test_prime_field_defaults_to_101_and_checks_its_modulus():
    assert PrimeField() == PrimeField(101) == PrimeField(p=101)
    assert PrimeField().p == 101
    for p in (4, 1, 0, -7, 2**31):
        with pytest.raises(ValueError, match="prime field modulus"):
            PrimeField(p)
    with pytest.raises(ValueError):
        PrimeField(p=4)


def test_report_json_renames_passed_and_keeps_the_field_order():
    report = VerificationReport("sum", "3", "4", False, ECHO, 9)
    assert report.to_json_dict() == {"identity": "sum", "lhs": "3", "rhs": "4", "pass": False,
                                     "spec_echo": ECHO, "seed": 9}
    assert list(report.to_json_dict()) == ["identity", "lhs", "rhs", "pass", "spec_echo", "seed"]
    assert VerificationReport("sum", "3", "3", True, ECHO).seed is None


def test_cli_import_loads_no_code_generation_or_typing_modules():
    # -S keeps site (and any .pth file) from loading modules before the import
    src = str(Path(cauchykit.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import cauchykit.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    added = set(proc.stdout.split())
    assert "cauchykit.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"})
