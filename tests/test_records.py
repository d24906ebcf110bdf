"""Value semantics of the exact layer's records (``hodge4d._record``).

The ten records used to be dataclasses; these tests pin the behaviour that
``@dataclass`` gave them: constructor signatures and defaults, equality by
fields within one class, the dataclass ``repr``, frozen records that refuse
assignment and deletion and hash by their fields, mutable records that do
not hash, and the validation messages of ``MaterialParams``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hodge4d.boundary import BoundaryKind, BoundaryReport, ConditionSummary, NormalForm
from hodge4d.convdiff import (
    ConvectionForm,
    ExpansionReport,
    ExpansionRow,
    Potential,
    build_convection_form,
    make_potential,
)
from hodge4d.fields import PolyField
from hodge4d.forms import KForm, MaterialParams, one_form
from hodge4d.tables import CheckResult
from hodge4d.verification import Report

x, y = PolyField.variable("x"), PolyField.variable("y")


def _material(beta0=1):
    return MaterialParams(Fraction(3, 2), 2, (beta0, 0, x), y)


def _convection(beta0=1):
    return build_convection_form(MaterialParams(Fraction(3, 2), 2, (beta0, 0, 0)))


def _summary(satisfied=None):
    return ConditionSummary("u = 0 on the spatial boundary", True, KForm.zero(1), satisfied)


# Per record: a factory of equal instances, and one of an instance that
# differs from them in one field.
RECORDS = {
    "MaterialParams": (_material, lambda: _material(2)),
    "ConvectionForm": (_convection, lambda: _convection(2)),
    "Potential": (lambda: make_potential(_convection()), lambda: make_potential(_convection(2))),
    "NormalForm": (lambda: NormalForm.final_time(1), lambda: NormalForm.final_time(2)),
    "ExpansionRow": (
        lambda: ExpansionRow("dx", x, {"total": x}, {"total": x}),
        lambda: ExpansionRow("dx", x, {"total": x}, {"total": y}),
    ),
    "ExpansionReport": (lambda: ExpansionReport(1, []), lambda: ExpansionReport(2, [])),
    "ConditionSummary": (_summary, lambda: _summary(True)),
    "BoundaryReport": (
        lambda: BoundaryReport(0, _summary(), _summary(), _summary()),
        lambda: BoundaryReport(0, _summary(), _summary(), _summary(False)),
    ),
    "CheckResult": (lambda: CheckResult("a", True), lambda: CheckResult("a", True, note=True)),
    "Report": (lambda: Report([CheckResult("a", True)]), lambda: Report()),
}
FROZEN = ("MaterialParams", "ConvectionForm", "Potential", "NormalForm")


@pytest.mark.parametrize("name", RECORDS)
def test_equality_is_by_fields_within_one_class(name):
    make, other = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert a != other() and not a == other()
    assert a != tuple(getattr(a, f) for f in type(a).__slots__)


def test_records_of_two_classes_with_equal_fields_differ():
    assert ExpansionReport(1, [2]) != Potential(1, [2])
    assert not ExpansionReport(1, [2]) == Potential(1, [2])


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_their_fields(name):
    make, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in type(a).__slots__))
    assert len({a, b, other()}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = RECORDS[name][0]()
    for field in type(record).__slots__:
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(set(RECORDS) - set(FROZEN)))
def test_mutable_records_do_not_hash_and_take_assignment(name):
    record = RECORDS[name][0]()
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    field = type(record).__slots__[0]
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_give_equal_records(name):
    record = RECORDS[name][0]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_repr_is_the_dataclass_format():
    assert repr(CheckResult("a", True)) == "CheckResult(name='a', passed=True, detail='', note=False)"
    assert repr(Report([CheckResult("b", False, "bad", True)])) == (
        "Report(checks=[CheckResult(name='b', passed=False, detail='bad', note=True)])"
    )
    assert repr(ConditionSummary("d", True)) == (
        "ConditionSummary(description='d', applicable=True, value=None, satisfied=None)"
    )
    assert repr(NormalForm.initial_time()) == (
        "NormalForm(kind=<BoundaryKind.INITIAL: 'initial-time'>, form=KForm<1>((-1)*dt), "
        "at_time=Fraction(0, 1))"
    )
    material = (
        "MaterialParams(alpha=Fraction(1, 1), epsilon=Fraction(1, 1), "
        "beta=(PolyField(1), PolyField(0), PolyField(0)), alpha_field=None)"
    )
    assert repr(MaterialParams(beta=(1, 0, 0))) == material
    convection = f"ConvectionForm(form=KForm<1>((1)*dx + (-1)*dt), material={material})"
    assert repr(build_convection_form(MaterialParams(beta=(1, 0, 0)))) == convection
    assert repr(make_potential(build_convection_form(MaterialParams(beta=(1, 0, 0))))) == (
        f"Potential(psi0=PolyField(-t + x), convection={convection})"
    )
    assert repr(ExpansionRow("dx", x, {}, {})) == (
        "ExpansionRow(label='dx', input_coefficient=PolyField(x), actual={}, expected={})"
    )
    assert repr(ExpansionReport(0, [])) == "ExpansionReport(degree=0, rows=[])"
    report = BoundaryReport(1, *(ConditionSummary("d", False),) * 3)
    assert repr(report) == (
        "BoundaryReport(degree=1, "
        + ", ".join(f"{n}={report.spatial!r}" for n in ("spatial", "initial", "terminal"))
        + ")"
    )


def test_constructors_take_positional_and_keyword_arguments():
    assert CheckResult("a", False, "d", True) == CheckResult(note=True, detail="d", passed=False, name="a")
    assert CheckResult("a", True) == CheckResult("a", True, "", False)
    assert ConditionSummary("d", True) == ConditionSummary("d", True, None, None)
    assert ConditionSummary("d", True, satisfied=False).value is None
    material = MaterialParams(Fraction(3, 2), 2, (1, 0, x), y)
    assert material == MaterialParams(alpha_field=y, beta=(1, 0, x), epsilon=2, alpha="3/2")
    assert MaterialParams() == MaterialParams(1, 1, (0, 0, 0), None)
    form = one_form(0, 0, 0, 1)
    assert NormalForm(BoundaryKind.FINAL, form) == NormalForm(kind=BoundaryKind.FINAL, form=form, at_time=None)
    convection = ConvectionForm(material=_convection().material, form=_convection().form)
    assert convection == _convection()
    assert Potential(convection=convection, psi0=x).psi0 == x
    assert ExpansionRow(label="dx", input_coefficient=x, actual={}, expected={}).label == "dx"
    assert ExpansionReport(rows=[], degree=3).degree == 3
    assert Report(checks=[]) == Report()
    with pytest.raises(TypeError):
        CheckResult("a")
    with pytest.raises(TypeError):
        MaterialParams(1, 1, (0, 0, 0), None, None)


def test_each_report_gets_its_own_list():
    first, second = Report(), Report()
    first.add("a", True)
    assert second.checks == [] and first.checks is not second.checks
    assert Report().checks == []


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        (dict(alpha=0.5), TypeError, "exact scalar expected (int, Fraction or str), got float"),
        (dict(epsilon=0.5), TypeError, "exact scalar expected (int, Fraction or str), got float"),
        (dict(alpha=0), ValueError, "alpha must be positive, got 0"),
        (dict(alpha=-1), ValueError, "alpha must be positive, got -1"),
        (dict(epsilon=Fraction(-1, 2)), ValueError, "epsilon must be positive, got -1/2"),
        (dict(alpha="x"), ValueError, "Invalid literal for Fraction: 'x'"),
        (dict(beta=(1, 2)), ValueError, "beta must have three components"),
        (dict(beta=(1, 2, 3, 4)), ValueError, "beta must have three components"),
        (dict(beta=(1.5, 0, 0)), TypeError, "exact scalar expected (int, Fraction or str), got float"),
        (dict(alpha_field=1.5), TypeError, "exact scalar expected (int, Fraction or str), got float"),
        # the parent's order: both scalars are read before either sign is
        # checked, alpha before epsilon, then beta, then alpha_field
        (dict(alpha=0, epsilon=0), ValueError, "alpha must be positive, got 0"),
        (dict(alpha=0, epsilon=0.5), TypeError, "exact scalar expected (int, Fraction or str), got float"),
        (dict(alpha=0, beta=(1,)), ValueError, "alpha must be positive, got 0"),
        (dict(beta=(1, 2), alpha_field=1.5), ValueError, "beta must have three components"),
    ],
)
def test_material_params_rejects_bad_input_with_the_same_messages(kwargs, error, message):
    with pytest.raises(error) as info:
        MaterialParams(**kwargs)
    assert type(info.value) is error and str(info.value) == message


def test_material_params_coerces_its_fields():
    m = MaterialParams("3/2", Fraction(2), (1, Fraction(1, 2), x), "2")
    assert (m.alpha, m.epsilon) == (Fraction(3, 2), Fraction(2))
    assert type(m.alpha) is Fraction and type(m.epsilon) is Fraction
    assert m.beta == (PolyField.constant(1), PolyField.constant(Fraction(1, 2)), x)
    assert all(isinstance(b, PolyField) for b in m.beta)
    assert isinstance(m.alpha_field, PolyField) and m.alpha_field == PolyField.constant(2)
    assert MaterialParams(alpha_field=y).alpha_field is y


def test_convection_form_rejects_a_wrong_dt_component():
    m = MaterialParams(epsilon=2)
    with pytest.raises(ValueError, match="dt component must be exactly -1/epsilon"):
        ConvectionForm(one_form(0, 0, 0, -1), m)
    with pytest.raises(ValueError, match="dt component must be exactly -1/epsilon"):
        ConvectionForm(KForm.zero(2), m)
