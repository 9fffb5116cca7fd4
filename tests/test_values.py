"""Value semantics of pushkit's records: the syntax tree, ClassExpr, the
verification report, the fixed-point charts, LocalizationResult and
OutputRecord are immutable, compared by type and fields, hashed and printed
by fields; only PushforwardResult is still a dataclass."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
from fractions import Fraction

import pytest

from pushkit import ClassExpr, bundle_ring, fixed_point_charts, localize, verify_classical
from pushkit.cli import OutputRecord
from pushkit.expressions import Inv, Neg, Num, Pow, Product, Sum, Var, parse_expression
from pushkit.gysin import VerificationCheck

_T = bundle_ring(2)
_X = _T.var("x")

# Each record with its repr, as the frozen dataclasses printed it.
_RECORDS = {
    "tree": (
        lambda: parse_expression("-inv(1 - 2/3 x)^2 + c1 y", 2),
        "Sum(terms=((1, Neg(operand=Pow(base=Inv(operand=Sum(terms=((1, Num(value=Fraction(1, 1))), "
        "(-1, Product(factors=(Num(value=Fraction(2, 3)), Var(name='x', offset=13)))))), offset=1), "
        "exponent=2))), (1, Product(factors=(Var(name='c1', offset=20), Var(name='y', offset=23))))))",
    ),
    "class": (lambda: ClassExpr(_X + 1, 3), "ClassExpr(payload=Polynomial(x + 1), cutoff=3)"),
    "exact class": (lambda: ClassExpr(_X), "ClassExpr(payload=Polynomial(x), cutoff=None)"),
    "check": (lambda: VerificationCheck("a", True), "VerificationCheck(name='a', passed=True, detail='')"),
    "report": (
        lambda: verify_classical(1, 1),
        "VerificationReport(rank=1, cutoff=1, checks=(VerificationCheck(name='segre_series', passed=True, "
        "detail='degrees 0..1 agree'), VerificationCheck(name='hyperplane_powers', passed=True, "
        "detail='k = 0..1 agree'), VerificationCheck(name='gauss_bonnet', passed=True, "
        "detail='f_*(sum_(i=0..0) q_i x^(0-i)) = 1 = chi(P^0)')))",
    ),
    "localization": (
        lambda: localize(_X * _X, 2, 4),
        "LocalizationResult(value=Polynomial(-u1 - u2), valid_through=3)",
    ),
    "chart": (
        lambda: fixed_point_charts(2)[0],
        "FixedPointChart(index=1, restriction=mappingproxy({'x': Polynomial(-u1), 'y': Polynomial(u1), "
        "'q1': Polynomial(u2), 'c1': Polynomial(u1 + u2), 'c2': Polynomial(u1 u2), 'u1': Polynomial(u1), "
        "'u2': Polynomial(u2)}), euler=Polynomial(-u1 + u2))",
    ),
    "record": (
        lambda: OutputRecord(2, 4, 3, "", _X),
        "OutputRecord(rank=2, cutoff=4, valid_through=3, input_echo='', polynomial=Polynomial(x), "
        "checks=(), label='chern_form')",
    ),
}


@pytest.mark.parametrize("make, printed", _RECORDS.values(), ids=_RECORDS.keys())
def test_record_is_immutable_and_equal_by_value(make, printed):
    a, b = make(), make()
    assert repr(a) == printed
    field = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = None
    assert repr(a) == printed and a == b and not a != b and copy.copy(a) == a
    assert hash(a) == hash(b) and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_equality_needs_the_same_type():
    v = Var("x", 0)
    assert Pow(v, 0) != Inv(v, 0) and Inv(v, 0) != Pow(v, 0)
    assert Neg(v) != Num(v) and Sum((v,)) != Product((v,))
    assert v != ("x", 0) and v == Var("x", 0) and v != Var("x", 1)
    assert Num(Fraction(1)) == Num(1) and hash(Num(Fraction(1))) == hash(Num(1))
    assert len({Pow(v, 2), Pow(Var("x", 0), 2), Inv(v, 2)}) == 2


def test_record_takes_exactly_its_fields():
    with pytest.raises(TypeError, match="Var takes 2 fields, got 1"):
        Var("x")
    with pytest.raises(TypeError, match="Pow takes 2 fields, got 3"):
        Pow(Var("x", 0), 2, 3)


def test_output_record_takes_its_defaults_positionally_and_by_name():
    record = OutputRecord(2, 4, 3, "", _X)  # as the benchmark builds its expected answer
    assert (record.checks, record.label) == ((), "chern_form")
    assert record.to_json_dict() == {
        "rank": 2, "cutoff": 4, "valid_through": 3,
        "terms": [{"coeff": "1/1", "exps": {"x": 1}}], "checks": {},
    }
    named = OutputRecord(rank=2, cutoff=4, valid_through=3, input_echo="", polynomial=_X, label="u_form")
    assert named != record and named.label == "u_form" and named.render_text().startswith("input = \n")
    assert VerificationCheck(name="a", passed=False).detail == ""


@pytest.mark.parametrize(
    "cutoff, message",
    [(-1, "non-negative integer or None"), (True, "non-negative integer or None"),
     (2.0, "non-negative integer or None"), (0, "payload has terms above the declared cutoff")],
)
def test_class_expr_refuses_a_bad_cutoff(cutoff, message):
    with pytest.raises(ValueError, match=message):
        ClassExpr(_X, cutoff)
    with pytest.raises(ValueError, match=message):
        ClassExpr(payload=_X, cutoff=cutoff)


def test_only_the_pushforward_result_is_a_dataclass():
    found = set()
    for name in ("errors", "polyring", "symfun", "localization", "gysin", "expressions", "cli"):
        module = importlib.import_module(f"pushkit.{name}")
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls_name)
    assert found == {"PushforwardResult"}
