"""Fixed-point charts, the localization sum, and its structural invariants."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushkit import (
    ClassExpr,
    SymmetryError,
    UnsupportedVariableError,
    bundle_ring,
    complete_homogeneous,
    fixed_point_charts,
    is_symmetric,
    localize,
    localize_divided_differences,
    relation_check,
    root_generators,
    series_inverse,
)
from pushkit import gysin, localization

from helpers import literal_sum, random_fiber_poly, random_poly, symmetrize

SETUP_CACHES = ("_charts", "_vandermonde", "_cofactors")
SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def fresh_setup_caches():
    """Empty the per-rank set-up caches before and after the test, so the
    test fills them itself and leaves nothing it built behind."""
    for name in SETUP_CACHES:
        getattr(localization, name).cache_clear()
    yield
    for name in SETUP_CACHES:
        getattr(localization, name).cache_clear()


def test_bundle_ring_layout():
    table = bundle_ring(3)
    assert table.names == ("x", "y", "q1", "q2", "c1", "c2", "c3", "u1", "u2", "u3")
    assert table.degree_of("q2") == 2
    assert table.degree_of("c3") == 3
    assert table.degree_of("u3") == 1
    with pytest.raises(ValueError):
        bundle_ring(0)


def test_charts_rank_three_euler_classes():
    table = bundle_ring(3)
    u1, u2, u3 = root_generators(table)
    charts = fixed_point_charts(3)
    assert charts[0].euler == (u2 - u1) * (u3 - u1)
    assert charts[1].euler == (u1 - u2) * (u3 - u2)
    assert charts[2].euler == (u1 - u3) * (u2 - u3)
    for chart in charts:
        assert chart.euler.is_homogeneous_of_degree(2)
        assert not chart.euler.is_zero()


def test_charts_restriction_maps():
    table = bundle_ring(3)
    u = root_generators(table)
    charts = fixed_point_charts(3)
    for j, chart in enumerate(charts, start=1):
        assert chart.restriction["y"] == u[j - 1]
        assert chart.restriction["x"] == -u[j - 1]
    # quotient classes restrict to elementary symmetric functions of the others
    assert charts[0].restriction["q1"] == u[1] + u[2]
    assert charts[0].restriction["q2"] == u[1] * u[2]
    assert charts[2].restriction["q1"] == u[0] + u[1]
    # base Chern classes restrict uniformly
    assert charts[1].restriction["c1"] == u[0] + u[1] + u[2]
    assert charts[1].restriction["c3"] == u[0] * u[1] * u[2]


def test_chart_maps_are_read_only():
    # the charts are cached per rank: a caller's write must not reach them
    with pytest.raises(TypeError):
        fixed_point_charts(3)[0].restriction["y"] = bundle_ring(3).var("u2")
    y = bundle_ring(3).var("y")
    assert localize(y * y, 3).value == 1


def test_rank_one_chart_is_trivial():
    charts = fixed_point_charts(1)
    assert len(charts) == 1
    assert charts[0].euler == bundle_ring(1).one()


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_cofactor_times_euler_class_is_the_vandermonde(rank):
    u = root_generators(bundle_ring(rank))
    vandermonde = bundle_ring(rank).one()
    for a in range(rank):
        for b in range(a + 1, rank):
            vandermonde = vandermonde * (u[a] - u[b])
    charts, cofactors = fixed_point_charts(rank), localization._cofactors(rank)
    assert len(cofactors) == rank
    for chart, cofactor in zip(charts, cofactors):
        assert cofactor * chart.euler == vandermonde


def test_setup_makes_no_exact_division(monkeypatch, fresh_setup_caches):
    def refuse(*args, **kwargs):
        raise AssertionError("set-up divided")

    monkeypatch.setattr(localization, "divide_exact_linear", refuse)
    assert len(localization._charts(5)) == 5
    assert len(localization._cofactors(5)) == 5
    assert localization._vandermonde(5) == tuple(
        (f"u{a}", f"u{b}") for a in range(1, 6) for b in range(a + 1, 6)
    )
    for name in SETUP_CACHES:
        assert getattr(localization, name).cache_info().currsize == 1


def test_benchmark_tracer_wraps_the_pipeline(monkeypatch, fresh_setup_caches):
    # perfbench/spans.py finds the set-up caches and pipeline functions by
    # name; a rename or a lost lru_cache must fail here, not only there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {name: getattr(localization, name) for name in SETUP_CACHES}
    originals["localize"] = localization.localize
    push = gysin.pushforward
    tracer = spans.Tracer()
    tracer.install()
    try:
        y = bundle_ring(2).var("y")
        gysin.pushforward(ClassExpr(y.pow(3)), 2)
        localization.localize(y.pow(3), 2)  # the closed form in the roots; pushforward skips it
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"gysin.pushforward", "localization.localize", "localization.setup"} <= names
    assert gysin.pushforward is push
    for name, fn in originals.items():
        assert getattr(localization, name) is fn


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_relation_check(rank):
    assert relation_check(rank)


def test_localize_point_class_rank_three():
    table = bundle_ring(3)
    y = table.var("y")
    result = localize(y * y, 3)
    assert result.value == table.one()
    assert result.valid_through is None


def test_localize_fundamental_class_vanishes():
    table = bundle_ring(3)
    result = localize(table.one(), 3)
    assert result.value == table.zero()


def test_localize_series_rank_three():
    table = bundle_ring(3)
    y = table.var("y")
    result = localize(series_inverse(1 + y, 6), 3, 6)
    product = table.one()
    for u in root_generators(table):
        product = product.mul_trunc(series_inverse(1 + u, 6), 6)
    assert result.valid_through == 4
    assert result.value == product.truncate(4)


def test_localize_requires_pretruncated_input():
    table = bundle_ring(3)
    y = table.var("y")
    with pytest.raises(ValueError):
        localize(y.pow(5), 3, 4)


def test_cutoff_below_the_fiber_dimension_is_refused():
    x = bundle_ring(5).var("x")
    message = "cutoff must be at least rank - 1 = 4, the fiber dimension"
    with pytest.raises(ValueError, match=message):
        localize(x.pow(2), 5, 2)
    with pytest.raises(ValueError, match=message):
        gysin.pushforward(ClassExpr(x.pow(2), 2), 5)


def test_localize_rejects_asymmetric_output():
    table = bundle_ring(3)
    phi = table.var("u1") * table.var("y").pow(2)
    with pytest.raises(SymmetryError):
        localize(phi, 3)


def test_localize_symmetric_root_coefficients_pass():
    table = bundle_ring(3)
    e1 = table.var("u1") + table.var("u2") + table.var("u3")
    result = localize(e1 * table.var("y").pow(2), 3)
    assert result.value == e1


def test_rank_one_localization_is_restriction():
    table = bundle_ring(1)
    y, u1 = table.var("y"), table.var("u1")
    assert localize(y.pow(3), 1).value == u1.pow(3)
    assert localize(table.one(), 1).value == table.one()


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_monomial_family_closed_form_and_reference(rank):
    table = bundle_ring(rank)
    y = table.var("y")
    roots = root_generators(table)
    sign = 1 if rank % 2 == 1 else -1
    for k in range(rank - 1):
        assert localize(y.pow(k), rank).value == table.zero()
        assert localize_divided_differences(y.pow(k), rank) == table.zero()
    for m in range(0, 4):
        value = localize(y.pow(rank - 1 + m), rank).value
        assert value == localize_divided_differences(y.pow(rank - 1 + m), rank)
        # closed form: h_m up to the parity of the fiber dimension (y = -x)
        assert value == sign * complete_homogeneous(m, roots)
        x_value = localize(table.var("x").pow(rank - 1 + m), rank).value
        sign_m = 1 if m % 2 == 0 else -1
        assert x_value == sign_m * complete_homogeneous(m, roots)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
def test_pipelines_agree_on_random_inputs(seed, rank):
    rng = random.Random(seed)
    phi = random_fiber_poly(rng, rank)
    result = localize(phi, rank)
    assert result.value == localize_divided_differences(phi, rank)
    assert is_symmetric(result.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
def test_localize_matches_the_literal_sum_on_classes_with_roots(seed, rank):
    # a class in y, q_i and c_i plus a root polynomial times a power of y;
    # the root part is symmetrized half the time, so both outcomes occur
    rng = random.Random(seed)
    table = bundle_ring(rank)
    roots = [f"u{i}" for i in range(1, rank + 1)]
    coefficient = random_poly(rng, table, roots, max_terms=3, max_exp=2, max_vars_per_term=2)
    if rng.random() < 0.5:
        coefficient = symmetrize(coefficient)
    phi = random_fiber_poly(rng, rank) + coefficient * table.var("y").pow(rng.randint(0, rank + 2))
    expected = literal_sum(phi, rank)
    if is_symmetric(expected):
        assert localize(phi, rank).value == expected
    else:
        with pytest.raises(SymmetryError):
            localize(phi, rank)


def test_reference_refuses_root_variables():
    # phi|_j = s(phi|_1) fails for a non-symmetric root coefficient, so the
    # reference refuses every root; localize reports the asymmetry
    table = bundle_ring(3)
    phi = table.var("u1") * table.var("y").pow(2)
    with pytest.raises(UnsupportedVariableError):
        localize_divided_differences(phi, 3)
    with pytest.raises(UnsupportedVariableError):
        localize_divided_differences(table.var("u2"), 3)
    with pytest.raises(SymmetryError):
        localize(phi, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_degree_shift_on_homogeneous_inputs(seed, rank):
    rng = random.Random(seed)
    phi = random_fiber_poly(rng, rank)
    for d, part in phi.graded_parts():
        value = localize(part, rank).value
        if d < rank - 1:
            assert value.is_zero()
        else:
            assert value.is_homogeneous_of_degree(d - (rank - 1)) or value.is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_truncation_contract(seed, rank):
    # localizing a truncated input agrees with truncating the exact output
    rng = random.Random(seed)
    phi = random_fiber_poly(rng, rank)
    cutoff = max(phi.degree(), rank - 1) if phi.degree() >= 0 else rank - 1
    exact = localize(phi, rank).value
    truncated = localize(phi.truncate(cutoff), rank, cutoff)
    assert truncated.valid_through == cutoff - (rank - 1)
    assert truncated.value == exact.truncate(cutoff - (rank - 1))
