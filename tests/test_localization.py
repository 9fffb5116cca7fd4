"""Fixed-point charts, the localization sum, and its structural invariants."""

from __future__ import annotations

import gc
import importlib.util
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushkit import (
    ArityError,
    ClassExpr,
    Polynomial,
    SymmetryError,
    UnsupportedVariableError,
    bundle_ring,
    elaborate,
    elementary_symmetric,
    expand_elementary,
    fixed_point_charts,
    is_symmetric,
    localize,
    parse_expression,
    presentation_oracle,
    pushforward,
    reduce_to_elementary,
    root_generators,
    segre_oracle,
    series_inverse,
    verify_classical,
)
from pushkit import gysin, localization, polyring

from helpers import CACHES, FreshRank, cache_sizes, cold_caches, complete_homogeneous, graded_parts, literal_sum
from helpers import perturbed_segre, random_chern_poly, random_class, random_coeff, random_fiber_poly, random_poly
from helpers import localize_divided_differences, reference_setup, relation_check, sample_by_charts, sample_memos
from helpers import per_rank_caches, sample_table, segre_series, symmetrize, wrong_q1_at_second_point

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_bundle_ring_layout():
    table = bundle_ring(3)
    assert table.names == ("x", "y", "q1", "q2", "c1", "c2", "c3", "u1", "u2", "u3")
    assert table.degree_of("q2") == 2
    assert table.degree_of("c3") == 3
    assert table.degree_of("u3") == 1
    with pytest.raises(ValueError):
        bundle_ring(0)


@pytest.mark.parametrize("rank", range(1, 9))
def test_charts_match_the_combination_sums(rank):
    # the charts come from recursions in _fixed_points; here each image is
    # summed over combinations and each Euler class multiplied out instead:
    # q_i restricts to e_i of the other roots, c_i to e_i of all of them
    table = bundle_ring(rank)
    roots = root_generators(table)
    charts = fixed_point_charts(rank)
    assert len(charts) == rank and [chart.index for chart in charts] == list(range(1, rank + 1))
    for j, chart in enumerate(charts):
        complement = roots[:j] + roots[j + 1:]
        assert chart.restriction["x"] == -roots[j] and chart.restriction["y"] == roots[j]
        for i in range(1, rank):
            assert chart.restriction[f"q{i}"] == elementary_symmetric(i, complement)
        for i in range(1, rank + 1):
            assert chart.restriction[f"c{i}"] == elementary_symmetric(i, roots)
            assert chart.restriction[f"u{i}"] == roots[i - 1]
        euler = table.one()
        for u in complement:
            euler = euler * (u - roots[j])
        assert chart.euler == euler and euler.is_homogeneous_of_degree(rank - 1)
        assert len(chart.restriction) == len(table.names)
        with pytest.raises(TypeError):  # the charts are cached per rank: a write must not reach them
            chart.restriction["y"] = table.one()


@pytest.mark.parametrize("rank", range(1, 7))
def test_sample_table_matches_the_combination_sums(rank):
    # the integer table fixed_point_sample reads, against e_i summed over
    # itertools.combinations of the sample point
    def e(i, values):
        return sum(math.prod(combo) for combo in itertools.combinations(values, i))

    # column j is key field j from the bottom, so field 0 is u_r
    names = bundle_ring(rank).names
    a, columns, vandermonde, cofactors = sample_table(rank)
    assert len(columns) == len(names) and all(len(column) == rank for column in columns)
    image = {name: column for name, column in zip(reversed(names), columns)}
    for j in range(rank):
        complement = a[:j] + a[j + 1:]
        assert image["x"][j] == -a[j] and image["y"][j] == a[j]
        for i in range(1, rank):
            assert image[f"q{i}"][j] == e(i, complement)
        for i in range(1, rank + 1):
            assert image[f"c{i}"][j] == e(i, a)
            assert image[f"u{i}"][j] == a[i - 1]
        assert cofactors[j] * math.prod(ai - a[j] for ai in complement) == vandermonde


def test_sample_point_is_distinct_in_range_and_repeatable():
    # the Schwartz-Zippel bound of fixed_point_sample needs r distinct
    # coordinates in S = {1, ..., 2^40 - 1}, the same point at every call;
    # chart j is weighed by V / prod_(i != j) (a_i - a_j), an exact integer
    points = {rank: sample_table(rank)[0] for rank in range(1, 33)}
    with cold_caches():
        for rank, point in points.items():
            assert len(point) == len(set(point)) == rank
            assert all(type(a) is int and 1 <= a <= 2**40 - 1 for a in point)
            a, _, vandermonde, cofactors = sample_table(rank)
            assert a == point and len(cofactors) == rank
            assert vandermonde == math.prod(ai - ak for ai, ak in itertools.combinations(a, 2))
            for j, cofactor in enumerate(cofactors):
                assert cofactor * math.prod(ai - a[j] for i, ai in enumerate(a) if i != j) == vandermonde


def test_fixed_point_sample_refuses_another_ranks_ring():
    # like localize and pushforward, the check raises for a class or an answer
    # from another rank's working ring instead of answering for it
    y3, y4 = bundle_ring(3).var("y"), bundle_ring(4).var("y")
    answer3 = gysin.pushforward(ClassExpr(y3.pow(4)), 3).chern_form
    answer4 = gysin.pushforward(ClassExpr(y4.pow(4)), 4).chern_form
    assert localization.fixed_point_sample(y3.pow(4), 3, answer3)
    for phi, rank, answer in [(y4.pow(4), 3, answer3), (y3.pow(4), 4, answer4),
                              (y4.pow(4), 4, answer3), (y3.pow(4), 3, answer4)]:
        with pytest.raises(ArityError):
            localization.fixed_point_sample(phi, rank, answer)


def test_fixed_point_sample_refuses_an_answer_in_the_roots():
    # the answer is evaluated at the c_i values only: the right answer read in
    # the roots, -h_2(u) for y^3 at rank 2, is refused, and so is c2 written
    # as u1 u2 in one term, though both agree with c_i = e_i(u) at the point
    table = bundle_ring(2)
    y, c1, c2, u1, u2 = (table.var(n) for n in ("y", "c1", "c2", "u1", "u2"))
    answer = c2 - c1 * c1
    in_roots = localize(y.pow(3), 2).value
    assert in_roots == -(u1 * u1 + u1 * u2 + u2 * u2)
    assert localization.fixed_point_sample(y.pow(3), 2, answer)
    assert not localization.fixed_point_sample(y.pow(3), 2, in_roots)
    assert not localization.fixed_point_sample(y.pow(3), 2, answer - c2 + u1 * u2)


def test_sample_table_is_read_only():
    # the table is cached per rank, like the charts: a caller's write must not
    # reach its point data, so that is tuples of ints all through
    def entries(value):
        if isinstance(value, tuple):
            yield value
            for item in value:
                yield from entries(item)
        else:
            assert type(value) is int

    for rank in range(1, 7):
        for entry in entries(sample_table(rank)):
            with pytest.raises(TypeError):
                entry[0] = 0


def test_sample_check_keeps_no_weight_after_it_returns():
    # a push keeps one int W(f) per fiber monomial f and no product of a
    # cofactor by an image: inv(1 - x) at rank 32 weighs 41 powers of x
    # against 32 cofactors of about 20,000 bits, and the call measured weighs
    # them all, on a warm point table
    rank = 32
    with cold_caches():
        phi = elaborate(parse_expression("inv(1 - x)", rank), rank, 40).payload
        answer = localization._closed_form(phi, rank)
        sample_table(rank)  # the point table is built, and no weight is kept yet
        assert sample_memos(rank, phi._width) is None
        gc.disable()
        tracemalloc.start()
        try:
            assert localization.fixed_point_sample(phi, rank, answer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 500_000
        weights = sample_memos(rank, phi._width)[1]
        assert len(weights) == len(phi._terms) and all(type(w) is int for w in weights.values())


def test_verify_at_rank_32_stays_small():
    # every power x^k of verify's hyperplane_powers is a new fiber monomial,
    # weighed once against the rank's 32 cofactors of about 20,000 bits
    with cold_caches():
        gc.disable()
        tracemalloc.start()
        try:
            assert verify_classical(32, 35).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
    assert peak < 1_000_000


def test_sample_check_leaves_no_cyclic_garbage():
    # a nested function that calls itself is a reference cycle: each call
    # would leave its function, closure cells and memo to the collector
    rank, cutoff = 6, 12
    phi = elaborate(parse_expression("inv(1 - c1 - x)", rank), rank, cutoff).payload
    answer = localization._closed_form(phi, rank)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert localization.fixed_point_sample(phi, rank, answer)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cold_caches_empties_every_cache_the_scan_finds():
    # the scan finds every cache without a list of names, and helpers.CACHES
    # pins the names: a cache added later is emptied by cold_caches or fails here
    assert set(per_rank_caches()) == CACHES
    for cache in per_rank_caches().values():
        cache(2)
    assert all(info.currsize for info in cache_sizes().values())
    with cold_caches():
        assert not any(info.currsize for info in cache_sizes().values())
        for cache in per_rank_caches().values():
            cache(3)
    assert not any(info.currsize for info in cache_sizes().values())


def test_per_rank_caches_are_bounded():
    # one fixed bound for every per-rank cache, at least the 32 ranks the suite
    # reads: a rank is evicted after `bound` others and rebuilt as a new
    # object, and what it kept by key width (its Segre series, the sample
    # check's memos) went with its entry
    with cold_caches():
        table = bundle_ring(2)
        phi = series_inverse(1 - table.var("x"), 8)
        assert set(pushforward(ClassExpr(phi, 8), 2).checks.values()) == {"pass"}
        assert segre_series(2, phi._width) and sample_memos(2, phi._width)[1]
        point = sample_table(2)
        bound, = {info.maxsize for info in cache_sizes().values()}
        assert bound >= 32
        for name, cache in per_rank_caches().items():
            first = cache(2)
            for _ in range(bound):
                cache(FreshRank(1))
            assert cache_sizes()[name].currsize == bound
            assert cache(2) is not first
        assert bundle_ring(2) is not table and bundle_ring(2) == table
        assert segre_series(2, phi._width) == [] and sample_memos(2, phi._width) is None
        assert sample_table(2) == point


def test_closed_form_caches_are_read_only_and_unchanged_by_use():
    # _closed_form keeps only the Segre table, per rank and by width in it,
    # whose terms are tuples: it expands each q-monomial once per call, so the
    # only caches are the per-rank ones the scan finds, and a second round of
    # pushes gives the first round's answers
    rank, cutoff = 4, 15
    texts = ("inv(1 - x)", "(q1 q2 y^3) inv(1 + y)", "q3 y^2 + c1 x^4", "y^3", "x^15", "q1^7 q3^2 c2")
    classes = [elaborate(parse_expression(text, rank), rank, cutoff).payload for text in texts]
    first = [localization._closed_form(phi, rank) for phi in classes]
    assert [localization._closed_form(phi, rank) for phi in classes] == first
    assert first[4] == segre_oracle(rank, 12).homogeneous_component(12)
    series = segre_series(rank, classes[0]._width)
    assert len(series) == 13 and all(type(part) is tuple for s in series for part in s)
    with pytest.raises(TypeError):
        series[1][1][0] = 2


def _pushes(cases) -> list:
    return [(r.chern_form, dict(r.checks)) for r in (pushforward(ClassExpr(phi, cutoff), rank)
                                                     for phi, rank, cutoff in cases)]


def _table_classes():
    # ranks 1-6 at widths 4, 5 and 6, two cutoffs each, the lower first, so
    # a warm table is extended in place; x-, y-, c- and q-classes
    cases = []
    for cutoff in (9, 17, 33, 14, 24, 40):
        for rank in range(1, 7):
            texts = ["inv(1 - c1 x - x)", "c1^2 y^3 - 2/3 x^5 + c%d x^%d" % (rank, rank + 2)]
            if rank > 1:
                texts.append("q%d y^2 inv(1 + y) + q1 c1 x" % (rank - 1))
            cases += [(elaborate(parse_expression(text, rank), rank, cutoff).payload, rank, cutoff) for text in texts]
    return cases


def test_warm_and_cold_tables_give_the_same_pushes():
    # every push with the Segre and sample tables emptied first, against the
    # same pushes interleaved across ranks and widths on tables kept warm
    cases = _table_classes()
    assert {phi._width for phi, _, _ in cases} == {4, 5, 6}
    cold = []
    for case in cases:
        with cold_caches():
            cold += _pushes([case])
    assert all(set(checks.values()) == {"pass"} for _, checks in cold)
    assert _pushes(cases) == cold
    assert _pushes(cases[::-1]) == cold[::-1]


def test_a_perturbed_answer_fails_the_sample_on_warm_tables():
    # the kept values and weights must not make the check pass a wrong answer:
    # each answer shifted in one term of any degree, or by a new c-monomial,
    # is refused after the right one passed on the same tables
    for phi, rank, cutoff in _table_classes()[::5]:
        answer = pushforward(ClassExpr(phi, cutoff), rank).chern_form
        assert localization.fixed_point_sample(phi, rank, answer)
        table = bundle_ring(rank)
        for _, part in graded_parts(answer):
            shift = Polynomial(table, {part.sorted_terms()[0][0]: Fraction(1, 3)})
            assert not localization.fixed_point_sample(phi, rank, answer + shift)
        assert not localization.fixed_point_sample(phi, rank, answer + table.var("c1").pow(cutoff - rank + 1))
        assert localization.fixed_point_sample(phi, rank, answer)


@pytest.mark.parametrize("rank", [2, 3, 5])
def test_a_wrong_segre_table_entry_fails_both_checks(rank):
    # neither check reads the evaluator's Segre table: with s_2 wrong in it,
    # the push of an x-class fails both, while the oracle and the sample
    # still agree with the right answer
    cutoff = 12
    phi = elaborate(parse_expression("inv(1 - c1 x - x)", rank), rank, cutoff).payload
    right = pushforward(ClassExpr(phi, cutoff), rank).chern_form
    with perturbed_segre(rank, phi._width, 2):
        result = pushforward(ClassExpr(phi, cutoff), rank)
        assert result.chern_form != right
        assert result.checks == {"fixed_point_sample": "fail", "presentation_oracle": "fail"}
        assert presentation_oracle(ClassExpr(phi, cutoff), rank) == right
        assert localization.fixed_point_sample(phi, rank, right)


@pytest.mark.parametrize("rank", [2, 4])
def test_sample_tables_die_with_the_point_table_they_came_from(rank):
    # the kept values and weights belong to one point table: a push on
    # another table (here with q1 wrong at the second fixed point) weighs
    # afresh and fails, and the right table afterwards passes again
    q = [bundle_ring(rank).one()] + [bundle_ring(rank).var(f"q{i}") for i in range(1, rank)]
    x = bundle_ring(rank).var("x")
    top = sum((q[i] * x.pow(rank - 1 - i) for i in range(rank)), bundle_ring(rank).zero())
    assert pushforward(ClassExpr(top), rank).checks == {"fixed_point_sample": "pass"}
    with wrong_q1_at_second_point():
        assert pushforward(ClassExpr(top), rank).checks == {"fixed_point_sample": "fail"}
    assert pushforward(ClassExpr(top), rank).checks == {"fixed_point_sample": "pass"}


@pytest.mark.parametrize("rank", range(1, 9))
def test_segre_sum_of_x_to_the_r_minus_1_plus_m_is_the_segre_class_s_m(rank):
    # the closed form reads s_m from the per-rank Segre table, which is
    # extended in place by s_m = -sum c_i s_(m-i) on the read's keys; on
    # x^(r-1+m) it is s_m, here against series inversion
    top, table = 10, bundle_ring(rank)
    inverse = segre_oracle(rank, top)
    for m in range(top + 1):
        phi = table.var("x").pow(rank - 1 + m)
        packed = localization._segre_sum(localization._read_in_x(phi), rank, phi._width)
        assert localization._result(phi, packed) == inverse.homogeneous_component(m)


_WINDOW_CLASSES = [
    ("inv(1 + 2 x - c1 x^2)", 1, 12),  # each s_m from one term below it
    ("x + c1 x^2 - 3 y^3", 5, 4),  # top power below r - 1: the sum is 0
    ("x^3 + x^13", 4, 13),  # ten empty buckets between the two summed
    ("q1 q2 y^3 inv(1+y)", 4, 14),  # a q-class, whose push runs no fold
]


@pytest.mark.parametrize("text,rank,cutoff", _WINDOW_CLASSES, ids=[case[0] for case in _WINDOW_CLASSES])
def test_segre_window_edges_agree_with_the_fold(text, rank, cutoff):
    # the closed form sums a_k s_(k-r+1) over the buckets present only, from
    # the whole kept Segre series; at these edges it must still give the
    # fold's packed sum on the same read
    phi = elaborate(parse_expression(text, rank), rank, cutoff).payload
    buckets, width = localization._read_in_x(phi), phi._width
    packed = localization._segre_sum(buckets, rank, width)
    assert packed == localization._fold(buckets, rank, width)
    answer = localization._result(phi, packed)
    assert expand_elementary(answer) == literal_sum(phi, rank, cutoff)
    assert (packed == {}) == (not buckets)  # the read keeps no power below r - 1


@st.composite
def _one_term_per_power(draw):
    """(rank, class, j): sum_k alpha_k m_k f^k over up to five distinct
    powers k <= 40 of one fiber variable f (x or y), |alpha_k| <= 3 and m_k
    a monomial in up to two c_i, so that every bucket of the read holds one
    term; and a power r - 1 <= j <= 40, whose bucket the read keeps."""
    rank = draw(st.integers(1, 8))
    table, cutoff = bundle_ring(rank), draw(st.integers(rank - 1, 40))
    fiber = table.var(draw(st.sampled_from(("x", "y"))))
    chern = st.lists(st.sampled_from([table.var(f"c{i}") for i in range(1, rank + 1)]), max_size=2)
    phi = table.zero()
    for k in draw(st.sets(st.integers(0, cutoff), min_size=1, max_size=5)):
        m = math.prod(draw(chern), start=table.one())
        phi = phi + draw(st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))) * m * fiber.pow(k)
    return rank, phi, draw(st.integers(rank - 1, cutoff))


# the degrees through which the literal sum is checked: every drawn class at
# ranks 1-3 (degree at most 46), but at rank 5, degree 40, expand_elementary
# alone takes seconds (about 90,000 terms)
_LITERAL_DEGREE = {1: 60, 2: 60, 3: 60, 4: 24, 5: 16}


@settings(max_examples=60, deadline=None)
@given(_one_term_per_power())
def test_the_fold_walks_one_power_for_one_term_buckets(drawn):
    # a read with one term in every bucket folds x^top alone and sums its
    # levels against the buckets; one two-term bucket sends it back to the
    # Horner descent.  Both give the closed form's sum, and the literal sum
    rank, phi, j = drawn
    table = bundle_ring(rank)
    two_terms = 5 * (1 + table.var("c1")) * table.var("x").pow(j)  # no alpha_k cancels a 5
    for cls, walk in ((phi, True), (phi + two_terms, False)):
        buckets, width = localization._read_in_x(cls), cls._width
        assert all(len(terms) == 1 for terms in buckets.values()) == walk
        folded = localization._fold(buckets, rank, width)
        assert folded == localization._segre_sum(buckets, rank, width)
        if cls.degree() <= _LITERAL_DEGREE.get(rank, -1):
            assert expand_elementary(localization._result(cls, folded)) == literal_sum(cls, rank)


_DENOMINATOR_CLASSES = [  # coprime denominators; the q-class has 1/4 coefficients
    ("(1/3) x^5 + (2/7) c1 x^4", 5, 5, 21),
    ("inv(1 + 4/3 y)", 3, 26, 3**26),
    ("(1/4) q1 q2 y^6 + (1/4) c1 q3 y^5 - (3/4) q4 y^4", 5, 12, 4),
    ("inv(1 + 2/3 x - c1 x^2)", 3, 30, 3**30),  # an x-class, so the fold runs too
]


@pytest.mark.parametrize("text,rank,cutoff,denominator", _DENOMINATOR_CLASSES,
                         ids=[case[0] for case in _DENOMINATOR_CLASSES])
def test_closed_form_clears_denominators_once(text, rank, cutoff, denominator):
    # the closed form runs on the class times its least common denominator D
    # and divides by D once; the fixed-point sample, which clears D on each
    # side, refuses the answer shifted by 1/D in one coefficient of any degree
    phi = elaborate(parse_expression(text, rank), rank, cutoff).payload
    assert phi._den == denominator
    assert localize(phi, rank, cutoff).value == literal_sum(phi, rank, cutoff)
    result = pushforward(ClassExpr(phi, cutoff), rank)
    assert set(result.checks.values()) == {"pass"}
    answer = result.chern_form
    assert localization.fixed_point_sample(phi, rank, answer)
    table = bundle_ring(rank)
    for _, part in graded_parts(answer):
        shift = Polynomial(table, {part.sorted_terms()[0][0]: Fraction(1, denominator)})
        assert not localization.fixed_point_sample(phi, rank, answer + shift)


@pytest.mark.parametrize("text,rank,cutoff",
                         [("inv(1 + 2/3 x - c1 x^2)", 3, 14), ("inv(1 - c1 y + c3 x^3)", 4, 12),
                          ("inv(1 - 2/3 y)", 3, 14)])  # one term a bucket: the fold walks one power
def test_both_evaluators_leave_the_shared_read_as_it_is(text, rank, cutoff):
    # pushforward hands one read to the closed form and then to the fold; the
    # fold runs last, so only this test sees a fold that writes into the read
    phi = elaborate(parse_expression(text, rank), rank, cutoff).payload
    buckets, width = localization._read_in_x(phi), phi._width
    assert phi._den == math.lcm(*(Fraction(c).denominator for _, c in phi.sorted_terms()))
    assert width == cutoff.bit_length()
    assert all(c.__class__ is int for terms in buckets.values() for c in terms.values())
    before = {k: dict(terms) for k, terms in buckets.items()}
    folded = localization._fold(buckets, rank, width)
    assert buckets == before and 0 not in folded.values()
    assert localization._segre_sum(buckets, rank, width) == folded
    assert buckets == before


def test_localize_reads_a_class_in_both_x_and_y_with_y_as_minus_x():
    # localize takes any polynomial of the working ring: the closed form
    # reads each term x^a y^b as (-1)^b x^(a+b), with no Whitney map
    table = bundle_ring(3)
    x, y, c1, u2 = (table.var(n) for n in ("x", "y", "c1", "u2"))
    phi = x.pow(3) * y + 2 * c1 * x * y.pow(2) - y.pow(4) + x.pow(2) * y.pow(3)
    phi = phi + Fraction(1, 3) * symmetrize(u2 * u2) * x * y
    assert localize(phi, 3).value == literal_sum(phi, 3)


def test_closed_form_multiplies_no_polynomials_without_q(monkeypatch):
    # a class in x or in y alone, roots included, runs on packed keys only;
    # only the Whitney substitution of a q-class multiplies polynomials
    table = bundle_ring(4)
    x, y, c2, u1, q1 = (table.var(n) for n in ("x", "y", "c2", "u1", "q1"))
    calls = []
    original = Polynomial._mul

    def counting(self, other, cutoff):
        calls.append(cutoff)
        return original(self, other, cutoff)

    phis = [series_inverse(1 - x, 12), series_inverse(1 + Fraction(4, 3) * y, 12),
            c2 * y.pow(5) - Fraction(1, 7) * symmetrize(u1 * u1) * y.pow(3),
            symmetrize(u1) * x.pow(4), table.one()]
    monkeypatch.setattr(Polynomial, "_mul", counting)
    for phi in phis:
        localization._closed_form(phi, 4)
    assert calls == []
    localization._closed_form(q1 * y.pow(4), 4)
    assert calls


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_cofactor_times_euler_class_is_the_vandermonde(monkeypatch, rank):
    # the set-up multiplies root differences out and divides nothing: it is
    # built here, from cold caches, with a division raising
    monkeypatch.setattr(polyring, "divide_exact_linear", None)
    with cold_caches():
        table, (charts, factors, cofactors) = bundle_ring(rank), reference_setup(rank)
    assert factors == tuple(itertools.combinations([f"u{i}" for i in range(1, rank + 1)], 2))
    u = root_generators(table)
    vandermonde = math.prod((u[a] - u[b] for a, b in itertools.combinations(range(rank), 2)), start=table.one())
    assert len(charts) == len(cofactors) == rank
    for chart, cofactor in zip(charts, cofactors):
        assert cofactor * chart.euler == vandermonde


def test_benchmark_tracer_wraps_the_pipeline(monkeypatch):
    # perfbench/spans.py finds the set-up caches and pipeline functions by
    # name; a rename or a lost lru_cache must fail here, not only there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    caches, localize_fn, push = per_rank_caches(), localization.localize, gysin.pushforward
    tracer = spans.Tracer()
    with cold_caches():  # so the set-up misses its caches and leaves a span
        tracer.install()
        try:
            y = bundle_ring(2).var("y")
            gysin.pushforward(ClassExpr(y.pow(3)), 2)
            localization.localize(y.pow(3), 2)  # the closed form in the roots; pushforward skips it
            fixed_point_charts(2)  # the test-side references' set-up; the pipeline reads no chart
        finally:
            tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"gysin.pushforward", "localization.localize", "localization.setup"} <= names
    assert gysin.pushforward is push and localization.localize is localize_fn
    assert per_rank_caches() == caches


def test_relation_check_fails_on_a_perturbed_chart():
    # the q1 image at the second fixed point shifted by 1: the reference must see it
    with wrong_q1_at_second_point():
        assert not relation_check(3)
    assert relation_check(3)


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
    for cutoff in (2, 3):  # 3 is rank - 2, one below the floor
        with pytest.raises(ValueError, match=message):
            localize(x.pow(2), 5, cutoff)
        with pytest.raises(ValueError, match=message):
            gysin.pushforward(ClassExpr(x.pow(2), cutoff), 5)
        with pytest.raises(ValueError, match=message):
            gysin.presentation_oracle(ClassExpr(x.pow(2), cutoff), 5)


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


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_fixed_point_sample_accepts_the_reference_and_refuses_a_shifted_answer(seed, rank):
    # the divided differences share nothing with the sample check; any nonzero
    # shift in c1..cr, and any fiber generator left in the answer, is refused
    rng = random.Random(seed)
    table = bundle_ring(rank)
    phi = random_class(rng, rank, rng.choice(["x", "y"]))
    answer = reduce_to_elementary(localize_divided_differences(phi, rank))
    assert localization.fixed_point_sample(phi, rank, answer)
    shift = random_chern_poly(rng, rank) or table.var(f"c{rank}")
    assert not localization.fixed_point_sample(phi, rank, answer + shift)
    assert not localization.fixed_point_sample(phi, rank, answer + table.var("y"))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=7))
def test_fixed_point_sample_agrees_with_the_chart_by_chart_reference(seed, rank):
    # the check groups the class by fiber monomial and weighs each once; the
    # reference restricts every term at every chart.  On q/y/c and x/q/c
    # classes with fractional coefficients they give the same verdict: True
    # for the answer, False for it shifted by one c-term in a single degree
    # and for it plus an x, q_i or u_i term
    rng = random.Random(seed)
    table = bundle_ring(rank)
    phi = random_class(rng, rank, "y") + random_class(rng, rank, "x")
    answer = pushforward(ClassExpr(phi), rank).chern_form
    shift, left = table.const(random_coeff(rng)), rng.randint(0, answer.degree() + 1)
    while left:
        i = rng.randint(1, min(left, rank))
        shift, left = shift * table.var(f"c{i}"), left - i
    cases = [(answer, True), (answer + shift, False)]
    for name in ["x", f"q{rng.randint(1, rank - 1)}" if rank > 1 else "y", f"u{rng.randint(1, rank)}"]:
        extra = table.var(name) * table.var(f"c{rng.randint(1, rank)}").pow(rng.randint(0, 2))
        cases.append((answer + extra * random_coeff(rng), False))
    for chern_form, verdict in cases:
        assert localization.fixed_point_sample(phi, rank, chern_form) is verdict
        assert sample_by_charts(phi, rank, chern_form) is verdict
    # a root in the class: both read u_i as a_i at every chart, whatever the verdict
    rooted = phi + table.var(f"u{rng.randint(1, rank)}") * table.var("y").pow(rng.randint(0, rank + 1))
    assert localization.fixed_point_sample(rooted, rank, answer) is sample_by_charts(rooted, rank, answer)


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
    message = "root variables u_i cannot be pushed forward"
    with pytest.raises(UnsupportedVariableError, match=message):
        localize_divided_differences(phi, 3)
    with pytest.raises(UnsupportedVariableError, match=message):
        localize_divided_differences(table.var("u2"), 3)
    with pytest.raises(SymmetryError):
        localize(phi, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_degree_shift_on_homogeneous_inputs(seed, rank):
    rng = random.Random(seed)
    phi = random_fiber_poly(rng, rank)
    for d, part in graded_parts(phi):
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
