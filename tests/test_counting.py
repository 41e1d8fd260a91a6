"""Counting bounds: exact formula values, validity, monotonicity, and the
comparison against generated tilesets."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesub.counting import (
    CountParams,
    count_bound_first,
    count_bound_second,
    exact_count,
    params_from_system,
)
from tilesub.errors import InvalidParams
from tilesub.grids import make_square_grid_document
from tilesub.model import build_numbering
from tilesub.specfile import SecondNetwork
from tilesub.tileset import generate_tileset


def test_first_bound_worked_values():
    first = count_bound_first(CountParams(r=1, n=9, m=12, p=5))
    assert (first.n0, first.np_, first.bound, first.coarse) == (36, 2304, 4680, 8100)


def test_first_bound_small_example():
    first = count_bound_first(CountParams(r=1, n=4, m=4, p=3))
    assert (first.n0, first.np_, first.bound, first.coarse) == (4, 104, 216, 432)


def test_first_bound_p_equals_r():
    first = count_bound_first(CountParams(r=2, n=6, m=6, p=2))
    assert first.np_ == 0
    assert first.bound == 3 * first.n0


def test_first_bound_requires_p_at_least_r():
    with pytest.raises(InvalidParams):
        count_bound_first(CountParams(r=2, n=6, m=6, p=1))


def test_first_bound_rejects_params_beyond_coarse():
    # m = 0 internal facets gives coarse = 0 below bound = 4; no connected
    # template has these parameters. The check must not be an assert, which
    # `python -O` would strip.
    with pytest.raises(InvalidParams, match="coarse"):
        count_bound_first(CountParams(r=1, n=2, m=0, p=1))


def test_second_bound_worked_values():
    second = count_bound_second(CountParams(r=1, n=9, m=12, p=5, q=5, c=4))
    assert (second.n0, second.nq, second.np_, second.nc) == (3, 9, 57, 276)
    assert (second.bound, second.coarse) == (690, 3420)


def test_second_bound_q_equals_c():
    second = count_bound_second(CountParams(r=1, n=9, m=12, p=5, q=4, c=4))
    assert second.nq == 0


def test_second_bound_needs_crossings():
    with pytest.raises(InvalidParams):
        CountParams(r=1, n=9, m=12, p=5, q=5, c=0)
    with pytest.raises(InvalidParams):
        count_bound_second(CountParams(r=1, n=9, m=12, p=5))


def test_params_invariants():
    with pytest.raises(InvalidParams):
        CountParams(r=0, n=9, m=12, p=5)
    with pytest.raises(InvalidParams):
        CountParams(r=1, n=9, m=12, p=10)
    with pytest.raises(InvalidParams):
        CountParams(r=1, n=9, m=12, p=5, q=10, c=4)
    with pytest.raises(InvalidParams):
        CountParams(r=1, n=9, m=12, p=5, q=5, c=6)


def test_params_from_bundled_system(doc3, numbering):
    params = params_from_system(
        doc3.system, numbering, doc3.networks, doc3.second_networks
    )
    assert params == CountParams(r=1, n=9, m=12, p=5, q=5, c=4)


def test_params_reject_uncrossed_branch(doc3, numbering):
    seconds = {"r1": SecondNetwork("r1", ("c2", "c4", "c5", "c8"), ("c2", "c4", "c8"))}
    with pytest.raises(InvalidParams):
        params_from_system(doc3.system, numbering, doc3.networks, seconds)


def test_params_reject_wrong_crossings(doc3, numbering):
    seconds = {"r1": SecondNetwork("r1", ("c2", "c4", "c5", "c6", "c8"), ("c2",))}
    with pytest.raises(InvalidParams):
        params_from_system(doc3.system, numbering, doc3.networks, seconds)


# Realizable first-network parameters: template connectivity forces
# m >= n - r, a network needs a center and one branch cell per rule.
realizable = st.tuples(
    st.integers(1, 3), st.integers(0, 20), st.integers(0, 30), st.integers(0, 10)
).map(
    lambda t: CountParams(
        r=t[0],
        n=2 * t[0] + t[1] + t[3],
        m=2 * t[0] + t[1] + t[3] - t[0] + t[2],
        p=2 * t[0] + t[3],
    )
)


@given(realizable)
@settings(max_examples=150)
def test_bound_below_coarse_on_realizable_params(params):
    first = count_bound_first(params)
    assert first.bound <= first.coarse


@given(realizable)
@settings(max_examples=150)
def test_bound_monotone_in_each_parameter(params):
    base = count_bound_first(params).bound
    grown_n = count_bound_first(
        dataclasses.replace(params, n=params.n + 1, m=params.m + 1)
    ).bound
    grown_m = count_bound_first(dataclasses.replace(params, m=params.m + 1)).bound
    assert grown_n >= base and grown_m >= base
    if params.p + 1 <= params.n and params.m >= params.n - params.r + 1:
        grown_p = count_bound_first(dataclasses.replace(params, p=params.p + 1)).bound
        assert grown_p >= base


@given(
    st.integers(1, 2), st.integers(0, 12), st.integers(0, 20),
    st.integers(0, 6), st.integers(0, 4), st.integers(0, 3),
)
@settings(max_examples=150)
def test_second_bound_below_coarse_on_realizable_params(r, extra_n, extra_m, extra_p, extra_q, extra_c):
    # Each rule has four branches all crossed: c >= 4r; the second network
    # additionally carries q >= c cells; p >= r + c branch cells.
    c = 4 * r + extra_c
    p = r + c + extra_p
    q = c + extra_q
    n = p + q + extra_n
    m = n - r + extra_m
    params = CountParams(r=r, n=n, m=m, p=p, q=q, c=c)
    second = count_bound_second(params)
    assert second.bound <= second.coarse


@pytest.mark.parametrize("width,height", [(3, 3), (3, 4), (4, 4)])
def test_exact_count_on_grid_family(width, height):
    doc = make_square_grid_document(width, height)
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    params = params_from_system(
        doc.system, numbering, doc.networks, doc.second_networks
    )
    report = exact_count(tau, params)
    assert report.ok
    assert report.tile_count <= report.first.bound
    assert report.tile_count >= report.first.n0


def test_exact_count_worked_example(tau, doc3, numbering):
    params = params_from_system(doc3.system, numbering, doc3.networks)
    report = exact_count(tau, params)
    assert report.tile_count == 1544
    assert report.first.bound == 4680
