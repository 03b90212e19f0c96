"""Bitwise parity of the allocation-free fold kernels.

The levelized fold reuses preallocated workspace buffers through
``clark_max_into`` / ``merge_max_with_validity_into``; these must replicate
the allocating reference kernels *bitwise* (not just to tolerance), because
the blocked all-pairs engine's parity contract with the dense engine rests
on every engine executing the identical floating-point expressions.  They
must also agree with the scalar ``statistical_max`` of the object engine to
round-off (1e-9), and copy a lone valid operand bitwise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import merge_max_with_validity
from repro.core.batch import (
    FoldWorkspace,
    clark_max_arrays,
    clark_max_into,
    merge_max_with_validity_into,
)
from repro.core.canonical import CanonicalForm
from repro.core.ops import statistical_max


def _random_operands(rng, shape, k):
    mean = rng.normal(10.0, 3.0, size=shape)
    corr = rng.normal(0.0, 0.5, size=shape + (k,))
    randvar = rng.uniform(0.0, 0.4, size=shape)
    return mean, corr, randvar


def _with_degenerate_rows(rng, shape, k):
    """Operand pairs where a slice is exactly degenerate (b == a)."""
    mean_a, corr_a, randvar_a = _random_operands(rng, shape, k)
    mean_b, corr_b, randvar_b = _random_operands(rng, shape, k)
    half = shape[0] // 2
    mean_b[:half] = mean_a[:half] - rng.uniform(0.0, 2.0, size=(half,) + shape[1:])
    corr_b[:half] = corr_a[:half]
    randvar_b[:half] = randvar_a[:half]
    return (mean_a, corr_a, randvar_a), (mean_b, corr_b, randvar_b)


def _allocate_outputs(shape, k):
    return (
        np.empty(shape),
        np.empty(shape + (k,)),
        np.empty(shape),
    )


@pytest.mark.parametrize("shape,k", [((37,), 3), ((16, 9), 5), ((128,), 1)])
def test_clark_max_into_is_bitwise_identical(shape, k):
    rng = np.random.default_rng(101)
    a, b = _with_degenerate_rows(rng, shape, k)
    expected = clark_max_arrays(*a, *b)
    out = _allocate_outputs(shape, k)
    clark_max_into(*a, *b, *out, work=FoldWorkspace())
    for got, want in zip(out, expected):
        assert np.array_equal(got, want)


def test_clark_max_into_reused_workspace_stays_bitwise():
    # The same workspace serves different shapes back to back, as it does
    # across rounds of a level fold: earlier contents must never leak.
    rng = np.random.default_rng(7)
    work = FoldWorkspace()
    for shape, k in [((64,), 4), ((9,), 4), ((33,), 4)]:
        a, b = _with_degenerate_rows(rng, shape, k)
        expected = clark_max_arrays(*a, *b)
        out = _allocate_outputs(shape, k)
        clark_max_into(*a, *b, *out, work)
        for got, want in zip(out, expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("pattern", ["all_valid", "mixed", "disjoint"])
def test_merge_with_validity_into_is_bitwise_identical(pattern):
    rng = np.random.default_rng(55)
    shape, k = (41,), 3
    a, b = _with_degenerate_rows(rng, shape, k)
    if pattern == "all_valid":
        valid_a = np.ones(shape, dtype=bool)
        valid_b = np.ones(shape, dtype=bool)
    elif pattern == "mixed":
        valid_a = rng.random(shape) < 0.7
        valid_b = rng.random(shape) < 0.7
    else:
        valid_a = np.arange(shape[0]) % 2 == 0
        valid_b = ~valid_a
    expected = merge_max_with_validity(*a, valid_a, *b, valid_b)
    out_mean, out_corr, out_randvar = _allocate_outputs(shape, k)
    out_valid = np.empty(shape, dtype=bool)
    merge_max_with_validity_into(
        *a, valid_a, *b, valid_b, out_mean, out_corr, out_randvar, out_valid,
        FoldWorkspace(),
    )
    for got, want in zip((out_mean, out_corr, out_randvar, out_valid), expected):
        assert np.array_equal(got, want)


def _form(mean, corr, randvar):
    return CanonicalForm(mean, corr[0], corr[1:], math.sqrt(randvar))


def test_clark_max_into_matches_the_scalar_operator():
    # Row by row against the object engine's statistical_max: the two
    # evaluate the same formulas, so they agree to round-off (1e-9).
    rng = np.random.default_rng(3)
    shape, k = (64,), 4
    a, b = _with_degenerate_rows(rng, shape, k)
    out = _allocate_outputs(shape, k)
    clark_max_into(*a, *b, *out, FoldWorkspace())
    for row in range(shape[0]):
        want = statistical_max(
            _form(a[0][row], a[1][row], a[2][row]),
            _form(b[0][row], b[1][row], b[2][row]),
        )
        assert out[0][row] == pytest.approx(want.nominal, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(
            out[1][row],
            np.concatenate([[want.global_coeff], want.local_coeffs]),
            rtol=1e-9,
            atol=1e-9,
        )
        assert out[2][row] == pytest.approx(
            want.random_coeff ** 2, rel=1e-9, abs=1e-9
        )


def test_clark_max_into_tie_of_identical_operands_is_exact():
    # Fully correlated operands without a private part: theta is exactly 0,
    # so the 0/1 tie rule returns the larger operand's mean and
    # coefficients unchanged.
    mean_a = np.array([1.0, -2.0, 4.0])
    mean_b = np.array([1.0, -3.0, 5.0])
    corr = np.array([[0.5, 0.25], [0.0, 1.0], [-0.75, 0.125]])
    randvar = np.zeros(3)
    out = _allocate_outputs((3,), 2)
    clark_max_into(
        mean_a, corr, randvar, mean_b, corr, randvar, *out, FoldWorkspace()
    )
    np.testing.assert_array_equal(out[0], np.maximum(mean_a, mean_b))
    np.testing.assert_array_equal(out[1], corr)
    np.testing.assert_allclose(out[2], randvar, atol=1e-12)


def test_merge_with_validity_into_copies_a_lone_valid_side():
    rng = np.random.default_rng(19)
    shape, k = (40,), 3
    a, b = _with_degenerate_rows(rng, shape, k)
    pattern = np.arange(shape[0]) % 4
    valid_a = (pattern == 0) | (pattern == 1)
    valid_b = (pattern == 0) | (pattern == 2)
    out = _allocate_outputs(shape, k)
    out_valid = np.empty(shape, dtype=bool)
    merge_max_with_validity_into(
        *a, valid_a, *b, valid_b, *out, out_valid, FoldWorkspace()
    )
    clark = _allocate_outputs(shape, k)
    clark_max_into(*a, *b, *clark, FoldWorkspace())
    np.testing.assert_array_equal(out_valid, pattern != 3)
    for got, left, right, both in zip(out, a, b, clark):
        np.testing.assert_array_equal(got[pattern == 0], both[pattern == 0])
        np.testing.assert_array_equal(got[pattern == 1], left[pattern == 1])
        np.testing.assert_array_equal(got[pattern == 2], right[pattern == 2])


def test_workspace_views_grow_and_are_reused():
    work = FoldWorkspace()
    small = work.view("buf", (10,))
    small.fill(3.0)
    # Growing reallocates; shrinking returns a prefix view of the same
    # backing store.
    big = work.view("buf", (100,))
    assert big.shape == (100,)
    again = work.view("buf", (10,))
    assert again.base is big.base
    # Distinct dtypes get distinct buffers even under one name.
    flags = work.view("buf", (10,), bool)
    assert flags.dtype == np.bool_
    assert work.nbytes >= 100 * 8 + 10


def test_workspace_nbytes_tracks_buffers():
    work = FoldWorkspace()
    assert work.nbytes == 0
    work.view("a", (128,))
    work.view("b", (64,), bool)
    assert work.nbytes == 128 * 8 + 64
