"""Unit and property tests of the structure-of-arrays batch engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import merge_max_with_validity
from repro.core.batch import (
    CanonicalBatch,
    batch_covariance,
    batch_variance,
    clark_max_arrays,
    clark_max_reduce,
    tightness_arrays,
)
from repro.core.canonical import CanonicalForm
from repro.core.ops import (
    statistical_max,
    statistical_max_many,
    statistical_min,
    statistical_sum,
    tightness_probability,
)


def _random_forms(seed, count, num_locals=3):
    rng = np.random.default_rng(seed)
    return [
        CanonicalForm(
            rng.uniform(5, 50),
            rng.uniform(0, 2),
            rng.uniform(-1, 1, num_locals),
            rng.uniform(0, 2),
        )
        for _unused in range(count)
    ]


def _form_lists(max_locals: int = 3):
    coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)
    forms = st.builds(
        CanonicalForm,
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
        coeff,
        st.lists(coeff, min_size=0, max_size=max_locals),
        positive,
    )
    return st.lists(forms, min_size=1, max_size=12)


class TestRoundTrip:
    @given(_form_lists())
    @settings(max_examples=60, deadline=None)
    def test_from_forms_to_forms_is_identity(self, forms):
        # Local vectors of differing widths are padded; CanonicalForm
        # equality broadcasts the padding, so the round trip is exact on
        # every coefficient.  The private part is stored as a variance, so
        # subnormal random coefficients (< ~1e-150) underflow in the square
        # — the round trip is exact only above that floor.
        batch = CanonicalBatch.from_forms(forms)
        for original, restored in zip(forms, batch.to_forms()):
            assert restored.nominal == original.nominal
            assert restored.global_coeff == original.global_coeff
            padded = np.zeros(batch.num_locals)
            padded[: original.num_locals] = original.local_coeffs
            assert np.array_equal(restored.local_coeffs, padded)
            assert restored.random_coeff == pytest.approx(
                original.random_coeff, rel=1e-12, abs=1e-150
            )

    @given(_form_lists())
    @settings(max_examples=40, deadline=None)
    def test_component_arrays_match_forms(self, forms):
        batch = CanonicalBatch.from_forms(forms)
        for row, form in enumerate(forms):
            assert batch.nominal[row] == form.nominal
            assert batch.global_coeff[row] == form.global_coeff
            # Match the storage expression exactly (x * x and x ** 2 can
            # differ by one ulp: libm pow rounds differently than multiply).
            assert batch.random_var[row] == form.random_coeff * form.random_coeff
            padded = np.zeros(batch.num_locals)
            padded[: form.num_locals] = form.local_coeffs
            assert np.array_equal(batch.local_coeffs[row], padded)

    def test_component_constructor(self):
        batch = CanonicalBatch([1.0, 2.0], [0.5, 0.25], [[1.0, 2.0], [3.0, 4.0]], [4.0, 9.0])
        assert len(batch) == 2
        assert batch.num_locals == 2
        assert batch.form(0) == CanonicalForm(1.0, 0.5, [1.0, 2.0], 2.0)
        assert batch.form(1) == CanonicalForm(2.0, 0.25, [3.0, 4.0], 3.0)

    def test_zero_copy_wrap_shares_memory(self):
        mean = np.array([1.0, 2.0])
        corr = np.array([[0.5, 1.0], [0.25, 2.0]])
        randvar = np.array([0.0, 1.0])
        batch = CanonicalBatch.from_mean_corr_randvar(mean, corr, randvar)
        assert np.shares_memory(batch.nominal, mean)
        assert np.shares_memory(batch.corr, corr)
        assert np.shares_memory(batch.global_coeff, corr)
        assert np.shares_memory(batch.local_coeffs, corr)
        assert np.shares_memory(batch.random_var, randvar)

    def test_negative_random_var_rejected(self):
        with pytest.raises(ValueError):
            CanonicalBatch([0.0], [0.0], None, [-1.0])

    def test_indexing_and_gather(self):
        forms = _random_forms(0, 6)
        batch = CanonicalBatch.from_forms(forms)
        assert batch[2] == forms[2]
        sub = batch[1:4]
        assert isinstance(sub, CanonicalBatch)
        assert sub.to_forms() == forms[1:4]
        picked = batch.gather([4, 0])
        assert picked.to_forms() == [forms[4], forms[0]]

    def test_concatenate_pads_locals(self):
        a = CanonicalBatch.from_forms([CanonicalForm(1.0, 1.0, [1.0], 0.0)])
        b = CanonicalBatch.from_forms([CanonicalForm(2.0, 0.0, [1.0, 2.0, 3.0], 1.0)])
        joined = CanonicalBatch.concatenate([a, b])
        assert len(joined) == 2
        assert joined.num_locals == 3
        assert joined.form(0) == CanonicalForm(1.0, 1.0, [1.0, 0.0, 0.0], 0.0)


class TestElementwiseOps:
    @given(_form_lists(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_add_matches_object_sum(self, forms, seed):
        others = _random_forms(seed, len(forms))
        a = CanonicalBatch.from_forms(forms)
        b = CanonicalBatch.from_forms(others)
        summed = a.add(b)
        for row, (x, y) in enumerate(zip(forms, others)):
            assert summed.form(row).is_close(statistical_sum(x, y))

    def test_scale_negate_subtract_add_constant(self):
        forms = _random_forms(3, 8)
        batch = CanonicalBatch.from_forms(forms)
        scaled = batch.scale(2.5)
        negated = batch.negate()
        shifted = batch.add_constant(7.0)
        for row, form in enumerate(forms):
            assert scaled.form(row).is_close(form.scale(2.5))
            assert negated.form(row).is_close(form.negate())
            assert shifted.form(row).is_close(form.add_constant(7.0))
        factors = np.linspace(0.5, 2.0, len(forms))
        per_entry = batch.scale(factors)
        for row, form in enumerate(forms):
            assert per_entry.form(row).is_close(form.scale(factors[row]))
        diff = batch.subtract(CanonicalBatch.from_forms(forms[::-1]))
        for row, form in enumerate(forms):
            assert diff.form(row).is_close(form.subtract(forms[len(forms) - 1 - row]))

    def test_add_form_broadcasts(self):
        forms = _random_forms(4, 5)
        extra = CanonicalForm(3.0, 0.5, [0.1, 0.2, 0.3], 1.0)
        batch = CanonicalBatch.from_forms(forms).add_form(extra)
        for row, form in enumerate(forms):
            assert batch.form(row).is_close(form.add(extra))

    def test_variance_std_covariance_correlation(self):
        forms = _random_forms(5, 10)
        others = _random_forms(6, 10)
        a = CanonicalBatch.from_forms(forms)
        b = CanonicalBatch.from_forms(others)
        for row, (x, y) in enumerate(zip(forms, others)):
            assert a.variance[row] == pytest.approx(x.variance, rel=1e-12)
            assert a.std[row] == pytest.approx(x.std, rel=1e-12)
            assert a.covariance(b)[row] == pytest.approx(x.covariance(y), rel=1e-12)
            assert a.correlation(b)[row] == pytest.approx(x.correlation(y), rel=1e-12)

    def test_tightness_matches_object(self):
        forms = _random_forms(7, 12)
        others = _random_forms(8, 12)
        a = CanonicalBatch.from_forms(forms)
        b = CanonicalBatch.from_forms(others)
        tp = a.tightness(b)
        for row, (x, y) in enumerate(zip(forms, others)):
            assert tp[row] == pytest.approx(tightness_probability(x, y), abs=1e-12)

    def test_maximum_minimum_match_object(self):
        forms = _random_forms(9, 16)
        others = _random_forms(10, 16)
        a = CanonicalBatch.from_forms(forms)
        b = CanonicalBatch.from_forms(others)
        maxed = a.maximum(b)
        minned = a.minimum(b)
        for row, (x, y) in enumerate(zip(forms, others)):
            assert maxed.form(row).is_close(statistical_max(x, y), rtol=1e-9, atol=1e-9)
            assert minned.form(row).is_close(statistical_min(x, y), rtol=1e-9, atol=1e-9)


class TestReductions:
    def test_max_over_dominates_operands(self):
        forms = _random_forms(11, 33)
        result = CanonicalBatch.from_forms(forms).max_over()
        assert result.nominal >= max(form.nominal for form in forms) - 1e-9

    def test_max_over_single_entry(self):
        form = CanonicalForm(5.0, 1.0, [0.5], 2.0)
        assert CanonicalBatch.from_forms([form]).max_over() == form

    def test_max_over_empty_raises(self):
        with pytest.raises(ValueError):
            CanonicalBatch.from_forms([]).max_over()

    def test_max_over_matches_explicit_tree(self):
        forms = _random_forms(12, 8)
        batch = CanonicalBatch.from_forms(forms)
        # Manually reduce with the same pairing: i with i + n//2.
        level = forms
        while len(level) > 1:
            half = len(level) // 2
            merged = [
                statistical_max(level[i], level[half + i]) for i in range(half)
            ]
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        assert batch.max_over().is_close(level[0], rtol=1e-9, atol=1e-9)

    def test_min_over_bounded_by_operands(self):
        forms = _random_forms(13, 9)
        result = CanonicalBatch.from_forms(forms).min_over()
        assert result.nominal <= min(form.nominal for form in forms) + 1e-9

    def test_statistical_max_many_uses_tree(self):
        forms = _random_forms(14, 15)
        expected = CanonicalBatch.from_forms(forms).max_over()
        assert statistical_max_many(forms).is_close(expected)

    def test_statistical_max_many_drops_minus_infinity(self):
        forms = _random_forms(15, 4)
        with_identity = [CanonicalForm.minus_infinity(3)] + forms
        expected = CanonicalBatch.from_forms(forms).max_over()
        assert statistical_max_many(with_identity).is_close(expected)

    def test_statistical_max_many_against_monte_carlo(self):
        rng = np.random.default_rng(16)
        forms = _random_forms(16, 6, num_locals=2)
        result = statistical_max_many(forms)
        n = 150000
        xg = rng.standard_normal(n)
        xl = rng.standard_normal((2, n))
        sampled = np.stack([
            form.sample(xg, xl, rng.standard_normal(n)) for form in forms
        ])
        empirical = sampled.max(axis=0)
        assert result.nominal == pytest.approx(float(np.mean(empirical)), rel=0.01)
        assert result.std == pytest.approx(float(np.std(empirical)), rel=0.05)

    def test_clark_max_reduce_along_axis(self):
        rng = np.random.default_rng(17)
        mean = rng.uniform(0, 10, (5, 4))
        corr = rng.uniform(-1, 1, (5, 4, 3))
        randvar = rng.uniform(0, 1, (5, 4))
        red_mean, red_corr, red_randvar = clark_max_reduce(mean, corr, randvar, axis=0)
        assert red_mean.shape == (4,)
        assert red_corr.shape == (4, 3)
        assert red_randvar.shape == (4,)
        # Column j of the reduction equals reducing column j on its own.
        for j in range(4):
            m, c, r = clark_max_reduce(mean[:, j], corr[:, j], randvar[:, j])
            assert m == pytest.approx(red_mean[j], rel=1e-12)
            assert np.allclose(c, red_corr[j], rtol=1e-12)
            assert r == pytest.approx(red_randvar[j], rel=1e-12, abs=1e-12)


class TestRawKernels:
    def test_batch_variance_covariance(self):
        rng = np.random.default_rng(18)
        corr_a = rng.uniform(-1, 1, (7, 4))
        corr_b = rng.uniform(-1, 1, (7, 4))
        randvar = rng.uniform(0, 2, 7)
        assert np.allclose(
            batch_variance(corr_a, randvar),
            np.einsum("nk,nk->n", corr_a, corr_a) + randvar,
        )
        assert np.allclose(
            batch_covariance(corr_a, corr_b), np.einsum("nk,nk->n", corr_a, corr_b)
        )

    def test_tightness_arrays_degenerate(self):
        corr = np.array([[1.0, 0.5]])
        tp = tightness_arrays(
            np.array([3.0]), corr, np.array([0.0]),
            np.array([1.0]), corr, np.array([0.0]),
        )
        assert tp[0] == 1.0

    def test_merge_max_validity_combinations(self):
        mean_a = np.array([1.0, 5.0, 0.0, 0.0])
        mean_b = np.array([2.0, 0.0, 3.0, 0.0])
        corr_a = np.zeros((4, 1))
        corr_b = np.zeros((4, 1))
        randvar = np.zeros(4)
        valid_a = np.array([True, True, False, False])
        valid_b = np.array([True, False, True, False])
        mean, _corr, _randvar, valid = merge_max_with_validity(
            mean_a, corr_a, randvar, valid_a, mean_b, corr_b, randvar, valid_b
        )
        assert valid.tolist() == [True, True, True, False]
        assert mean[0] == pytest.approx(2.0)  # deterministic max
        assert mean[1] == pytest.approx(5.0)  # only a valid
        assert mean[2] == pytest.approx(3.0)  # only b valid

    def test_clark_max_arrays_commutative_moments(self):
        rng = np.random.default_rng(19)
        mean_a = rng.uniform(0, 10, 20)
        mean_b = rng.uniform(0, 10, 20)
        corr_a = rng.uniform(-1, 1, (20, 3))
        corr_b = rng.uniform(-1, 1, (20, 3))
        randvar_a = rng.uniform(0, 1, 20)
        randvar_b = rng.uniform(0, 1, 20)
        mean_ab, corr_ab, rv_ab = clark_max_arrays(
            mean_a, corr_a, randvar_a, mean_b, corr_b, randvar_b
        )
        mean_ba, corr_ba, rv_ba = clark_max_arrays(
            mean_b, corr_b, randvar_b, mean_a, corr_a, randvar_a
        )
        assert np.allclose(mean_ab, mean_ba, rtol=1e-9)
        var_ab = np.einsum("nk,nk->n", corr_ab, corr_ab) + rv_ab
        var_ba = np.einsum("nk,nk->n", corr_ba, corr_ba) + rv_ba
        assert np.allclose(var_ab, var_ba, rtol=1e-9, atol=1e-12)


class TestSampling:
    def test_sample_statistics_match_moments(self):
        forms = _random_forms(20, 5)
        batch = CanonicalBatch.from_forms(forms)
        samples = batch.sample(np.random.default_rng(21), 60000)
        assert samples.shape == (5, 60000)
        assert np.allclose(samples.mean(axis=1), batch.nominal, rtol=0.02)
        assert np.allclose(samples.std(axis=1), batch.std, rtol=0.05)

    def test_sample_preserves_correlation(self):
        a = CanonicalForm(0.0, 2.0, [1.0], 0.5)
        b = CanonicalForm(0.0, 2.0, [-1.0], 0.5)
        batch = CanonicalBatch.from_forms([a, b])
        samples = batch.sample(np.random.default_rng(22), 120000)
        empirical = float(np.corrcoef(samples)[0, 1])
        assert empirical == pytest.approx(a.correlation(b), abs=0.02)

    def test_sample_all_private_fast_path_matches_masked_formula(self):
        # Every entry has private variance, so sample() takes the
        # unmasked in-place path; it must consume the stream and combine
        # terms exactly like the masked gather/scatter formula.
        forms = [
            CanonicalForm(float(i), 1.0 + i, [0.5, -0.25 * i], 0.1 + 0.2 * i)
            for i in range(6)
        ]
        batch = CanonicalBatch.from_forms(forms)
        got = batch.sample(np.random.default_rng(31), 9)
        rng = np.random.default_rng(31)
        expected = batch._corr @ rng.standard_normal((batch.num_corr, 9))
        expected += batch._mean[:, np.newaxis]
        sigma = np.sqrt(np.maximum(batch._randvar, 0.0))
        mask = sigma > 0.0
        assert mask.all()
        noise = rng.standard_normal((int(mask.sum()), 9))
        expected[mask] += sigma[mask, np.newaxis] * noise
        assert np.array_equal(got, expected)

    def test_sample_at_matches_object_evaluation(self):
        forms = _random_forms(23, 4)
        batch = CanonicalBatch.from_forms(forms)
        rng = np.random.default_rng(24)
        xg = rng.standard_normal(50)
        xl = rng.standard_normal((3, 50))
        xr = rng.standard_normal((4, 50))
        values = batch.sample_at(xg, xl, xr)
        for row, form in enumerate(forms):
            expected = form.sample(xg, xl, xr[row])
            assert np.allclose(values[row], expected, rtol=1e-12, atol=1e-12)
