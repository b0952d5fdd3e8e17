import math

import numpy as np
import pytest

from collapsekit.etf import (
    etf_gram,
    gram_distance_to_etf,
    gram_distance_to_etf_raw,
    make_etf,
    normalized_etf_gram,
    normalized_gram_distance,
)
from collapsekit.linalg import make_rng


class TestMakeEtf:
    def test_k3_gram_entries(self):
        frame = make_etf(3, 3, 1.0, make_rng(0))
        gram = frame.gram()
        np.testing.assert_allclose(np.diag(gram), np.ones(3), atol=1e-12)
        off = gram[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-12)

    def test_k2_antipodal(self):
        frame = make_etf(2, 5, 1.0, make_rng(1))
        np.testing.assert_allclose(
            frame.gram(), np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12
        )

    def test_k10_d16_cosines(self):
        frame = make_etf(10, 16, 2.0, make_rng(3))
        norms = np.linalg.norm(frame.s, axis=0)
        cosines = frame.gram() / np.outer(norms, norms)
        off = cosines[~np.eye(10, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 9.0, atol=1e-10)

    def test_frame_invariants_sampled_grid(self):
        for k in (2, 4, 7, 10):
            for d in (k, k + 3, 32):
                for alpha in (0.5, 1.0, 2.0):
                    frame = make_etf(k, d, alpha, make_rng(k * 100 + d))
                    assert np.linalg.norm(frame.p.T @ frame.p - np.eye(k)) < 1e-10
                    assert np.linalg.norm(frame.gram() - etf_gram(k, alpha)) < 1e-10
                    assert np.linalg.norm(frame.s.sum(axis=1)) < 1e-10

    def test_seed_reproducibility(self):
        a = make_etf(5, 9, 1.5, make_rng(42))
        b = make_etf(5, 9, 1.5, make_rng(42))
        np.testing.assert_array_equal(a.s, b.s)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="at least k"):
            make_etf(5, 4, 1.0, make_rng(0))

    def test_alpha_and_k_errors(self):
        with pytest.raises(ValueError, match="alpha"):
            make_etf(3, 4, 0.0, make_rng(0))
        with pytest.raises(ValueError, match="two classes"):
            make_etf(1, 4, 1.0, make_rng(0))


class TestGramDistance:
    def test_zero_at_etf_gram_any_alpha(self):
        for alpha in (0.5, 1.0, 2.0):
            assert gram_distance_to_etf(etf_gram(6, alpha), 6) < 1e-12

    def test_zero_for_constructed_frames(self):
        for k in range(2, 11):
            frame = make_etf(k, 32, 1.3, make_rng(k))
            assert gram_distance_to_etf(frame.gram(), k) < 1e-9

    def test_identity_k2_hand_value(self):
        expected = np.linalg.norm(
            np.array([[1 / math.sqrt(2) - 0.5, 0.5], [0.5, 1 / math.sqrt(2) - 0.5]])
        )
        assert gram_distance_to_etf(np.eye(2), 2) == pytest.approx(expected, abs=1e-12)

    def test_rank_one_k3(self):
        # 11^T/3 and the unit ETF Gram are orthogonal unit-norm matrices
        d = gram_distance_to_etf(np.ones((3, 3)), 3)
        assert d > 0.5
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_positive_scale_invariance(self):
        rng = make_rng(9)
        m = rng.standard_normal((4, 4))
        gram = m @ m.T
        base = gram_distance_to_etf(gram, 4)
        for c in (1e-3, 0.5, 7.0, 1e4):
            assert gram_distance_to_etf(c * gram, 4) == pytest.approx(base, rel=1e-12)

    def test_zero_matrix_error(self):
        with pytest.raises(ValueError, match="zero Frobenius"):
            gram_distance_to_etf(np.zeros((3, 3)), 3)

    def test_symmetry_check(self):
        with pytest.raises(ValueError, match="symmetric"):
            gram_distance_to_etf(np.array([[1.0, 0.5], [0.0, 1.0]]), 2)

    def test_shape_check(self):
        with pytest.raises(ValueError, match=r"gram must be 3x3, got \(2, 2\)"):
            gram_distance_to_etf(np.eye(2), 3)
        with pytest.raises(ValueError, match=r"gram must be 3x3, got \(2, 2\)"):
            gram_distance_to_etf_raw(np.eye(2), 3, 1.0)

    def test_stack_matches_per_gram_arithmetic_bit_for_bit(self):
        # every distance of a stack equals the one-gram arithmetic of
        # np.linalg.norm, and gram_distance_to_etf is the B = 1 case
        rng = make_rng(13)
        k = 5
        target = normalized_etf_gram(k)
        means = rng.standard_normal((40, 7, k)) * 10.0 ** rng.uniform(-3, 3, (40, 1, 1))
        grams = means.swapaxes(-1, -2) @ means
        stacked = normalized_gram_distance(grams, target)
        for gram, distance in zip(grams, stacked):
            expected = np.linalg.norm(gram / np.linalg.norm(gram) - target)
            assert distance.tobytes() == expected.tobytes()
            assert gram_distance_to_etf(gram, k) == expected

    def test_stack_with_a_zero_gram_raises(self):
        grams = np.stack([etf_gram(3), np.zeros((3, 3))])
        with pytest.raises(ValueError, match="zero Frobenius"):
            normalized_gram_distance(grams, normalized_etf_gram(3))

    def test_raw_distance(self):
        assert gram_distance_to_etf_raw(etf_gram(4, 1.5), 4, 1.5) == 0.0
        assert gram_distance_to_etf_raw(etf_gram(4, 1.5), 4, 1.0) > 0.0


def test_normalized_gram_is_unit_norm():
    for k in range(2, 12):
        assert np.linalg.norm(normalized_etf_gram(k)) == pytest.approx(1.0, abs=1e-12)
