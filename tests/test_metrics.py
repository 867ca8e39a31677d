import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet import auc_score, evaluate, relative_error


class TestRelativeError:
    def test_exact_estimate_zero(self):
        mu = np.array([0.5, 0.2])
        A = np.array([[0.1, 0.0], [0.3, 0.2]])
        assert relative_error(mu, A, mu, A) == 0.0

    def test_zero_estimate_one(self):
        mu = np.array([0.5])
        A = np.array([[0.4]])
        assert relative_error(np.zeros(1), np.zeros((1, 1)), mu, A) == 1.0

    def test_hand_value_two(self):
        # flattened truth [1, 0], estimate [0, 1]: ||diff||^2 / ||truth||^2 = 2
        truth_mu, truth_A = np.array([1.0]), np.array([[0.0]])
        est_mu, est_A = np.array([0.0]), np.array([[1.0]])
        assert relative_error(est_mu, est_A, truth_mu, truth_A) == 2.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        d = 4
        mu_t, A_t = rng.uniform(0, 1, d), rng.uniform(0, 1, (d, d))
        mu_e, A_e = rng.uniform(0, 1, d), rng.uniform(0, 1, (d, d))
        base = relative_error(mu_e, A_e, mu_t, A_t)
        perm = rng.permutation(d)
        permuted = relative_error(mu_e[perm], A_e[np.ix_(perm, perm)],
                                  mu_t[perm], A_t[np.ix_(perm, perm)])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(1), np.ones((1, 1)),
                           np.zeros(1), np.zeros((1, 1)))


class TestAucScore:
    def test_perfect_separation(self):
        A = np.array([[0.9, 0.8], [0.1, 0.0]])
        sup = np.array([[True, True], [False, False]])
        assert auc_score(A, sup) == 1.0

    def test_reversed_separation(self):
        A = np.array([[0.9, 0.8], [0.1, 0.0]])
        sup = np.array([[False, False], [True, True]])
        assert auc_score(A, sup) == 0.0

    def test_hand_value_with_tie(self):
        # one positive at 0.5, negatives {0.5, 0.2, 0.1}: (0.5 + 1 + 1)/3
        A = np.array([[0.5, 0.5], [0.2, 0.1]])
        sup = np.array([[True, False], [False, False]])
        assert auc_score(A, sup) == pytest.approx(2.5 / 3)

    def test_constant_matrix_half(self):
        A = np.full((2, 2), 0.7)
        sup = np.array([[True, False], [False, False]])
        assert auc_score(A, sup) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_score(np.ones((2, 2)), np.ones((2, 2), dtype=bool))

    @given(st.floats(0.01, 5.0), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, scale, shift):
        rng = np.random.default_rng(3)
        A = rng.uniform(0, 1, (3, 3))
        sup = rng.uniform(size=(3, 3)) < 0.5
        if not (sup.any() and (~sup).any()):
            return
        base = auc_score(A, sup)
        assert auc_score(scale * A + shift, sup) == pytest.approx(base)
        assert auc_score(np.exp(A), sup) == pytest.approx(base)

    def test_reversal_identity_on_tie_free_input(self):
        rng = np.random.default_rng(4)
        A = rng.permutation(9).reshape(3, 3).astype(float)
        sup = rng.uniform(size=(3, 3)) < 0.4
        if not (sup.any() and (~sup).any()):
            sup[0, 0], sup[2, 2] = True, False
        assert auc_score(A, sup) + auc_score(-A, sup) == pytest.approx(1.0)


class TestEvaluate:
    def test_report_fields(self):
        mu_t = np.array([0.1, 0.2])
        A_t = np.array([[0.3, 0.0], [0.0, 0.4]])
        sup = A_t > 0
        rep = evaluate(mu_t, A_t, mu_t, A_t, sup)
        assert rep.rel_l2_error == 0.0
        assert rep.auc == 1.0
        assert rep.support_size_true == 2
        assert rep.support_size_est_at_threshold == 2
        assert set(rep.as_dict()) == {"rel_l2_error", "auc",
                                      "support_size_true",
                                      "support_size_est_at_threshold"}
