import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ials.errors import DimensionMismatch, InputError
from ials.model import FactorModel, init_model, load_model, rank_items, save_model

import oracles


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = init_model(5, 7, 3, seed=123)
        b = init_model(5, 7, 3, seed=123)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)

    def test_different_seed_differs(self):
        a = init_model(5, 7, 3, seed=1)
        b = init_model(5, 7, 3, seed=2)
        assert not np.array_equal(a.user_factors, b.user_factors)

    def test_draw_order_and_scale(self):
        # reproducibility contract: one generator, users drawn before items,
        # entries scaled by sigma_star / sqrt(d)
        m = init_model(4, 6, 9, sigma_star=0.3, seed=77)
        ref = np.random.default_rng(77)
        expected_w = ref.standard_normal((4, 9)) * (0.3 / 3.0)
        expected_h = ref.standard_normal((6, 9)) * (0.3 / 3.0)
        assert np.array_equal(m.user_factors, expected_w)
        assert np.array_equal(m.item_factors, expected_h)

    def test_entry_std_matches_sigma_star(self):
        m = init_model(300, 300, 16, sigma_star=0.1, seed=5)
        observed = m.user_factors.std()
        assert abs(observed - 0.1 / 4.0) < 0.002

    def test_bad_shape(self):
        with pytest.raises(InputError):
            init_model(0, 3, 2)
        with pytest.raises(InputError):
            init_model(3, 3, 0)


class TestFactorModel:
    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            FactorModel(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_one_dim_factors(self):
        with pytest.raises(DimensionMismatch, match="2-d"):
            FactorModel(np.zeros(3), np.zeros((2, 3)))

    def test_properties(self):
        m = FactorModel(np.zeros((2, 3)), np.zeros((5, 3)))
        assert (m.num_users, m.num_items, m.dim) == (2, 5, 3)


class TestScoring:
    def test_rank_items_tie_rule(self):
        scores = np.array([1.0, 3.0, 3.0, 0.5, 3.0])
        order = rank_items(scores)
        assert order.tolist() == [1, 2, 4, 0, 3]
        assert scores[order].tolist() == [3.0, 3.0, 3.0, 1.0, 0.5]

    def test_rank_items_exclusion(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0])
        order = rank_items(scores, exclude=np.isin(np.arange(4), [0, 2]))
        assert order.tolist() == [1, 3, 0, 2]  # excluded columns at the tail

    def test_rank_items_truncation(self):
        assert rank_items(np.arange(10.0), k=3).tolist() == [9, 8, 7]

    def test_all_items_is_permutation(self, rng):
        # full ranking without exclusions is a permutation matching the
        # sort oracle, including heavy ties
        for _ in range(20):
            n = int(rng.integers(1, 30))
            scores = rng.integers(0, 4, size=n).astype(float)
            order = rank_items(scores)
            assert sorted(order.tolist()) == list(range(n))
            assert order.tolist() == oracles.rank_by_score(scores)

    def test_rank_items_top_k_matches_oracle_with_exclusion(self, rng):
        for _ in range(20):
            H = rng.standard_normal((12, 3))
            w = rng.standard_normal(3)
            exclude = rng.choice(12, size=4, replace=False)
            got = rank_items(H @ w, exclude=np.isin(np.arange(12), exclude), k=5)
            expected = oracles.rank_by_score(H @ w, exclude=exclude)[:5]
            assert got.tolist() == expected

    @pytest.mark.parametrize("with_nan", [False, True])
    @pytest.mark.parametrize("with_exclude", [False, True])
    def test_top_k_matches_full_stable_sort_on_ties(self, rng, with_exclude, with_nan):
        # few distinct values: the k-th best score is tied across the cut;
        # NaN scores rank last among the included and among the excluded
        for _ in range(50):
            n = int(rng.integers(1, 40))
            scores = rng.integers(0, 4, size=n).astype(float)
            if with_nan:
                scores[rng.random(n) < 0.3] = np.nan
            exclude = (rng.random(n) < rng.random()) if with_exclude else np.zeros(n, bool)
            order = np.argsort(-scores, kind="stable")
            order = np.concatenate((order[~exclude[order]], order[exclude[order]]))
            full = rank_items(scores, exclude=exclude if with_exclude else None)
            assert full.tolist() == order.tolist()
            for k in range(n + 2):
                got = rank_items(scores, exclude=exclude, k=k)
                assert got.tolist() == order[:k].tolist()
                np.testing.assert_array_equal(scores[got], scores[order[:k]])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=25))
    def test_tie_rule_property(self, int_scores):
        scores = np.array(int_scores, dtype=float)
        assert rank_items(scores).tolist() == oracles.rank_by_score(scores)

    def test_rows_rank_as_the_oracle(self, rng):
        # each row on its own: ties, NaN, -0.0 against 0.0, its own
        # exclusion (ranked after the rest under the same rule) and a cut
        for _ in range(30):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 25))
            scores = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan], size=(m, n))
            exclude = rng.random((m, n)) < 0.3
            full = rank_items(scores, exclude=exclude)
            for row, mask, got in zip(scores, exclude, full):
                kept = np.flatnonzero(~mask)
                expected = (oracles.rank_by_score(row, exclude=np.flatnonzero(mask))
                            + oracles.rank_by_score(row, exclude=kept))
                assert got.tolist() == expected
            for k in (0, int(rng.integers(0, n)), n, n + 1):
                np.testing.assert_array_equal(rank_items(scores, exclude=exclude, k=k),
                                              full[:, :k])

    def test_infinities_rank_as_the_oracle(self, rng):
        # 1-d rows with ties at +-inf and +-0, NaN and exclusion: the sort's
        # stability alone puts tied columns in index order
        for _ in range(50):
            n = int(rng.integers(1, 30))
            scores = rng.choice([-np.inf, -1.0, -0.0, 0.0, np.inf, np.nan], size=n)
            exclude = rng.random(n) < 0.3
            expected = (oracles.rank_by_score(scores, exclude=np.flatnonzero(exclude))
                        + oracles.rank_by_score(scores, exclude=np.flatnonzero(~exclude)))
            assert rank_items(scores, exclude=exclude).tolist() == expected
            for k in (0, int(rng.integers(0, n)), n):
                assert rank_items(scores, exclude=exclude, k=k).tolist() == expected[:k]


class TestModelFile:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        m = init_model(6, 9, 4, seed=3)
        path = tmp_path / "m.bin"
        save_model(path, m)
        back = load_model(path)
        assert np.array_equal(back.user_factors, m.user_factors)
        assert np.array_equal(back.item_factors, m.item_factors)

    def test_header_format(self, tmp_path):
        m = init_model(2, 3, 5, seed=0)
        path = tmp_path / "m.bin"
        save_model(path, m)
        first = path.read_bytes().split(b"\n", 1)[0]
        assert first == b"ials-model v1 2 3 5"

    def test_payload_is_row_major_little_endian(self, tmp_path):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        h = np.array([[5.0, 6.0]])
        path = tmp_path / "m.bin"
        save_model(path, FactorModel(w, h))
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert np.frombuffer(payload, dtype="<f8").tolist() == [1, 2, 3, 4, 5, 6]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"something-else v1 1 1 1\n" + b"\0" * 16)
        with pytest.raises(InputError):
            load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"ials-model v9 1 1 1\n" + b"\0" * 16)
        with pytest.raises(InputError):
            load_model(path)

    def test_rejects_truncated_payload(self, tmp_path):
        m = init_model(4, 4, 4, seed=0)
        path = tmp_path / "m.bin"
        save_model(path, m)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(InputError):
            load_model(path)

    def test_rejects_overlong_payload(self, tmp_path):
        m = init_model(4, 4, 4, seed=0)
        path = tmp_path / "m.bin"
        save_model(path, m)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(InputError, match=r"expected 256 payload bytes for "
                                             r"shape \(4\+4\)x4, found 264"):
            load_model(path)

    def test_size_checked_before_allocating(self, tmp_path):
        # a header whose shape would not fit in memory fails on the size
        path = tmp_path / "m.bin"
        path.write_bytes(b"ials-model v1 1000000000 1000000000 1000\n" + b"\0" * 16)
        with pytest.raises(InputError, match="found 16$"):
            load_model(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("extra", [0, 8, -8])
    def test_reads_a_pipe(self, tmp_path, extra):
        # a stream that cannot tell its size: the payload's size is checked
        # after reading it
        m = init_model(3, 2, 2, seed=0)
        path = tmp_path / "m.bin"
        save_model(path, m)
        blob = path.read_bytes()
        blob = blob + b"\0" * extra if extra >= 0 else blob[:extra]
        r, w = os.pipe()
        try:
            os.write(w, blob)   # far below a pipe's buffer
            os.close(w)
            if extra:
                with pytest.raises(InputError, match=f"found {80 + extra}$"):
                    load_model(f"/dev/fd/{r}")
            else:
                back = load_model(f"/dev/fd/{r}")
                assert np.array_equal(back.user_factors, m.user_factors)
                assert np.array_equal(back.item_factors, m.item_factors)
        finally:
            os.close(r)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_factor(self, tmp_path, value):
        m = init_model(3, 2, 2, seed=0)
        m.item_factors[1, 0] = value
        path = tmp_path / "m.bin"
        save_model(path, m)
        with pytest.raises(InputError, match="non-finite"):
            load_model(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"\x00\x01\x02not a header at all")
        with pytest.raises(InputError):
            load_model(path)
