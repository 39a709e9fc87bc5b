import contextlib
import csv
import gzip
import filecmp
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ials.dataset
from ials.dataset import (
    EmptyDataset,
    InsufficientUsers,
    InteractionSet,
    ParseError,
    UserTooSparse,
    leave_one_out_split,
    load_interactions,
    strong_generalization_split,
)
from ials.errors import InputError
from conftest import make_interactions
import oracles


class TestFromPairs:
    def test_adjacency_both_directions(self):
        data = InteractionSet.from_pairs([0, 0, 1, 2], [2, 0, 1, 0])
        assert data.num_users == 3 and data.num_items == 3
        assert data.items_of(0).tolist() == [0, 2]
        assert data.items_of(1).tolist() == [1]
        assert data.item_users[data.item_ptr[0]:data.item_ptr[1]].tolist() == [0, 2]
        assert data.item_users[data.item_ptr[2]:data.item_ptr[3]].tolist() == [0]

    def test_counts(self):
        data = InteractionSet.from_pairs([0, 0, 1], [0, 1, 1])
        assert data.user_counts.tolist() == [2, 1]
        assert data.item_counts.tolist() == [1, 2]
        assert data.num_pairs == 3

    def test_duplicates_collapse_keeping_latest_timestamp(self):
        data = InteractionSet.from_pairs(
            [0, 0, 0], [1, 1, 1], timestamps=[5.0, 9.0, 7.0])
        assert data.num_pairs == 1
        assert data.timestamps_of(0).tolist() == [9.0]

    def test_duplicates_without_timestamps(self):
        data = InteractionSet.from_pairs([1, 1, 0], [0, 0, 0])
        assert data.num_pairs == 2

    def test_explicit_shape_keeps_empty_entities(self):
        data = InteractionSet.from_pairs([0], [0], num_users=4, num_items=5)
        assert data.num_users == 4 and data.num_items == 5
        assert data.items_of(3).size == 0
        assert data.user_counts.tolist() == [1, 0, 0, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            InteractionSet.from_pairs([0, 5], [0, 0], num_users=2, num_items=2)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            InteractionSet.from_pairs([0, -1], [0, 0])

    def test_pairs_round_trip(self, rng):
        data = make_interactions(rng, n_users=10, n_items=7)
        users, items = data.pairs()
        again = InteractionSet.from_pairs(users, items, num_users=10, num_items=7)
        assert np.array_equal(again.user_ptr, data.user_ptr)
        assert np.array_equal(again.user_items, data.user_items)

    def test_rows_is_items_of_in_the_order_given(self):
        data = InteractionSet.from_pairs([0, 0, 2, 3, 3, 3], [4, 1, 0, 2, 1, 5], num_users=5)
        for users in ([3, 1, 0, 3, 4, 2, 0], [1, 4], []):   # 1 and 4 have no items
            ptr, items = data.rows(users)
            assert ptr.dtype == items.dtype == np.int64
            assert ptr.tolist() == np.cumsum([0] + [data.user_counts[u] for u in users]).tolist()
            assert [items[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])] == \
                [data.items_of(u).tolist() for u in users]
            assert items.size == ptr[-1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 7)), max_size=60))
    def test_transpose_consistency(self, pairs):
        users = [u for u, _ in pairs]
        items = [i for _, i in pairs]
        data = InteractionSet.from_pairs(users, items, num_users=10, num_items=8)
        for u in range(10):
            for i in data.items_of(u):
                assert u in data.item_users[data.item_ptr[i]:data.item_ptr[i + 1]]
        for i in range(8):
            for u in data.item_users[data.item_ptr[i]:data.item_ptr[i + 1]]:
                assert i in data.items_of(u)
        assert data.num_pairs == len(set(pairs))


class TestLoadInteractions:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_csv(self, tmp_path):
        path = self._write(tmp_path, "a,x,5,100\nb,y,3,200\na,y,4,300\n")
        data = load_interactions(path)
        assert data.num_users == 2 and data.num_items == 2
        assert data.num_pairs == 3
        # first-appearance order: a -> 0, b -> 1; x -> 0, y -> 1
        assert list(data.user_ids) == ["a", "b"]
        assert list(data.item_ids) == ["x", "y"]
        assert data.timestamps is not None

    def test_multichar_delimiter(self, tmp_path):
        path = self._write(tmp_path, "1::10::4::978300760\n1::11::5::978302109\n")
        data = load_interactions(path, delimiter="::")
        assert data.num_pairs == 2

    def test_tsv_default_tab(self, tmp_path):
        path = self._write(tmp_path, "u\ti\t1\t2\n", name="data.tsv")
        assert load_interactions(path).num_pairs == 1

    def test_gzip(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("u,i,5,1\nv,j,4,2\n")
        assert load_interactions(path).num_pairs == 2

    def test_header_auto_skipped(self, tmp_path):
        path = self._write(tmp_path, "user,item,rating,time\na,x,5,1\n")
        data = load_interactions(path)
        assert data.num_pairs == 1
        assert list(data.user_ids) == ["a"]

    def test_min_rating_filters(self, tmp_path):
        path = self._write(tmp_path, "a,x,5,1\na,y,2,2\nb,x,4,3\n")
        data = load_interactions(path, min_rating=4.0)
        assert data.num_pairs == 2
        assert list(data.item_ids) == ["x"]  # y never passes the threshold

    def test_columns_with_skip(self, tmp_path):
        path = self._write(tmp_path, "junk,a,x\njunk,b,x\n")
        data = load_interactions(path, columns="skip,user,item")
        assert data.num_users == 2 and data.num_items == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        path = self._write(tmp_path, "a,x,5,1\nb,y,bad,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(path, min_rating=3.0)

    def test_short_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,x,1,1\nonlyonefield\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(EmptyDataset):
            load_interactions(path)

    def test_all_filtered_out(self, tmp_path):
        path = self._write(tmp_path, "a,x,1,1\n")
        with pytest.raises(EmptyDataset):
            load_interactions(path, min_rating=5.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_interactions(tmp_path / "nope.csv")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,x\n\xff,y\n")
        with pytest.raises(InputError, match="not UTF-8"):
            load_interactions(path)

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        packed = gzip.compress("".join(f"u{i},i{i % 7}\n" for i in range(2000)).encode())
        path.write_bytes(packed[:len(packed) // 2])
        with pytest.raises(InputError, match="cannot open"):
            load_interactions(path)

    def test_bad_column_name(self, tmp_path):
        path = self._write(tmp_path, "a,x\n")
        with pytest.raises(InputError):
            load_interactions(path, columns="user,thing")

    def test_repeated_column_name(self, tmp_path):
        # a repeated name once meant its last column: here 1 user instead of 3
        path = self._write(tmp_path, "1,10,5,0\n3,11,5,0\n1,12,5,0\n2,13,5,0\n")
        with pytest.raises(InputError, match=r"more than once: \['user'\]"):
            load_interactions(path, columns="user,item,user")
        data = load_interactions(path, columns="user,item,skip,skip")   # skip may repeat
        assert data.num_users == 3 and data.num_pairs == 4

    def test_nan_min_rating(self, tmp_path):
        # no rating compares below NaN, so it once kept every row
        path = self._write(tmp_path, "a,x,5,1\na,y,2,2\nb,x,4,3\nc,z,1,4\n")
        with pytest.raises(InputError, match="min_rating must not be NaN"):
            load_interactions(path, min_rating=float("nan"))
        assert load_interactions(path, min_rating=-float("inf")).num_pairs == 4
        with pytest.raises(EmptyDataset):
            load_interactions(path, min_rating=float("inf"))

    @pytest.mark.parametrize("text", ["1,10\n2,11\n", "1,10\n"])
    def test_min_rating_needs_a_rating_column(self, tmp_path, text):
        # line 1 was once taken as a header, or the file read as empty
        path = self._write(tmp_path, text)
        for load in (load_interactions, oracles.load_interactions_lines):
            with pytest.raises(InputError, match="min_rating needs a rating column"):
                load(path, columns="user,item", min_rating=3)

    def test_duplicate_pairs_merge(self, tmp_path):
        path = self._write(tmp_path, "a,x,5,1\na,x,5,9\nb,x,5,2\n")
        assert load_interactions(path).num_pairs == 2

    def test_padded_integer_id_is_another_id(self, tmp_path):
        # ids are compared as text on the integer path too
        path = self._write(tmp_path, "1,1\n7,1\n007,1\n7,02\n7,2\n")
        data = load_interactions(path)
        assert list(data.user_ids) == ["1", "7", "007"]
        assert list(data.item_ids) == ["1", "02", "2"]
        assert data.user_counts.tolist() == [1, 3, 1]

    def test_string_id_after_integer_blocks(self, tmp_path):
        lines = [f"{u % 7 + 1},{u * 5 % 11},{u % 5 + 1},{900 + u}" for u in range(40)]
        lines[30] = "a,3,4,1000"
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        expected = oracles.load_interactions_lines(path)
        with mock.patch.object(ials.dataset, "_BLOCK_CHARS", 16), \
                mock.patch.object(ials.dataset, "_interaction_table",
                                  wraps=ials.dataset._interaction_table) as table:
            got = load_interactions(path)
        assert table.call_count == 1  # the block with "a"; integer blocks before and after
        assert list(got.user_ids) == list(expected.user_ids)
        assert list(got.item_ids) == list(expected.item_ids)
        assert np.array_equal(got.user_ptr, expected.user_ptr)
        assert np.array_equal(got.user_items, expected.user_items)
        assert np.array_equal(got.timestamps, expected.timestamps)


class TestStrongGeneralizationSplit:
    def test_eval_users_leave_train(self, rng):
        data = make_interactions(rng, n_users=30, n_items=12, min_deg=5)
        val, test = strong_generalization_split(data, 5, 4, seed=7)
        eval_users = set(val.users.tolist()) | set(test.users.tolist())
        assert len(eval_users) == 9
        for u in eval_users:
            assert val.train.items_of(u).size == 0
        # non-eval users keep their full history
        for u in set(range(30)) - eval_users:
            assert np.array_equal(val.train.items_of(u), data.items_of(u))

    def test_fold_in_fraction_ceil(self, rng):
        data = make_interactions(rng, n_users=20, n_items=15, min_deg=5, max_deg=5)
        _, test = strong_generalization_split(data, 6, 0, fold_in_fraction=0.8, seed=1)
        for u in test.users:
            fold_in, target = test.fold_in.items_of(u), test.target.items_of(u)
            # ceil(0.8 * 5) = 4 revealed, 1 target (before vocab filtering)
            assert fold_in.size + target.size <= 5
            assert target.size >= 1

    def test_fold_in_target_disjoint_and_complete(self, rng):
        data = make_interactions(rng, n_users=25, n_items=10, min_deg=5)
        val, test = strong_generalization_split(data, 6, 3, seed=3)
        for split in (val, test):
            for u in split.users:
                fold_in, target = split.fold_in.items_of(u), split.target.items_of(u)
                combined = set(fold_in) | set(target)
                assert not set(fold_in) & set(target)
                assert combined <= set(data.items_of(u).tolist())

    def test_same_seed_identical(self, rng):
        data = make_interactions(rng, n_users=30, n_items=12, min_deg=5)
        a_val, a_test = strong_generalization_split(data, 5, 5, seed=11)
        b_val, b_test = strong_generalization_split(data, 5, 5, seed=11)
        assert a_test.users.tolist() == b_test.users.tolist()
        for u in a_test.users:
            assert np.array_equal(a_test.fold_in.items_of(u), b_test.fold_in.items_of(u))
            assert np.array_equal(a_test.target.items_of(u), b_test.target.items_of(u))

    def test_different_seed_differs(self, rng):
        data = make_interactions(rng, n_users=40, n_items=12, min_deg=5)
        _, a = strong_generalization_split(data, 8, 0, seed=1)
        _, b = strong_generalization_split(data, 8, 0, seed=2)
        assert set(a.users.tolist()) != set(b.users.tolist())

    def test_min_interactions_respected(self):
        # users 0-2 have 5 interactions, users 3-7 have 8
        users = [u for u in range(3) for _ in range(5)] + \
                [u for u in range(3, 8) for _ in range(8)]
        items = [i for _ in range(3) for i in range(5)] + \
                [i for _ in range(3, 8) for i in range(8)]
        data = InteractionSet.from_pairs(users, items)
        _, test = strong_generalization_split(data, 3, 0, min_user_interactions=6, seed=0)
        for u in test.users:
            assert data.items_of(u).size >= 6

    def test_matches_loop_reference(self):
        dropped = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            # 150 pairs over 150 items: many items belong to evaluation users
            # only, so a user can lose a whole side and be dropped
            data = InteractionSet.from_pairs(rng.integers(0, 30, 150),
                                             rng.integers(0, 150, 150),
                                             num_users=30, num_items=150)
            args = dict(n_holdout_users=3, n_validation_users=2, fold_in_fraction=0.5,
                        min_user_interactions=2, seed=seed)
            splits = strong_generalization_split(data, **args)
            for split, part in zip(splits, oracles.strong_generalization_parts(data, **args)):
                assert split.users.tolist() == sorted(part)
                for u, (fold_in, target) in part.items():
                    assert split.fold_in.items_of(u).tolist() == fold_in
                    assert split.target.items_of(u).tolist() == target
                assert split.fold_in.num_pairs == sum(len(f) for f, _ in part.values())
                assert split.target.num_pairs == sum(len(t) for _, t in part.values())
                dropped += (2 if split is splits[0] else 3) - len(part)
        assert dropped > 0

    def test_insufficient_users(self, rng):
        data = make_interactions(rng, n_users=5, n_items=8, min_deg=5)
        with pytest.raises(InsufficientUsers):
            strong_generalization_split(data, 4, 2, seed=0)

    def test_bad_fraction(self, small_data):
        with pytest.raises(InputError):
            strong_generalization_split(small_data, 1, 0, fold_in_fraction=1.0)

    def test_sparse_users_never_sampled(self):
        # a 1-interaction user cannot yield a non-empty target at f=0.8
        users = [0] + [u for u in range(1, 12) for _ in range(6)]
        items = [0] + [i for _ in range(1, 12) for i in range(6)]
        data = InteractionSet.from_pairs(users, items)
        for seed in range(5):
            _, test = strong_generalization_split(data, 3, 0, seed=seed)
            assert all(u != 0 for u in test.users)


class TestLeaveOneOutSplit:
    def test_latest_timestamp_held_out(self):
        data = InteractionSet.from_pairs(
            [0, 0, 0, 1, 1], [0, 1, 2, 0, 2],
            timestamps=[3.0, 9.0, 1.0, 5.0, 2.0], num_items=6)
        split = leave_one_out_split(data, n_negatives=1, seed=0)
        assert split.holdout[0] == 1
        assert split.holdout[1] == 0

    def test_holdout_removed_from_train(self, rng):
        data = make_interactions(rng, n_users=12, n_items=10, min_deg=3,
                                 max_deg=5, with_timestamps=True)
        split = leave_one_out_split(data, n_negatives=4, seed=1)
        for u in range(12):
            held = int(split.holdout[u])
            assert held not in split.train.items_of(u)
            assert split.train.items_of(u).size == data.items_of(u).size - 1

    def test_negatives_exclude_seen_by_default(self, rng):
        data = make_interactions(rng, n_users=10, n_items=20, min_deg=3, max_deg=6)
        split = leave_one_out_split(data, n_negatives=8, seed=2)
        for u in range(10):
            seen = set(data.items_of(u).tolist())
            assert not (set(split.negatives[u].tolist()) & seen)
            assert len(set(split.negatives[u].tolist())) == 8

    def test_allow_seen_negatives_only_blocks_holdout(self, rng):
        # with 3 items and 2 negatives, sampling must dip into seen items
        data = InteractionSet.from_pairs([0, 0, 0], [0, 1, 2],
                                         timestamps=[1.0, 2.0, 3.0])
        split = leave_one_out_split(data, n_negatives=2, seed=0,
                                    allow_seen_negatives=True)
        assert int(split.holdout[0]) == 2
        assert set(split.negatives[0].tolist()) == {0, 1}

    def test_too_few_candidates(self):
        data = InteractionSet.from_pairs([0, 0], [0, 1], num_items=3)
        with pytest.raises(InputError):
            leave_one_out_split(data, n_negatives=5, seed=0)

    @pytest.mark.parametrize("n_negatives, allow_seen, message", [
        (2, False, None),
        (3, False, "user 2: only 2 candidate items for 3 negatives"),
        (5, True, None),
        (6, True, "user 0: only 5 candidate items for 6 negatives"),
    ])
    def test_candidate_bound_names_first_short_user(self, n_negatives, allow_seen,
                                                    message):
        # pools of 4, 2 and 3 unseen items; user 1 is too sparse and skipped
        data = InteractionSet.from_pairs([0, 0, 1, 2, 2, 2, 2, 3, 3, 3],
                                         [0, 1, 0, 0, 1, 2, 3, 3, 4, 5], num_items=6)
        args = dict(n_negatives=n_negatives, seed=0, allow_seen_negatives=allow_seen,
                    skip_sparse_users=True)
        if message is None:
            assert leave_one_out_split(data, **args).negatives.shape == (3, n_negatives)
        else:
            with pytest.raises(InputError, match=f"^{message}$"):
                leave_one_out_split(data, **args)

    def test_user_too_sparse(self):
        data = InteractionSet.from_pairs([0, 1], [0, 1], num_items=5)
        with pytest.raises(UserTooSparse) as exc_info:
            leave_one_out_split(data, n_negatives=1, seed=0)
        assert 0 in exc_info.value.users and 1 in exc_info.value.users

    def test_skip_sparse_users_keeps_their_train_rows(self):
        data = InteractionSet.from_pairs([0, 1, 1, 2, 2], [0, 1, 2, 0, 3], num_items=6)
        split = leave_one_out_split(data, n_negatives=2, seed=0, skip_sparse_users=True)
        assert split.users.tolist() == [1, 2]
        assert split.holdout.shape == (2,) and split.negatives.shape == (2, 2)
        assert split.train.items_of(0).tolist() == [0]
        for u, held in zip(split.users, split.holdout):
            assert held not in split.train.items_of(u)
            assert split.train.items_of(u).size == 1

    @pytest.mark.parametrize("skip_sparse_users", [False, True])
    @pytest.mark.parametrize("allow_seen_negatives", [False, True])
    @pytest.mark.parametrize("timed", [False, True])
    def test_draws_match_the_per_user_loop(self, timed, allow_seen_negatives,
                                           skip_sparse_users):
        # byte for byte: the same generator calls in the same order; few
        # distinct timestamps, so a user's latest one is often tied
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            users, items = oracles.random_interactions(rng, 25, 40, min_deg=2, max_deg=9)
            n_users = 25
            if skip_sparse_users:   # 2 users with one item and 2 with none, scattered
                users, items = users + [25, 26], items + [3, 3]
                n_users = 29
                users = rng.permutation(n_users)[users]
            times = rng.integers(0, 3, size=len(users)).astype(float) if timed else None
            data = InteractionSet.from_pairs(users, items, num_users=n_users, num_items=40,
                                             timestamps=times)
            assert (data.user_counts < 2).sum() == 4 * skip_sparse_users
            split = leave_one_out_split(data, n_negatives=20, seed=seed,
                                        allow_seen_negatives=allow_seen_negatives,
                                        skip_sparse_users=skip_sparse_users)
            expected = oracles.leave_one_out_draws(data, 20, seed, allow_seen_negatives)
            for got, want in zip((split.users, split.holdout, split.negatives), expected):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_deterministic(self, rng):
        data = make_interactions(rng, n_users=15, n_items=12, min_deg=2, max_deg=5)
        a = leave_one_out_split(data, n_negatives=3, seed=9)
        b = leave_one_out_split(data, n_negatives=3, seed=9)
        assert np.array_equal(a.holdout, b.holdout)
        assert np.array_equal(a.negatives, b.negatives)


class TestSplitDirIO:
    def test_strong_gen_round_trip(self, rng, tmp_path):
        data = make_interactions(rng, n_users=25, n_items=10, min_deg=5)
        val, test = strong_generalization_split(data, 5, 3, seed=4)
        out = tmp_path / "sg"
        ials.dataset.save_strong_generalization(out, val, test)
        for name in ials.dataset.STRONG_GEN_FILES:
            assert (out / name).exists()

        val2, test2 = ials.dataset.load_strong_generalization(out)
        assert np.array_equal(test2.train.user_items, test.train.user_items)
        assert val2.users.tolist() == sorted(val.users.tolist())
        for u in test2.users:
            assert u in test.users
            assert np.array_equal(test2.fold_in.items_of(u), test.fold_in.items_of(u))
            assert np.array_equal(test2.target.items_of(u), test.target.items_of(u))

    def test_loo_round_trip(self, rng, tmp_path):
        data = make_interactions(rng, n_users=10, n_items=12, min_deg=2, max_deg=6)
        split = leave_one_out_split(data, n_negatives=5, seed=6)
        out = tmp_path / "loo"
        ials.dataset.save_leave_one_out(out, split)
        loaded = ials.dataset.load_leave_one_out(out)
        assert np.array_equal(loaded.users, split.users)
        assert np.array_equal(loaded.holdout, split.holdout)
        assert np.array_equal(loaded.negatives, split.negatives)
        assert np.array_equal(loaded.train.user_items, split.train.user_items)

    def test_same_seed_byte_identical(self, rng, tmp_path):
        data = make_interactions(rng, n_users=25, n_items=10, min_deg=5)
        for sub in ("a", "b"):
            val, test = strong_generalization_split(data, 5, 3, seed=4)
            ials.dataset.save_strong_generalization(tmp_path / sub, val, test)
        for name in ials.dataset.STRONG_GEN_FILES:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_missing_test_files(self, tmp_path):
        (tmp_path / "train.csv").write_text("0,0\n")
        with pytest.raises(InputError):
            ials.dataset.load_strong_generalization(tmp_path)

    def test_loo_user_mismatch(self, tmp_path):
        (tmp_path / "train.csv").write_text("0,0\n1,1\n")
        (tmp_path / "test_holdout.csv").write_text("0,1\n")
        (tmp_path / "test_negatives.csv").write_text("1,0\n")
        with pytest.raises(InputError):
            ials.dataset.load_leave_one_out(tmp_path)

    @pytest.mark.parametrize("big", ["9999999999999999999", "99999999999999999999"])
    def test_overlong_id_never_reaches_fromstring(self, tmp_path, big):
        # np.fromstring would read both as 2**63 - 1
        path = tmp_path / "train.csv"
        path.write_text(f"0,1\n2,3\n4,{big}\n5,6\n")
        with mock.patch.object(np, "fromstring", wraps=np.fromstring) as spy, \
                pytest.raises(ParseError, match=f"^{re.escape(str(path))} line 3: id too large$"):
            ials.dataset._read_int_table(path, 2)
        assert spy.called and not any(big.encode() in c.args[0] for c in spy.call_args_list)

    def test_largest_int64_id_reads(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("0,1\n2,9223372036854775807\n")
        assert ials.dataset._read_int_table(path, 2).tolist() == [[0, 1], [2, 2 ** 63 - 1]]

    def test_blank_and_padded_lines_read_as_the_oracle_reads_them(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("0,1\n\n 2,3\n4 ,5\n  \n6, 7\n8\t9 \n\t\n10,11")
        got = ials.dataset._read_int_table(path, 2)
        assert got.tolist() == oracles.read_int_table_lines(path, 2).tolist()
        assert got.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]

    def test_ragged_negatives(self, tmp_path):
        (tmp_path / "train.csv").write_text("0,0\n1,0\n")
        (tmp_path / "test_holdout.csv").write_text("0,1\n1,2\n")
        (tmp_path / "test_negatives.csv").write_text("0,2,3\n1,2\n")
        with pytest.raises(InputError):
            ials.dataset.load_leave_one_out(tmp_path)

    def test_split_train_holds_only_pairs(self, rng, tmp_path):
        # so a split of an in-memory train set is the split of its reload
        data = make_interactions(rng, n_users=12, n_items=15, min_deg=4, max_deg=7,
                                 with_timestamps=True)
        data = InteractionSet.from_pairs(*data.pairs(), timestamps=data.timestamps,
                                         user_ids=list("abcdefghijkl"),
                                         item_ids=list("ABCDEFGHIJKLMNO"))
        loo = leave_one_out_split(data, n_negatives=3, seed=1)
        _, strong_gen = strong_generalization_split(data, 3, 0, seed=1)
        for train in (loo.train, strong_gen.train):
            assert (train.timestamps, train.user_ids, train.item_ids) == (None, None, None)
        ials.dataset.save_leave_one_out(tmp_path, loo)
        reloaded = ials.dataset.load_leave_one_out(tmp_path).train
        assert (reloaded.num_users, reloaded.num_items) == (12, 15)
        assert np.array_equal(reloaded.user_items, loo.train.user_items)
        nested, again = (leave_one_out_split(train, n_negatives=3, seed=2,
                                             skip_sparse_users=True)
                         for train in (loo.train, reloaded))
        assert np.array_equal(nested.holdout, again.holdout)
        assert np.array_equal(nested.negatives, again.negatives)

    def test_id_maps_written(self, rng, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,x,5,1\nb,y,4,2\n")
        data = ials.dataset.load_interactions(path)
        ials.dataset.write_id_maps(tmp_path, data)
        lines = (tmp_path / "user_map.csv").read_text().splitlines()
        assert lines == ["a,0", "b,1"]

    def test_id_maps_quote_commas_and_quotes(self, tmp_path):
        path = tmp_path / "raw.tsv"
        path.write_text('a,b\tx\nsay "hi"\ty\nuser, 0\tx\n')
        data = ials.dataset.load_interactions(path, delimiter="\t", columns="user,item")
        ials.dataset.write_id_maps(tmp_path, data)
        with open(tmp_path / "user_map.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert list(data.user_ids) == ["a,b", 'say "hi"', "user, 0"]
        assert rows == [[data.user_ids[k], str(k)] for k in range(3)]


COLUMN_LISTS = ["user,item", "user,item,rating", "user,item,rating,time",
                "skip,user,item,time", "user,skip,item,rating,time"]
IDS = ["1", "2", "10", "01", "a", "b", "ab", " a",
       "0", "007", "+7", " 7", "-0", "-7", "99999999999999999999"]
NUMBERS = ["1", "2.5", "4", "5", " 3", "1e1", "nan"]
# fields of a clean integer table, which the byte scan takes
CANONICAL = ["0", "1", "3", "7", "10", "978300760", "999999999999999999"]


@st.composite
def raw_files(draw):
    """Text of a raw interaction file with the arguments to load it."""
    columns = draw(st.sampled_from(COLUMN_LISTS))
    names = columns.split(",")
    delimiter = draw(st.sampled_from([",", "\t", "::"]))
    min_rating = draw(st.sampled_from([None, None, 3.0])) if "rating" in names else None
    kwargs = dict(delimiter=delimiter, columns=columns, min_rating=min_rating)
    if draw(st.integers(0, 3)) == 0:  # every field a canonical integer
        lines = [delimiter.join(draw(st.sampled_from(CANONICAL)) for _ in names)
                 for _ in range(draw(st.integers(1, 12)))]
        return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), kwargs
    lines = []
    if draw(st.booleans()):
        lines.append(delimiter.join(names))  # header
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(st.sampled_from(IDS)) if n in ("user", "item", "skip")
                  else draw(st.sampled_from(NUMBERS)) for n in names]
        if draw(st.integers(0, 5)) == 0:  # ragged: trailing fields missing
            fields = fields[:draw(st.integers(1, len(fields)))]
        lines.append(delimiter.join(fields))
        if draw(st.integers(0, 6)) == 0:
            lines.append("")
    if lines and draw(st.integers(0, 3)) == 0:  # one bad token
        row = draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split(delimiter)
        fields[draw(st.integers(0, len(fields) - 1))] = "x"
        lines[row] = delimiter.join(fields)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), kwargs


def _load_or_error(load, path, kwargs):
    try:
        return load(path, **kwargs)
    except ials.dataset.ParseError as exc:
        return ("ParseError", re.search(r"line (\d+)", str(exc)).group(1))
    except ials.dataset.EmptyDataset:
        return ("EmptyDataset",)


class TestLoadInteractionsMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(raw=raw_files(), gz=st.booleans(), block=st.sampled_from([1, 8, 64, 1 << 18]))
    def test_same_ids_pairs_times_and_error_line(self, raw, gz, block):
        text, kwargs = raw
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / ("raw.csv.gz" if gz else "raw.csv")
            with (gzip.open(path, "wt", encoding="utf-8") if gz
                  else open(path, "w", encoding="utf-8")) as fh:
                fh.write(text)
            expected = _load_or_error(oracles.load_interactions_lines, path, kwargs)
            with mock.patch.object(ials.dataset, "_BLOCK_CHARS", block):
                got = _load_or_error(load_interactions, path, kwargs)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert list(got.user_ids) == list(expected.user_ids)
        assert list(got.item_ids) == list(expected.item_ids)
        assert np.array_equal(got.user_ptr, expected.user_ptr)
        assert np.array_equal(got.user_items, expected.user_items)
        assert (got.timestamps is None) == (expected.timestamps is None)
        if got.timestamps is not None:
            assert np.array_equal(got.timestamps, expected.timestamps, equal_nan=True)


INT_FIELDS = ["0", "1", "7", "12", "305", " 4", "+5", "-0", "1_000", "9223372036854775807"]
BAD_FIELDS = ["-3", "x", "", "1.5", "1 2", "9223372036854775808"]


@st.composite
def split_files(draw):
    """Text of a split file with the width and may_be_empty to read it with."""
    width = draw(st.sampled_from([None, 2, 3]))
    n_fields = width or draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:  # canonical fields only, which the byte scan takes
        lines = [draw(st.sampled_from([",", "\t"])).join(
            draw(st.sampled_from(CANONICAL)) for _ in range(n_fields))
            for _ in range(draw(st.integers(1, 30)))]
        return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), width, draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["user,item", "user\titem", "u", "1,x"])))
    for _ in range(draw(st.integers(0, 30))):
        k = draw(st.integers(1, 4)) if draw(st.integers(0, 12)) == 0 else n_fields
        fields = [draw(st.sampled_from(INT_FIELDS)) for _ in range(k)]
        if draw(st.integers(0, 12)) == 0:
            fields[draw(st.integers(0, k - 1))] = draw(st.sampled_from(BAD_FIELDS))
        lines.append(draw(st.sampled_from([",", ",", "\t"])).join(fields))
        if draw(st.integers(0, 6)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", " \t "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), width, draw(st.booleans())


def _table_or_error(read, path, width, may_be_empty):
    try:
        return read(path, width, may_be_empty)
    except InputError as exc:
        return type(exc).__name__, str(exc)


class TestReadIntTableMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(raw=split_files(), gz=st.booleans(), block=st.sampled_from([1, 8, 64, 1 << 18]))
    def test_same_table_or_error_message(self, raw, gz, block):
        text, width, may_be_empty = raw
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / ("split.csv.gz" if gz else "split.csv")
            with (gzip.open(path, "wt", encoding="utf-8") if gz
                  else open(path, "w", encoding="utf-8")) as fh:
                fh.write(text)
            expected = _table_or_error(oracles.read_int_table_lines, path, width, may_be_empty)
            with mock.patch.object(ials.dataset, "_BLOCK_CHARS", block):
                got = _table_or_error(ials.dataset._read_int_table, path, width, may_be_empty)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.shape == expected.shape and np.array_equal(got, expected)


def test_clean_integer_files_take_the_byte_scan(tmp_path):
    """A numpy whose np.fromstring text mode warns or fails shows here, not
    as a slowdown: every block of these files must skip the other readers."""
    rows = [(u % 13, u * 7 % 31, u % 5 + 1, 978300760 + u) for u in range(200)]
    ratings = tmp_path / "ratings.dat"
    ratings.write_text("".join("{}::{}::{}::{}\n".format(*r) for r in rows))
    train = tmp_path / "train.csv"
    train.write_text("".join(f"{u},{i}\n" if u % 2 else f"{u}\t{i}\n" for u, i, _, _ in rows))
    slow = ("_interaction_table", "_interaction_lines", "_int_lines")
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(ials.dataset, "_BLOCK_CHARS", 256))
        spies = [stack.enter_context(mock.patch.object(
            ials.dataset, name, wraps=getattr(ials.dataset, name))) for name in slow]
        data = load_interactions(ratings, delimiter="::")
        table = ials.dataset._read_int_table(train, 2)
    assert {name: spy.call_count for name, spy in zip(slow, spies)} == dict.fromkeys(slow, 0)
    expected = oracles.load_interactions_lines(ratings, delimiter="::")
    assert list(data.user_ids) == list(expected.user_ids)
    assert list(data.item_ids) == list(expected.item_ids)
    assert np.array_equal(data.user_items, expected.user_items)
    assert np.array_equal(data.timestamps, expected.timestamps)
    assert table.tolist() == [[u, i] for u, i, _, _ in rows]


def test_a_warning_from_fromstring_falls_back(tmp_path):
    fromstring = np.fromstring

    def warns(*args, **kwargs):
        warnings.warn("text mode is deprecated", DeprecationWarning)
        return fromstring(*args, **kwargs)

    train = tmp_path / "train.csv"
    train.write_text("0,1\n2,3\n")
    with mock.patch.object(np, "fromstring", warns):
        assert ials.dataset._read_int_table(train, 2).tolist() == [[0, 1], [2, 3]]
        assert list(load_interactions(train).user_ids) == ["0", "2"]


class TestWritersMatchOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("block", [3, 1 << 17])
    def test_split_files_byte_identical(self, tmp_path, seed, block):
        rng = np.random.default_rng(seed)
        data = make_interactions(rng, n_users=30, n_items=20, min_deg=4, max_deg=9,
                                 with_timestamps=True)
        data = InteractionSet.from_pairs(
            *data.pairs(), timestamps=data.timestamps,
            user_ids=[f"u{u}" for u in range(30)], item_ids=[f"i,{i}" for i in range(20)])
        loo = leave_one_out_split(data, n_negatives=5, seed=seed)
        val, test = strong_generalization_split(data, 5, seed, seed=seed)  # seed 0: no validation users
        with mock.patch.object(ials.dataset, "_BLOCK_FIELDS", block):
            ials.dataset.save_leave_one_out(tmp_path / "new_loo", loo)
            ials.dataset.save_strong_generalization(tmp_path / "new_sg", val, test)
            ials.dataset.write_id_maps(tmp_path / "new_sg", data)
        oracles.save_leave_one_out_lines(tmp_path / "old_loo", loo)
        oracles.save_strong_generalization_lines(tmp_path / "old_sg", val, test)
        oracles.write_id_maps_lines(tmp_path / "old_sg", data)
        for sub, names in (("loo", ials.dataset.LOO_FILES),
                           ("sg", ials.dataset.STRONG_GEN_FILES + ("user_map.csv", "item_map.csv"))):
            for name in names:
                assert filecmp.cmp(tmp_path / f"new_{sub}" / name, tmp_path / f"old_{sub}" / name,
                                   shallow=False), name
