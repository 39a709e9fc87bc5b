import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ials.metrics
import ials.solver
from ials.dataset import (
    InteractionSet,
    LeaveOneOutSplit,
    StrongGeneralizationSplit,
    leave_one_out_split,
    load_leave_one_out,
    load_strong_generalization,
    strong_generalization_split,
)
from ials.errors import DimensionMismatch
from ials.metrics import evaluate_sampled, evaluate_strong_generalization
from ials.model import FactorModel, init_model, rank_items
from ials.solver import Hyperparameters, train

import oracles
from conftest import make_interactions


def ranked_metrics(ranking, relevant, k) -> tuple[float, float]:
    """(recall@k, NDCG@k) from evaluate_strong_generalization for one user
    whose items rank as `ranking`, best first, any other item after it.

    d = 1: the user's fold-in item, one past every other, projects to a
    positive weight; each ranked item's factor falls with its place, the
    others' are 0, and the fold-in item ranks last.
    """
    ranking = [int(i) for i in ranking]
    n = max([*ranking, *relevant]) + 1
    H = np.zeros((n + 1, 1))
    H[ranking, 0] = np.arange(len(ranking), 0, -1)
    H[n, 0] = 1.0

    def one_user(items):
        return InteractionSet.from_pairs(np.zeros(len(items), dtype=np.int64), items,
                                         num_users=1, num_items=n + 1)

    split = StrongGeneralizationSplit(train=one_user([n]), fold_in=one_user([n]),
                                      target=one_user(sorted(relevant)))
    report = evaluate_strong_generalization(
        FactorModel(np.zeros((1, 1)), H), split, Hyperparameters(dim=1, alpha0=0.0, lambda_=1.0),
        recall_ks=(k,), ndcg_ks=(k,))
    return report.means[f"recall@{k}"], report.means[f"ndcg@{k}"]


def recall(ranking, relevant, k):
    return ranked_metrics(ranking, relevant, k)[0]


def ndcg(ranking, relevant, k):
    return ranked_metrics(ranking, relevant, k)[1]


def one_user_split(holdout, negatives, n_items=10) -> LeaveOneOutSplit:
    train_data = make_interactions(np.random.default_rng(0), 1, n_items, min_deg=2, max_deg=2)
    return LeaveOneOutSplit(train=train_data, users=np.array([0]),
                            holdout=np.array([holdout]), negatives=np.array([negatives]))


class TestRecall:
    def test_all_relevant_found(self):
        assert recall(range(20), {3, 7}, 20) == 1.0

    def test_half_found(self):
        assert recall(range(20), {3, 25}, 20) == 0.5

    def test_min_normalizer_saturates(self):
        # 30 relevant, top-20 entirely relevant -> 20/min(20,30) = 1.0
        assert recall(range(20), set(range(30)), 20) == 1.0

    def test_none_found(self):
        assert recall([5, 6, 7], {0}, 3) == 0.0


class TestNdcg:
    def test_ideal_ordering(self):
        assert ndcg([4, 9, 1, 0, 2], {4, 9}, 5) == 1.0

    def test_single_relevant_rank_one(self):
        assert ndcg([7, 1, 2], {7}, 10) == 1.0

    def test_single_relevant_rank_three(self):
        assert ndcg([5, 6, 7, 8], {7}, 10) == pytest.approx(0.5)

    def test_miss_is_zero(self):
        assert ndcg([1, 2, 3], {9}, 3) == 0.0

    def test_truncated_ideal(self):
        # 3 relevant, k = 2: IDCG uses only the first two ideal ranks
        value = ndcg([0, 9, 1], {0, 1, 2}, 2)
        ideal = 1.0 + 1.0 / math.log2(3)
        assert value == pytest.approx(1.0 / ideal)

    def test_single_relevant_closed_form(self):
        for rank in range(1, 11):
            items = list(range(100, 100 + rank - 1)) + [7]
            assert ndcg(items, {7}, 10) == 1.0 / math.log2(rank + 1)


class TestHitRate:
    def test_boundaries(self):
        # all scores 0: the holdout, item r - 1, ranks r-th among items 0..19
        for rank, hit in ((1, 1.0), (10, 1.0), (11, 0.0)):
            negatives = [i for i in range(20) if i != rank - 1]
            report = evaluate_sampled(FactorModel(np.zeros((1, 2)), np.zeros((20, 2))),
                                      one_user_split(rank - 1, negatives, n_items=20),
                                      ks=(10,))
            assert report.means["hr@10"] == hit


class TestAgainstOracles:
    def test_random_lists_exact(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            order = rng.permutation(n)
            rel = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            k = int(rng.integers(1, n + 1))
            assert ranked_metrics(order, rel, k) == (oracles.recall(order.tolist(), rel, k),
                                                     oracles.ndcg(order.tolist(), rel, k))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_reordering_below_k_is_invisible(self, data):
        n = data.draw(st.integers(3, 25))
        k = data.draw(st.integers(1, n - 1))
        order = list(range(n))
        data.draw(st.randoms(use_true_random=False)).shuffle(order)
        rel = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        tail_reversed = order[:k] + order[k:][::-1]
        assert ranked_metrics(order, rel, k) == ranked_metrics(tail_reversed, rel, k)

    def test_values_always_in_unit_interval(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            order = rng.permutation(n)
            rel = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            k = int(rng.integers(1, n + 2))
            assert all(0.0 <= v <= 1.0 for v in ranked_metrics(order, rel, k))


class TestEvaluateStrongGeneralization:
    def _split(self, rng, **kw):
        data = make_interactions(rng, n_users=20, n_items=10, min_deg=5, **kw)
        _, test = strong_generalization_split(data, 5, 0, seed=2)
        return test

    def test_perfect_ranker_scores_one(self, rng):
        test = self._split(rng)
        # one-hot item embeddings, dim = |I|: projecting a user's fold-in
        # yields positive weight exactly on fold-in coordinates, so force
        # perfection instead with a doctored item matrix per target: use a
        # single holdout user and put all mass on their targets.
        u = test.users[0]

        def only_u(part):
            items = part.items_of(u)
            return InteractionSet.from_pairs(np.full(items.size, u), items,
                                             num_users=part.num_users, num_items=part.num_items)

        test_one = type(test)(train=test.train, fold_in=only_u(test.fold_in),
                              target=only_u(test.target))
        d = test.train.num_items
        H = np.zeros((d, d))
        H[np.arange(d), np.arange(d)] = 1e-6
        for t in test.target.items_of(u):
            H[t, t] = 0.0
            H[t, test.fold_in.items_of(u)[0]] = 1.0  # ride the fold-in coordinate
        W = np.zeros((test.train.num_users, d))
        model = FactorModel(W, H)
        hp = Hyperparameters(dim=d, alpha0=0.0, lambda_=1e-9, nu=0.0)
        report = evaluate_strong_generalization(model, test_one, hp,
                                                recall_ks=(5,), ndcg_ks=(5,))
        assert report.means["recall@5"] == 1.0
        assert report.means["ndcg@5"] == 1.0

    def test_zero_model_equals_index_ranking(self, rng):
        test = self._split(rng)
        d = 3
        model = FactorModel(np.zeros((test.train.num_users, d)),
                            np.zeros((test.train.num_items, d)))
        hp = Hyperparameters(dim=d, alpha0=0.1, lambda_=0.01)
        report = evaluate_strong_generalization(model, test, hp,
                                                recall_ks=(4,), ndcg_ks=(6,),
                                                keep_per_user=True)
        n_items = test.train.num_items
        for idx, u in enumerate(test.users):
            fold_in, target = test.fold_in.items_of(u), test.target.items_of(u)
            ranking = oracles.rank_by_score(np.zeros(n_items), exclude=fold_in)
            assert report.per_user["recall@4"][idx] == \
                oracles.recall(ranking, target, 4)
            assert report.per_user["ndcg@6"][idx] == \
                oracles.ndcg(ranking, target, 6)

    def test_fold_in_items_never_recommended(self, rng):
        # a trained model scores fold-in items highest; excluding them must
        # change metrics vs not excluding (checked via the target overlap)
        test = self._split(rng)
        hp = Hyperparameters(dim=4, alpha0=0.3, lambda_=0.01, iterations=4)
        model, _ = train(test.train, hp)
        report = evaluate_strong_generalization(model, test, hp,
                                                recall_ks=(3,), ndcg_ks=(3,))
        assert 0.0 <= report.means["recall@3"] <= 1.0
        assert report.n_users == len(test.users)

    def test_mean_is_arithmetic_mean(self, rng):
        test = self._split(rng)
        hp = Hyperparameters(dim=2, alpha0=0.1, lambda_=0.01, iterations=2)
        model, _ = train(test.train, hp)
        report = evaluate_strong_generalization(model, test, hp, keep_per_user=True)
        for name, vec in report.per_user.items():
            assert report.means[name] == pytest.approx(float(vec.mean()), rel=1e-12)

    def test_deterministic(self, rng):
        test = self._split(rng)
        hp = Hyperparameters(dim=3, alpha0=0.2, lambda_=0.02, iterations=2)
        model, _ = train(test.train, hp)
        a = evaluate_strong_generalization(model, test, hp)
        b = evaluate_strong_generalization(model, test, hp)
        assert a.means == b.means

    def test_huge_k_costs_no_memory(self, rng):
        test = self._split(rng)
        hp = Hyperparameters(dim=3, alpha0=0.2, lambda_=0.02, iterations=2)
        model, _ = train(test.train, hp)
        small = evaluate_strong_generalization(model, test, hp, recall_ks=(10,),
                                               ndcg_ks=(10,))
        tracemalloc.start()
        try:
            huge = evaluate_strong_generalization(model, test, hp, recall_ks=(10**6,),
                                                  ndcg_ks=(10**6,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # 10 items: the top 10 is the whole ranking
        assert list(huge.means.values()) == list(small.means.values())

    def test_vocabulary_mismatch(self, rng):
        test = self._split(rng)
        model = init_model(test.train.num_users, test.train.num_items + 3, 2, seed=0)
        hp = Hyperparameters(dim=2, alpha0=0.1, lambda_=0.01)
        with pytest.raises(DimensionMismatch):
            evaluate_strong_generalization(model, test, hp)


class TestEvaluateSampled:
    def _split(self, rng):
        data = make_interactions(rng, n_users=15, n_items=30, min_deg=2, max_deg=6)
        return leave_one_out_split(data, n_negatives=10, seed=3)

    def test_holdout_first_scores_one(self, rng):
        split = self._split(rng)
        d = split.train.num_items
        # item embeddings = one-hot, user embedding = indicator of holdout
        H = np.eye(d)
        W = np.zeros((split.train.num_users, d))
        for idx, u in enumerate(split.users):
            W[u, split.holdout[idx]] = 1.0
        report = evaluate_sampled(FactorModel(W, H), split, ks=(10,))
        assert report.means["hr@10"] == 1.0
        assert report.means["ndcg@10"] == 1.0

    def test_rank_three_user(self, rng):
        split = self._split(rng)
        d = split.train.num_items
        H = np.eye(d)
        W = np.zeros((split.train.num_users, d))
        for idx, u in enumerate(split.users):
            W[u, split.holdout[idx]] = 1.0
        # user 0: two negatives outscore the holdout -> rank 3
        W[split.users[0]] = 0.0
        W[split.users[0], split.holdout[0]] = 0.5
        W[split.users[0], split.negatives[0][0]] = 1.0
        W[split.users[0], split.negatives[0][1]] = 0.9
        report = evaluate_sampled(FactorModel(W, H), split, ks=(10,),
                                  keep_per_user=True)
        assert report.per_user["ndcg@10"][0] == pytest.approx(0.5)
        assert report.per_user["hr@10"][0] == 1.0

    def test_matches_rank_oracle(self, rng):
        split = self._split(rng)
        model = init_model(split.train.num_users, split.train.num_items, 4, seed=8)
        report = evaluate_sampled(model, split, ks=(5,), keep_per_user=True)
        W, H = model.user_factors, model.item_factors
        for idx in range(split.users.size):
            u = int(split.users[idx])
            held = int(split.holdout[idx])
            candidates = [held] + split.negatives[idx].tolist()
            scores = {i: float(H[i] @ W[u]) for i in candidates}
            rank = oracles.holdout_rank(scores, held)
            assert report.per_user["hr@5"][idx] == oracles.hit_rate(rank, 5)
            expected_ndcg = 1.0 / math.log2(rank + 1) if rank <= 5 else 0.0
            assert report.per_user["ndcg@5"][idx] == expected_ndcg

    @pytest.mark.parametrize("nan_share", [0.0, 0.3])
    def test_ranks_match_rank_items(self, rng, nan_share):
        # factors from {-1, 0, 1} give many equal scores, exact in any
        # summation order; a NaN item row gives that item a NaN score
        split = self._split(rng)
        W = rng.integers(-1, 2, size=(split.train.num_users, 2)).astype(float)
        H = rng.integers(-1, 2, size=(split.train.num_items, 2)).astype(float)
        H[rng.random(split.train.num_items) < nan_share] = np.nan
        if nan_share:
            H[split.holdout[0]] = np.nan
        n = 1 + split.negatives.shape[1]
        report = evaluate_sampled(FactorModel(W, H), split, ks=(n,), keep_per_user=True)
        held_nan = 0
        for idx, u in enumerate(split.users):
            # candidates in item order, so rank_items' index tie rule is the item's
            candidates = np.sort(np.append(split.negatives[idx], split.holdout[idx]))
            scores = H[candidates] @ W[u]
            held_nan += bool(np.isnan(H[split.holdout[idx]]).any())
            order = candidates[rank_items(scores)]
            rank = 1 + int(np.flatnonzero(order == split.holdout[idx])[0])
            assert report.per_user[f"ndcg@{n}"][idx] == 1.0 / math.log2(rank + 1)
        assert (held_nan > 0) == (nan_share > 0)

    def test_tie_prefers_lower_item_index(self):
        # all scores zero: rank of holdout = 1 + #negatives with lower index
        model = FactorModel(np.zeros((1, 2)), np.zeros((10, 2)))
        report = evaluate_sampled(model, one_user_split(5, [2, 9, 3, 7]), ks=(2, 3))
        # negatives 2 and 3 tie ahead of item 5 -> rank 3
        assert report.means["hr@2"] == 0.0
        assert report.means["hr@3"] == 1.0

    def test_overflowing_twins_tie(self):
        # The holdout and two lower-index negatives share one factor row
        # whose score overflows.  Scored by one product they tie, whatever
        # the sign of the overflow, so the negatives rank ahead (rank 3).
        H = np.zeros((10, 2))
        H[[2, 3, 5]] = (1e200, -1e200)
        model = FactorModel(np.array([[1e200, 1e200]]), H)
        with np.errstate(over="ignore", invalid="ignore"):
            report = evaluate_sampled(model, one_user_split(5, [2, 3]), ks=(1, 2, 3))
        assert [report.means[f"hr@{k}"] for k in (1, 2, 3)] == [0.0, 0.0, 1.0]
        assert report.means["ndcg@3"] == 0.5

    def test_repeated_negative_counts_for_each_copy(self):
        # item 7 outscores the holdout and is listed twice: rank 3
        H = np.zeros((10, 1))
        H[[7, 5], 0] = (2.0, 1.0)
        report = evaluate_sampled(FactorModel(np.ones((1, 1)), H),
                                  one_user_split(5, [7, 1, 7]), ks=(2, 3))
        assert report.means["hr@2"] == 0.0
        assert report.means["hr@3"] == 1.0
        assert report.means["ndcg@3"] == 0.5

    def test_copy_of_holdout_never_ranks_ahead(self):
        # all scores 0: item 2 ties ahead of the holdout 5, its copies tie
        # behind it and are not hits
        model = FactorModel(np.zeros((1, 2)), np.zeros((10, 2)))
        report = evaluate_sampled(model, one_user_split(5, [5, 2, 5]), ks=(1, 2, 4))
        assert [report.means[f"hr@{k}"] for k in (1, 2, 4)] == [0.0, 1.0, 1.0]
        assert report.means["ndcg@4"] == 1.0 / math.log2(3)

    def test_deterministic(self, rng):
        split = self._split(rng)
        model = init_model(split.train.num_users, split.train.num_items, 3, seed=1)
        assert evaluate_sampled(model, split).means == \
            evaluate_sampled(model, split).means

    def test_vocabulary_mismatch(self, rng):
        split = self._split(rng)
        model = init_model(split.train.num_users, 5, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            evaluate_sampled(model, split)


class TestRankingChunks:
    """A ranking chunk bounds the score matrix only: one project_user call
    folds in every user, and per-user values do not depend on the chunks."""

    @pytest.fixture
    def strong_gen(self, rng):
        data = make_interactions(rng, n_users=60, n_items=12, min_deg=5, max_deg=9)
        _, test = strong_generalization_split(data, 25, 0, seed=2)
        hp = Hyperparameters(dim=4, alpha0=0.2, lambda_=0.02, iterations=2,
                             solver="block", block_size=3, projection_repeats=3)
        return train(test.train, hp)[0], test, hp

    @staticmethod
    def spy_fold_in(monkeypatch):
        """The (users, W bytes) of every project_user call evaluation makes."""
        calls, project = [], ials.metrics.project_user

        def spy(ptr, items, side, hp):
            W = project(ptr, items, side, hp)
            calls.append((len(ptr) - 1, W.tobytes()))
            return W
        monkeypatch.setattr(ials.metrics, "project_user", spy)
        return calls

    @staticmethod
    def per_user(report):
        return {name: values.tobytes() for name, values in report.per_user.items()}

    @pytest.mark.parametrize("users_per_chunk", [1, 4, 7])
    def test_strong_gen(self, strong_gen, monkeypatch, users_per_chunk):
        model, test, hp = strong_gen
        calls = self.spy_fold_in(monkeypatch)
        runs = []
        for chunk_floats in (None, users_per_chunk * test.train.num_items):
            if chunk_floats is not None:
                monkeypatch.setattr(ials.metrics, "_CHUNK_FLOATS", chunk_floats)
            runs.append(self.per_user(evaluate_strong_generalization(
                model, test, hp, recall_ks=(2, 5), ndcg_ks=(3, 12), keep_per_user=True)))
        assert runs[0] == runs[1]
        assert calls == [(25, calls[0][1])] * 2

    @pytest.mark.parametrize("users_per_chunk", [1, 4, 7])
    def test_sampled(self, rng, monkeypatch, users_per_chunk):
        data = make_interactions(rng, n_users=25, n_items=30, min_deg=2, max_deg=6)
        split = leave_one_out_split(data, n_negatives=10, seed=3)
        model = init_model(25, 30, 4, seed=8)
        runs = []
        for chunk_floats in (None, users_per_chunk * 11 * 4):
            if chunk_floats is not None:
                monkeypatch.setattr(ials.metrics, "_CHUNK_FLOATS", chunk_floats)
            runs.append(self.per_user(evaluate_sampled(model, split, ks=(1, 5),
                                                       keep_per_user=True)))
        assert runs[0] == runs[1]

    def test_fold_in_forks_and_stays_byte_identical(self, strong_gen, monkeypatch):
        # 2-row start chunks: the 25 users span 13, so 2 CPUs fork one worker
        model, test, hp = strong_gen
        calls = self.spy_fold_in(monkeypatch)
        monkeypatch.setattr(ials.solver, "_START_CHUNK_FLOATS", 2 * hp.dim)
        monkeypatch.setattr(ials.solver, "_FORK_WORK", 1.0)
        forks, fork = [], ials.solver.os.fork

        def spy_fork():
            forks.append(1)
            return fork()
        monkeypatch.setattr(ials.solver.os, "fork", spy_fork)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(ials.solver, "_cpus", lambda: cpus)
            runs.append(self.per_user(evaluate_strong_generalization(
                model, test, hp, recall_ks=(2, 5), ndcg_ks=(3, 12), keep_per_user=True)))
        assert runs[0] == runs[1]
        assert calls[0] == calls[1]
        assert len(forks) == 1


class TestSharedSide:
    """train builds each factor matrix's side once per iteration and hands
    H's to the validation fold-in, which then builds none of its own."""

    @staticmethod
    def validation(rng):
        data = make_interactions(rng, n_users=30, n_items=12, min_deg=5)
        return strong_generalization_split(data, 5, 5, seed=2)[0]

    @staticmethod
    def hp(solver, iterations):
        return Hyperparameters(dim=6, alpha0=0.1, lambda_=0.01, iterations=iterations,
                               solver=solver, block_size=4, projection_repeats=3)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    @pytest.mark.parametrize("solver", ["exact", "block"])
    def test_build_counts(self, rng, monkeypatch, solver, iterations, validate):
        counts = {"block_side": 0, "gramian": 0}
        for module, name in ((ials.solver, "block_side"), (ials.solver, "gramian"),
                             (ials.metrics, "gramian")):
            def spy(*args, fn=getattr(module, name), name=name):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, spy)
        validation, hp = self.validation(rng), self.hp(solver, iterations)

        def eval_fn(model, side):
            return evaluate_strong_generalization(model, validation, hp, side=side)

        train(validation.train, hp, eval_fn=eval_fn if validate else None)
        assert counts == {"block_side": 2 * iterations + validate,
                          "gramian": 2 * iterations + 1}

    @pytest.mark.parametrize("solver", ["exact", "block"])
    def test_shared_side_changes_nothing(self, rng, solver):
        validation, hp = self.validation(rng), self.hp(solver, 3)
        runs = []

        def eval_fn(model, side):
            shared, built = (TestRankingChunks.per_user(evaluate_strong_generalization(
                model, validation, hp, recall_ks=(2, 5), ndcg_ks=(3, 12),
                keep_per_user=True, **kw)) for kw in ({"side": side}, {}))
            runs.append((shared, built))

        trained = [train(validation.train, hp, eval_fn=fn) for fn in (eval_fn, None)]
        assert len(runs) == 3
        assert all(shared == built for shared, built in runs)
        (a, a_reports), (b, b_reports) = trained
        assert a.user_factors.tobytes() == b.user_factors.tobytes()
        assert a.item_factors.tobytes() == b.item_factors.tobytes()
        assert a_reports == b_reports


class TestMetricReport:
    def test_json_dict_flat(self):
        from ials.metrics import MetricReport
        report = MetricReport(means={"hr@10": 0.5, "ndcg@10": 0.25}, n_users=7)
        assert report.to_json_dict() == {"hr@10": 0.5, "ndcg@10": 0.25, "n_users": 7}


STRONG_GEN_BASE = {   # users 0-3 train, 4-5 validation, 6-7 test; items 0-4
    "train.csv": [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (3, 0)],
    "validation_fold_in.csv": [(4, 0), (5, 1)],
    "validation_target.csv": [(4, 1), (5, 2)],
    "test_fold_in.csv": [(6, 0), (7, 2)],
    "test_target.csv": [(6, 3), (7, 4)],
}


class TestSplitVocabulary:
    """A split dir's vocabulary is one more than the largest user and item
    id in any of its files; each evaluator checks a model against it."""

    @staticmethod
    def _write(path, files):
        path.mkdir()
        for name, rows in files.items():
            (path / name).write_text("".join(",".join(map(str, row)) + "\n" for row in rows))

    def test_loo_item_only_among_negatives(self, tmp_path):
        # the largest user, 3, only in the holdout and negatives files; the
        # largest item, 9, only among the negatives
        self._write(tmp_path / "loo", {"train.csv": [(0, 0), (0, 1), (1, 2), (2, 3)],
                                       "test_holdout.csv": [(0, 2), (3, 1)],
                                       "test_negatives.csv": [(0, 3, 9), (3, 4, 5)]})
        split = load_leave_one_out(tmp_path / "loo")
        assert (split.train.num_users, split.train.num_items) == (4, 10)
        assert evaluate_sampled(init_model(4, 10, 2, seed=0), split).n_users == 2
        for num_items in (9, 11):
            with pytest.raises(DimensionMismatch,
                               match=f"^model has {num_items} items, split vocabulary 10$"):
                evaluate_sampled(init_model(4, num_items, 2, seed=0), split)

    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("where, validation", [
        ("validation_fold_in.csv", "rows"), ("validation_target.csv", "rows"),
        *[(name, validation) for name in ("test_fold_in.csv", "test_target.csv")
          for validation in ("rows", "empty", "absent")],
    ])
    def test_strong_gen_id_only_in_an_evaluation_file(self, tmp_path, side, where,
                                                      validation):
        # user 20 or item 30 occurs in `where` alone: a new user's row, or a
        # row of one of that part's users
        files = {name: list(rows) for name, rows in STRONG_GEN_BASE.items()}
        for name in ("validation_fold_in.csv", "validation_target.csv"):
            if validation == "empty":
                files[name] = []
            elif validation == "absent":
                del files[name]
        files[where].append((20, 0) if side == "user" else (files[where][0][0], 30))
        self._write(tmp_path / "sg", files)
        val, test = load_strong_generalization(tmp_path / "sg")
        shape = (21, 5) if side == "user" else (8, 31)
        assert (test.train.num_users, test.train.num_items) == shape
        assert (val is None) == (validation == "absent")
        hp = Hyperparameters(dim=2, alpha0=0.1, lambda_=0.01)
        parts = [test] if val is None else [val, test]
        for part in parts:
            assert part.train is test.train
            evaluate_strong_generalization(init_model(*shape, 2, seed=0), part, hp)
            for num_items in (shape[1] - 1, shape[1] + 1):
                with pytest.raises(DimensionMismatch, match=f"^model has {num_items} items, "
                                                            f"split vocabulary {shape[1]}$"):
                    evaluate_strong_generalization(init_model(shape[0], num_items, 2, seed=0),
                                                   part, hp)
