import dataclasses
import os
import signal
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ials.linalg
import ials.solver
from ials.dataset import InteractionSet
from ials.errors import IalsError, InputError
from ials.linalg import NotPositiveDefinite, gramian, solve_factored
from ials.model import FactorModel, init_model
from ials.solver import (
    Hyperparameters,
    block_side,
    effective_lambda_from_counts,
    penalty_weights,
    project_user,
    regularization_weight,
    solve_entity,
    solve_entity_block,
    train,
    update_items,
    update_users,
)

import oracles
from conftest import csr, half_step, make_interactions


class TwoArguments(Exception):
    """An exception that pickles but does not unpickle: its class takes two
    arguments and its args hold one."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def hp_direct(**kw):
    base = dict(dim=3, alpha0=0.1, lambda_=0.01, iterations=3, seed=0)
    base.update(kw)
    return Hyperparameters(**base)


@pytest.fixture
def forks(monkeypatch):
    """One entry per fork made from this process."""
    made, fork = [], os.fork

    def spy():
        made.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", spy)
    return made


@pytest.fixture
def one_process(monkeypatch):
    """Keep the entity loop in this process, for tests that spy on or count
    kernel calls: a forked worker's calls would not reach the spy."""
    monkeypatch.setattr(ials.solver, "_cpus", lambda: 1)


class TestHyperparameters:
    def test_requires_exactly_one_reg(self):
        with pytest.raises(InputError):
            Hyperparameters(dim=2, alpha0=0.1)
        with pytest.raises(InputError):
            Hyperparameters(dim=2, alpha0=0.1, lambda_=0.1, lambda_star=0.1)

    def test_reg_modes(self):
        assert hp_direct().lambda_ is not None
        hp = Hyperparameters(dim=2, alpha0=0.1, lambda_star=0.1)
        assert hp.lambda_ is None

    def test_validation(self):
        with pytest.raises(InputError):
            hp_direct(dim=0)
        with pytest.raises(InputError):
            hp_direct(alpha0=-0.1)
        with pytest.raises(InputError):
            hp_direct(nu=1.5)
        with pytest.raises(InputError):
            hp_direct(lambda_=-1.0)
        with pytest.raises(InputError):
            hp_direct(solver="newton")
        with pytest.raises(InputError):
            hp_direct(block_size=0)
        with pytest.raises(InputError):
            hp_direct(iterations=-1)

    @pytest.mark.parametrize("field", ["alpha0", "lambda_", "lambda_star", "sigma_star"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        kw = dict(dim=4, alpha0=0.1, lambda_=0.01)
        if field == "lambda_star":
            kw["lambda_"] = None
        kw[field] = value
        with pytest.raises(InputError, match=f"{field} must be finite"):
            Hyperparameters(**kw)

    def test_zero_reg_allowed(self):
        # the loss is well defined at lambda = 0 (alpha0 keeps systems PD)
        hp_direct(lambda_=0.0)

    def test_resolve_direct_is_identity(self, small_data):
        hp = hp_direct()
        assert hp.resolve(small_data) is hp

    def test_resolve_normalized_sets_lambda(self, small_data):
        hp = Hyperparameters(dim=2, alpha0=0.1, lambda_star=0.05, nu=0.5, nu_star=1.0)
        resolved = hp.resolve(small_data)
        assert resolved.lambda_ is not None
        expected = effective_lambda_from_counts(0.05, 0.5, 1.0, small_data.user_counts,
                                                small_data.item_counts, 0.1)
        assert resolved.lambda_ == expected


class TestRegularizationWeight:
    def test_nu_zero_is_plain_lambda(self):
        for count in (0, 1, 17):
            assert regularization_weight(count, 50, 0.3, 0.0, 0.02) == 0.02

    def test_linear_case(self):
        assert regularization_weight(3, 20, 0.1, 1.0, 0.01) == pytest.approx(0.05, rel=1e-12)

    def test_sqrt_case(self):
        # base = count + alpha0 * N = 4, nu = 0.5 -> factor 2
        assert regularization_weight(2, 20, 0.1, 0.5, 0.01) == pytest.approx(0.02, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.77, 1.0])
    def test_vector_form_matches_scalar_calls(self, nu):
        counts = np.array([0, 1, 2, 3, 17, 250, 4096])
        got = regularization_weight(counts, 37, 0.3, nu, 0.02)
        assert got.shape == counts.shape
        for c, value in zip(counts.tolist(), got):
            # the library's scalar call and the plain float formula
            for scalar in (regularization_weight(c, 37, 0.3, nu, 0.02),
                           0.02 * float(c + 0.3 * 37) ** nu):
                if nu in (0.0, 1.0):
                    assert value == scalar
                else:
                    # array pow may round differently from scalar pow in the last bit
                    assert value == pytest.approx(scalar, rel=4 * np.finfo(float).eps, abs=0)


class TestEffectiveLambda:
    def test_identity_when_exponents_match(self, rng):
        for _ in range(10):
            data = make_interactions(rng, n_users=int(rng.integers(2, 15)),
                                     n_items=int(rng.integers(2, 10)))
            nu = float(rng.uniform(0, 1))
            lam_star = float(rng.uniform(1e-4, 1.0))
            alpha0 = float(rng.uniform(0, 1))
            assert effective_lambda_from_counts(lam_star, nu, nu, data.user_counts,
                                                data.item_counts, alpha0) == lam_star

    def test_single_pair_example(self):
        data = InteractionSet.from_pairs([0], [0])
        assert effective_lambda_from_counts(0.3, 1.0, 0.0, data.user_counts,
                                            data.item_counts, 0.0) == pytest.approx(0.3)

    def test_hand_computed_ratio_exact(self):
        # degree profiles {1,3} / {1,3}: mass 4 at exponent 0, 8 at exponent 1
        got = effective_lambda_from_counts(0.1, 1.0, 0.0, [1, 3], [1, 3], 0.0)
        assert got == 0.05

    def test_counts_and_dataset_paths_agree(self, rng):
        data = make_interactions(rng, n_users=12, n_items=8)
        a = Hyperparameters(dim=2, alpha0=0.25, lambda_star=0.02, nu=0.3,
                            nu_star=1.0).resolve(data).lambda_
        b = effective_lambda_from_counts(0.02, 0.3, 1.0, data.user_counts,
                                         data.item_counts, 0.25)
        assert a == b


class TestSolveEntity:
    def test_single_item_closed_form(self):
        h = np.array([[1.0]])
        for alpha0 in (0.0, 0.5, 2.0):
            x = solve_entity(h, alpha0 * gramian(h), 0.0)[0]
            assert x[0] == pytest.approx(1.0 / (1.0 + alpha0), rel=1e-12)

    def test_empty_history_is_zero(self):
        # b = 0 against a positive definite A: the solve returns 0 exactly
        G = gramian(np.ones((4, 3)))
        assert np.array_equal(solve_entity(np.zeros((0, 3)), 0.5 * G, 0.1)[0], np.zeros(3))

    def test_rhs_and_factor(self, rng):
        # any right-hand side is solved against the same assembled A, and
        # the returned factor solves A for further ones
        H = rng.standard_normal((7, 4))
        history, alpha_G, lam = H[:3], 0.3 * gramian(H), 0.05
        A = history.T @ history + alpha_G + lam * np.eye(4)
        b, c = rng.standard_normal(4), rng.standard_normal(4)
        x, L = solve_entity(history, alpha_G, lam, b)
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-10, atol=1e-12)
        assert np.allclose(solve_factored(L, c), np.linalg.solve(A, c), rtol=1e-10, atol=1e-12)
        assert np.array_equal(solve_entity(history, alpha_G, lam)[0],
                              solve_entity(history, alpha_G, lam, history.sum(axis=0))[0])

    def test_matches_bruteforce_assembly(self, rng):
        for _ in range(15):
            n_items, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            H = rng.standard_normal((n_items, d))
            deg = int(rng.integers(1, n_items + 1))
            obs = rng.choice(n_items, size=deg, replace=False)
            alpha0 = float(rng.choice([0.0, 0.1, 1.0]))
            lam = float(rng.uniform(0.01, 0.5))
            got = solve_entity(H[obs], alpha0 * gramian(H), lam)[0]
            expected = oracles.normal_equation_solution(H[obs], H, alpha0, lam)
            assert np.all(np.abs(got - expected) <= 1e-8)


class TestSolveEntityBlock:
    def _instance(self, rng, d, n=40):
        # embedding-scale rows: block descent is meant for systems whose
        # diagonal (regularizer included) dominates the coupling
        H = rng.standard_normal((n, d)) * (0.1 / np.sqrt(d))
        obs = rng.choice(n, size=max(1, n // 2), replace=False)
        return H, obs, gramian(H), 0.2, 0.01

    def test_single_block_equals_exact(self, rng):
        H, obs, G, alpha0, lam = self._instance(rng, d=5)
        exact = solve_entity(H[obs], alpha0 * G, lam)[0]
        one_pass = solve_entity_block(np.zeros(5), obs, block_side(H, G, alpha0, 5), lam)[0]
        assert np.array_equal(one_pass, exact)
        bigger = solve_entity_block(np.zeros(5), obs, block_side(H, G, alpha0, 9), lam)[0]
        assert np.array_equal(bigger, exact)

    def test_repeated_passes_reach_fixed_point(self, rng):
        H, obs, G, alpha0, lam = self._instance(rng, d=8)
        exact = solve_entity(H[obs], alpha0 * G, lam)[0]
        side = block_side(H, G, alpha0, 3)
        x = np.zeros(8)
        for _ in range(50):
            x = solve_entity_block(x, obs, side, lam)[0]
        assert np.all(np.abs(x - exact) <= 1e-8)

    @pytest.mark.parametrize("alpha0,lam", [(0.2, 0.01), (0.0, 0.0)])
    def test_empty_partners_is_zero(self, rng, alpha0, lam):
        # no history: the quadratic is x'(alpha0 G + lam I)x, minimized at 0,
        # whatever the start; at alpha0 = lam = 0 every block system is zero.
        # block_size 6 is one block: the exact solve, answered by the same rule
        H = rng.standard_normal((10, 6))
        for block_size in (2, 6):
            side = block_side(H, gramian(H), alpha0, block_size)
            x, r = solve_entity_block(rng.standard_normal(6), np.array([], dtype=np.int64),
                                      side, lam, passes=3)
            assert np.array_equal(x, np.zeros(6)) and r.shape == (0,)

    def test_current_not_mutated(self, rng):
        H, obs, G, alpha0, lam = self._instance(rng, d=6)
        x0 = np.ones(6)
        keep = x0.copy()
        solve_entity_block(x0, obs, block_side(H, G, alpha0, 2), lam)
        assert np.array_equal(x0, keep)

    def test_objective_decreases_per_pass(self, rng):
        # exact block minimization cannot increase the quadratic
        H, obs, G, alpha0, lam = self._instance(rng, d=7)
        history = H[obs]
        side = block_side(H, G, alpha0, 2)

        def quad(x):
            A = history.T @ history + alpha0 * G + lam * np.eye(7)
            b = history.sum(axis=0)
            return float(x @ A @ x - 2 * b @ x)

        x = np.zeros(7)
        prev = quad(x)
        for _ in range(10):
            x = solve_entity_block(x, obs, side, lam)[0]
            now = quad(x)
            assert now <= prev + 1e-12 * max(1.0, abs(prev))
            prev = now

    @pytest.mark.parametrize("d,block_size,n,start", [
        (7, 3, 20, "zero"),      # d not a multiple of b
        (7, 3, 20, "random"),    # non-zero current
        (6, 1, 15, "random"),    # one coordinate per block
        (6, 6, 15, "random"),    # one block: the closed form
        (6, 9, 15, "random"),    # b > d
        (5, 2, 0, "random"),     # empty history: the exact minimizer 0, not one pass
        (48, 16, 30, "random"),
    ])
    def test_matches_dense_oracle(self, rng, d, block_size, n, start):
        for _ in range(5):
            H = rng.standard_normal((n + 10, d)) * (0.5 / np.sqrt(d))
            history = H[:n]
            G = gramian(H)
            alpha0, lam = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.01, 0.5))
            current = rng.standard_normal(d) if start == "random" else np.zeros(d)
            got = solve_entity_block(current, np.arange(n), block_side(H, G, alpha0, block_size),
                                     lam)[0]
            ref = (np.zeros(d) if n == 0 else
                   oracles.block_pass_dense(current, history, G, alpha0, lam, block_size))
            scale = max(np.abs(ref).max(), np.abs(current).max())
            assert np.abs(got - ref).max() <= 1e-10 * scale


class TestBlockKernel:
    """Cached block factors and interaction-space (Woodbury) blocks."""

    @staticmethod
    def spy_sizes(monkeypatch):
        """Record the size of every system solve_entity_block factors."""
        sizes = []
        real = ials.solver.solve_spd

        def spy(A, b):
            sizes.append(A.shape[0])
            return real(A, b)
        monkeypatch.setattr(ials.solver, "solve_spd", spy)
        return sizes

    CASES = [
        (12, 4, 30, 40, 0.3, 0.05, 1, "cholesky"),   # n >= b
        (12, 4, 30, 40, 0.3, 0.05, 8, "cholesky"),
        (48, 16, 5, 40, 0.3, 0.05, 1, "woodbury"),   # n < b/2
        (128, 64, 5, 150, 0.3, 0.05, 8, "woodbury"),
        (48, 16, 10, 40, 0.3, 0.05, 1, "woodbury"),  # n >= b/2, one pass
        (48, 16, 10, 40, 0.3, 0.05, 8, "cholesky"),  # n >= b/2, eight passes
        (48, 16, 5, 40, 0.0, 0.05, 2, "woodbury"),   # alpha0 = 0: D = lambda
        (48, 16, 5, 6, 0.3, 0.05, 2, "woodbury"),    # rank-deficient G
        (48, 16, 5, 6, 0.3, 0.0, 2, "cholesky"),     # and lambda = 0: min(D) = 0
        (48, 16, 5, 40, 0.0, 0.0, 2, "cholesky"),    # alpha0 = lambda = 0: D = 0
        (48, 16, 0, 40, 0.3, 0.05, 2, "cholesky"),   # n = 0: 0 without a solve
        (40, 16, 3, 40, 0.3, 0.05, 1, "woodbury"),   # last block of 8
    ]

    @pytest.mark.parametrize("d,b,n,m,alpha0,lam,passes,path", CASES)
    def test_matches_oracle_passes(self, rng, monkeypatch, d, b, n, m, alpha0, lam,
                                   passes, path):
        sizes = self.spy_sizes(monkeypatch)
        for _ in range(3):
            H = rng.standard_normal((max(m, n), d)) * (0.5 / np.sqrt(d))
            G = gramian(H[:m])
            partners = rng.choice(H.shape[0], size=n, replace=False)
            current = rng.standard_normal(d)
            got = solve_entity_block(current, partners, block_side(H, G, alpha0, b), lam,
                                     passes)[0]
            if n == 0:
                assert np.array_equal(got, np.zeros(d))
                continue
            ref = current
            for _ in range(passes):
                ref = oracles.block_pass(ref, H[partners], G, alpha0, lam, b)
            if path == "cholesky":
                assert np.array_equal(got, ref)
            else:
                dense = current
                for _ in range(passes):
                    dense = oracles.block_pass_dense(dense, H[partners], G, alpha0, lam, b)
                scale = max(np.abs(dense).max(), np.abs(current).max())
                assert np.abs(got - dense).max() <= 1e-10 * scale
                assert np.abs(got - ref).max() <= 1e-10 * scale
        block_sizes = [min(b, d - start) for start in range(0, d, b)] if n else []
        assert sizes == (block_sizes if path == "cholesky" else [n] * len(block_sizes)) * 3

    @pytest.mark.parametrize("d,b,n,m,alpha0,lam,passes,path", CASES)
    def test_matches_previous_step_bytewise(self, rng, d, b, n, m, alpha0, lam, passes,
                                            path):
        # the step with per-block side arrays against the one it replaced,
        # from the first pass's own g and from a handed-in start g
        for _ in range(3):
            H = rng.standard_normal((max(m, n), d)) * (0.5 / np.sqrt(d))
            G = gramian(H[:m])
            partners = rng.choice(H.shape[0], size=n, replace=False)
            current = rng.standard_normal(d)
            side = block_side(H, G, alpha0, b)
            for g in (None, alpha0 * (G @ current)):
                got = solve_entity_block(current, partners, side, lam, passes, g=g)
                want = oracles.solve_entity_block(current, partners, side, lam, passes, g=g)
                for a, w in zip(got, want):
                    assert a.dtype == w.dtype and a.shape == w.shape
                    assert a.tobytes() == w.tobytes()

    def test_ragged_last_block_takes_its_own_path(self, rng, monkeypatch):
        # two 16-wide blocks in the n x n space, the last 8-wide one as b x b
        d, b, n = 40, 16, 5
        assert ials.solver._woodbury_cheaper(n, b, 1)
        assert not ials.solver._woodbury_cheaper(n, d % b, 1)
        sizes = self.spy_sizes(monkeypatch)
        H = rng.standard_normal((40, d)) * (0.5 / np.sqrt(d))
        G = gramian(H)
        partners = rng.choice(40, size=n, replace=False)
        current = rng.standard_normal(d)
        got = solve_entity_block(current, partners, block_side(H, G, 0.3, b), 0.05)[0]
        assert sizes == [n, n, d % b]
        dense = oracles.block_pass_dense(current, H[partners], G, 0.3, 0.05, b)
        scale = max(np.abs(dense).max(), np.abs(current).max())
        assert np.abs(got - dense).max() <= 1e-10 * scale

    def test_mixed_paths_factor_each_block_once(self, rng, monkeypatch):
        # three 64-wide blocks in the n x n space and the 8-wide last one as
        # b x b, over 8 passes: each block factored once, on the first pass
        d, b, n, passes = 200, 64, 5, 8
        assert ials.solver._woodbury_cheaper(n, b, passes)
        assert not ials.solver._woodbury_cheaper(n, d % b, passes)
        H = rng.standard_normal((40, d)) * (0.5 / np.sqrt(d))
        side = block_side(H, gramian(H), 0.3, b)
        partners = rng.choice(40, size=n, replace=False)
        current = rng.standard_normal(d)
        # before the spy: the oracle's solve_entity calls ials.solver.solve_spd
        want = oracles.solve_entity_block(current, partners, side, 0.05, passes)
        sizes = self.spy_sizes(monkeypatch)
        got = solve_entity_block(current, partners, side, 0.05, passes)
        assert sizes == [n, n, n, d % b]
        for a, w in zip(got, want):
            assert a.tobytes() == w.tobytes()

    @pytest.mark.usefixtures("one_process")
    def test_fold_in_factors_each_block_once(self, rng, monkeypatch):
        # every block takes the b x b path: bitwise equal to the repeated pass
        sizes = self.spy_sizes(monkeypatch)
        d, block_size, repeats = 12, 4, 8
        H = rng.standard_normal((40, d)) * (0.1 / np.sqrt(d))
        G = gramian(H)
        hp = hp_direct(dim=d, solver="block", block_size=block_size,
                       projection_repeats=repeats)
        items = rng.choice(40, size=25, replace=False)
        lam = regularization_weight(items.size, 40, hp.alpha0, hp.nu, hp.lambda_)
        ref = np.zeros(d)
        for _ in range(repeats):
            ref = oracles.block_pass(ref, H[items], G, hp.alpha0, lam, block_size)
        got = project_user(*csr([items]), block_side(H, G, hp.alpha0, block_size), hp)[0]
        assert np.array_equal(got, ref)
        assert sizes == [block_size] * (d // block_size)

    @staticmethod
    def spy_starts(monkeypatch):
        """Record (current, g) of every solve_entity_block call, in order."""
        calls = []
        kernel = ials.solver.solve_entity_block

        def spy(current, partners, side, lam, passes=1, g=None):
            calls.append((np.array(current), None if g is None else np.array(g)))
            return kernel(current, partners, side, lam, passes, g=g)
        monkeypatch.setattr(ials.solver, "solve_entity_block", spy)
        return calls

    def check_half_step(self, rng, monkeypatch, update, n_users):
        """Run a block half-step at d = 32, b = 16 and compare each entity
        with the oracle pass from the start g the half-step handed it."""
        # user degrees 0, 2-3 and 30-60 against b = 16: empty rows,
        # interaction-space (Woodbury) and b x b Cholesky blocks on both sides
        d, b = 32, 16
        users, items = [], []
        for u in range(n_users):
            deg = (0, 2, 3, 30, 45, 60)[u % 6]
            users += [u] * deg
            items += rng.choice(80, size=deg, replace=False).tolist()
        data = InteractionSet.from_pairs(users, items, num_users=n_users, num_items=85)
        model = init_model(n_users, 85, d, seed=5)
        hp = hp_direct(dim=d, solver="block", block_size=b)
        if update is update_users:
            factors, fixed, ptr, partners = (model.user_factors, model.item_factors,
                                             data.user_ptr, data.user_items)
        else:
            factors, fixed, ptr, partners = (model.item_factors, model.user_factors,
                                             data.item_ptr, data.item_users)
        degrees = np.diff(ptr)
        assert (degrees == 0).any() and (degrees >= b).any()
        lams = penalty_weights(data, hp)[update is update_items]
        G, current = gramian(fixed), factors.copy()
        sizes = self.spy_sizes(monkeypatch)
        calls = self.spy_starts(monkeypatch)
        loss_s = half_step(update, model, data, hp)
        assert b in sizes and min(sizes) < b
        assert len(calls) == factors.shape[0]
        want_loss = 0.0
        for e, (got_current, g) in enumerate(calls):
            assert np.array_equal(got_current, current[e]), e
            want_g = hp.alpha0 * (G @ current[e])
            assert np.abs(g - want_g).max() <= 1e-13 * np.abs(want_g).max(), e
            history = fixed[partners[ptr[e]:ptr[e + 1]]]
            n = history.shape[0]
            start = current[e] if n else np.zeros(d)   # with no partners: the minimizer 0
            dense = oracles.block_pass_dense(start, history, G, hp.alpha0, lams[e], b)
            scale = max(np.abs(dense).max(), np.abs(start).max(), 1e-300)
            if n >= b:
                assert np.array_equal(factors[e], oracles.block_pass(
                    start, history, G, hp.alpha0, lams[e], b, g=g)), e
            else:
                assert np.abs(factors[e] - dense).max() <= 1e-10 * scale, e
            r = 1.0 - history @ factors[e]
            want_loss += r @ r
        assert loss_s == want_loss

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("update", [update_users, update_items])
    def test_block_half_step_matches_oracle_passes(self, rng, monkeypatch, update):
        self.check_half_step(rng, monkeypatch, update, n_users=60)

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("update", [update_users, update_items])
    def test_start_chunks_keep_their_rows(self, rng, monkeypatch, update):
        # chunks of 2 rows over 61 users and 85 items: the last chunk is
        # one row, and every other row sits at an offset of 0 or 1
        monkeypatch.setattr(ials.solver, "_START_CHUNK_FLOATS", 2 * 32)
        self.check_half_step(rng, monkeypatch, update, n_users=61)

    @pytest.mark.usefixtures("one_process")
    def test_exact_half_step_passes_no_start(self, rng, monkeypatch):
        data = make_interactions(rng, n_users=8, n_items=6)
        model = init_model(8, 6, 3, seed=1)
        calls = self.spy_starts(monkeypatch)
        half_step(update_users, model, data, hp_direct())
        assert [g for _, g in calls] == [None] * 8

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("route,passes", [("half-step", 1), ("fold-in", 3)])
    def test_cholesky_blocks_assemble_in_solve_entity(self, rng, monkeypatch, route, passes):
        # each b x b block of an entity is assembled and factored by one
        # solve_entity call, on the first pass only; later passes, on
        # either path, reuse the block's factor through solve_factored
        d, b = 64, 32
        degrees = (0, 2, 3, 40, 60) * 2
        item_lists = [rng.choice(80, size=n, replace=False) for n in degrees]
        hp = hp_direct(dim=d, solver="block", block_size=b, projection_repeats=passes)
        model = init_model(len(degrees), 85, d, seed=5)
        calls = []
        for name in ("solve_entity_block", "solve_entity", "solve_factored"):
            def spy(*args, real=getattr(ials.solver, name), name=name, **kw):
                # an entity's solve_entity_block call heads its calls: its n
                calls.append(len(args[1]) if name == "solve_entity_block" else name)
                return real(*args, **kw)
            monkeypatch.setattr(ials.solver, name, spy)
        if route == "half-step":
            data = InteractionSet.from_pairs(np.repeat(np.arange(len(degrees)), degrees),
                                             np.concatenate(item_lists),
                                             num_users=len(degrees), num_items=85)
            half_step(update_users, model, data, hp)
        else:
            H = model.item_factors
            project_user(*csr(item_lists), ials.solver.solver_side(H, gramian(H), hp), hp)
        per_entity = []
        for call in calls:
            if isinstance(call, int):
                per_entity.append((call, []))
            else:
                per_entity[-1][1].append(call)
        assert [n for n, _ in per_entity] == list(degrees)
        paths = set()
        for n, got in per_entity:
            blocks = d // b if n else 0
            woodbury = n > 0 and ials.solver._woodbury_cheaper(n, b, passes)
            paths.add("woodbury" if woodbury else "cholesky" if n else "empty")
            first = [] if woodbury else ["solve_entity"] * blocks
            assert got == first + ["solve_factored"] * blocks * (passes - 1), n
        assert paths == {"empty", "woodbury", "cholesky"}

    @pytest.mark.parametrize("block_size", [2, 3, 5])
    @pytest.mark.parametrize("wrong", ["current", "g"])
    def test_wrong_shape_is_input_error(self, rng, block_size, wrong):
        # block_size 3 and 5 at d = 3: one block, the exact solve
        H = rng.standard_normal((10, 3))
        side = block_side(H, gramian(H), 0.1, block_size)
        vectors = {"current": np.zeros(3), "g": np.zeros(3)}
        vectors[wrong] = np.zeros(4)
        with pytest.raises(InputError, match=f"{wrong} has shape"):
            solve_entity_block(vectors["current"], np.array([0, 1]), side, 0.1,
                               g=vectors["g"])


class TestUpdates:
    def test_normal_equation_residual(self, rng, small_data):
        model = init_model(small_data.num_users, small_data.num_items, 3, seed=1)
        hp = hp_direct()
        half_step(update_users, model, small_data, hp)
        H = model.item_factors
        G = gramian(H)
        for u in range(small_data.num_users):
            rows = H[small_data.items_of(u)]
            lam_u = regularization_weight(rows.shape[0], small_data.num_items,
                                          hp.alpha0, hp.nu, hp.lambda_)
            A = rows.T @ rows + hp.alpha0 * G + lam_u * np.eye(3)
            b = rows.sum(axis=0)
            w = model.user_factors[u]
            assert np.linalg.norm(A @ w - b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_matches_naive_full_loop(self, rng):
        users, items = oracles.random_interactions(rng, 8, 6, min_deg=1)
        data = InteractionSet.from_pairs(users, items, num_users=8, num_items=6)
        model = init_model(8, 6, 3, seed=2)
        hp = hp_direct(nu=1.0)
        half_step(update_users, model, data, hp)
        H = model.item_factors
        for u in range(8):
            lam_u = regularization_weight(data.items_of(u).size, 6,
                                          hp.alpha0, hp.nu, hp.lambda_)
            expected = oracles.normal_equation_solution(
                H[data.items_of(u)], H, hp.alpha0, lam_u)
            assert np.all(np.abs(model.user_factors[u] - expected) <= 1e-8)

    def test_item_update_matches_naive(self, rng):
        users, items = oracles.random_interactions(rng, 8, 6, min_deg=1)
        data = InteractionSet.from_pairs(users, items, num_users=8, num_items=6)
        model = init_model(8, 6, 3, seed=4)
        hp = hp_direct(nu=0.5)
        half_step(update_items, model, data, hp)
        W = model.user_factors
        for i in range(6):
            users_i = data.item_users[data.item_ptr[i]:data.item_ptr[i + 1]]
            lam_i = regularization_weight(users_i.size, 8, hp.alpha0, hp.nu, hp.lambda_)
            expected = oracles.normal_equation_solution(W[users_i], W, hp.alpha0, lam_i)
            assert np.all(np.abs(model.item_factors[i] - expected) <= 1e-8)

    def test_half_steps_never_increase_loss(self, rng):
        data = make_interactions(rng, n_users=9, n_items=7)
        hp = hp_direct(dim=2)
        model = init_model(9, 7, 2, seed=6)
        prev = oracles.losses_from_scratch(model, data, hp).L
        for _ in range(4):
            half_step(update_users, model, data, hp)
            mid = oracles.losses_from_scratch(model, data, hp).L
            assert mid <= prev * (1 + 1e-9)
            half_step(update_items, model, data, hp)
            now = oracles.losses_from_scratch(model, data, hp).L
            assert now <= mid * (1 + 1e-9)
            prev = now

    def test_degenerate_user_gets_zero_vector(self, rng):
        data = InteractionSet.from_pairs([0, 0, 2], [0, 1, 1],
                                         num_users=3, num_items=2)
        model = init_model(3, 2, 2, seed=0)
        half_step(update_users, model, data, hp_direct(dim=2))
        assert np.array_equal(model.user_factors[1], np.zeros(2))

    def test_normalized_mode_trains(self, rng, small_data):
        hp = Hyperparameters(dim=2, alpha0=0.2, lambda_star=0.02, nu=0.0,
                             nu_star=1.0, iterations=2)
        model, reports = train(small_data, hp)
        assert len(reports) == 2
        # equivalent to training directly at the resolved lambda
        hp_resolved = hp.resolve(small_data)
        model2, _ = train(small_data, hp_resolved)
        assert np.array_equal(model.user_factors, model2.user_factors)


class TestExactHalfStepBitwise:
    @pytest.mark.parametrize("dim,nu", [(3, 1.0), (16, 0.5), (64, 0.0)])
    def test_matches_first_per_entity_path(self, rng, dim, nu):
        # 40 items for at most 6 per user: some items have no users
        data = make_interactions(rng, n_users=30, n_items=40, min_deg=1, max_deg=6)
        hp = hp_direct(dim=dim, nu=nu)
        model = init_model(data.num_users, data.num_items, dim, seed=3)
        for update, side in ((update_users, "user"), (update_items, "item")):
            if side == "user":
                factors, fixed = model.user_factors, model.item_factors
                ptr, partners, other = data.user_ptr, data.user_items, data.num_items
            else:
                factors, fixed = model.item_factors, model.user_factors
                ptr, partners, other = data.item_ptr, data.item_users, data.num_users
            lams = regularization_weight(np.diff(ptr), other, hp.alpha0, hp.nu, hp.lambda_)
            expected = oracles.exact_half_step(factors, fixed, ptr, partners, hp.alpha0, lams)
            half_step(update, model, data, hp)
            assert np.array_equal(factors, expected), side


class TestComputeLosses:
    def test_zero_model(self, small_data):
        model = FactorModel(np.zeros((small_data.num_users, 2)),
                            np.zeros((small_data.num_items, 2)))
        r = oracles.losses_from_scratch(model, small_data, hp_direct(dim=2))
        assert r.L_S == small_data.num_pairs
        assert r.L_I == 0.0
        assert r.R == 0.0
        assert r.L == r.L_S

    def test_perfect_fit_single_pair(self):
        data = InteractionSet.from_pairs([0], [0])
        model = FactorModel(np.ones((1, 1)), np.ones((1, 1)))
        for alpha0 in (0.0, 0.25, 1.0):
            hp = Hyperparameters(dim=1, alpha0=alpha0, lambda_=0.0)
            r = oracles.losses_from_scratch(model, data, hp)
            assert r.L_S == pytest.approx(0.0, abs=1e-15)
            assert r.L_I == pytest.approx(alpha0, rel=1e-12)

    def test_gramian_identity_vs_double_loop(self, rng):
        for _ in range(10):
            data = make_interactions(rng, n_users=5, n_items=4)
            model = init_model(5, 4, 2, seed=int(rng.integers(1000)))
            # make scores O(1) so the comparison is not all-roundoff
            model.user_factors *= 10
            alpha0 = float(rng.uniform(0.01, 1.0))
            hp = Hyperparameters(dim=2, alpha0=alpha0, lambda_=0.01)
            r = oracles.losses_from_scratch(model, data, hp)
            expected = oracles.implicit_loss_double_loop(
                model.user_factors, model.item_factors, alpha0)
            assert abs(r.L_I - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_decomposition_and_nonnegativity(self, rng):
        for _ in range(10):
            data = make_interactions(rng, n_users=7, n_items=5)
            model = init_model(7, 5, 3, seed=int(rng.integers(1000)))
            hp = hp_direct(nu=float(rng.choice([0.0, 0.5, 1.0])))
            r = oracles.losses_from_scratch(model, data, hp)
            assert abs(r.L - (r.L_S + r.L_I + r.R)) <= 1e-8 * max(1.0, r.L)
            assert r.L_S >= 0 and r.L_I >= 0 and r.R >= 0

    def test_matches_bruteforce_total(self, rng):
        data = make_interactions(rng, n_users=6, n_items=5)
        model = init_model(6, 5, 2, seed=9)
        hp = hp_direct(dim=2, alpha0=0.3, lambda_=0.05, nu=0.7)
        r = oracles.losses_from_scratch(model, data, hp)
        expected = oracles.full_loss(model.user_factors, model.item_factors,
                                     data, 0.3, 0.7, 0.05)
        assert r.L == pytest.approx(expected, rel=1e-10)


class TestProjectUser:
    def test_reproduces_training_user_exactly(self, rng, small_data):
        hp = hp_direct()
        model = init_model(small_data.num_users, small_data.num_items, 3, seed=3)
        half_step(update_items, model, small_data, hp)
        half_step(update_users, model, small_data, hp)
        H = model.item_factors
        side = block_side(H, gramian(H), hp.alpha0, hp.dim)
        for u in range(small_data.num_users):
            w = project_user(*csr([small_data.items_of(u)]), side, hp)[0]
            assert np.array_equal(w, model.user_factors[u])

    def test_empty_history_zero(self, rng):
        H = rng.standard_normal((5, 3))
        w = project_user(*csr([np.array([], dtype=np.int64)]),
                         block_side(H, gramian(H), 0.1, 3), hp_direct())[0]
        assert np.array_equal(w, np.zeros(3))

    def test_requires_direct_mode(self, rng):
        H = rng.standard_normal((5, 3))
        hp = Hyperparameters(dim=3, alpha0=0.1, lambda_star=0.01)
        with pytest.raises(InputError):
            project_user(*csr([np.array([0, 1])]), block_side(H, gramian(H), 0.1, 3), hp)

    def test_block_projection_close_to_exact(self, rng):
        for _ in range(10):
            H = rng.standard_normal((40, 8)) * (0.1 / np.sqrt(8))
            G = gramian(H)
            items = rng.choice(40, size=10, replace=False)
            exact = project_user(*csr([items]), block_side(H, G, 0.1, 8), hp_direct(dim=8))[0]
            blocked = project_user(*csr([items]), block_side(H, G, 0.1, 3),
                                   hp_direct(dim=8, solver="block", block_size=3,
                                             projection_repeats=8))[0]
            rel = np.linalg.norm(blocked - exact) / max(1e-12, np.linalg.norm(exact))
            assert rel <= 1e-3

    @pytest.mark.parametrize("solver", ["exact", "block"])
    @pytest.mark.parametrize("chunk_floats", [None, 2 * 12])
    def test_many_users_fold_in_as_one_each(self, rng, monkeypatch, solver, chunk_floats):
        # histories of 0, 3 (< b), 7, 12 (>= d) and 20 items at d = 12, b = 5;
        # chunks of 2 rows put users at both offsets of a shared start product
        if chunk_floats is not None:
            monkeypatch.setattr(ials.solver, "_START_CHUNK_FLOATS", chunk_floats)
        d, b = 12, 5
        H = rng.standard_normal((40, d)) * (0.1 / np.sqrt(d))
        hp = hp_direct(dim=d, solver=solver, block_size=b, projection_repeats=4)
        side = ials.solver.solver_side(H, gramian(H), hp)
        assert bool(side.blocks) == (solver == "block")
        item_lists = [rng.choice(40, size=n, replace=False) for n in (0, 3, 7, 12, 20)]
        W = project_user(*csr(item_lists), side, hp)
        assert W.shape == (5, d)
        for items, w in zip(item_lists, W):
            assert np.array_equal(w, project_user(*csr([items]), side, hp)[0])
        assert project_user(*csr([]), side, hp).shape == (0, d)

    def test_block_projection_matches_dense_oracle(self, rng):
        d, block_size, repeats = 10, 4, 8
        H = rng.standard_normal((40, d)) * (0.1 / np.sqrt(d))
        G = gramian(H)
        hp = hp_direct(dim=d, solver="block", block_size=block_size,
                       projection_repeats=repeats)
        for _ in range(5):
            items = rng.choice(40, size=int(rng.integers(1, 15)), replace=False)
            lam = regularization_weight(items.size, 40, hp.alpha0, hp.nu, hp.lambda_)
            ref = np.zeros(d)
            for _ in range(repeats):
                ref = oracles.block_pass_dense(ref, H[items], G, hp.alpha0, lam, block_size)
            got = project_user(*csr([items]), block_side(H, G, hp.alpha0, block_size), hp)[0]
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


class TestForkedEntityLoop:
    """_update_side split across forked workers against one process."""

    D = 8

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # 3-row start chunks: 41 users and 30 items span 14 and 10 chunks,
        # so 2 or 3 processes take unequal shares and the last chunk is short;
        # a work floor of one multiply-add lets these small calls fork
        monkeypatch.setattr(ials.solver, "_START_CHUNK_FLOATS", 3 * self.D)
        monkeypatch.setattr(ials.solver, "_FORK_WORK", 1.0)

    @staticmethod
    def data(rng):
        degrees = [(0, 1, 2, 5, 9, 14)[u % 6] for u in range(41)]
        items = np.concatenate([rng.choice(30, n, replace=False) for n in degrees])
        return InteractionSet.from_pairs(np.repeat(np.arange(41), degrees), items,
                                         num_users=41, num_items=30)

    @staticmethod
    def on_cpus(monkeypatch, cpus):
        monkeypatch.setattr(ials.solver, "_cpus", lambda: cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("solver", ["exact", "block"])
    @pytest.mark.parametrize("update", [update_users, update_items])
    def test_half_step_is_byte_identical(self, rng, monkeypatch, forks, cpus, solver,
                                         update):
        data = self.data(rng)
        hp = hp_direct(dim=self.D, solver=solver, block_size=3)
        runs = []
        for procs in (1, cpus):
            self.on_cpus(monkeypatch, procs)
            model = init_model(41, 30, self.D, seed=3)
            loss_s = half_step(update, model, data, hp)
            runs.append((model.user_factors.tobytes(), model.item_factors.tobytes(), loss_s))
        assert runs[0] == runs[1]
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("solver", ["exact", "block"])
    def test_fold_in_is_byte_identical(self, rng, monkeypatch, forks, cpus, solver):
        H = rng.standard_normal((30, self.D)) * 0.1
        hp = hp_direct(dim=self.D, solver=solver, block_size=3, projection_repeats=4)
        side = ials.solver.solver_side(H, gramian(H), hp)
        item_lists = [rng.choice(30, n, replace=False) for n in (0, 1, 2, 5, 9, 14) * 3]
        folded = []
        for procs in (1, cpus):
            self.on_cpus(monkeypatch, procs)
            folded.append(project_user(*csr(item_lists), side, hp).tobytes())
        assert folded[0] == folded[1]
        assert len(forks) == cpus - 1

    def test_train_is_byte_identical_and_reports_workers(self, rng, monkeypatch):
        data = self.data(rng)
        hp = hp_direct(dim=self.D, solver="block", block_size=3, iterations=2)
        runs = []
        for cpus in (1, 3):
            self.on_cpus(monkeypatch, cpus)
            workers = []
            model, reports = train(data, hp, observer=lambda t, report, metrics, phases:
                                   workers.append(phases["workers"]))
            assert workers == [cpus, cpus]
            runs.append((model.user_factors.tobytes(), model.item_factors.tobytes(), reports))
        assert runs[0] == runs[1]

    def half_step_on_three(self, rng, monkeypatch, in_worker, here=None):
        """A block user half-step on 3 processes; the workers run
        in_worker(kernel, *args) and this process here(kernel, *args) in
        place of each kernel call."""
        parent, kernel = os.getpid(), ials.solver.solve_entity_block

        def spy(*args, **kw):
            if os.getpid() != parent:
                return in_worker(kernel, *args, **kw)
            return here(kernel, *args, **kw) if here else kernel(*args, **kw)
        monkeypatch.setattr(ials.solver, "solve_entity_block", spy)
        self.on_cpus(monkeypatch, 3)
        model = init_model(41, 30, self.D, seed=3)
        half_step(update_users, model, self.data(rng),
                  hp_direct(dim=self.D, solver="block", block_size=3))

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("kind", ["local class", "unpicklable attribute",
                                      "needs two arguments"])
    def test_worker_error_that_does_not_pickle_keeps_its_message(self, rng, monkeypatch,
                                                                  kind):
        class Local(Exception):
            pass

        def fail(kernel, *args, **kw):
            if kind == "local class":
                raise Local("lost in a worker")
            if kind == "needs two arguments":
                raise TwoArguments("lost in", "a worker")
            error = ValueError("lost in a worker")
            error.lock = threading.Lock()
            raise error

        name = {"local class": "Local", "unpicklable attribute": "ValueError",
                "needs two arguments": "TwoArguments"}[kind]
        with pytest.raises(IalsError, match=f"^{name}: lost in a worker$"):
            self.half_step_on_three(rng, monkeypatch, fail)
        self.assert_no_child_left()

    @pytest.mark.parametrize("error", [NotPositiveDefinite, InputError, IalsError])
    def test_worker_error_is_raised_here(self, rng, monkeypatch, error):
        def fail(kernel, *args, **kw):
            raise error(f"{error.__name__} in a worker")

        with pytest.raises(error, match=f"^{error.__name__} in a worker$") as raised:
            self.half_step_on_three(rng, monkeypatch, fail)
        assert type(raised.value) is error
        self.assert_no_child_left()

    def test_worker_killed_by_a_signal(self, rng, monkeypatch):
        def die(kernel, *args, **kw):
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(IalsError, match="ended with status -9"):
            self.half_step_on_three(rng, monkeypatch, die)
        self.assert_no_child_left()

    def test_failure_here_kills_the_workers(self, rng, monkeypatch):
        def stall(kernel, *args, **kw):
            time.sleep(60)

        def fail(kernel, *args, **kw):
            raise NotPositiveDefinite("in the parent")

        started = time.monotonic()
        with pytest.raises(NotPositiveDefinite, match="in the parent"):
            self.half_step_on_three(rng, monkeypatch, stall, fail)
        assert time.monotonic() - started < 30
        self.assert_no_child_left()

    def test_non_finite_row_of_a_worker_is_caught(self, rng, monkeypatch):
        def overflow(kernel, *args, **kw):
            x, r = kernel(*args, **kw)
            return np.full_like(x, np.inf), r

        # the workers' shares: chunks 1, 4, 7, 10, 13 (14 rows), 2, 5, 8, 11 (12 rows)
        with pytest.raises(IalsError, match=f"^user half-step produced {26 * self.D} "):
            self.half_step_on_three(rng, monkeypatch, overflow)
        self.assert_no_child_left()

    @pytest.mark.parametrize("missing", ["a second CPU", "os.fork"])
    def test_serial_without(self, rng, monkeypatch, missing):
        if missing == "os.fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        assert ials.solver._cpus() == 1
        model = init_model(41, 30, self.D, seed=3)
        half_step(update_users, model, self.data(rng), hp_direct(dim=self.D))


class TestWorkPlan:
    """_plan's cut and process count at the real start chunks (4096 rows at
    d = 8): work-cut chunks where the cut cannot change a bit, no fork below
    the work floor."""

    D = 8

    @staticmethod
    def run_on(monkeypatch, cpus, run):
        monkeypatch.setattr(ials.solver, "_cpus", lambda: cpus)
        return run()

    @pytest.fixture
    def no_floor(self, monkeypatch):
        monkeypatch.setattr(ials.solver, "_FORK_WORK", 1.0)

    def fold_in(self, rng, solver):
        H = rng.standard_normal((30, self.D)) * 0.1
        hp = hp_direct(dim=self.D, solver=solver, block_size=3, projection_repeats=4)
        side = ials.solver.solver_side(H, gramian(H), hp)
        item_lists = [rng.choice(30, n, replace=False) for n in (0, 1, 2, 5, 9, 14) * 3]
        return lambda: project_user(*csr(item_lists), side, hp).tobytes()

    def user_half_step(self, rng, solver, sigma_star=0.1):
        data = TestForkedEntityLoop.data(rng)
        hp = hp_direct(dim=self.D, solver=solver, block_size=3)

        def run():
            model = init_model(41, 30, self.D, sigma_star=sigma_star, seed=3)
            loss_s = half_step(update_users, model, data, hp)
            return model.user_factors.tobytes(), loss_s
        return run

    @pytest.mark.usefixtures("no_floor")
    @pytest.mark.parametrize("solver", ["exact", "block"])
    def test_fold_in_below_one_start_chunk_forks(self, rng, monkeypatch, forks, solver):
        run = self.fold_in(rng, solver)
        assert self.run_on(monkeypatch, 1, run) == self.run_on(monkeypatch, 2, run)
        assert len(forks) == 1

    @pytest.mark.usefixtures("no_floor")
    def test_exact_half_step_in_one_start_chunk_is_split(self, rng, monkeypatch, forks):
        run = self.user_half_step(rng, "exact")
        assert self.run_on(monkeypatch, 1, run) == self.run_on(monkeypatch, 2, run)
        assert len(forks) == 1

    @pytest.mark.usefixtures("no_floor")
    def test_block_half_step_from_zero_start_is_split(self, rng, monkeypatch, forks):
        run = self.user_half_step(rng, "block", sigma_star=0.0)
        assert self.run_on(monkeypatch, 1, run) == self.run_on(monkeypatch, 2, run)
        assert len(forks) == 1

    @pytest.mark.usefixtures("no_floor")
    def test_block_half_step_keeps_one_start_chunk_on_one_process(self, rng, monkeypatch,
                                                                  forks):
        self.run_on(monkeypatch, 2, self.user_half_step(rng, "block"))
        assert forks == []

    @pytest.mark.parametrize("solver", ["exact", "block"])
    @pytest.mark.parametrize("call", ["fold-in", "half-step"])
    def test_no_fork_below_the_work_floor(self, rng, monkeypatch, forks, solver, call):
        run = self.fold_in(rng, solver) if call == "fold-in" else self.user_half_step(rng, solver)
        self.run_on(monkeypatch, 2, run)
        assert forks == []

    @pytest.mark.usefixtures("no_floor")
    def test_work_cut_chunks_are_even(self, monkeypatch):
        # 8 chunks per process: 160 rows of equal work in 16 chunks of 10,
        # and a first row heavier than a chunk's share alone in its chunk
        monkeypatch.setattr(ials.solver, "_cpus", lambda: 2)
        factors = np.zeros((160, self.D))
        chunks, procs = ials.solver._plan(factors, np.arange(161) * 5, 3, 4)
        assert procs == 2
        assert chunks == [(first, first + 10) for first in range(0, 160, 10)]
        ptr = np.concatenate([[0], 1_000_000 + np.arange(160) * 5])
        chunks, _ = ials.solver._plan(factors, ptr, 3, 4)
        assert chunks[0] == (0, 1) and chunks[-1][1] == 160
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))

    @pytest.mark.usefixtures("no_floor")
    def test_heavy_last_row_takes_no_empty_chunk(self, monkeypatch):
        # rows 0-2 hold less than one share of the work, so every cut past
        # the first falls after the last row: none makes a chunk or a process
        monkeypatch.setattr(ials.solver, "_cpus", lambda: 2)
        plan = ials.solver._plan(np.zeros((4, 8)), np.array([0, 1, 2, 3, 10 ** 6]), 8, 1)
        assert plan == ([(0, 4)], 1)

    @pytest.mark.usefixtures("no_floor")
    @pytest.mark.parametrize("solver", ["exact", "block"])
    def test_one_row_forks_no_worker(self, rng, monkeypatch, forks, solver):
        # a one-user fold-in: its row holds all the work, one chunk
        H = rng.standard_normal((30, self.D)) * 0.1
        hp = hp_direct(dim=self.D, solver=solver, block_size=3, projection_repeats=4)
        side = ials.solver.solver_side(H, gramian(H), hp)
        items = csr([rng.choice(30, 9, replace=False)])
        runs = [self.run_on(monkeypatch, cpus, lambda: project_user(*items, side, hp).tobytes())
                for cpus in (1, 2)]
        assert runs[0] == runs[1]
        assert forks == []

    @settings(max_examples=300, deadline=None)
    @given(degrees=st.lists(st.integers(0, 50), max_size=300), d=st.integers(1, 40),
           width=st.integers(1, 50), passes=st.integers(1, 8), cpus=st.integers(1, 4),
           nonzero=st.booleans(), fork_work=st.sampled_from([1.0, 1e6, 2e8]),
           cell_floats=st.one_of(st.integers(1, 256), st.just(2 ** 15)))
    def test_plan_tiles_the_rows(self, degrees, d, width, passes, cpus, nonzero, fork_work,
                                 cell_floats):
        n = len(degrees)
        factors = np.zeros((n, d))
        if nonzero and n:
            factors[-1, -1] = 1.0
        ptr = np.cumsum([7, *degrees])   # a CSR slice need not start at 0
        with mock.patch.multiple(ials.solver, _cpus=lambda: cpus, _FORK_WORK=fork_work,
                                 _START_CHUNK_FLOATS=cell_floats):
            chunks, procs = ials.solver._plan(factors, ptr, width, passes)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert n == 0 or all(first < stop for first, stop in chunks)
        assert 1 <= procs <= min(cpus, len(chunks))
        if width < d and n:   # a block side: its start products stay within a cell
            step = max(1, cell_floats // d)
            assert all(first // step == (stop - 1) // step for first, stop in chunks)
            if nonzero:
                assert chunks == [(a, min(a + step, n)) for a in range(0, n, step)]

    def test_solver_side_cuts_blocks_of_the_solver_width(self):
        # block_size under the block solver; one block of d (no blocks) otherwise
        H = np.random.default_rng(0).standard_normal((20, 6))
        for solver, block_size, widths in (("exact", 2, []), ("block", 2, [2, 2, 2]),
                                           ("block", 4, [4, 2]), ("block", 8, [])):
            hp = hp_direct(dim=6, solver=solver, block_size=block_size)
            side = ials.solver.solver_side(H, gramian(H), hp)
            assert [B.stop - B.start for B, *_ in side.blocks] == widths

    @pytest.mark.parametrize("floor", [1.0, None])
    def test_workers_are_the_processes_of_the_larger_half_step(self, rng, monkeypatch,
                                                               forks, floor):
        if floor is not None:
            monkeypatch.setattr(ials.solver, "_FORK_WORK", floor)
        monkeypatch.setattr(ials.solver, "_cpus", lambda: 3)
        forked = []   # forks made by each half-step
        for name in ("update_users", "update_items"):
            def counted(*args, update=getattr(ials.solver, name), **kw):
                before = len(forks)
                loss_s = update(*args, **kw)
                forked.append(len(forks) - before)
                return loss_s
            monkeypatch.setattr(ials.solver, name, counted)
        workers = []
        train(TestForkedEntityLoop.data(rng), hp_direct(dim=self.D, iterations=2),
              observer=lambda t, report, metrics, phases: workers.append(phases["workers"]))
        assert workers == [max(forked[0:2]) + 1, max(forked[2:4]) + 1]
        assert workers == ([3, 3] if floor else [1, 1])


class TestNonFiniteGuard:
    def test_nan_in_fixed_side_raises(self, small_data):
        model = init_model(small_data.num_users, small_data.num_items, 3, seed=1)
        model.item_factors[0, 0] = np.nan
        with pytest.raises(IalsError, match="user half-step") as exc:
            half_step(update_users, model, small_data, hp_direct())
        bad = int((~np.isfinite(model.user_factors)).sum())
        assert bad > 0
        assert f"{bad} non-finite" in str(exc.value)

    def test_item_side_named(self, small_data):
        model = init_model(small_data.num_users, small_data.num_items, 3, seed=1)
        model.user_factors[0, 0] = np.inf
        with pytest.raises(IalsError, match="item half-step"):
            half_step(update_items, model, small_data, hp_direct())

    @pytest.mark.parametrize("solver", ["exact", "block"])
    def test_fold_in_named(self, rng, monkeypatch, solver):
        kernel = ials.solver.solve_entity_block

        def overflow(current, partners, side, lam, passes=1, g=None):
            x, r = kernel(current, partners, side, lam, passes, g=g)
            return x if partners.size != 3 else np.full_like(x, np.inf), r

        monkeypatch.setattr(ials.solver, "solve_entity_block", overflow)
        H = rng.standard_normal((10, 4))
        hp = hp_direct(dim=4, solver=solver, block_size=2)
        side = ials.solver.solver_side(H, gramian(H), hp)
        with pytest.raises(IalsError, match="^fold-in produced 4 non-finite"):
            project_user(*csr([np.array([0, 1]), np.array([2, 3, 4])]), side, hp)


@pytest.mark.usefixtures("one_process")
class TestBlasPinning:
    def test_update_users_pins_and_restores(self, small_data, monkeypatch):
        controls = ials.linalg._openblas_thread_controls()
        before = [get() for get, _ in controls]
        during = []
        solve = ials.solver.solve_entity

        def spy(*args):
            during.append([get() for get, _ in controls])
            return solve(*args)

        monkeypatch.setattr(ials.solver, "solve_entity", spy)
        model = init_model(small_data.num_users, small_data.num_items, 3, seed=1)
        half_step(update_users, model, small_data, hp_direct())
        assert len(during) == small_data.num_users
        assert all(counts == [1] * len(controls) for counts in during)
        assert [get() for get, _ in controls] == before

    @pytest.mark.parametrize("solver", ["exact", "block"])
    def test_fold_in_pins_once_per_call(self, rng, monkeypatch, solver):
        controls = ials.linalg._openblas_thread_controls()
        pins, during = [], []
        pin = ials.solver.blas_threads
        kernel = ials.solver.solve_entity_block

        def spy_pin(n):
            pins.append(n)
            return pin(n)

        def spy_kernel(*args, **kw):
            during.append([get() for get, _ in controls])
            return kernel(*args, **kw)

        H = rng.standard_normal((10, 4))
        hp = hp_direct(dim=4, solver=solver, block_size=2)
        side = ials.solver.solver_side(H, gramian(H), hp)   # pins for its eighs
        monkeypatch.setattr(ials.solver, "blas_threads", spy_pin)
        monkeypatch.setattr(ials.solver, "solve_entity_block", spy_kernel)
        project_user(*csr([np.array([0, 1]), np.array([2, 3, 4]), np.array([5])]), side, hp)
        assert pins == [1]
        assert during == [[1] * len(controls)] * 3

    def test_block_side_runs_every_eigh_on_one_thread(self, rng, monkeypatch):
        controls = ials.linalg._openblas_thread_controls()
        pins, during = [], []
        pin, eigh = ials.solver.blas_threads, np.linalg.eigh

        def spy_pin(n):
            pins.append(n)
            return pin(n)

        def spy_eigh(a):
            during.append([get() for get, _ in controls])
            return eigh(a)

        monkeypatch.setattr(ials.solver, "blas_threads", spy_pin)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        H = rng.standard_normal((30, 10))
        with ials.linalg.blas_threads(2):   # counts that the pin must restore
            outside = [get() for get, _ in controls]
            for block_size, blocks in ((4, 3), (3, 4), (10, 0)):   # 10: exact, no eigh
                pins.clear()
                during.clear()
                side = block_side(H, gramian(H), 0.1, block_size)
                assert len(side.blocks) == blocks
                assert pins == ([1] if blocks else [])
                assert during == [[1] * len(controls)] * blocks
                assert [get() for get, _ in controls] == outside


class TestTrain:
    def test_zero_iterations_returns_init(self, small_data):
        hp = hp_direct(iterations=0, seed=5)
        model, reports = train(small_data, hp)
        fresh = init_model(small_data.num_users, small_data.num_items, 3,
                           sigma_star=hp.sigma_star, seed=5)
        assert reports == []
        assert np.array_equal(model.user_factors, fresh.user_factors)
        assert np.array_equal(model.item_factors, fresh.item_factors)

    def test_loss_non_increasing_over_iterations(self, rng):
        data = make_interactions(rng, n_users=10, n_items=8)
        _, reports = train(data, hp_direct(iterations=5))
        ls = [r.L for r in reports]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(ls, ls[1:]))
        assert [r.iteration for r in reports] == [1, 2, 3, 4, 5]

    def test_observer_contract(self, small_data):
        seen = []

        def observer(iteration, report, metrics, phases):
            seen.append((iteration, report.L, metrics, phases))

        _, reports = train(small_data, hp_direct(iterations=3), observer=observer)
        assert [s[0] for s in seen] == [1, 2, 3]
        assert [s[1] for s in seen] == [r.L for r in reports]
        assert all(s[2] is None for s in seen)
        for *_, phases in seen:
            assert set(phases) == {"t_users", "t_items", "t_loss", "t_eval", "workers"}
            assert all(phases[k] >= 0.0 for k in ("t_users", "t_items", "t_loss", "t_eval"))
            assert phases["workers"] == 1   # 8 users and 6 items: below the work floor

    def test_eval_fn_passed_to_observer(self, small_data):
        calls = []

        def eval_fn(model, side):
            return {"marker": model.user_factors.sum()}

        def observer(iteration, report, metrics, phases):
            calls.append(metrics)

        train(small_data, hp_direct(iterations=2), observer=observer, eval_fn=eval_fn)
        assert len(calls) == 2
        assert all("marker" in c for c in calls)

    def test_deterministic(self, rng):
        data = make_interactions(rng, n_users=10, n_items=8)
        hp = hp_direct(iterations=3, seed=8)
        a, _ = train(data, hp)
        b, _ = train(data, hp)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)

    def test_block_solver_trains_and_converges_near_exact(self, rng):
        data = make_interactions(rng, n_users=10, n_items=8, min_deg=2)
        exact_hp = hp_direct(dim=4, iterations=8, seed=2)
        block_hp = hp_direct(dim=4, iterations=8, seed=2, solver="block", block_size=2)
        exact_model, exact_reports = train(data, exact_hp)
        block_model, block_reports = train(data, block_hp)
        # same objective, so final losses should be close even though the
        # block path only makes one pass per half-step
        assert block_reports[-1].L == pytest.approx(exact_reports[-1].L, rel=0.05)

    @pytest.mark.parametrize("block_size", [6, 9])
    def test_one_block_trains_as_exact(self, rng, block_size):
        # exact iALS is the one-block case of the block kernel, bit for bit
        users, items = oracles.random_interactions(rng, 30, 20, min_deg=1, max_deg=8)
        data = InteractionSet.from_pairs(users, items, num_users=34, num_items=24)
        exact_hp = hp_direct(dim=6, nu=0.5, iterations=3)
        block_hp = dataclasses.replace(exact_hp, solver="block", block_size=block_size)
        exact_model, exact_reports = train(data, exact_hp)
        block_model, block_reports = train(data, block_hp)
        assert block_model.user_factors.tobytes() == exact_model.user_factors.tobytes()
        assert block_model.item_factors.tobytes() == exact_model.item_factors.tobytes()
        assert block_reports == exact_reports


class TestFreeLoss:
    """train sums its reports from the half-steps in compute_losses;
    oracles.losses_from_scratch is the reference."""

    @pytest.mark.parametrize("solver", ["exact", "block"])
    @pytest.mark.parametrize("reg", [
        dict(alpha0=0.1, lambda_=0.01, nu=0.5),
        dict(alpha0=0.1, lambda_star=0.02, nu=0.25, nu_star=1.0),   # normalized, nu != nu*
        dict(alpha0=0.0, lambda_=0.05),   # empty rows get lambda_e = 0
    ], ids=["direct", "normalized", "alpha0-zero"])
    def test_reports_match_compute_losses(self, rng, monkeypatch, solver, reg):
        # users 30.. and items 20.. have no pairs
        users, items = oracles.random_interactions(rng, 30, 20, min_deg=1, max_deg=8)
        data = InteractionSet.from_pairs(users, items, num_users=34, num_items=24)
        hp = Hyperparameters(dim=6, iterations=3, seed=1, solver=solver, block_size=4, **reg)
        # the traced loss layer times ials.solver.compute_losses by name
        report = ials.solver.compute_losses
        spied = []

        def spy(*args):
            spied.append(args[1])
            return report(*args)

        monkeypatch.setattr(ials.solver, "compute_losses", spy)
        expected = []

        def eval_fn(model, side):
            expected.append(oracles.losses_from_scratch(model, data, hp,
                                                        iteration=len(expected) + 1))

        _, reports = train(data, hp, eval_fn=eval_fn)
        assert len(reports) == len(expected) == 3
        assert spied == [r.L_S for r in reports]
        for got, ref in zip(reports, expected):
            assert got.iteration == ref.iteration
            assert got.L_I == ref.L_I and got.R == ref.R
            assert abs(got.L_S - ref.L_S) <= 1e-12 * ref.L_S
            assert got.L == got.L_S + got.L_I + got.R

    @pytest.mark.parametrize("solver", ["exact", "block"])
    @pytest.mark.parametrize("update", [update_users, update_items])
    def test_half_step_loss_matches_compute_losses(self, small_data, update, solver):
        model = init_model(small_data.num_users, small_data.num_items, 3, seed=2)
        hp = hp_direct(solver=solver, block_size=2)
        loss_s = half_step(update, model, small_data, hp)
        ref = oracles.losses_from_scratch(model, small_data, hp)
        assert abs(loss_s - ref.L_S) <= 1e-12 * ref.L_S

    def test_train_heap_peak_is_bounded(self):
        # 20,000 pairs at d=256: a loss pass over S in 16384-pair chunks would
        # gather two 32 MiB blocks, while a half-step holds one entity's rows
        rng = np.random.default_rng(0)
        n_users, n_items, per_user = 200, 250, 100
        items = np.concatenate([rng.choice(n_items, per_user, replace=False)
                                for _ in range(n_users)])
        users = np.repeat(np.arange(n_users), per_user)
        data = InteractionSet.from_pairs(users, items, num_users=n_users, num_items=n_items)
        hp = Hyperparameters(dim=256, alpha0=0.1, lambda_=0.01, iterations=1)
        tracemalloc.start()
        try:
            train(data, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
