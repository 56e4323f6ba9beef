import zlib

import numpy as np
import pytest
from oracles import ComposedPrior, joint_logprob, joint_logprob_incremental

from mvgen import prior as pr
from mvgen.numerics import (ContractError, NumericError, OptimizerConfig, Parameter,
                            l2_normalize, no_grad, tensor)
from mvgen.tokenizer import PAPER_SCHEDULE, ScaleSchedule, TokenPyramid


def make_model(schedule=(1, 2, 3), vocab=16, n_labels=3, depth=2, width=32,
               heads=2, code_dim=4, seed=1, p_drop=0.1, dtype="float64"):
    cfg = pr.PriorConfig(depth=depth, width=width, heads=heads, vocab_size=vocab,
                         schedule=schedule, n_labels=n_labels, code_dim=code_dim,
                         cond_dropout_p=p_drop, dtype=dtype)
    table = np.random.default_rng(seed).normal(size=(vocab, code_dim))
    return pr.PriorModel.create(cfg, table, seed=seed)


def random_pyramid(model, seed=0):
    rng = np.random.default_rng(seed)
    return TokenPyramid(tuple(rng.integers(0, model.config.vocab_size, size=(n, n))
                              for n in model.schedule.sizes))


def nonzero_head(model, seed=0):
    rng = np.random.default_rng(seed)
    for name in ("head.w", "head.b"):
        param = model.params[name]
        param.values = rng.normal(0, 0.05, size=param.shape).astype(param.values.dtype)
    return model


def perturbed(model, seed=0):
    """Every weight moved off its initial value, so AdaLN's gates, which start
    at zero, pass each block's attention and FFN through to the logits."""
    rng = np.random.default_rng(seed)
    for param in model.params.values():
        param.values = (param.values + rng.normal(0, 0.05, size=param.values.shape)
                        ).astype(param.values.dtype)
    return model


def composed(model):
    """A copy of the model's weights in the prior written in composed ops."""
    params = {name: Parameter(p.values.copy()) for name, p in model.params.items()}
    return ComposedPrior(model.config, params, model.code_table)


class TestBuildMask:
    def test_schedule_1_2_pair_count(self):
        allow = pr.build_mask(ScaleSchedule((1, 2)))
        assert allow.shape[0] == 5
        assert int(allow.sum()) == 21  # 1 + 4*5

    def test_single_scale_all_true(self):
        allow = pr.build_mask(ScaleSchedule((1,)))
        assert allow.shape == (1, 1) and allow.all()

    def test_reflexive_and_transitive(self):
        allow = pr.build_mask(ScaleSchedule((1, 2, 3)))
        assert np.diagonal(allow).all()
        n = allow.shape[0]
        for i in range(n):
            for j in range(n):
                if allow[i, j]:
                    # anything j can see, i can also see
                    assert (allow[j] <= allow[i]).all()


class TestQkNormalize:
    """Attention normalizes queries and keys with `numerics.l2_normalize`."""

    def test_three_four_five(self):
        q = l2_normalize(np.array([3.0, 4.0])).values
        assert np.allclose(q, [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        v = np.array([0.0, 1.0])
        q, k = l2_normalize(v).values, l2_normalize(v).values
        assert np.allclose(q, v) and np.allclose(k, v)

    def test_zero_vector_stays_zero(self):
        q = l2_normalize(np.zeros(3)).values
        assert np.all(q == 0.0)

    def test_dot_products_bounded(self):
        rng = np.random.default_rng(0)
        q = l2_normalize(rng.normal(size=(10, 8))).values
        k = l2_normalize(rng.normal(size=(10, 8))).values
        dots = q @ k.T
        assert np.all(np.abs(dots) <= 1.0 + 1e-12)


class TestEmbedInputs:
    def test_empty_prefix_position_count(self):
        model = make_model()
        seq = model.embed_inputs([], np.array([0, 1]))
        assert seq.shape == (2, 1, 32)

    def test_prefix_position_arithmetic(self):
        model = make_model()
        rng = np.random.default_rng(1)
        prefix = [rng.integers(0, 16, size=(2, 1, 1)), rng.integers(0, 16, size=(2, 2, 2))]
        seq = model.embed_inputs(prefix, np.array([0, 1]))
        assert seq.shape == (2, 1 + 4 + 9, 32)

    def test_condition_changes_first_scale_input(self):
        model = make_model()
        a = model.embed_inputs([], np.array([0])).values
        b = model.embed_inputs([], np.array([1])).values
        assert not np.allclose(a, b)

    def test_every_coarser_grid_feeds_later_scale_inputs(self):
        # scale k's input accumulates all coarser scales' codes, not only
        # scale k-1's: a residual code alone says little of the image so far
        model = make_model(schedule=(1, 2, 3, 4))
        prefix = [g[None] for g in random_pyramid(model, seed=3).grids[:-1]]
        last = model.schedule.position_slices()[-1]
        base = model.embed_inputs(prefix, np.array([0])).values[:, last]
        for j in range(len(prefix)):
            changed = [g.copy() for g in prefix]
            changed[j][0, 0, 0] = (changed[j][0, 0, 0] + 5) % 16
            new = model.embed_inputs(changed, np.array([0])).values[:, last]
            assert not np.allclose(base, new), f"scale {j} does not reach the last scale"

    def test_out_of_range_condition_rejected(self):
        model = make_model(n_labels=3)
        with pytest.raises(ContractError):
            model.embed_inputs([], np.array([5]))

    def test_null_condition_accepted(self):
        model = make_model(n_labels=3)
        seq = model.embed_inputs([], np.array([3]))  # null slot
        assert seq.shape[1] == 1


class TestForward:
    def test_untrained_loss_is_ln_v(self):
        model = make_model(vocab=16)
        rng = np.random.default_rng(2)
        grids = [rng.integers(0, 16, size=(4, n, n)) for n in (1, 2, 3)]
        loss = pr.batch_loss(model, grids, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(16.0), rel=1e-12)

    def test_logit_rows_normalize(self):
        model = nonzero_head(make_model())
        grids = [g[None] for g in random_pyramid(model).grids]
        logits = model.forward_batch(grids, [1]).values[0]
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_perturbing_last_grid_never_changes_logits(self):
        model = nonzero_head(make_model())
        grids = [g[None] for g in random_pyramid(model).grids]
        base = model.forward_batch(grids, [0]).values
        changed = grids[:-1] + [(grids[-1] + 3) % 16]
        new = model.forward_batch(changed, [0]).values
        assert np.array_equal(base, new)  # final grid is target-only

    def test_causality_bit_exact(self):
        model = perturbed(make_model())  # open gates: attention reaches the logits
        grids = [g[None] for g in random_pyramid(model, seed=5).grids]
        base = model.forward_batch(grids, [1]).values[0]
        slices = model.schedule.position_slices()
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 3))  # perturb grids at scale index k (0-based)
            changed = [g.copy() for g in grids]
            n = changed[k].shape[-1]
            changed[k][0, rng.integers(0, n), rng.integers(0, n)] = rng.integers(0, 16)
            new = model.forward_batch(changed, [1]).values[0]
            upto = slices[k].stop
            assert np.array_equal(base[:upto], new[:upto])

    def test_earlier_grid_changes_later_logits(self):
        model = nonzero_head(make_model())
        grids = [g[None] for g in random_pyramid(model, seed=6).grids]
        base = model.forward_batch(grids, [1]).values[0]
        changed = [g.copy() for g in grids]
        changed[0][0, 0, 0] = (changed[0][0, 0, 0] + 7) % 16
        new = model.forward_batch(changed, [1]).values[0]
        assert not np.array_equal(base[1:], new[1:])


class TestJointLogprob:
    def test_single_scale_single_token(self):
        model = nonzero_head(make_model(schedule=(1,), vocab=8))
        pyr = TokenPyramid((np.array([[3]]),))
        logits = model.forward_batch([g[None] for g in pyr.grids], [0]).values[0, 0]
        expected = logits[3] - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
        assert joint_logprob(pyr, 0, model) == pytest.approx(expected, rel=1e-12)

    def test_factorization_identity(self):
        model = nonzero_head(make_model())
        for seed in range(5):
            pyr = random_pyramid(model, seed=seed)
            full = joint_logprob(pyr, seed % 3, model)
            inc = joint_logprob_incremental(pyr, seed % 3, model)
            assert abs(full - inc) <= 1e-9 * max(abs(full), 1.0)

    def test_per_scale_conditionals_are_probabilities(self):
        model = nonzero_head(make_model())
        pyr = random_pyramid(model, seed=9)
        for k in range(3):
            logits = model.next_scale_logits(list(pyr.grids[:k]), 0)
            logp = logits - logits.max(axis=-1, keepdims=True)
            logp = logp - np.log(np.exp(logp).sum(axis=-1, keepdims=True))
            flat = pyr.grids[k].reshape(-1)
            picked = logp[np.arange(flat.size), flat]
            assert np.all(np.exp(picked) <= 1.0 + 1e-12)


class TestScaleCache:
    @pytest.mark.parametrize("schedule", [(1, 2), (1, 2, 3), (1, 2, 3, 4), PAPER_SCHEDULE.sizes])
    def test_cached_logits_equal_uncached_exactly(self, schedule):
        """A walk's logits against fresh whole-prefix passes at every scale,
        for a label and the null condition, in float32 and float64. At
        initialisation the AdaLN gates are zero and the bits are equal. With
        every weight perturbed the gates pass attention through, so the walk's
        kept modulations, key/value arrays and skipped mask blocks reach the
        logits; each product of a pass then runs another number of rows than
        the whole-prefix pass's, so the two agree to rounding."""
        for dtype, atol in (("float32", 1e-6), ("float64", 1e-14)):
            for weights in (nonzero_head, perturbed):
                model = weights(make_model(schedule=schedule, depth=2, width=16, dtype=dtype))
                pyr = random_pyramid(model, seed=len(schedule))
                for c in (1, model.config.null_index):
                    cache = pr.ScaleCache(c)
                    for k in range(len(schedule)):
                        prefix = list(pyr.grids[:k])
                        uncached = model.next_scale_logits(prefix, c)
                        cached = model.next_scale_logits(prefix, c, cache)
                        assert cached.dtype == dtype
                        if weights is nonzero_head:
                            assert cached.tobytes() == uncached.tobytes()
                        np.testing.assert_allclose(cached, uncached, rtol=0, atol=atol)
                    assert cache.scales_done == len(schedule)

    def test_prefix_length_other_than_scales_held_rejected(self):
        model = make_model()
        pyr = random_pyramid(model)
        cache = pr.ScaleCache(0)
        with pytest.raises(ContractError):
            model.next_scale_logits(list(pyr.grids[:1]), 0, cache)
        model.next_scale_logits([], 0, cache)
        with pytest.raises(ContractError):
            model.next_scale_logits([], 0, cache)

    @pytest.mark.parametrize("grid", [np.zeros((3, 3), dtype=np.int64), np.array([[-1]]),
                                      np.array([[64]])],
                             ids=["off_schedule", "negative_code", "code_past_vocabulary"])
    def test_prefix_grid_off_the_rule_rejected(self, grid):
        model = make_model(schedule=(1, 2, 3, 4), vocab=64)
        with pytest.raises(ContractError, match="grid 0"):
            model.next_scale_logits([grid], 0)

    def test_inputs_built_from_other_grids_rejected(self):
        """Two caches may share one CodeInputs only while they walk the same
        grids; the second cache is told when its prefix is not the one the
        shared rows were built from."""
        model = perturbed(make_model(schedule=(1, 2, 3)))
        grids = list(random_pyramid(model, seed=5).grids)
        other = [g.copy() for g in grids]
        other[1][0, 0] = (other[1][0, 0] + 1) % model.config.vocab_size
        inputs, null = pr.CodeInputs(), model.config.null_index
        cache, null_cache = pr.ScaleCache(0, inputs=inputs), pr.ScaleCache(null, inputs=inputs)
        alone = pr.ScaleCache(null)
        for k in range(3):
            model.next_scale_logits(grids[:k], 0, cache)
        for k in range(2):
            shared = model.next_scale_logits(other[:k], null, null_cache)
            assert shared.tobytes() == model.next_scale_logits(other[:k], null, alone).tobytes()
        with pytest.raises(ContractError, match="inputs were built from another grid 1"):
            model.next_scale_logits(other[:2], null, null_cache)

    def test_other_condition_rejected(self):
        model = make_model()
        cache = pr.ScaleCache(0)
        model.next_scale_logits([], 0, cache)
        with pytest.raises(ContractError):
            model.next_scale_logits([np.array([[1]])], model.config.null_index, cache)


class TestFusedOps:
    """The prior's fused ops have the bits of the primitive ops they replace
    (tests/oracles.py's ComposedPrior), on priors with every weight perturbed,
    so AdaLN's shifts and gates, the mask and the cache reach the logits."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_logits_and_every_parameter_gradient(self, dtype):
        model = perturbed(make_model(schedule=(1, 2, 3), dtype=dtype))
        oracle = composed(model)
        rng = np.random.default_rng(8)
        grids = [rng.integers(0, 16, size=(3, n, n)) for n in model.schedule.sizes]
        labels = np.array([0, 2, model.config.null_index])
        for m in (model, oracle):
            pr.batch_loss(m, grids, labels).backward()
        for name, p in model.params.items():
            assert p.grad.tobytes() == oracle.params[name].grad.tobytes(), name
        want = oracle.forward_batch(grids, labels).values
        assert model.forward_batch(grids, labels).values.tobytes() == want.tobytes()
        with no_grad():
            assert model.forward_batch(grids, labels).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("schedule", [(1, 2, 3, 4), PAPER_SCHEDULE.sizes],
                             ids=["desk", "paper"])
    def test_cached_walk(self, schedule, dtype):
        model = perturbed(make_model(schedule=schedule, depth=2, width=16, dtype=dtype))
        oracle = composed(model)
        pyr = random_pyramid(model, seed=4)
        for c in (1, model.config.null_index):
            cache, oracle_cache = pr.ScaleCache(c), pr.ScaleCache(c)
            for k in range(len(schedule)):
                prefix = list(pyr.grids[:k])
                got = model.next_scale_logits(prefix, c, cache)
                want = oracle.next_scale_logits(prefix, c, oracle_cache)
                assert got.tobytes() == want.tobytes()

    def test_a_cached_pass_builds_18_nodes_per_block(self, monkeypatch):
        """After the walk's first pass: the input's projection and position
        embeddings (5 nodes), 18 per block, and the final modulate and head."""
        depth = 3
        model = make_model(schedule=(1, 2, 3), depth=depth)
        pyr = random_pyramid(model)
        cache = pr.ScaleCache(1)
        model.next_scale_logits([], 1, cache)
        nodes = []
        make = tensor._make
        monkeypatch.setattr(tensor, "_make", lambda *a: nodes.append(a[-1]) or make(*a))
        model.next_scale_logits(list(pyr.grids[:1]), 1, cache)
        assert len(nodes) == 5 + 18 * depth + 2


class TestTraining:
    def test_loss_decreases_on_structured_data(self):
        model = make_model(p_drop=0.0)
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=64)
        # structured tokens: strongly label-dependent
        grids = [np.stack([np.full((n, n), (lab * 5) % 16) for lab in labels])
                 for n in (1, 2, 3)]
        opt = OptimizerConfig(peak_lr=3e-3, warmup_steps=10, total_steps=150)
        curve = pr.train_prior(grids, labels, model, opt, steps=150, batch_size=16, seed=4)
        assert curve[-1][2] < curve[0][2] - 0.5

    def test_divergence_names_component_and_step(self):
        model = make_model()
        model.params["head.w"].values[:] = np.nan
        rng = np.random.default_rng(6)
        grids = [rng.integers(0, 16, size=(8, n, n)) for n in (1, 2, 3)]
        opt = OptimizerConfig(peak_lr=1e-3, warmup_steps=1, total_steps=5)
        with pytest.raises(NumericError, match="prior training diverged at step 0: "
                                               "non-finite values produced by op 'linear'"):
            pr.train_prior(grids, rng.integers(0, 3, size=8), model, opt, steps=1, batch_size=4)

    def test_full_condition_dropout_blocks_label_gradient(self):
        # every sample's label replaced by the null slot: real rows get no grad
        model = nonzero_head(make_model(p_drop=0.0))
        rng = np.random.default_rng(4)
        grids = [rng.integers(0, 16, size=(8, n, n)) for n in (1, 2, 3)]
        labels = np.full(8, model.config.null_index)
        loss = pr.batch_loss(model, grids, labels)
        loss.backward()
        grad = model.params["cond_emb"].grad
        assert grad is not None
        assert np.all(grad[:3] == 0.0)  # real label rows untouched
        assert np.abs(grad[3]).max() > 0  # null row trains

    def test_token_index_out_of_range_rejected(self):
        model = make_model(vocab=16)
        grids = [np.full((2, n, n), 16, dtype=np.int64) for n in (1, 2, 3)]
        with pytest.raises(ContractError):
            pr.batch_loss(model, grids, np.array([0, 1]))

    @pytest.mark.parametrize("edit", [
        lambda grids: grids[2].__setitem__((0, 0, 0), -1),
        lambda grids: grids.__setitem__(1, grids[1] + 0.0),
        lambda grids: grids.__setitem__(3, grids[3][:1]),
    ], ids=["negative_code", "non_integer", "mixed_batch"])
    def test_batch_loss_rejects_a_malformed_grid(self, edit):
        model = make_model(schedule=(1, 2, 3, 4), vocab=64)
        grids = [np.zeros((2, n, n), dtype=np.int64) for n in (1, 2, 3, 4)]
        edit(grids)
        with pytest.raises(ContractError, match="grid"):
            pr.batch_loss(model, grids, np.array([0, 1]))

    def test_gradients_match_finite_differences(self):
        # depth-1, width-8 model; smooth loss -> central differences apply
        model = make_model(schedule=(1, 2), vocab=6, n_labels=2, depth=1,
                           width=8, heads=2, code_dim=3, p_drop=0.0)
        rng = np.random.default_rng(5)
        grids = [rng.integers(0, 6, size=(2, n, n)) for n in (1, 2)]
        labels = np.array([0, 1])

        def loss_value():
            return pr.batch_loss(model, grids, labels).item()

        loss = pr.batch_loss(model, grids, labels)
        loss.backward()

        eps = 1e-5
        checked = 0
        worst = 0.0
        for name, p in sorted(model.params.items()):
            if p.grad is None:
                continue
            flat = p.values.reshape(-1)
            grad_flat = p.grad.reshape(-1)
            picks = np.random.default_rng(zlib.crc32(name.encode())).integers(
                0, flat.size, size=min(6, flat.size))
            for i in picks:
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_value()
                flat[i] = orig - eps
                lo = loss_value()
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(grad_flat[i]), 1e-6)
                worst = max(worst, abs(fd - grad_flat[i]) / denom)
                checked += 1
        assert checked >= 100
        assert worst < 1e-4


class TestConditionDropout:
    def test_dropout_routes_gradient_to_null_row(self):
        model = nonzero_head(make_model(p_drop=0.5))
        rng = np.random.default_rng(6)
        grids = [rng.integers(0, 16, size=(512, n, n)) for n in (1, 2, 3)]
        labels = rng.integers(0, 3, size=512)
        opt = OptimizerConfig(peak_lr=1e-4, warmup_steps=1, total_steps=8)
        pr.train_prior(grids, labels, model, opt, steps=6, batch_size=256, seed=7)
        # with p=0.5 and batch 256, some samples were surely dropped to null
        assert np.abs(model.params["cond_emb"].m[model.config.null_index]).max() > 0
        assert np.abs(model.params["cond_emb"].m[:3]).max() > 0


class TestCheckpoint:
    def test_roundtrip_float32(self, tmp_path):
        cfg = pr.PriorConfig(depth=1, width=16, heads=2, vocab_size=8,
                             schedule=(1, 2), n_labels=2, code_dim=4, dtype="float32")
        table = np.random.default_rng(8).normal(size=(8, 4)).astype(np.float32)
        model = pr.PriorModel.create(cfg, table, seed=2)
        path = tmp_path / "prior.mvckpt"
        pr.save_prior(path, model, train_step=5, optimizer_state=True)
        loaded, config = pr.load_prior(path)
        assert config["train_step"] == 5
        assert np.array_equal(loaded.code_table, model.code_table)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].values, p.values)

    def test_forward_identical_after_roundtrip(self, tmp_path):
        cfg = pr.PriorConfig(depth=1, width=16, heads=2, vocab_size=8,
                             schedule=(1, 2), n_labels=2, code_dim=4, dtype="float32")
        table = np.random.default_rng(9).normal(size=(8, 4)).astype(np.float32)
        model = nonzero_head(pr.PriorModel.create(cfg, table, seed=3))
        model.params["head.w"].values = model.params["head.w"].values.astype(np.float32)
        model.params["head.b"].values = model.params["head.b"].values.astype(np.float32)
        path = tmp_path / "prior.mvckpt"
        pr.save_prior(path, model)
        loaded, _ = pr.load_prior(path)
        grids = [np.array([[[1]]]), np.array([[[2, 3], [4, 5]]])]
        assert np.array_equal(model.forward_batch(grids, [0]).values,
                              loaded.forward_batch(grids, [0]).values)


def test_config_validation():
    with pytest.raises(ContractError):
        pr.PriorConfig(width=30, heads=4)
    with pytest.raises(ContractError):
        pr.PriorConfig(cond_dropout_p=1.0)
    with pytest.raises(ContractError, match="depth must be non-negative"):
        pr.PriorConfig(depth=-1)
    assert pr.PriorConfig(depth=0).depth == 0
