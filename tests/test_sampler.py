import hypothesis
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgen import prior as pr
from mvgen import sampler as smp
from mvgen import tokenizer as tok
from mvgen import numerics as nx
from mvgen.numerics import ContractError, NumericError
from mvgen.rng import first_uniforms, rng_for


def toy_prior(schedule=(1, 2), vocab=8, seed=1, bias=None, depth=1):
    cfg = pr.PriorConfig(depth=depth, width=16, heads=2, vocab_size=vocab,
                         schedule=schedule, n_labels=2, code_dim=4, dtype="float64")
    table = np.random.default_rng(seed).normal(size=(vocab, 4))
    model = pr.PriorModel.create(cfg, table, seed=seed)
    rng = np.random.default_rng(seed + 1)
    model.params["head.w"].values = rng.normal(0, 0.1, size=model.params["head.w"].shape)
    if bias is not None:
        model.params["head.b"].values = np.asarray(bias, dtype=np.float64)
    return model


def open_gates(model, seed=0):
    """Every weight moved off its initial value, so AdaLN's gates, which start
    at zero, pass attention, the cache and the inputs of every scale through
    to the logits."""
    rng = np.random.default_rng(seed)
    for param in model.params.values():
        param.values = param.values + rng.normal(0, 0.05, size=param.values.shape)
    return model


def draw_uniforms(seed, scale_index, rows):
    """Rows 0..rows-1 of a scale's draw uniforms, keyed as a walk keys them."""
    [u] = first_uniforms([((seed, "draw", scale_index), range(rows))])
    return u


def matched_tokenizer(schedule=(1, 2), vocab=8, seed=2):
    cfg = tok.TokenizerConfig(resolution=2 * schedule[-1], schedule=schedule,
                              vocab_size=vocab, embed_dim=4, dtype="float64")
    return tok.TokenizerModel.create(cfg, seed=seed)


class TestCfgCombine:
    def test_s1_is_exactly_cond(self):
        rng = np.random.default_rng(0)
        cond, uncond = rng.normal(size=8), rng.normal(size=8)
        out = smp.cfg_combine(cond, uncond, 1.0)
        assert np.array_equal(out, cond)

    def test_s0_is_exactly_uncond(self):
        rng = np.random.default_rng(1)
        cond, uncond = rng.normal(size=8), rng.normal(size=8)
        assert np.allclose(smp.cfg_combine(cond, uncond, 0.0), uncond)

    def test_formula(self):
        out = smp.cfg_combine(np.array([2.0]), np.array([0.0]), 4.0)
        assert out[0] == pytest.approx(8.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            smp.cfg_combine(np.zeros(3), np.zeros(4), 2.0)


class TestTopK:
    def test_worked_example(self):
        out = smp.top_k_filter(np.array([0.5, 0.3, 0.15, 0.05]), 2)
        assert np.allclose(out, [0.625, 0.375, 0.0, 0.0])

    def test_k_equals_v_unchanged(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        assert np.array_equal(smp.top_k_filter(probs, 4), probs)

    def test_uniform_tie_breaks_to_index_zero(self):
        out = smp.top_k_filter(np.full(5, 0.2), 1)
        assert out[0] == pytest.approx(1.0)
        assert np.all(out[1:] == 0.0)

    def test_k_zero_rejected(self):
        with pytest.raises(ContractError):
            smp.top_k_filter(np.array([1.0]), 0)


class TestTopP:
    def test_worked_example(self):
        out = smp.top_p_filter(np.array([0.5, 0.3, 0.15, 0.05]), 0.9)
        expected = np.array([0.5, 0.3, 0.15, 0.0]) / 0.95
        assert np.allclose(out, expected)

    def test_p_one_unchanged(self):
        probs = np.array([0.5, 0.3, 0.2])
        assert np.array_equal(smp.top_p_filter(probs, 1.0), probs)

    def test_one_hot_unchanged(self):
        probs = np.array([0.0, 1.0, 0.0])
        for p in (0.1, 0.5, 0.99):
            assert np.allclose(smp.top_p_filter(probs, p), probs)

    def test_composition_support_is_subset(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(16))
            k, p = int(rng.integers(1, 16)), float(rng.uniform(0.2, 1.0))
            both = smp.top_p_filter(smp.top_k_filter(probs, k), p)
            only_k = smp.top_k_filter(probs, k)
            only_p = smp.top_p_filter(probs, p)
            support = both > 0
            assert np.all(support <= (only_k > 0))
            assert np.all(support <= (only_p > 0))


class TestCategoricalDraw:
    def test_support_containment_over_many_draws(self):
        rng = np.random.default_rng(3)
        total = 0
        for case in range(200):
            probs = rng.dirichlet(np.ones(12))
            k = int(rng.integers(1, 12))
            p = float(rng.uniform(0.3, 1.0))
            filtered = smp.top_p_filter(smp.top_k_filter(probs, k), p)
            support = np.flatnonzero(filtered > 0)
            draws = smp.categorical_draw(np.tile(filtered, (50, 1)), draw_uniforms(case, 0, 50))
            assert np.isin(draws, support).all()
            total += draws.size
        assert total == 10_000

    def test_deterministic_per_key(self):
        probs = np.tile([0.25, 0.25, 0.25, 0.25], (4, 1))
        a = smp.categorical_draw(probs, draw_uniforms(7, 1, 4))
        b = smp.categorical_draw(probs, draw_uniforms(7, 1, 4))
        assert np.array_equal(a, b)

    def test_matches_exact_categorical_frequencies(self):
        # 1-scale V=4 toy: head bias fixes the distribution exactly
        bias = np.array([0.3, -0.2, 0.9, 0.0])
        shifted = bias - bias.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        n = 100_000
        # draw i is row 0 of scale 0 under seed i; one Philox pass gives all n
        u = np.concatenate(first_uniforms([((i, "draw", 0), [0]) for i in range(n)]))
        counts = np.bincount(smp.categorical_draw(np.tile(probs, (n, 1)), u), minlength=4)
        expected = probs * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27  # chi-square(3) 99.9th percentile


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), vocab=st.integers(1, 12),
       k=st.integers(1, 13), p=st.floats(0.01, 1.0), tied=st.booleans())
def test_row_wise_filters_equal_one_dimensional_calls(seed, rows, vocab, k, p, tied):
    rng = np.random.default_rng(seed)
    logits = (rng.integers(0, 3, size=(rows, vocab)).astype(np.float64) if tied
              else rng.normal(size=(rows, vocab)))
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    top_k, top_p = smp.top_k_filter(probs, k), smp.top_p_filter(probs, p)
    for r in range(rows):
        assert np.array_equal(top_k[r], smp.top_k_filter(probs[r], k))
        assert np.array_equal(top_p[r], smp.top_p_filter(probs[r], p))


@hypothesis.seed(21)
@settings(max_examples=300, deadline=None)
@given(data=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), vocab=st.integers(1, 12),
       kind=st.sampled_from(["normal", "tied", "zeros", "nan_rows", "nan_entries"]),
       k=st.integers(1, 14), p=st.one_of(st.floats(0.01, 1.0), st.sampled_from(
           [1.0 - 1e-16, 1.0 - 1e-12, 1.0 - 1e-9]), st.just(1.0)))
def test_filters_have_the_bits_of_a_stable_argsort(data, rows, vocab, kind, k, p):
    """top_k_filter and top_p_filter against tests/oracles.py's argsort ranks:
    ties, zero masses, k >= V, p so near 1 that the count passes V, and NaN."""
    rng = np.random.default_rng(data)
    logits = {"normal": lambda: rng.normal(size=(rows, vocab)),
              "tied": lambda: rng.integers(0, 3, size=(rows, vocab)).astype(np.float64),
              "zeros": lambda: rng.integers(0, 3, size=(rows, vocab)) * 400.0,
              "nan_rows": lambda: rng.normal(size=(rows, vocab)) * np.inf,
              "nan_entries": lambda: rng.normal(size=(rows, vocab))}[kind]()
    with np.errstate(invalid="ignore"):
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        if kind == "nan_entries":
            probs[rng.random(probs.shape) < 0.3] = np.nan
        for row in (probs, probs[0]):
            top_k = smp.top_k_filter(row, k)
            assert top_k.tobytes() == oracles.top_k_filter(row, k).tobytes()
            for kept in (row, top_k):
                want = oracles.top_p_filter(kept, p)
                assert smp.top_p_filter(kept, p).tobytes() == want.tobytes()


def inverse_cdf(row, u):
    """The first index whose running mass exceeds u, or the last index with
    mass where rounding leaves u past the end or on a zero."""
    last = max(i for i, mass in enumerate(row) if mass > 0)
    cum = 0.0
    for i, mass in enumerate(row):
        cum += mass
        if cum > u:
            return i if mass > 0 else last
    return last


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-2**100, 2**100), rows=st.integers(1, 256), vocab=st.integers(1, 16),
       k=st.integers(1, 16), scale_index=st.integers(0, 9))
def test_categorical_draw_uses_the_documented_key(seed, rows, vocab, k, scale_index):
    rng = np.random.default_rng(abs(seed))
    probs = smp.top_k_filter(rng.dirichlet(np.ones(vocab), size=rows), k)
    draws = smp.categorical_draw(probs, draw_uniforms(seed, scale_index, rows))
    assert draws.shape == (rows,)
    for r in range(rows):
        u = rng_for(seed, "draw", scale_index, r).random()
        assert draws[r] == inverse_cdf(probs[r], u)


class TestSampleScale:
    def test_greedy_temperature_zero_deterministic(self):
        model = toy_prior()
        cfg = smp.SamplingConfig(cfg_scale=1.0, temperature=0.0, seed=0)
        [u, _] = smp.walk_uniforms(cfg.seed, model.schedule.sizes)
        a = smp.sample_scale(model, [], 0, cfg, u)
        b = smp.sample_scale(model, [], 0, cfg, u)
        assert np.array_equal(a, b)
        logits = model.next_scale_logits([], 0)
        assert a[0, 0] == int(np.argmax(logits[0]))

    def test_same_seed_identical_grids(self):
        model = toy_prior()
        cfg = smp.SamplingConfig(cfg_scale=2.0, top_k=4, top_p=0.9, seed=42)
        [_, u] = smp.walk_uniforms(cfg.seed, model.schedule.sizes)
        a = smp.sample_scale(model, [np.array([[1]])], 1, cfg, u)
        b = smp.sample_scale(model, [np.array([[1]])], 1, cfg, u)
        assert np.array_equal(a, b)

    def test_top_k_above_vocab_rejected(self):
        model = toy_prior(vocab=8)
        with pytest.raises(ContractError):
            smp.sample_scale(model, [], 0, smp.SamplingConfig(top_k=9), draw_uniforms(0, 0, 1))


class TestGenerate:
    def test_forward_pass_count_2k_independent_of_tokens(self, monkeypatch):
        """`forward_passes`, which `generate` works out from its config, is
        the number of prior evaluations the walk ran: 2K guided, K unguided."""
        calls = []
        forward = pr.PriorModel.next_scale_logits
        monkeypatch.setattr(pr.PriorModel, "next_scale_logits",
                            lambda *a, **kw: calls.append(1) or forward(*a, **kw))
        for schedule in ((1, 2), (1, 2, 3), (1, 2, 3, 4), tok.PAPER_SCHEDULE.sizes):
            model = toy_prior(schedule=schedule)
            tkn = matched_tokenizer(schedule=schedule)
            for cfg_scale, per_scale in ((4.0, 2), (None, 1)):
                calls.clear()
                out = smp.generate(model, tkn, 0, smp.SamplingConfig(cfg_scale=cfg_scale, seed=1))
                assert out.forward_passes == len(calls) == per_scale * len(schedule)

    @pytest.mark.parametrize("schedule", [(1, 2, 3, 4), tok.PAPER_SCHEDULE.sizes],
                             ids=["desk", "paper"])
    def test_guided_walk_projects_each_condition_once(self, monkeypatch, schedule):
        """The AdaLN modulations depend on the condition alone: a guided walk
        computes each block's and the final layer's once per condition, not
        once per scale."""
        depth = 3
        model = toy_prior(schedule=schedule, depth=depth)
        calls = []
        modulation = pr.PriorModel._modulation
        monkeypatch.setattr(pr.PriorModel, "_modulation",
                            lambda *a, **kw: calls.append(1) or modulation(*a, **kw))
        out = smp.generate(model, matched_tokenizer(schedule=schedule), 0,
                           smp.SamplingConfig(cfg_scale=4.0, seed=1))
        assert out.forward_passes == 2 * len(schedule)
        assert len(calls) == 2 * (depth + 1)

    def test_cfg_one_bit_identical_to_unguided(self):
        model = toy_prior(seed=5)
        tkn = matched_tokenizer(seed=6)
        guided = smp.generate(model, tkn, 1, smp.SamplingConfig(cfg_scale=1.0, seed=9))
        plain = smp.generate(model, tkn, 1, smp.SamplingConfig(cfg_scale=None, seed=9))
        for a, b in zip(guided.pyramid.grids, plain.pyramid.grids):
            assert np.array_equal(a, b)
        assert np.array_equal(guided.values, plain.values)
        assert guided.forward_passes == 2 * plain.forward_passes / 1  # 2K vs K

    def test_determinism_full_pipeline(self):
        model = toy_prior(seed=7)
        tkn = matched_tokenizer(seed=8)
        cfg = smp.SamplingConfig(cfg_scale=3.0, top_k=4, top_p=0.95, seed=123)
        a = smp.generate(model, tkn, 0, cfg)
        b = smp.generate(model, tkn, 0, cfg)
        assert np.array_equal(a.values, b.values)
        assert a.values.min() >= 0.0 and a.values.max() <= 1.0

    def test_sampled_tokens_respect_filter_support(self):
        model = toy_prior(seed=11)
        tkn = matched_tokenizer(seed=12)
        for seed in range(30):
            cfg = smp.SamplingConfig(cfg_scale=2.0, top_k=3, seed=seed)
            out = smp.generate(model, tkn, 0, cfg)
            # rebuild the filtered support for scale 1 and check the draw
            cond = model.next_scale_logits([], 0)
            unc = model.next_scale_logits([], model.config.null_index)
            guided = smp.cfg_combine(cond, unc, 2.0)[0]
            probs = np.exp(guided - guided.max())
            probs /= probs.sum()
            support = np.flatnonzero(smp.top_k_filter(probs, 3) > 0)
            assert out.pyramid.grids[0][0, 0] in support

    @pytest.mark.parametrize("cfg", [
        smp.SamplingConfig(cfg_scale=4.0, seed=3),
        smp.SamplingConfig(cfg_scale=None, seed=4),
        smp.SamplingConfig(cfg_scale=2.0, top_k=3, top_p=0.8, seed=6),
        smp.SamplingConfig(cfg_scale=2.0, temperature=0.0, seed=7),
    ], ids=["cfg0", "cfg1", "cfg3", "cfg4"])  # fixed: a deleted row renames none after it
    def test_matches_uncached_scale_by_scale_reference(self, cfg):
        schedule = (1, 2, 3, 4)
        model = toy_prior(schedule=schedule, seed=13)
        tkn = matched_tokenizer(schedule=schedule, seed=14)
        out = smp.generate(model, tkn, 1, cfg)
        prefix = []
        for u in smp.walk_uniforms(cfg.seed, schedule):
            prefix.append(smp.sample_scale(model, prefix, 1, cfg, u))
        for a, b in zip(out.pyramid.grids, prefix):
            assert np.array_equal(a, b)
        assert np.array_equal(out.values, tok.decode_batch(tkn, [g[None] for g in prefix])[0])

    def test_nan_weight_names_the_op_and_per_op_checks_come_back(self):
        model, tkn = toy_prior(), matched_tokenizer()
        cfg = smp.SamplingConfig(cfg_scale=2.0, seed=3)
        smp.generate(model, tkn, 0, cfg)
        with pytest.raises(NumericError, match="log"):
            nx.log(nx.Tensor([-1.0]))
        model.params["block0.ffn1.w"].values[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite values produced by op 'linear'"):
            smp.generate(model, tkn, 0, cfg)
        with pytest.raises(NumericError, match="log"):
            nx.log(nx.Tensor([-1.0]))

    def test_non_finite_distribution_raises_instead_of_drawing_token_0(self):
        model = toy_prior(schedule=(1,), vocab=4, bias=[0.5, 2.0, 1.0, -1.0])
        model.params["head.w"].values[:] = 0.0  # logits are the bias
        u = draw_uniforms(0, 0, 1)
        grid = smp.sample_scale(model, [], 0, smp.SamplingConfig(temperature=1e-300), u)
        assert grid.tolist() == [[1]]
        # logits / T overflow to inf, with and without the filters on the NaN rows
        for cfg in (smp.SamplingConfig(temperature=1e-310),
                    smp.SamplingConfig(temperature=1e-310, top_k=2, top_p=0.9)):
            with pytest.raises(nx.NonOpNumericError,
                               match="non-finite sampling distribution at scale 0"):
                smp.sample_scale(model, [], 0, cfg, u)
            with pytest.raises(nx.NonOpNumericError,
                               match="non-finite sampling distribution at scale 0"):
                smp.generate(model, matched_tokenizer(schedule=(1,), vocab=4), 0, cfg)

    def test_non_finite_distribution_does_not_rerun_the_walk(self, monkeypatch):
        # no op is at fault, so a rerun with per-op checks on would only repeat the passes
        model = toy_prior(schedule=(1,), vocab=4)
        calls = []
        forward = pr.PriorModel.next_scale_logits
        monkeypatch.setattr(pr.PriorModel, "next_scale_logits",
                            lambda *a, **kw: calls.append(1) or forward(*a, **kw))
        cfg = smp.SamplingConfig(cfg_scale=2.0, temperature=1e-310)
        with pytest.raises(NumericError, match="non-finite sampling distribution at scale 0"):
            smp.generate(model, matched_tokenizer(schedule=(1,), vocab=4), 0, cfg)
        assert len(calls) == 2

    def test_mismatched_schedules_rejected(self):
        model = toy_prior(schedule=(1, 2))
        tkn = matched_tokenizer(schedule=(1, 2, 4))
        with pytest.raises(ContractError):
            smp.generate(model, tkn, 0, smp.SamplingConfig())


class TestWalkWork:
    """What a walk does once: its Philox pass and its label-free inputs."""

    @pytest.mark.parametrize("schedule", [(1, 2, 3, 4), tok.PAPER_SCHEDULE.sizes],
                             ids=["desk", "paper"])
    def test_draws_read_one_philox_pass_keyed_seed_draw_scale_row(self, schedule, monkeypatch):
        model, tkn = toy_prior(schedule=schedule), matched_tokenizer(schedule=schedule)
        passes, draws = [], []
        philox, draw = smp.first_uniforms, smp.categorical_draw
        monkeypatch.setattr(smp, "first_uniforms", lambda *a: passes.append(1) or philox(*a))
        monkeypatch.setattr(smp, "categorical_draw",
                            lambda probs, u: draws.append(u.copy()) or draw(probs, u))
        for seed in (0, -1, 2**100):  # -1 is perfbench's warm-up seed
            passes.clear()
            draws.clear()
            smp.generate(model, tkn, 0, smp.SamplingConfig(cfg_scale=2.0, seed=seed))
            assert len(passes) == 1 and len(draws) == len(schedule)
            for k, (u, n) in enumerate(zip(draws, schedule)):
                want = [rng_for(seed, "draw", k, r).random() for r in range(n * n)]
                assert u.tobytes() == np.array(want).tobytes(), (seed, k)

    @pytest.mark.parametrize("schedule", [(1, 2, 3, 4), tok.PAPER_SCHEDULE.sizes],
                             ids=["desk", "paper"])
    def test_guided_walk_equals_one_whose_caches_build_their_own_inputs(self, schedule):
        """The two conditions share scales 2..K's inputs and keep scale 1's
        condition rows apart: the bits are those of tests/oracles.py's walk,
        whose null cache builds every input itself."""
        model = open_gates(toy_prior(schedule=schedule, seed=21, depth=2))
        tkn = matched_tokenizer(schedule=schedule, seed=22)
        for label in (0, 1):
            for seed in (0, 7, 2**70):
                cfg = smp.SamplingConfig(cfg_scale=3.0, top_k=6, seed=seed)
                out = smp.generate(model, tkn, label, cfg)
                grids, values = oracles.generate_with_own_inputs(model, tkn, label, cfg)
                assert [g.tobytes() for g in out.pyramid.grids] == [g.tobytes() for g in grids]
                assert out.values.tobytes() == values.tobytes()

    def test_guided_walk_projects_each_scale_once(self, monkeypatch):
        schedule = (1, 2, 3, 4)
        model, tkn = toy_prior(schedule=schedule), matched_tokenizer(schedule=schedule)
        projected = []
        linear = pr.PriorModel._linear
        monkeypatch.setattr(pr.PriorModel, "_linear", lambda self, name, x: (
            projected.append(name == "input_proj") or linear(self, name, x)))
        smp.generate(model, tkn, 0, smp.SamplingConfig(cfg_scale=2.0, seed=1))
        assert sum(projected) == len(schedule) - 1


def test_sampling_config_validation():
    with pytest.raises(ContractError):
        smp.SamplingConfig(cfg_scale=-1.0)
    with pytest.raises(ContractError):
        smp.SamplingConfig(top_p=0.0)
    with pytest.raises(ContractError):
        smp.SamplingConfig(top_k=0)
    with pytest.raises(ContractError):
        smp.SamplingConfig(temperature=-0.1)
    for field, value in (("cfg_scale", np.nan), ("cfg_scale", np.inf), ("temperature", np.nan)):
        with pytest.raises(ContractError, match=field):
            smp.SamplingConfig(**{field: value})
