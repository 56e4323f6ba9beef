"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria 8 and 10 share a single desk-scale pipeline run (corpus 4 labels x
500 at 32x32, tokenizer V=64/C=8 over scales (1,2,3,4), prior depth 4 /
width 128) held in a module-scoped fixture. Everything is seeded; the whole
module is deterministic.
"""

import dataclasses
import math
import time
import zlib

import numpy as np
import pytest
from oracles import DETECTORS, default_labels, joint_logprob, joint_logprob_incremental

from mvgen import datagen as dg
from mvgen import metrics as mx
from mvgen import prior as pr
from mvgen import sampler as smp
from mvgen import tokenizer as tok
from mvgen.numerics import ContractError, OptimizerConfig, Tensor
from mvgen.rng import first_uniforms

# desk-run constants (fixed seeds; every number below is reproducible)
MASTER_SEED = 2026
TOKENIZER_SEEDS = (11, 13)  # (model init, training stream)
PRIOR_SEEDS = (17, 19)
TOKENIZER_STEPS = 5000
PRIOR_STEPS = 1200
PER_LABEL = 500
# ablation sampling configuration: constant guidance 4 with vocabulary-scaled
# truncation (top-k 16 of 64 ~ 900 of 4096, top-p 0.95)
GUIDED = smp.SamplingConfig(cfg_scale=4.0, top_k=16, top_p=0.95)
UNGUIDED = smp.SamplingConfig(cfg_scale=None)


def report(number: int, name: str) -> None:
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


# -- criteria 1-2: closed-form checks -----------------------------------------


def test_criterion_1_efficiency_table_reproduction():
    start = time.perf_counter()
    rows, worst = mx.verify_table1()
    assert len(rows) == 25
    assert worst <= 0.05
    spot = {r.model: (r, v) for r, v in rows}
    assert spot["gan-style3"][1] == pytest.approx(59.33, abs=0.05)
    assert spot["var-d16"][1] == pytest.approx(11.94, abs=0.05)
    assert spot["var-d30"][1] == pytest.approx(7.69, abs=0.05)
    assert time.perf_counter() - start < 1.0
    report(1, "efficiency table, 25 rows within 0.05")


def test_criterion_2_token_count_identity():
    assert tok.ScaleSchedule((1, 2, 3, 4, 5, 6, 8, 10, 13, 16)).token_count == 680
    assert tok.ScaleSchedule((1, 2, 3, 4)).token_count == 30
    report(2, "token-count identity 680 / 30")


def test_criterion_3_out_of_scope_statement():
    # full-scale FID/KID tables are out of scope at desk scale by design;
    # criteria 4-10 are the substituted property suites
    report(3, "full-scale metric values substituted by suites 4-10")


# -- criteria 4-7: model-contract suites on tiny models -------------------------


@pytest.fixture(scope="module")
def tiny_prior():
    cfg = pr.PriorConfig(depth=2, width=32, heads=2, vocab_size=16,
                         schedule=(1, 2, 3), n_labels=3, code_dim=4, dtype="float64")
    table = np.random.default_rng(100).normal(size=(16, 4))
    model = pr.PriorModel.create(cfg, table, seed=100)
    rng = np.random.default_rng(101)
    model.params["head.w"].values = rng.normal(0, 0.05, size=model.params["head.w"].shape)
    model.params["head.b"].values = rng.normal(0, 0.05, size=model.params["head.b"].shape)
    return model


def test_criterion_4_factorization_identity(tiny_prior):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for trial in range(100):
        pyramid = tok.TokenPyramid(tuple(rng.integers(0, 16, size=(n, n))
                                         for n in (1, 2, 3)))
        c = int(rng.integers(0, 3))
        full = joint_logprob(pyramid, c, tiny_prior)
        incremental = joint_logprob_incremental(pyramid, c, tiny_prior)
        assert abs(full - incremental) <= 1e-9 * max(abs(full), 1.0)
    assert time.perf_counter() - start < 30.0
    report(4, "factorization identity, 100 pyramids at 1e-9")


def test_criterion_5_causality_bit_exact(tiny_prior):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    base_grids = [rng.integers(0, 16, size=(1, n, n)) for n in (1, 2, 3)]
    base_logits = tiny_prior.forward_batch(base_grids, [1]).values[0]
    slices = tiny_prior.schedule.position_slices()
    for trial in range(1000):
        k = int(rng.integers(1, 3))  # perturb scale k (0-based); earlier rows fixed
        grids = [g.copy() for g in base_grids]
        n = grids[k].shape[-1]
        grids[k][0, rng.integers(0, n), rng.integers(0, n)] = rng.integers(0, 16)
        logits = tiny_prior.forward_batch(grids, [1]).values[0]
        upto = slices[k].stop
        assert np.array_equal(base_logits[:upto], logits[:upto])
    assert time.perf_counter() - start < 60.0
    report(5, "causality, 1000 perturbations bit-identical")


def test_criterion_6_gradient_correctness():
    start = time.perf_counter()
    eps = 1e-5
    checked = 0
    worst = 0.0

    def check_params(params, loss_fn, per_tensor):
        nonlocal checked, worst
        loss = loss_fn()
        for p in params.values():
            p.zero_grad()
        loss_t = loss()
        loss_t.backward()
        for name, p in sorted(params.items()):
            if p.grad is None:
                continue
            flat = p.values.reshape(-1)
            grads = p.grad.reshape(-1)
            picks = np.random.default_rng(zlib.crc32(name.encode())).integers(
                0, flat.size, size=min(per_tensor, flat.size))
            for i in picks:
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss().item()
                flat[i] = orig - eps
                lo = loss().item()
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(grads[i]), 1e-6)
                worst = max(worst, abs(fd - grads[i]) / denom)
                checked += 1

    # tokenizer loss on a small float64 model. The quantizer offset is
    # anchored at the base point: the resulting smooth loss has exactly the
    # gradient the straight-through estimator reports, so central differences
    # are a valid oracle for it.
    tkn_cfg = tok.TokenizerConfig(resolution=8, schedule=(1, 2), vocab_size=8,
                                  embed_dim=4, dtype="float64")
    tkn = tok.TokenizerModel.create(tkn_cfg, seed=6)
    batch = np.random.default_rng(60).random((2, 8, 8))
    anchors = tok.st_anchors(tkn, batch)

    # the anchored surrogate and the production straight-through graph must
    # report identical gradients at the anchor point
    for p in tkn.params.values():
        p.zero_grad()
    tok.training_graph(tkn, batch)[0].backward()
    st_grads = {name: p.grad.copy() for name, p in tkn.params.items()}
    for p in tkn.params.values():
        p.zero_grad()
    tok.training_graph(tkn, batch, anchors=anchors)[0].backward()
    for name, p in tkn.params.items():
        assert np.allclose(p.grad, st_grads[name], rtol=1e-10, atol=1e-12), name

    def tok_loss_factory():
        return lambda: tok.training_graph(tkn, batch, anchors=anchors)[0]

    check_params(tkn.params, tok_loss_factory, per_tensor=8)

    # prior loss on a depth-1, width-8 model
    p_cfg = pr.PriorConfig(depth=1, width=8, heads=2, vocab_size=6,
                           schedule=(1, 2), n_labels=2, code_dim=3,
                           cond_dropout_p=0.0, dtype="float64")
    prior_model = pr.PriorModel.create(p_cfg, np.random.default_rng(61).normal(size=(6, 3)),
                                       seed=62)
    grids = [np.random.default_rng(63).integers(0, 6, size=(2, n, n)) for n in (1, 2)]
    labels = np.array([0, 1])

    def prior_loss_factory():
        return lambda: pr.batch_loss(prior_model, grids, labels)

    check_params(prior_model.params, prior_loss_factory, per_tensor=6)

    assert checked >= 200, f"only {checked} parameters sampled"
    assert worst < 1e-4, f"worst relative error {worst}"
    assert time.perf_counter() - start < 120.0
    report(6, f"gradients, {checked} params, worst rel err {worst:.2e}")


def test_criterion_7_sampling_contracts(tiny_prior):
    start = time.perf_counter()
    # matched tokenizer for full generation
    t_cfg = tok.TokenizerConfig(resolution=6, schedule=(1, 2, 3), vocab_size=16,
                                embed_dim=4, dtype="float64")
    tkn = tok.TokenizerModel.create(t_cfg, seed=70)

    # (a) CFG s=1 identity, bit-exact against the never-null path
    guided = smp.generate(tiny_prior, tkn, 1, smp.SamplingConfig(cfg_scale=1.0, seed=7))
    plain = smp.generate(tiny_prior, tkn, 1, smp.SamplingConfig(cfg_scale=None, seed=7))
    for a, b in zip(guided.pyramid.grids, plain.pyramid.grids):
        assert np.array_equal(a, b)
    assert np.array_equal(guided.values, plain.values)

    # (b) top-k/top-p support containment over 10^4 draws
    rng = np.random.default_rng(71)
    draws = 0
    for case in range(200):
        probs = rng.dirichlet(np.ones(12))
        k = int(rng.integers(1, 12))
        p = float(rng.uniform(0.3, 1.0))
        filtered = smp.top_p_filter(smp.top_k_filter(probs, k), p)
        support = set(np.flatnonzero(filtered > 0).tolist())
        [u] = first_uniforms([((case, "draw", 0), range(50))])
        for idx in smp.categorical_draw(np.tile(filtered, (50, 1)), u):
            assert idx in support
            draws += 1
    assert draws == 10_000

    # (c) determinism under a fixed seed
    cfg = smp.SamplingConfig(cfg_scale=3.0, top_k=8, top_p=0.9, seed=99)
    a = smp.generate(tiny_prior, tkn, 2, cfg)
    b = smp.generate(tiny_prior, tkn, 2, cfg)
    assert np.array_equal(a.values, b.values)

    # (d) forward passes == 2K regardless of token totals
    for schedule in ((1, 2), (1, 2, 3), (1, 2, 3, 4)):
        cfg_p = pr.PriorConfig(depth=1, width=16, heads=2, vocab_size=8,
                               schedule=schedule, n_labels=2, code_dim=4, dtype="float64")
        model = pr.PriorModel.create(cfg_p, np.random.default_rng(72).normal(size=(8, 4)),
                                     seed=72)
        t2 = tok.TokenizerModel.create(
            tok.TokenizerConfig(resolution=2 * schedule[-1], schedule=schedule,
                                vocab_size=8, embed_dim=4, dtype="float64"), seed=73)
        out = smp.generate(model, t2, 0, smp.SamplingConfig(cfg_scale=2.0, seed=1))
        assert out.forward_passes == 2 * len(schedule)
    assert time.perf_counter() - start < 60.0
    report(7, "sampling contracts: identity, support, determinism, 2K passes")


# -- criteria 8 & 10: the desk-scale end-to-end run ------------------------------


def desk_pipeline(tokenizer_seeds, prior_seeds):
    """The desk-scale run for one (model init, training stream) seed pair each
    of the tokenizer and the prior: corpus, both models and the samples."""
    start = time.perf_counter()
    specs = [dg.PhantomSpec(lbl, fam, 1.0, MASTER_SEED) for lbl, fam in default_labels()]
    corpus = dg.build_corpus(specs, per_label=PER_LABEL, resolution=32,
                             master_seed=MASTER_SEED)
    train, val, test = (corpus.values[k].astype(np.float32) for k in ("train", "val", "test"))
    train_labels, val_labels, test_labels = (corpus.labels[k] for k in ("train", "val", "test"))
    print(f"\n[acceptance] corpus built: {train.shape[0]}/{val.shape[0]}/{test.shape[0]} "
          f"({time.perf_counter() - start:.0f}s)")

    tkn = tok.TokenizerModel.create(tok.TokenizerConfig(dtype="float32"),
                                    seed=tokenizer_seeds[0])
    opt_t = OptimizerConfig(peak_lr=3e-3, warmup_steps=150, total_steps=TOKENIZER_STEPS)
    tok.train_tokenizer(train, tkn, opt_t, steps=TOKENIZER_STEPS, batch_size=16,
                        seed=tokenizer_seeds[1])
    print(f"[acceptance] tokenizer trained ({time.perf_counter() - start:.0f}s)")

    train_grids = tok.encode_batch(tkn, train)
    val_grids = tok.encode_batch(tkn, val)
    prior_model = pr.PriorModel.create(pr.PriorConfig(dtype="float32"),
                                       tkn.codebook.embeddings, seed=prior_seeds[0])
    opt_p = OptimizerConfig(peak_lr=1e-3, warmup_steps=100, total_steps=PRIOR_STEPS)
    pr.train_prior(train_grids, train_labels, prior_model, opt_p, steps=PRIOR_STEPS,
                   batch_size=32, seed=prior_seeds[1])
    print(f"[acceptance] prior trained ({time.perf_counter() - start:.0f}s)")

    families = {lbl.id: fam for lbl, fam in default_labels()}
    guided_by_label = {}
    for label_id in range(4):
        images = []
        for i in range(200):
            cfg = dataclasses.replace(GUIDED, seed=1000 + label_id * 10_000 + i)
            images.append(smp.generate(prior_model, tkn, label_id, cfg).values)
        guided_by_label[label_id] = np.stack(images)
    baseline_samples = []
    for label_id in range(4):
        for i in range(150):
            cfg = dataclasses.replace(UNGUIDED, seed=600_000 + label_id * 10_000 + i)
            baseline_samples.append(smp.generate(prior_model, tkn, label_id, cfg).values)
    baseline_samples = np.stack(baseline_samples)
    print(f"[acceptance] samples drawn ({time.perf_counter() - start:.0f}s)")

    return {
        "corpus": corpus, "families": families,
        "train": train, "val": val, "test": test,
        "val_labels": val_labels, "val_grids": val_grids,
        "tokenizer": tkn, "prior": prior_model,
        "guided_by_label": guided_by_label, "baseline_samples": baseline_samples,
        "wall_s": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def desk_run():
    return desk_pipeline(TOKENIZER_SEEDS, PRIOR_SEEDS)


def prefix_mses(run) -> list[float]:
    """Held-out reconstruction MSE from the first k scales, k = 1..K."""
    return [tok.reconstruction_mse(run["tokenizer"], run["val"], upto_scale=k)
            for k in range(1, 5)]


def detector_rates(run) -> dict[int, float]:
    """Share of each label's guided samples its family's detector accepts."""
    rates = {}
    for label_id, images in run["guided_by_label"].items():
        detector = DETECTORS[run["families"][label_id]]
        rates[label_id] = sum(bool(detector(img)) for img in images) / images.shape[0]
    return rates


def guidance_distances(run) -> tuple[float, float]:
    """Criterion 10's FID-analogue of the guided and of the unguided samples."""
    embedder = mx.FeatureEmbedder(run["tokenizer"])
    guided = np.concatenate([run["guided_by_label"][i][:150] for i in range(4)])
    return (mx.evaluate(run["test"], guided, embedder).fid,
            mx.evaluate(run["test"], run["baseline_samples"], embedder).fid)


def test_criterion_8a_tokenizer_psnr(desk_run):
    psnr = tok.reconstruction_psnr(desk_run["tokenizer"], desk_run["val"])
    assert psnr > 20.0, f"held-out PSNR {psnr:.2f} dB"
    report(8, f"(a) held-out PSNR {psnr:.2f} dB > 20")


def test_criterion_8b_monotone_refinement(desk_run):
    mses = prefix_mses(desk_run)
    for a, b in zip(mses, mses[1:]):
        assert b <= a + 1e-9, f"prefix MSEs not monotone: {mses}"
    report(8, f"(b) prefix-MSE monotone {['%.4f' % m for m in mses]}")


def test_criterion_8c_codebook_utilization(desk_run):
    _, utilization, _ = tok.codebook_usage(desk_run["tokenizer"], desk_run["val"])
    assert utilization > 0.5, f"utilization {utilization:.2f}"
    report(8, f"(c) codebook utilization {utilization:.2f} > 0.5")


def test_criterion_8d_prior_heldout_loss(desk_run):
    loss = pr.per_token_loss(desk_run["prior"], desk_run["val_grids"],
                             desk_run["val_labels"])
    bound = math.log(64.0) - 0.5
    assert loss < bound, f"per-token loss {loss:.3f} >= {bound:.3f}"
    report(8, f"(d) held-out per-token loss {loss:.3f} < {bound:.3f}")


def test_criterion_8e_conditional_samples_pass_detectors(desk_run):
    rates = detector_rates(desk_run)
    for label_id, rate in rates.items():
        assert rate >= 0.9, f"label {label_id}: {rate:.2f}"
    report(8, f"(e) detector pass rates {['%.2f' % rates[i] for i in range(4)]} all >= 0.90")


def test_criterion_8_runtime_budget(desk_run):
    # the stated budget is 30 minutes on 4 cores; this run is single-threaded
    assert desk_run["wall_s"] < 30 * 60, f"pipeline took {desk_run['wall_s']:.0f}s"
    report(8, f"wall clock {desk_run['wall_s']:.0f}s within the 30-minute budget")


def test_trained_residual_energy_non_increasing(desk_run):
    energies = tok.residual_energies(desk_run["tokenizer"], desk_run["val"][:64])
    for a, b in zip(energies, energies[1:]):
        assert b <= a * 1.001, f"residual energies not non-increasing: {energies}"
    report(8, f"(+) residual energy decays {['%.3f' % e for e in energies]}")


def test_trained_condition_sensitivity(desk_run):
    # per-label test pyramids must be likeliest under their own condition
    tkn, prior_model = desk_run["tokenizer"], desk_run["prior"]
    corpus = desk_run["corpus"]
    test_by_label = {}
    for values, label_id in zip(corpus.values["test"], corpus.labels["test"]):
        test_by_label.setdefault(int(label_id), []).append(values)
    for label_id, images in sorted(test_by_label.items()):
        grids = tok.encode_batch(tkn, np.stack(images[:10]).astype(np.float32))
        pyramids = [tok.TokenPyramid(tuple(g[i] for g in grids)) for i in range(10)]
        scores = {c: float(np.mean([joint_logprob(p, c, prior_model)
                                    for p in pyramids]))
                  for c in range(4)}
        best = max(scores, key=scores.get)
        assert best == label_id, f"label {label_id} scored best under {best}: {scores}"
    report(8, "(+) joint log-prob is maximized by the matching condition")


def test_criterion_9_metric_oracles():
    start = time.perf_counter()
    from test_metrics import frechet_oracle, kid_bruteforce  # independent oracles

    rng = np.random.default_rng(9)
    for trial in range(3):
        m = rng.normal(size=(3, 3))
        a = mx.GaussianStats(n=10, mean=rng.normal(size=3), cov=m @ m.T + 0.1 * np.eye(3))
        m = rng.normal(size=(3, 3))
        b = mx.GaussianStats(n=10, mean=rng.normal(size=3), cov=m @ m.T + 0.1 * np.eye(3))
        ours = mx.frechet_distance(a, b)
        assert abs(ours - frechet_oracle(a, b)) <= 1e-6 * max(abs(ours), 1.0)
    same = mx.GaussianStats(n=10, mean=np.ones(4), cov=np.eye(4) * 0.3)
    assert abs(mx.frechet_distance(same, same)) < 1e-8

    xa = rng.normal(size=(12, 5))
    xb = rng.normal(size=(9, 5))
    assert mx.kid(xa, xb) == pytest.approx(kid_bruteforce(xa, xb), abs=1e-12)
    with pytest.raises(ContractError):
        mx.kid(xa[:1], xb)

    base = rng.normal(size=(1000, 6))
    shift = np.array([0.7, -0.4, 0.2, 0.1, -0.3, 0.5])
    fid = mx.frechet_distance(mx.GaussianStats.from_features(base),
                              mx.GaussianStats.from_features(base + shift))
    assert fid == pytest.approx(float(shift @ shift), rel=0.05)
    assert time.perf_counter() - start < 60.0
    report(9, "metric oracles: frechet, kid, mean-shift")


def test_criterion_10_guidance_trend(desk_run):
    """Guided (CFG 4 + top-k + top-p) FID-analogue <= unguided baseline.

    Known red: at desk scale the unguided conditional model already matches
    the per-label distributions closely, so strength-4 guidance mostly
    collapses within-label diversity and the distributional distance rises.
    The README's known-failure paragraph holds the measured distances for
    this fixture and for the other guidance and truncation settings tried.
    No fault has been found in the guidance itself (criterion 7 checks its
    contracts). The assertion is kept as specified rather than loosened.
    """
    fid_guided, fid_baseline = guidance_distances(desk_run)
    assert fid_guided <= fid_baseline, (
        f"guided {fid_guided:.5f} > unguided {fid_baseline:.5f}; see the "
        "known-failure paragraph in the README: strength-4 guidance "
        "over-sharpens an already well-fit desk model")
    report(10, f"guided FID {fid_guided:.5f} <= unguided {fid_baseline:.5f}")
