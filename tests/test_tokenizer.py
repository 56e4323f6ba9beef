import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import quantize

from mvgen import tokenizer as tok
from mvgen.checkpoint import ArtifactError
from mvgen.numerics import (
    ContractError,
    NumericError,
    OptimizerConfig,
    Tensor,
    as_tensor,
)


@pytest.fixture()
def tiny_model():
    cfg = tok.TokenizerConfig(resolution=8, schedule=(1, 2), vocab_size=8,
                              embed_dim=4, dtype="float64")
    return tok.TokenizerModel.create(cfg, seed=3)


@pytest.fixture()
def desk_model():
    return tok.TokenizerModel.create(tok.TokenizerConfig(dtype="float64"), seed=1)


class TestScaleSchedule:
    def test_paper_schedule_token_count(self):
        assert tok.PAPER_SCHEDULE.token_count == 680

    def test_desk_schedule_token_count(self):
        assert tok.DESK_SCHEDULE.token_count == 30

    @pytest.mark.parametrize("sizes,count", [
        ((1,), 1), ((1, 2), 5), ((1, 2, 3), 14), ((2, 4, 8), 84),
        ((1, 3, 9), 91), ((1, 2, 3, 4, 5), 55),
    ])
    def test_token_count_family(self, sizes, count):
        assert tok.ScaleSchedule(sizes).token_count == count
        assert tok.ScaleSchedule(sizes).token_count == sum(n * n for n in sizes)

    def test_rejects_non_increasing(self):
        with pytest.raises(ContractError):
            tok.ScaleSchedule((1, 2, 2))

    def test_position_slices_partition(self):
        slices = tok.ScaleSchedule((1, 2, 3)).position_slices()
        assert [s.stop - s.start for s in slices] == [1, 4, 9]
        assert slices[-1].stop == 14


class TestQuantize:
    def cb(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        return tok.Codebook(embeddings=rows, ema_counts=np.zeros(len(rows)),
                            ema_sums=np.zeros_like(rows))

    def test_nearest(self):
        cb = self.cb([[0.0, 0.0], [1.0, 1.0]])
        assert quantize(np.array([0.2, 0.1]), cb) == 0

    def test_tie_breaks_low_index(self):
        cb = self.cb([[0.0, 0.0], [1.0, 1.0]])
        assert quantize(np.array([0.5, 0.5]), cb) == 0

    def test_exact_row_match(self):
        rows = np.random.default_rng(1).normal(size=(6, 3))
        cb = self.cb(rows)
        for j in range(6):
            assert quantize(rows[j], cb) == j

    def test_nan_rejected(self):
        cb = self.cb([[0.0], [1.0]])
        with pytest.raises(NumericError):
            quantize(np.array([np.nan]), cb)

    def test_grid_quantize_matches_scalar(self):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(5, 3))
        cb = self.cb(emb)
        feats = rng.normal(size=(2, 3, 4, 4))
        grid = tok._quantize_grid(feats, emb)
        for b in range(2):
            for y in range(4):
                for x in range(4):
                    assert grid[b, y, x] == quantize(feats[b, :, y, x], cb)


class TestEncodeDecode:
    def test_shapes_and_range_on_untrained_model(self, desk_model):
        rng = np.random.default_rng(0)
        images = rng.random((3, 32, 32))
        grids = tok.encode_batch(desk_model, images)
        assert [g.shape for g in grids] == [(3, 1, 1), (3, 2, 2), (3, 3, 3), (3, 4, 4)]
        recon = tok.decode_batch(desk_model, grids)
        assert recon.shape == (3, 32, 32)
        assert recon.min() >= 0.0 and recon.max() <= 1.0

    def test_single_scale_exact_codebook_gives_zero_residual(self):
        cfg = tok.TokenizerConfig(resolution=8, schedule=(4,), vocab_size=16,
                                  embed_dim=4, dtype="float64")
        model = tok.TokenizerModel.create(cfg, seed=0)
        rng = np.random.default_rng(3)
        image = rng.random((8, 8))
        with tok.no_grad():
            latent = model.encoder_forward(image[None]).values
        cells = latent[0].transpose(1, 2, 0).reshape(-1, 4)
        model.codebook.embeddings = cells.copy()  # codebook = exact latents
        grids = tok.encode_batch(model, image[None])
        looked_up = model.codebook.embeddings[grids[0][0]].transpose(2, 0, 1)
        assert np.allclose(looked_up, latent[0], atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partial_reconstruction_decodes_the_first_k_grids(self, desk_model, k):
        images = np.random.default_rng(10).random((70, 32, 32))
        assert tok.EVAL_CHUNK < 70  # two evaluation chunks
        recon = tok.decode_batch(desk_model, tok.encode_batch(desk_model, images)[:k])
        expected = float(((recon - images) ** 2).mean())
        got = tok.reconstruction_mse(desk_model, images, upto_scale=k)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_encode_rejects_wrong_resolution(self, desk_model):
        with pytest.raises(ContractError):
            tok.encode_batch(desk_model, np.zeros((1, 16, 16)))

    def test_decode_rejects_out_of_range_index(self, desk_model):
        grids = [np.zeros((1, n, n), dtype=np.int64) for n in (1, 2, 3, 4)]
        grids[1][0, 0, 0] = 64
        with pytest.raises(ContractError):
            tok.decode_batch(desk_model, grids)

    @pytest.mark.parametrize("shapes", [
        [],
        [(1, 2, 2), (1, 3, 3), (1, 5, 5), (1, 7, 7)],
        [(1, n, n) for n in (1, 2, 3, 4, 5)],
        [(2, 1, 1), (1, 2, 2)],
        [(1, 1)],
        [(1, 1, 1), (1, 2, 3)],
    ], ids=["no_grid", "off_schedule", "five_grids", "mixed_batch", "unbatched", "not_square"])
    def test_decode_rejects_grids_off_the_schedule(self, desk_model, shapes):
        with pytest.raises(ContractError):
            tok.decode_batch(desk_model, [np.zeros(shape, dtype=np.int64) for shape in shapes])

    @pytest.mark.parametrize("fill", [-1, 0.5], ids=["negative", "non_integer"])
    def test_decode_rejects_codes_that_are_not_codebook_rows(self, desk_model, fill):
        with pytest.raises(ContractError, match="grid 0 holds"):
            tok.decode_batch(desk_model, [np.full((1, n, n), fill) for n in (1, 2, 3, 4)])

    def test_constant_index_decode_deterministic(self, desk_model):
        grids = [np.full((1, n, n), 5, dtype=np.int64) for n in (1, 2, 3, 4)]
        a = tok.decode_batch(desk_model, grids)
        b = tok.decode_batch(desk_model, grids)
        assert a.tobytes() == b.tobytes()

    def test_decode_sensitive_to_scale_assignment(self, desk_model):
        # constant grids with indices swapped between two scales must differ
        a = [np.full((1, n, n), 3 if k != 1 else 9, dtype=np.int64)
             for k, n in enumerate((1, 2, 3, 4))]
        b = [np.full((1, n, n), 3 if k != 2 else 9, dtype=np.int64)
             for k, n in enumerate((1, 2, 3, 4))]
        out_a = tok.decode_batch(desk_model, a)
        out_b = tok.decode_batch(desk_model, b)
        assert not np.array_equal(out_a, out_b)

    def test_phi_is_half_input_plus_half_conv(self, tiny_model):
        # VAR's Phi: with the conv silenced a refinement is half its input, so
        # an untrained walk subtracts part of the code instead of a random mix
        f = np.random.default_rng(2).normal(size=(2, 4, 2, 2))
        tiny_model.params["phi1.w"].values = np.zeros_like(tiny_model.params["phi1.w"].values)
        assert np.array_equal(tiny_model.phi(1, as_tensor(f)).values, 0.5 * f)

    def test_roundtrip_encode_decode_pyramid_shapes(self, tiny_model):
        image = np.random.default_rng(1).random((8, 8))
        grids = tok.encode_batch(tiny_model, image[None])
        assert [g.shape for g in grids] == [(1, 1, 1), (1, 2, 2)]
        assert all(g.max() < 8 for g in grids)


class TestStraightThrough:
    def test_gradient_passes_through_quantization(self):
        # x + sg(q - x), with the offset q - x added as a constant array as
        # the walk adds it, is q forward and the identity map backward
        rng = np.random.default_rng(0)
        x_val = rng.normal(size=(3,))
        q_val = rng.normal(size=(3,))
        w = rng.normal(size=(3,))

        x = Tensor(x_val.copy(), requires_grad=True)
        st = x + as_tensor(q_val - x.values)
        (st * as_tensor(w)).sum().backward()
        assert np.allclose(st.values, q_val)
        assert np.array_equal(x.grad, w)

    def test_training_graph_gradients_flow_to_encoder(self, tiny_model):
        rng = np.random.default_rng(4)
        batch = rng.random((2, 8, 8))
        loss, _ = tok.training_graph(tiny_model, batch)
        loss.backward()
        enc_grad = tiny_model.params["enc0.w"].grad
        assert enc_grad is not None and np.abs(enc_grad).max() > 0

    def test_finest_phi_trained_to_shrink_the_walk_residual(self, tiny_model):
        # with the decoder silenced, only a term on the walk's own
        # full-resolution residual reaches the finest scale's refinement:
        # the quantizer term never sees what it subtracts
        batch = np.random.default_rng(8).random((2, 8, 8))
        for name, p in tiny_model.params.items():
            if name.startswith("dec") and name.endswith(".w"):
                p.values = np.zeros_like(p.values)
        loss, _ = tok.training_graph(tiny_model, batch)
        loss.backward()
        finest = tiny_model.schedule.num_scales - 1
        grad = tiny_model.params[f"phi{finest}.w"].grad
        assert grad is not None and np.abs(grad).max() > 0

    def test_step_statistics_match_a_per_scale_accumulation(self):
        # counts, sums and the reseed pool are bit for bit those of adding
        # each scale's cells in turn, coarse to fine
        model = tok.TokenizerModel.create(tok.TokenizerConfig(dtype="float32"), seed=5)
        batch = np.random.default_rng(12).random((8, 32, 32)).astype(np.float32)
        _, stats = tok.training_graph(model, batch)
        v, c = model.codebook.embeddings.shape
        counts = np.zeros(v, dtype=np.float64)
        sums = np.zeros((v, c), dtype=np.float64)
        pool = []
        with tok.no_grad():
            scales = tok._walk(model, batch)[1]
        for fk, idx, *_ in scales:
            flat_idx = idx.reshape(-1)
            flat_feat = fk.values.transpose(0, 2, 3, 1).reshape(-1, c)
            counts += np.bincount(flat_idx, minlength=v)
            np.add.at(sums, flat_idx, flat_feat.astype(np.float64))
            pool.append(flat_feat)
        pool = np.concatenate(pool, axis=0)
        for got, want in ((stats.counts, counts), (stats.sums, sums), (stats.feature_pool, pool)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_training_quantizes_what_encode_quantizes(self, monkeypatch):
        # in float32, subtracting phi(up(st)) and phi(up(zq)) round apart, so
        # a walk of encode's own would quantize different values than training
        model = tok.TokenizerModel.create(tok.TokenizerConfig(dtype="float32"), seed=11)
        batch = np.random.default_rng(9).random((16, 32, 32)).astype(np.float32)
        seen = []
        quantize_grid = tok._quantize_grid
        monkeypatch.setattr(tok, "_quantize_grid",
                            lambda f, emb: seen.append(f.copy()) or quantize_grid(f, emb))
        tok.training_graph(model, batch)
        trained = seen[:]
        seen.clear()
        tok.encode_batch(model, batch)
        assert len(trained) == len(seen) == model.schedule.num_scales
        for k, (a, b) in enumerate(zip(trained, seen)):
            assert np.array_equal(a, b), f"scale {k}: {np.count_nonzero(a != b)} of {a.size} differ"


class TestTraining:
    def test_loss_decreases(self, tiny_model):
        rng = np.random.default_rng(5)
        images = rng.random((32, 8, 8)) * 0.5 + 0.25
        opt = OptimizerConfig(peak_lr=3e-3, warmup_steps=10, total_steps=120)
        curve = tok.train_tokenizer(images, tiny_model, opt, steps=120,
                                    batch_size=8, seed=1, log_every=10)
        assert curve[-1][2] < curve[0][2]

    def test_ema_decay_one_freezes_codebook(self):
        cfg = tok.TokenizerConfig(resolution=8, schedule=(1, 2), vocab_size=8,
                                  embed_dim=4, ema_decay=1.0, dtype="float64")
        model = tok.TokenizerModel.create(cfg, seed=3)
        before = model.codebook.embeddings.copy()
        rng = np.random.default_rng(6)
        images = rng.random((16, 8, 8))
        opt = OptimizerConfig(peak_lr=1e-3, warmup_steps=2, total_steps=20)
        tok.train_tokenizer(images, model, opt, steps=10, batch_size=4, seed=1,
                            warm_start=False)
        assert np.array_equal(model.codebook.embeddings, before)

    def test_empty_corpus_rejected(self, tiny_model):
        opt = OptimizerConfig(peak_lr=1e-3, warmup_steps=1, total_steps=5)
        with pytest.raises(ContractError):
            tok.train_tokenizer(np.zeros((0, 8, 8)), tiny_model, opt, steps=1)

    def test_divergence_names_component_and_step(self, tiny_model):
        opt = OptimizerConfig(peak_lr=1e-3, warmup_steps=1, total_steps=5)
        before = tiny_model.codebook.embeddings.copy()
        with pytest.raises(NumericError, match="tokenizer training diverged at step 0: "
                                               "non-finite values produced by op 'conv2d'"):
            tok.train_tokenizer(np.full((4, 8, 8), np.nan), tiny_model, opt, steps=1,
                                batch_size=2)
        assert np.array_equal(tiny_model.codebook.embeddings, before)  # no warm start written

    def test_dead_code_reseeding_revives(self, tiny_model):
        rng = np.random.default_rng(7)
        images = rng.random((16, 8, 8))
        tiny_model.codebook.embeddings[5] = 1e6  # a code nothing will select
        opt = OptimizerConfig(peak_lr=1e-3, warmup_steps=10, total_steps=1200)
        tok.train_tokenizer(images, tiny_model, opt, steps=1002, batch_size=4,
                            seed=2, warm_start=False, log_every=500)
        assert np.abs(tiny_model.codebook.embeddings[5]).max() < 1e3


class TestCodebookUsage:
    def test_single_token_histogram(self):
        cfg = tok.TokenizerConfig(resolution=2, schedule=(1,), vocab_size=8,
                                  embed_dim=4, dtype="float64")
        model = tok.TokenizerModel.create(cfg, seed=2)
        hist, util, heatmap = tok.codebook_usage(model, np.random.default_rng(0).random((1, 2, 2)))
        assert np.count_nonzero(hist) == 1
        assert util == pytest.approx(1 / 8)
        assert heatmap.shape == (3, 3)

    def test_histogram_sums_to_one(self, desk_model):
        images = np.random.default_rng(1).random((5, 32, 32))
        hist, _, _ = tok.codebook_usage(desk_model, images)
        assert hist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_set_rejected(self, desk_model):
        with pytest.raises(ContractError):
            tok.codebook_usage(desk_model, np.zeros((0, 32, 32)))


class TestTokenStream:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        pyramid = tok.TokenPyramid(tuple(rng.integers(0, 64, size=(n, n))
                                         for n in (1, 2, 3, 4)))
        path = tmp_path / "tokens.mvtk"
        tok.write_token_stream(path, pyramid, 64)
        back, vocab = tok.read_token_stream(path)
        assert vocab == 64
        assert all(np.array_equal(a, b) for a, b in zip(back.grids, pyramid.grids))
        # byte-for-byte stable
        assert tok.tokens_to_bytes(back, vocab) == path.read_bytes()

    def test_magic_and_layout(self):
        pyramid = tok.TokenPyramid((np.array([[7]]),))
        blob = tok.tokens_to_bytes(pyramid, 16)
        assert blob[:4] == b"MVTK"
        assert int.from_bytes(blob[4:8], "little") == 1  # version
        assert int.from_bytes(blob[8:12], "little") == 1  # K
        assert int.from_bytes(blob[12:16], "little") == 1  # n_1
        assert int.from_bytes(blob[16:20], "little") == 16  # V
        assert int.from_bytes(blob[20:22], "little") == 7  # index

    def test_out_of_range_index_rejected(self):
        pyramid = tok.TokenPyramid((np.array([[9]]),))
        with pytest.raises(ContractError):
            tok.tokens_to_bytes(pyramid, 8)

    @pytest.mark.parametrize("cut", [0, 3, 10, 14, 19, 22, 26])
    def test_cut_short_raises_artifact_error(self, cut):
        blob = tok.tokens_to_bytes(tok.TokenPyramid((np.array([[1]]), np.ones((2, 2)))), 4)
        assert len(blob) == 34
        with pytest.raises(ArtifactError):
            tok.tokens_from_bytes(blob[:cut])

    def test_huge_scale_count_raises_artifact_error(self):
        with pytest.raises(ArtifactError, match="header of 4294967295 scales"):
            tok.tokens_from_bytes(b"MVTK" + (1).to_bytes(4, "little") + b"\xff" * 8)

    def test_read_names_the_file(self, tmp_path):
        path = tmp_path / "cut.mvtk"
        path.write_bytes(b"MVTX")
        with pytest.raises(ArtifactError, match="cut.mvtk"):
            tok.read_token_stream(path)


VALID_MVTK = tok.tokens_to_bytes(
    tok.TokenPyramid((np.array([[3]]), np.arange(4).reshape(2, 2), np.full((3, 3), 5))), 8)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=48),
    st.binary(max_size=48).map(lambda b: VALID_MVTK[:8] + b),
    st.integers(0, len(VALID_MVTK)).map(lambda n: VALID_MVTK[:n]),
    st.tuples(st.integers(0, len(VALID_MVTK) - 1), st.integers(0, 255)).map(
        lambda t: VALID_MVTK[:t[0]] + bytes([t[1]]) + VALID_MVTK[t[0] + 1:])))
def test_tokens_from_bytes_parses_or_raises_artifact_error(blob):
    try:
        pyramid, vocab = tok.tokens_from_bytes(blob)
    except ArtifactError:
        return
    assert vocab >= 0 and all(g.ndim == 2 and g.shape[0] == g.shape[1] for g in pyramid.grids)


class TestCheckpoint:
    def test_roundtrip_preserves_weights_exactly_float32(self, tmp_path):
        cfg = tok.TokenizerConfig(dtype="float32")
        model = tok.TokenizerModel.create(cfg, seed=9)
        path = tmp_path / "tok.mvckpt"
        tok.save_tokenizer(path, model, train_step=17, optimizer_state=True)
        loaded, config = tok.load_tokenizer(path)
        assert config["train_step"] == 17
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].values, p.values)
        assert np.array_equal(loaded.codebook.embeddings, model.codebook.embeddings)

    def test_encode_matches_after_roundtrip(self, tmp_path):
        cfg = tok.TokenizerConfig(dtype="float32")
        model = tok.TokenizerModel.create(cfg, seed=10)
        path = tmp_path / "tok.mvckpt"
        tok.save_tokenizer(path, model)
        loaded, _ = tok.load_tokenizer(path)
        image = np.random.default_rng(2).random((32, 32)).astype(np.float32)
        a = tok.encode_batch(model, image[None])
        b = tok.encode_batch(loaded, image[None])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_codebook_of_the_wrong_shape_rejected(self, tmp_path):
        model = tok.TokenizerModel.create(tok.TokenizerConfig(dtype="float32"), seed=0)
        model.codebook.ema_sums = np.zeros((64, 3), dtype=np.float32)
        tok.save_tokenizer(tmp_path / "t.mvckpt", model)
        with pytest.raises(ArtifactError, match="'codebook.ema_sums' has shape"):
            tok.load_tokenizer(tmp_path / "t.mvckpt")

    def test_wrong_kind_rejected(self, tmp_path):
        from mvgen import checkpoint as ckpt
        path = tmp_path / "bad.mvckpt"
        ckpt.write_checkpoint(path, {"kind": "prior"}, {"x": np.zeros(2)})
        with pytest.raises(ValueError):
            tok.load_tokenizer(path)


def test_paper_config_is_constructible():
    cfg = tok.TokenizerConfig(resolution=256, schedule=tok.PAPER_SCHEDULE.sizes,
                              vocab_size=4096, embed_dim=32)
    assert cfg.scale_schedule.token_count == 680
    assert cfg.num_stages == 4  # 256 -> 16 is a factor-16 downsample
    assert cfg.stage_widths() == [32, 64, 64, 32]
