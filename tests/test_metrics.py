import math
import time

import numpy as np
import pytest

from mvgen import metrics as mx
from mvgen import tokenizer as tok
from mvgen.numerics import ContractError


def jacobi_eigh(mat, sweeps=64):
    """Independent symmetric eigensolver: classical Jacobi rotations."""
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-18:
                    continue
                theta = 0.5 * math.atan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def frechet_oracle(a, b):
    """Frechet distance via a Jacobi eigensolver, fully independent path."""
    vals_a, vecs_a = jacobi_eigh(a.cov)
    root_a = (vecs_a * np.sqrt(np.clip(vals_a, 0, None))) @ vecs_a.T
    inner = root_a @ b.cov @ root_a
    vals, _ = jacobi_eigh((inner + inner.T) / 2)
    tr_sqrt = np.sqrt(np.clip(vals, 0, None)).sum()
    diff = a.mean - b.mean
    return float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2 * tr_sqrt)


def random_spd(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    return m @ m.T + 0.1 * np.eye(dim)


class TestFrechetDistance:
    def test_identical_gaussians_zero(self):
        stats = mx.GaussianStats(n=10, mean=np.array([1.0, 2.0]),
                                 cov=random_spd(2, 0))
        assert abs(mx.frechet_distance(stats, stats)) < 1e-8

    def test_unit_covariance_mean_shift(self):
        eye = np.eye(4)
        a = mx.GaussianStats(n=10, mean=np.zeros(4), cov=eye)
        b = mx.GaussianStats(n=10, mean=np.array([1.0, 0, 0, 0]), cov=eye)
        assert mx.frechet_distance(a, b) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_jacobi_oracle(self, seed):
        a = mx.GaussianStats(n=10, mean=np.random.default_rng(seed).normal(size=3),
                             cov=random_spd(3, seed))
        b = mx.GaussianStats(n=10, mean=np.random.default_rng(seed + 50).normal(size=3),
                             cov=random_spd(3, seed + 100))
        ours = mx.frechet_distance(a, b)
        oracle = frechet_oracle(a, b)
        assert abs(ours - oracle) <= 1e-6 * max(abs(oracle), 1.0)

    def test_symmetric(self):
        a = mx.GaussianStats(n=5, mean=np.zeros(3), cov=random_spd(3, 1))
        b = mx.GaussianStats(n=5, mean=np.ones(3), cov=random_spd(3, 2))
        assert abs(mx.frechet_distance(a, b) - mx.frechet_distance(b, a)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        a = mx.GaussianStats(n=5, mean=np.zeros(2), cov=np.eye(2))
        b = mx.GaussianStats(n=5, mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(ContractError):
            mx.frechet_distance(a, b)

    def test_mean_shift_fid_on_synthetic_features(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(1000, 6))
        d = np.array([0.8, -0.5, 0.3, 0.0, 0.2, -0.1])
        a = mx.GaussianStats.from_features(base)
        b = mx.GaussianStats.from_features(base + d)
        fid = mx.frechet_distance(a, b)
        assert fid == pytest.approx(float(d @ d), rel=0.05)


def kid_bruteforce(xa, xb):
    n, m = len(xa), len(xb)
    c = xa.shape[1]
    k = lambda u, v: (float(u @ v) / c + 1.0) ** 3
    s_aa = sum(k(xa[i], xa[j]) for i in range(n) for j in range(n) if i != j)
    s_bb = sum(k(xb[i], xb[j]) for i in range(m) for j in range(m) if i != j)
    s_ab = sum(k(xa[i], xb[j]) for i in range(n) for j in range(m))
    return s_aa / (n * (n - 1)) + s_bb / (m * (m - 1)) - 2 * s_ab / (n * m)


class TestKid:
    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(4)
        xa = rng.normal(size=(14, 5))
        xb = rng.normal(size=(11, 5))
        assert mx.kid(xa, xb) == pytest.approx(kid_bruteforce(xa, xb), abs=1e-12)

    def test_identical_multisets_match_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4))
        assert mx.kid(x, x.copy()) == pytest.approx(kid_bruteforce(x, x), abs=1e-12)

    def test_duplicated_singletons_zero(self):
        v = np.array([0.3, -1.2, 0.5])
        pair = np.stack([v, v])
        assert mx.kid(pair, pair.copy()) == pytest.approx(0.0, abs=1e-15)

    def test_singleton_set_rejected(self):
        with pytest.raises(ContractError):
            mx.kid(np.zeros((1, 3)), np.zeros((5, 3)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        xa = rng.normal(size=(8, 3))
        xb = rng.normal(size=(7, 3))
        shuffled = xa[rng.permutation(8)]
        assert mx.kid(xa, xb) == pytest.approx(mx.kid(shuffled, xb), abs=1e-12)


class TestEfficiency:
    @pytest.mark.parametrize("q,p,expected", [
        (102.27, 0.01, 59.33),
        (16.59, 0.09, 11.94),
        (10.11, 0.16, 7.69),
    ])
    def test_published_rows(self, q, p, expected):
        assert mx.efficiency(q, p) == pytest.approx(expected, abs=0.05)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -0.5])
    def test_time_must_be_finite_and_non_negative(self, p):
        with pytest.raises(ContractError, match="finite, non-negative time"):
            mx.efficiency(10.0, p)

    def test_zero_time_degenerate(self):
        assert mx.efficiency(50.0, 0.0) == 0.0

    def test_monotone_in_quality_and_time(self):
        assert mx.efficiency(10.0, 0.5) < mx.efficiency(11.0, 0.5)
        assert mx.efficiency(10.0, 0.5) < mx.efficiency(10.0, 0.6)

    def test_all_25_table_rows_within_tolerance(self):
        rows, worst = mx.verify_table1()
        assert len(rows) == 25
        assert worst <= mx.EFFICIENCY_TOLERANCE

    def test_natural_log_fails_the_table(self, monkeypatch):
        monkeypatch.setattr(mx, "efficiency",
                            lambda q, p: q * math.log(1.0 + p) ** mx.EFFICIENCY_GAMMA)
        rows, worst = mx.verify_table1()
        gan = next((row, val) for row, val in rows if row.model == "gan-style3")
        assert abs(gan[1] - gan[0].efficiency) > 5.0
        assert worst > 5.0


class TestTimeGeneration:
    def test_stub_sleep_timing(self):
        result = mx.time_generation(lambda: time.sleep(0.01), n_images=6, warmup=1)
        assert 0.009 <= result.median_s <= 0.020
        assert len(result.per_image_s) == 5
        assert "platform" in result.fingerprint

    def test_warmup_consuming_everything_rejected(self):
        with pytest.raises(ContractError):
            mx.time_generation(lambda: None, n_images=3, warmup=3)

    def test_repeated_pure_compute_stable(self):
        work = lambda: np.linalg.eigvalsh(np.ones((40, 40)) + np.eye(40))
        a = mx.time_generation(work, n_images=8, warmup=2).median_s
        b = mx.time_generation(work, n_images=8, warmup=2).median_s
        if abs(a - b) > 0.5 * max(a, b):
            pytest.skip("machine too loaded for timing stability (non-blocking)")


@pytest.fixture(scope="module")
def embedder():
    cfg = tok.TokenizerConfig(dtype="float32")
    return mx.FeatureEmbedder(tok.TokenizerModel.create(cfg, seed=4), checkpoint_hash="test")


class TestEvaluate:
    def test_identical_sets_near_zero(self, embedder):
        rng = np.random.default_rng(7)
        images = rng.random((24, 32, 32))
        report = mx.evaluate(images, images.copy(), embedder)
        assert report.fid < 1e-6
        # the unbiased estimator is not exactly zero on literally identical
        # sets (the cross mean keeps self-pairs); it must match the oracle
        feats = embedder.embed(images)
        assert report.kid == pytest.approx(kid_bruteforce(feats, feats), abs=1e-12)
        assert report.kid <= 0.0  # self-pairs only inflate the cross term

    def test_report_internally_consistent(self, embedder):
        rng = np.random.default_rng(8)
        real = rng.random((16, 32, 32))
        fake = rng.random((16, 32, 32)) * 0.5
        report = mx.evaluate(real, fake, embedder, median_time_s=0.25, model="x", seed=3)
        assert report.efficiency == mx.efficiency(max(report.fid, 0.0), 0.25)
        row = report.csv_row()
        assert row.startswith("x,16,16,")
        assert len(row.split(",")) == len(mx.CSV_HEADER.split(","))

    def test_zero_time_flagged_degenerate(self, embedder):
        rng = np.random.default_rng(9)
        imgs = rng.random((8, 32, 32))
        report = mx.evaluate(imgs, imgs, embedder)
        assert report.degenerate_time
        assert report.efficiency == 0.0
        assert "degenerate" in report.text_report()

    def test_embedder_deterministic(self, embedder):
        rng = np.random.default_rng(10)
        images = rng.random((6, 32, 32))
        a = embedder.embed(images)
        b = embedder.embed(images)
        assert np.array_equal(a, b)
        assert a.shape == (6, 8)

    def test_embedding_independent_of_chunk_size(self, embedder, monkeypatch):
        rng = np.random.default_rng(11)
        images = rng.random((70, 32, 32))
        monkeypatch.setattr(mx, "EMBED_CHUNK", 70)
        whole = embedder.embed(images)
        for chunk in (1, 7, 32, 128):
            monkeypatch.setattr(mx, "EMBED_CHUNK", chunk)
            assert embedder.embed(images).tobytes() == whole.tobytes()


def test_gaussian_stats_validation():
    with pytest.raises(ContractError):
        mx.GaussianStats(n=1, mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(ContractError):
        mx.GaussianStats.from_features(np.zeros((1, 3)))
