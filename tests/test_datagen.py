import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import DETECTORS, default_labels, detect_parallel_bands

from mvgen import datagen as dg
from mvgen import pgmio
from mvgen.checkpoint import ArtifactError
from mvgen.numerics import ContractError


def ct_raw(values):
    arr = np.asarray(values, dtype=np.float64)
    return dg.RawSlice(intensities=arr, mask=np.ones_like(arr, dtype=bool), modality=dg.CT)


def mri_raw(values, mask=None):
    arr = np.asarray(values, dtype=np.float64)
    if mask is None:
        mask = arr > 0
    return dg.RawSlice(intensities=arr, mask=mask, modality=dg.MRI)


class TestMakePhantom:
    def spec(self, family, noise=1.0, base_seed=7):
        label = {f: i for i, f in enumerate(dg.FAMILIES)}[family]
        return dg.PhantomSpec(dg.DatasetLabel(label, family), family, noise, base_seed)

    @pytest.mark.parametrize("family", dg.FAMILIES)
    def test_deterministic(self, family):
        spec = self.spec(family)
        a = dg.make_phantom(spec, 42)
        b = dg.make_phantom(spec, 42)
        assert a.intensities.tobytes() == b.intensities.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()

    def test_ct_range_and_mri_nonnegative(self):
        for family in dg.FAMILIES:
            raw = dg.make_phantom(self.spec(family), 3)
            if raw.modality == dg.CT:
                assert raw.intensities.min() >= -1000.0
                assert raw.intensities.max() <= 1000.0
            else:
                assert raw.intensities.min() >= 0.0

    @pytest.mark.parametrize("family", dg.FAMILIES)
    def test_noiseless_is_piecewise_constant(self, family):
        raw = dg.make_phantom(self.spec(family, noise=0.0), 11)
        assert np.unique(raw.intensities).size <= 8

    def test_band_detector_fires_on_bands_not_ellipses(self):
        band_spec = self.spec(dg.PARALLEL_BANDS)
        ellipse_spec = self.spec(dg.NESTED_ELLIPSES)
        band_hits = ellipse_hits = 0
        for i in range(100):
            band_img = dg.preprocess(dg.make_phantom(band_spec, i), 32)
            ellipse_img = dg.preprocess(dg.make_phantom(ellipse_spec, i), 32)
            band_hits += detect_parallel_bands(band_img)
            ellipse_hits += detect_parallel_bands(ellipse_img)
        assert band_hits == 100
        assert ellipse_hits == 0

    @pytest.mark.parametrize("family", dg.FAMILIES)
    def test_matching_detector_fires(self, family):
        spec = self.spec(family)
        detector = DETECTORS[family]
        hits = sum(detector(dg.preprocess(dg.make_phantom(spec, i), 32)) for i in range(100))
        assert hits >= 99


class TestCtWindow:
    def test_window_edges_center_and_clamp(self):
        raw = ct_raw([[-160.0, 40.0, 240.0, 500.0]])
        out = dg.ct_window(raw)
        assert out[0, 0] == pytest.approx(0.0)
        assert out[0, 1] == pytest.approx(0.5)
        assert out[0, 2] == pytest.approx(1.0)
        assert out[0, 3] == pytest.approx(1.0)

    def test_rejects_mri(self):
        with pytest.raises(ContractError):
            dg.ct_window(mri_raw([[1.0]]))

    @given(st.floats(-1000, 1000), st.floats(-1000, 1000))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        out = dg.ct_window(ct_raw([[lo, hi]]))
        assert out[0, 0] <= out[0, 1]


class TestMriPercentileClip:
    def test_nearest_rank_bounds(self):
        values = np.arange(1, 1001, dtype=np.float64).reshape(25, 40)
        raw = mri_raw(values)
        out = dg.mri_percentile_clip(raw)
        # bounds [6, 995]; spot-check the mapping of 500.5 via its neighbours
        expected_500 = (500.0 - 6.0) / 989.0
        pos = np.nonzero(values == 500.0)
        assert out[pos][0] == pytest.approx(expected_500)
        assert out[values <= 6.0].max() == 0.0
        assert out[values >= 995.0].min() == 1.0

    def test_interior_value_mapping(self):
        values = np.concatenate([np.arange(1, 1001), [500.5]]).reshape(7, 143)
        # 1001 values: k = floor(0.005*1001) = 5 -> bounds [6, 995] still
        out = dg.mri_percentile_clip(mri_raw(values))
        assert out.reshape(-1)[-1] == pytest.approx((500.5 - 6.0) / 989.0)

    def test_constant_nonzero_maps_to_zero_with_warning(self):
        with pytest.warns(UserWarning, match="degenerate"):
            out = dg.mri_percentile_clip(mri_raw(np.full((4, 4), 3.0)))
        assert np.all(out == 0.0)

    def test_fraction_zero_is_minmax(self):
        # 3 non-zero values: floor(MRI_CLIP_FRACTION * 3) = 0 clipped at each end
        out = dg.mri_percentile_clip(mri_raw([[0.0, 2.0, 4.0, 6.0]]))
        assert out[0, 0] == 0.0  # zero pixel stays zero
        assert out[0, 1] == pytest.approx(0.0)  # minimum of non-zeros
        assert out[0, 3] == pytest.approx(1.0)

    def test_all_zero_slice_is_degenerate(self):
        with pytest.raises(dg.DegenerateInputError):
            dg.mri_percentile_clip(mri_raw(np.zeros((4, 4))))

    def test_invariant_to_positive_rescale(self):
        rng = np.random.default_rng(0)
        values = np.where(rng.random((20, 20)) < 0.3, 0.0, rng.uniform(1, 100, (20, 20)))
        a = dg.mri_percentile_clip(mri_raw(values))
        b = dg.mri_percentile_clip(mri_raw(values * 17.5))
        assert np.allclose(a, b, atol=1e-12)


def flood_fill_components(mask):
    """Independent oracle: stack-based flood fill, 4-connectivity."""
    mask = mask.astype(bool)
    seen = np.zeros_like(mask)
    sizes = []
    h, w = mask.shape
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            stack = [(sy, sx)]
            seen[sy, sx] = True
            size = 0
            while stack:
                y, x = stack.pop()
                size += 1
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            sizes.append(size)
    return sorted(sizes)


class TestForegroundFilter:
    def test_all_zero_mask_rejected(self):
        raw = mri_raw(np.zeros((8, 8)), mask=np.zeros((8, 8), dtype=bool))
        assert dg.foreground_filter(raw) is None

    def test_small_component_removed_large_kept(self):
        mask = np.zeros((256, 256), dtype=bool)
        mask[10:35, 10:30] = True  # 500 px
        mask[200, 200:203] = True  # 3 px, below the 65.5 px threshold
        raw = mri_raw(np.where(mask, 5.0, 0.0), mask=mask)
        kept = dg.foreground_filter(raw)
        assert kept is not None
        assert kept.mask.sum() == 500
        assert not kept.mask[200, 200]

    def test_full_frame_component_unchanged(self):
        mask = np.ones((16, 16), dtype=bool)
        raw = mri_raw(np.full((16, 16), 2.0), mask=mask)
        kept = dg.foreground_filter(raw)
        assert np.array_equal(kept.mask, mask)

    def test_never_enlarges_mask(self):
        rng = np.random.default_rng(5)
        mask = rng.random((40, 40)) < 0.4
        raw = mri_raw(np.where(mask, 1.0, 0.0), mask=mask)
        kept = dg.foreground_filter(raw)
        if kept is not None:
            assert not np.any(kept.mask & ~mask)

    @pytest.mark.parametrize("seed", range(6))
    def test_labelling_matches_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((30, 30)) < 0.45
        _, counts = dg.label_components(mask)
        assert sorted(counts.tolist()) == flood_fill_components(mask)


class TestResizeCanonical:
    def test_zero_resolution_rejected(self):
        label, family = default_labels()[0]
        raw = dg.make_phantom(dg.PhantomSpec(label, family, 1.0, 7), 0)
        assert dg.preprocess(raw, 4).shape == (4, 4)
        with pytest.raises(ContractError, match="at least 1x1"):
            dg.preprocess(raw, 0)


@pytest.fixture(scope="module")
def small_corpus():
    specs = [dg.PhantomSpec(lbl, fam, 1.0, 7) for lbl, fam in default_labels()]
    return dg.build_corpus(specs, per_label=20, resolution=32, master_seed=3)


class TestBuildCorpus:
    def test_split_arithmetic(self, small_corpus):
        assert len(small_corpus.values["train"]) == 64
        assert len(small_corpus.values["val"]) == 8
        assert len(small_corpus.values["test"]) == 8

    def test_full_default_split_counts(self):
        # 4 labels x 500 at 0.8/0.1/0.1 -> 1600/200/200 (arithmetic only)
        per_label, split = 500, (0.8, 0.1, 0.1)
        n_val = int(np.floor(per_label * split[1]))
        n_test = int(np.floor(per_label * split[2]))
        assert (per_label - n_val - n_test) * 4 == 1600
        assert n_val * 4 == 200 and n_test * 4 == 200

    def test_determinism_of_manifest_hash(self, small_corpus):
        specs = [dg.PhantomSpec(lbl, fam, 1.0, 7) for lbl, fam in default_labels()]
        again = dg.build_corpus(specs, per_label=20, resolution=32, master_seed=3)
        assert again.manifest_hash() == small_corpus.manifest_hash()

    def test_all_values_in_unit_interval(self, small_corpus):
        for split in ("train", "val", "test"):
            values = small_corpus.values[split]
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_test_slices_pass_their_detector(self, small_corpus):
        families = {lbl.id: fam for lbl, fam in default_labels()}
        for values, label_id in zip(small_corpus.values["test"], small_corpus.labels["test"]):
            assert DETECTORS[families[label_id]](values)

    def test_manifest_header(self, small_corpus):
        assert small_corpus.manifest_text().startswith("MVCORPUS 1\n")

    def test_zero_per_label_rejected(self):
        specs = [dg.PhantomSpec(lbl, fam, 1.0, 7) for lbl, fam in default_labels()]
        with pytest.raises(ContractError):
            dg.build_corpus(specs, per_label=0, resolution=32)

    @pytest.mark.parametrize("labels,needle", [
        ([(0, "a"), (2, "b")], r"label ids must run 0\.\.1, not \[0, 2\]"),
        ([(-1, "a")], r"label ids must run 0\.\.0, not \[-1\]"),
        ([(0, "same"), (1, "same")], "label names must be distinct path components"),
        ([(0, "a/b")], "label names must be distinct path components"),
    ])
    def test_bad_label_table_rejected(self, labels, needle):
        specs = [dg.PhantomSpec(dg.DatasetLabel(i, name), dg.FAMILIES[0], 1.0, 7)
                 for i, name in labels]
        with pytest.raises(ContractError, match=needle):
            dg.build_corpus(specs, per_label=2, resolution=16)

    def test_bad_split_rejected(self):
        specs = [dg.PhantomSpec(lbl, fam, 1.0, 7) for lbl, fam in default_labels()]
        with pytest.raises(ContractError):
            dg.build_corpus(specs, per_label=4, resolution=32, split=(0.5, 0.2, 0.2))


class TestPgmIO:
    def test_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.random((13, 17))
        path = tmp_path / "img.pgm"
        pgmio.write_pgm(path, values)
        back = pgmio.read_pgm(path)
        assert back.shape == (13, 17)
        assert np.abs(back - values).max() <= 0.5 / 255 + 1e-12

    def test_exact_for_quantized_values(self, tmp_path):
        values = np.arange(256, dtype=np.float64).reshape(16, 16) / 255.0
        path = tmp_path / "q.pgm"
        pgmio.write_pgm(path, values)
        assert np.array_equal(pgmio.read_pgm(path), values)

    def test_rejects_non_p5(self):
        with pytest.raises(ValueError):
            pgmio.decode_pgm(b"P2\n1 1\n255\n0")

    @pytest.mark.parametrize("blob", [
        b"P5", b"P5\n4 3\n", b"P5\n4 3\n255\n" + bytes(11), b"P5 # comment", b"P5\n4 x\n255\n",
        b"P5\n0 3\n255\n", b"P5\n-4 3\n255\n" + bytes(12)])
    def test_cut_short_or_malformed_raises_artifact_error(self, blob):
        with pytest.raises(ArtifactError):
            pgmio.decode_pgm(blob)

    def test_read_names_the_file(self, tmp_path):
        path = tmp_path / "cut.pgm"
        path.write_bytes(pgmio.encode_pgm(np.zeros((4, 4)))[:-3])
        with pytest.raises(ArtifactError, match="cut.pgm"):
            pgmio.read_pgm(path)


VALID_PGM = pgmio.encode_pgm(np.linspace(0.0, 1.0, 12).reshape(3, 4))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=40).map(lambda b: b"P5" + b),
    st.text("0123456789 #\n-", max_size=24).map(lambda t: b"P5" + t.encode()),
    st.integers(0, len(VALID_PGM)).map(lambda n: VALID_PGM[:n]),
    st.tuples(st.integers(0, len(VALID_PGM) - 1), st.integers(0, 255)).map(
        lambda t: VALID_PGM[:t[0]] + bytes([t[1]]) + VALID_PGM[t[0] + 1:])))
def test_decode_pgm_parses_or_raises_artifact_error(blob):
    try:
        values = pgmio.decode_pgm(blob)
    except ArtifactError:
        return
    assert values.ndim == 2 and values.size and 0.0 <= values.min() <= values.max() <= 1.0


class TestManifest:
    @pytest.fixture()
    def saved(self, tmp_path, small_corpus):
        dg.save_corpus(small_corpus, tmp_path)
        return tmp_path

    @pytest.mark.parametrize("edit", [
        lambda lines: ["MVCORPUS 2"] + lines[1:],
        lambda lines: [],
        lambda lines: lines[:1],
        lambda lines: lines + ["images/x/a.pgm\t0\ttrain"],
        lambda lines: lines + ["images/x/a.pgm\tzero\ttrain\t1"],
        lambda lines: lines + ["images/x/a.pgm\t0\tholdout\t1"],
        lambda lines: lines + ["a.pgm\t0\ttrain\t1"],
        lambda lines: lines + ["images/ring_with_core\t2\ttrain\t1"],
        lambda lines: lines + ["images/ring_with_core/a\0.pgm\t2\ttrain\t1"],
        lambda lines: lines + ["images/../ring_with_core/train_00000.pgm\t2\ttrain\t1"],
        lambda lines: lines + ["/images/ring_with_core/train_00000.pgm\t2\ttrain\t1"],
        lambda lines: lines + ["images/ring_with_core/train_00000.png\t2\ttrain\t1"],
        lambda lines: lines + ["images/ring_with_core/train_00000.pgm\t0\ttrain\t1"],
        lambda lines: [line.replace("\t3\t", "\t5\t") for line in lines],
        lambda lines: [line.replace("parallel_bands/", "nested_ellipses/") for line in lines],
        lambda lines: lines + ["images/ring_with_core/train_00000.pgm\t2\ttrain\t" + "1" * 5000],
    ])
    def test_malformed_manifest_raises_artifact_error(self, saved, edit):
        path = saved / "manifest.txt"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ArtifactError, match="manifest"):
            dg.load_corpus(saved)

    def test_truncated_slice_raises_artifact_error(self, saved):
        first = saved / (saved / "manifest.txt").read_text().splitlines()[1].split("\t")[0]
        first.write_bytes(first.read_bytes()[:-1])
        with pytest.raises(ArtifactError, match=first.name):
            dg.load_corpus(saved)

    def test_slice_of_another_size_raises_artifact_error(self, saved):
        last = saved / (saved / "manifest.txt").read_text().splitlines()[-1].split("\t")[0]
        pgmio.write_pgm(last, np.zeros((8, 8)))
        with pytest.raises(ArtifactError, match=f"{last.name}: a 8x8 slice in a corpus of 32x32"):
            dg.load_corpus(saved)

    def test_path_naming_a_directory_raises_artifact_error(self, saved):
        (saved / "images" / "ring_with_core" / "dir.pgm").mkdir()
        manifest = saved / "manifest.txt"
        manifest.write_text(manifest.read_text() + "images/ring_with_core/dir.pgm\t2\ttest\t1\n")
        with pytest.raises(ArtifactError, match="dir.pgm: Is a directory"):
            dg.load_corpus(saved)

    def test_path_too_long_to_open_raises_artifact_error(self, saved):
        manifest = saved / "manifest.txt"
        name = "x" * 300 + ".pgm"
        manifest.write_text(manifest.read_text() + f"images/ring_with_core/{name}\t2\ttest\t1\n")
        with pytest.raises(ArtifactError, match=f"{name}: File name too long"):
            dg.load_corpus(saved)

    def test_loads_the_saved_corpus(self, saved, small_corpus):
        loaded = dg.load_corpus(saved, dtype=np.float64)
        assert loaded.records == small_corpus.records
        assert loaded.label_names == small_corpus.label_names
        assert loaded.resolution == small_corpus.resolution == 32
        for split in ("train", "val", "test"):
            assert np.array_equal(loaded.labels[split], small_corpus.labels[split])
            assert np.abs(loaded.values[split] - small_corpus.values[split]).max() <= 0.5 / 255


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory, small_corpus):
    """A saved small corpus whose manifest each example rewrites, and its text."""
    root = tmp_path_factory.mktemp("fuzzed")
    dg.save_corpus(small_corpus, root)
    return root, (root / "manifest.txt").read_bytes()


def mutations(text: bytes):
    """Cuts, byte edits, insertions, deletions and reordered line picks of text."""
    lines = text.split(b"\n")
    n = len(text)
    alphabet = st.sampled_from([bytes([c]) for c in b"\t\n/.\x00 0123456789_aeglmprst\xff"])
    return st.one_of(
        st.integers(0, n).map(lambda k: text[:k]),
        st.tuples(st.integers(0, n - 1), alphabet).map(
            lambda t: text[:t[0]] + t[1] + text[t[0] + 1:]),
        st.tuples(st.integers(0, n), st.lists(alphabet, max_size=6)).map(
            lambda t: text[:t[0]] + b"".join(t[1]) + text[t[0]:]),
        st.tuples(st.integers(0, n), st.integers(0, 40)).map(
            lambda t: text[:t[0]] + text[t[0] + t[1]:]),
        st.lists(st.integers(1, len(lines) - 1), max_size=12).map(
            lambda picks: b"\n".join([lines[0]] + [lines[i] for i in picks]) + b"\n"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_manifest_loads_or_raises_artifact_error(fuzzed, data):
    root, text = fuzzed
    (root / "manifest.txt").write_bytes(data.draw(mutations(text)))
    try:
        corpus = dg.load_corpus(root)
    except ArtifactError:
        return
    except FileNotFoundError as err:  # a well-formed path that names no file
        parts = os.path.relpath(err.filename, root).split("/")
        assert len(parts) == 3 and parts[0] == "images" and parts[2].endswith(".pgm")
        assert ".." not in parts and not any("\0" in p for p in parts)
        return
    assert isinstance(corpus, dg.Corpus)
    assert sum(len(v) for v in corpus.values.values()) == len(corpus.records)
    assert sorted(corpus.label_names) == list(range(len(corpus.label_names)))
