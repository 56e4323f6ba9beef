"""Synthetic phantom corpus with the full preprocessing pipeline.

Four procedurally generated geometry families stand in for clinical data: two
CT-style families (pseudo Hounsfield units on an air background) and two
MRI-style families (non-negative intensities on a true-zero background, with
rare heavy-tailed outliers). The hand-written detector of each family, the
independent oracle for corpus quality and conditional samples, lives with the
tests (tests/oracles.py), apart from the code it judges.

Pipeline order is fixed: foreground filter -> modality normalization
(CT windowing / MRI percentile clipping) -> resize to the canonical square
resolution. Everything is a pure function of (spec, seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import warnings
from typing import Callable, Iterable

import numpy as np

from .checkpoint import ArtifactError, write_artifact
from .numerics import ContractError, resize_bilinear
from .rng import rng_for


class DegenerateInputError(ValueError):
    """Input carries no usable signal (e.g. an all-zero MRI slice)."""


CT = "CT"
MRI = "MRI"

NESTED_ELLIPSES = "nested_ellipses"
PARALLEL_BANDS = "parallel_bands"
RING_WITH_CORE = "ring_with_core"
LATTICE_OF_BLOBS = "lattice_of_blobs"

FAMILIES = (NESTED_ELLIPSES, PARALLEL_BANDS, RING_WITH_CORE, LATTICE_OF_BLOBS)
FAMILY_MODALITY = {
    NESTED_ELLIPSES: CT,
    PARALLEL_BANDS: CT,
    RING_WITH_CORE: MRI,
    LATTICE_OF_BLOBS: MRI,
}

# mask components smaller than this share of the slice are dropped
MIN_AREA_FRACTION = 0.001

# the soft-tissue CT window, in HU
CT_WINDOW_LEVEL = 40.0
CT_WINDOW_WIDTH = 400.0
MRI_CLIP_FRACTION = 0.005  # share of the non-zero MRI intensities clipped at each end


@dataclasses.dataclass(frozen=True)
class DatasetLabel:
    id: int
    name: str


@dataclasses.dataclass(frozen=True)
class PhantomSpec:
    label: DatasetLabel
    family: str
    noise_level: float = 1.0
    base_seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown geometry family '{self.family}'")
        if self.noise_level < 0:
            raise ContractError("noise_level must be non-negative")

    @property
    def modality(self) -> str:
        return FAMILY_MODALITY[self.family]


@dataclasses.dataclass
class RawSlice:
    intensities: np.ndarray
    mask: np.ndarray
    modality: str

    def __post_init__(self):
        if self.intensities.shape != self.mask.shape:
            raise ContractError("intensity and mask extents must match")
        if self.modality == MRI and self.intensities.min() < 0:
            raise ContractError("MRI intensities must be non-negative")


def _is_path_component(name) -> bool:
    """Whether name is one plain file or directory name: printable ASCII (the
    manifest's charset), no separator, and not '.' or '..'."""
    return (isinstance(name, str) and name.isascii() and name.isprintable()
            and name not in ("", ".", "..") and "/" not in name and "\\" not in name)


def label_table(pairs: Iterable[tuple], error: Callable[[str], Exception] = ContractError
                ) -> dict[int, str]:
    """{id: name} from (id, name) pairs whose ids, as ints or decimal strings,
    run 0..n-1 and whose names are distinct path components; error(why) if not."""
    pairs = list(pairs)
    ids, names = [i for i, _ in pairs], [name for _, name in pairs]
    if sorted(map(str, ids)) != sorted(map(str, range(len(ids)))):
        raise error(f"label ids must run 0..{len(ids) - 1}, not {ids}")
    if not all(map(_is_path_component, names)) or len(set(names)) < len(names):
        raise error(f"label names must be distinct path components, not {names}")
    return {int(i): name for i, name in pairs}


# -- phantom construction -----------------------------------------------------


def _disk(yy, xx, cy, cx, radius):
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2


def _ellipse(yy, xx, cy, cx, a, b, angle):
    dy, dx = yy - cy, xx - cx
    ca, sa = np.cos(angle), np.sin(angle)
    u = dx * ca + dy * sa
    v = -dx * sa + dy * ca
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def make_phantom(spec: PhantomSpec, seed: int) -> RawSlice:
    """Deterministic phantom for (spec, seed); see the family catalogue above."""
    rng = rng_for(spec.base_seed, seed, spec.label.id, "phantom")
    size = int(rng.integers(44, 65))
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    s = float(size)

    if spec.family == NESTED_ELLIPSES:
        img = np.full((size, size), -1000.0)
        cy = s / 2 + rng.uniform(-0.06, 0.06) * s
        cx = s / 2 + rng.uniform(-0.06, 0.06) * s
        a = rng.uniform(0.30, 0.40) * s
        b = a * rng.uniform(0.50, 0.70)
        angle = rng.uniform(0, np.pi)
        mask = _ellipse(yy, xx, cy, cx, a, b, angle)
        for scale, hu in ((1.0, 0.0), (0.62, 120.0), (0.30, 220.0)):
            img[_ellipse(yy, xx, cy, cx, a * scale, b * scale, angle)] = hu
    elif spec.family == PARALLEL_BANDS:
        img = np.full((size, size), -1000.0)
        cy = s / 2 + rng.uniform(-0.03, 0.03) * s
        cx = s / 2 + rng.uniform(-0.03, 0.03) * s
        body = _disk(yy, xx, cy, cx, 0.46 * s)
        period = rng.uniform(0.12, 0.22) * s
        phase = rng.uniform(0, period)
        bright = (np.floor((yy - phase) / period).astype(np.int64) % 2) == 0
        img[body] = -40.0
        img[body & bright] = 140.0
        mask = body
    elif spec.family == RING_WITH_CORE:
        img = np.zeros((size, size))
        cy = s / 2 + rng.uniform(-0.04, 0.04) * s
        cx = s / 2 + rng.uniform(-0.04, 0.04) * s
        r_core = rng.uniform(0.10, 0.14) * s
        r_gap = rng.uniform(0.24, 0.30) * s
        r_ring = rng.uniform(0.36, 0.42) * s
        mask = _disk(yy, xx, cy, cx, r_ring)
        img[mask] = 60.0 * rng.uniform(0.9, 1.1)
        ring = mask & ~_disk(yy, xx, cy, cx, r_gap)
        img[ring] = 420.0 * rng.uniform(0.9, 1.1)
        img[_disk(yy, xx, cy, cx, r_core)] = 500.0 * rng.uniform(0.9, 1.1)
    elif spec.family == LATTICE_OF_BLOBS:
        img = np.zeros((size, size))
        cy = s / 2 + rng.uniform(-0.02, 0.02) * s
        cx = s / 2 + rng.uniform(-0.02, 0.02) * s
        plate = _disk(yy, xx, cy, cx, 0.47 * s)
        img[plate] = 70.0 * rng.uniform(0.9, 1.1)
        span = 0.72 * s
        spacing = span / 3.0
        blob_r = spacing * rng.uniform(0.26, 0.34)
        blob_value = 480.0 * rng.uniform(0.95, 1.05)
        for gy in range(4):
            for gx in range(4):
                by = cy - span / 2 + gy * spacing + rng.uniform(-0.10, 0.10) * spacing
                bx = cx - span / 2 + gx * spacing + rng.uniform(-0.10, 0.10) * spacing
                img[_disk(yy, xx, by, bx, blob_r)] = blob_value
        mask = plate
    else:  # pragma: no cover - guarded by PhantomSpec
        raise ContractError(spec.family)

    if spec.noise_level > 0:
        if spec.modality == CT:
            img = img + rng.normal(0.0, 10.0 * spec.noise_level, size=img.shape)
            img = np.clip(img, -1000.0, 1000.0)
        else:
            noise = rng.normal(0.0, 8.0 * spec.noise_level, size=img.shape)
            img = np.where(mask, img + noise, img)
            # rare heavy-tailed intensity spikes, the reason percentile clipping exists;
            # two-sided in log space so roughly half land above the usual range
            fg = np.flatnonzero(mask)
            n_out = max(1, int(round(0.01 * fg.size)))
            picks = rng.choice(fg, size=n_out, replace=False)
            tails = np.clip(rng.standard_cauchy(size=n_out), -5.0, 5.0)
            flat = img.reshape(-1)
            flat[picks] = flat[picks] * np.exp(0.8 * tails)
            img = np.clip(flat.reshape(img.shape), 0.0, None)
    return RawSlice(intensities=img, mask=mask.copy(), modality=spec.modality)


# -- modality normalization ---------------------------------------------------


def ct_window(raw: RawSlice) -> np.ndarray:
    """Map HU through the fixed window to [0, 1]: clamp((v - (level - width/2)) / width)."""
    if raw.modality != CT:
        raise ContractError("ct_window requires a CT slice")
    lo = CT_WINDOW_LEVEL - CT_WINDOW_WIDTH / 2.0
    return np.clip((raw.intensities - lo) / CT_WINDOW_WIDTH, 0.0, 1.0)


def mri_percentile_clip(raw: RawSlice) -> np.ndarray:
    """Clip to percentile bounds of the non-zero intensities, then map to [0, 1].

    Bounds drop the lowest/highest floor(MRI_CLIP_FRACTION * n) order
    statistics of the sorted non-zero values; zero pixels always map to 0.
    """
    if raw.modality != MRI:
        raise ContractError("mri_percentile_clip requires an MRI slice")
    nonzero = np.sort(raw.intensities[raw.intensities > 0])
    if nonzero.size == 0:
        raise DegenerateInputError("all-zero MRI slice")
    k = int(np.floor(MRI_CLIP_FRACTION * nonzero.size))
    p_low, p_high = nonzero[k], nonzero[nonzero.size - 1 - k]
    out = np.zeros_like(raw.intensities, dtype=np.float64)
    fg = raw.intensities > 0
    if p_high == p_low:
        warnings.warn("degenerate MRI intensity range; foreground mapped to 0")
        return out
    out[fg] = (np.clip(raw.intensities[fg], p_low, p_high) - p_low) / (p_high - p_low)
    return out


# -- connected components and the foreground filter ---------------------------


def label_components(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-connected component labelling. Returns (labels starting at 1, counts).

    counts[i] is the pixel count of component i+1.
    """
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    parent: list[int] = [0]

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    prev_runs: list[tuple[int, int, int]] = []  # (start, end, label) on previous row
    for y in range(h):
        row = mask[y]
        runs: list[tuple[int, int, int]] = []
        x = 0
        while x < w:
            if not row[x]:
                x += 1
                continue
            x0 = x
            while x < w and row[x]:
                x += 1
            lbl = 0
            for ps, pe, plbl in prev_runs:
                if ps < x and pe > x0:  # columns overlap -> 4-connected
                    root = find(plbl)
                    if lbl == 0:
                        lbl = root
                    elif root != lbl:
                        a, b = sorted((root, lbl))
                        parent[b] = a
                        lbl = a
            if lbl == 0:
                parent.append(len(parent))
                lbl = len(parent) - 1
            runs.append((x0, x, lbl))
            labels[y, x0:x] = lbl
        prev_runs = runs

    if len(parent) == 1:
        return labels, np.zeros(0, dtype=np.int64)
    roots = np.array([find(i) for i in range(len(parent))], dtype=np.int32)
    remap = np.zeros(len(parent), dtype=np.int32)
    unique_roots = sorted(set(roots[1:]))
    for new, root in enumerate(unique_roots, start=1):
        remap[roots == root] = new
    labels = remap[labels]
    counts = np.bincount(labels.reshape(-1), minlength=len(unique_roots) + 1)[1:]
    return labels, counts


def foreground_filter(raw: RawSlice) -> RawSlice | None:
    """Drop mask components below MIN_AREA_FRACTION of the slice; None = rejected."""
    labels, counts = label_components(raw.mask.astype(bool))
    if counts.size == 0:
        return None
    threshold = MIN_AREA_FRACTION * raw.mask.size
    keep = np.flatnonzero(counts >= threshold) + 1
    if keep.size == 0:
        return None
    new_mask = np.isin(labels, keep)
    return RawSlice(intensities=raw.intensities, mask=new_mask, modality=raw.modality)


def preprocess(raw: RawSlice, resolution: int) -> np.ndarray | None:
    """foreground filter -> modality normalization -> canonical resize.

    Today the filter only accepts or rejects the slice: the mask it keeps does
    not reach the image, so normalization reads every pixel."""
    kept = foreground_filter(raw)
    if kept is None:
        return None
    if kept.modality == CT:
        values = ct_window(kept)
    else:
        values = mri_percentile_clip(kept)
    canonical = resize_bilinear(np.asarray(values, dtype=np.float64), resolution, resolution)
    return np.clip(canonical.values, 0.0, 1.0)


# -- corpus -------------------------------------------------------------------

SPLITS = ("train", "val", "test")


@dataclasses.dataclass(frozen=True)
class CorpusRecord:
    path: str
    label_id: int
    split: str
    seed: int


@dataclasses.dataclass
class Corpus:
    """Per split, slice values (N, R, R) in [0, 1] and their label ids (N,);
    the label table {id: name}, and one manifest record per slice."""
    values: dict[str, np.ndarray]
    labels: dict[str, np.ndarray]
    label_names: dict[int, str]
    records: list[CorpusRecord]

    @property
    def resolution(self) -> int:
        return self.values["train"].shape[-1]

    def manifest_text(self) -> str:
        lines = ["MVCORPUS 1"]
        for r in self.records:
            lines.append(f"{r.path}\t{r.label_id}\t{r.split}\t{r.seed}")
        return "\n".join(lines) + "\n"

    def manifest_hash(self) -> str:
        return hashlib.sha256(self.manifest_text().encode("ascii")).hexdigest()


def _generate_slice(spec: PhantomSpec, index: int, split_name: str, master_seed: int,
                    resolution: int) -> tuple[np.ndarray, CorpusRecord]:
    for attempt in range(8):
        seed = int(rng_for(master_seed, "sample", spec.label.id, index, attempt)
                   .integers(0, 2**31 - 1))
        values = preprocess(make_phantom(spec, seed), resolution)
        if values is not None:
            path = f"images/{spec.label.name}/{split_name}_{index:05d}.pgm"
            return values, CorpusRecord(path=path, label_id=spec.label.id,
                                        split=split_name, seed=seed)
    raise ContractError(
        f"phantom generation kept rejecting (label {spec.label.id}, index {index})")


def build_corpus(specs: Iterable[PhantomSpec], per_label: int, resolution: int,
                 split: tuple[float, float, float] = (0.8, 0.1, 0.1),
                 master_seed: int = 0) -> Corpus:
    """per_label slices of each spec, the first of them for training, the next
    for validation and the rest for testing, in per-split arrays filled in place."""
    specs = list(specs)
    if per_label <= 0:
        raise ContractError("per_label must be positive")
    if resolution < 1:
        raise ContractError("canonical resolution must be positive")
    if not (all(f >= 0 for f in split) and abs(sum(split) - 1.0) <= 1e-9):
        raise ContractError("split fractions must be non-negative and sum to 1")
    n_val = int(np.floor(per_label * split[1]))
    n_test = int(np.floor(per_label * split[2]))
    n_train = per_label - n_val - n_test
    bounds = dict(zip(SPLITS, [(0, n_train), (n_train, n_train + n_val),
                               (n_train + n_val, per_label)]))

    ids = np.array([s.label.id for s in specs], dtype=np.int64)
    values = {k: np.empty((len(specs) * (hi - lo), resolution, resolution))
              for k, (lo, hi) in bounds.items()}
    records: list[CorpusRecord] = []
    for row, spec in enumerate(specs):
        for split_name, (lo, hi) in bounds.items():
            for index in range(lo, hi):
                slice_values, record = _generate_slice(spec, index, split_name, master_seed,
                                                       resolution)
                values[split_name][row * (hi - lo) + index - lo] = slice_values
                records.append(record)
    return Corpus(values=values,
                  labels={k: np.repeat(ids, hi - lo) for k, (lo, hi) in bounds.items()},
                  label_names=label_table((s.label.id, s.label.name) for s in specs),
                  records=records)


def save_corpus(corpus: Corpus, out_dir: str | os.PathLike) -> None:
    """Write PGM slices plus the MVCORPUS manifest under out_dir."""
    from . import pgmio

    out = os.fspath(out_dir)
    rows = {name: iter(values) for name, values in corpus.values.items()}
    for record in corpus.records:
        path = os.path.join(out, record.path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pgmio.write_pgm(path, next(rows[record.split]))
    write_artifact(os.path.join(out, "manifest.txt"), corpus.manifest_text().encode("ascii"))


def load_corpus(corpus_dir: str | os.PathLike, dtype=np.float32) -> Corpus:
    """Read a saved corpus back from its manifest, as dtype values. Each line
    names an images/<label>/<file>.pgm path, one label directory per id, ids
    run 0..n-1 and every slice has the first one's square size; an
    ArtifactError names the manifest or the slice that breaks this."""
    from . import pgmio

    root = os.fspath(corpus_dir)
    manifest = os.path.join(root, "manifest.txt")
    with open(manifest, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "MVCORPUS 1":
        raise ArtifactError(f"{manifest}: not an MVCORPUS manifest")
    records = []
    names: dict[int, str] = {}
    for line in filter(None, lines[1:]):
        fields = line.split("\t")
        parts = fields[0].split("/")
        if (len(fields) != 4 or len(parts) != 3 or parts[0] != "images"
                or not all(map(_is_path_component, parts)) or not parts[2].endswith(".pgm")
                or fields[2] not in SPLITS
                or not all(f.isdigit() and len(f) <= 10 for f in (fields[1], fields[3]))):
            raise ArtifactError(f"{manifest}: malformed line {line!r}")
        record = CorpusRecord(path=fields[0], label_id=int(fields[1]),
                              split=fields[2], seed=int(fields[3]))
        if names.setdefault(record.label_id, parts[1]) != parts[1]:
            raise ArtifactError(f"{manifest}: label {record.label_id} has images under both "
                                f"{names[record.label_id]} and {parts[1]}")
        records.append(record)
    if not records:
        raise ArtifactError(f"{manifest}: lists no slices")
    label_names = label_table(names.items(), lambda why: ArtifactError(f"{manifest}: {why}"))
    by_split = {k: [r for r in records if r.split == k] for k in SPLITS}
    res = pgmio.read_pgm(os.path.join(root, records[0].path)).shape[0]
    values = {k: np.empty((len(rs), res, res), dtype=dtype) for k, rs in by_split.items()}
    for split_name, rs in by_split.items():
        for row, record in enumerate(rs):
            path = os.path.join(root, record.path)
            img = pgmio.read_pgm(path)
            if img.shape != (res, res):
                raise ArtifactError(f"{path}: a {img.shape[1]}x{img.shape[0]} slice in a "
                                    f"corpus of {res}x{res} slices")
            values[split_name][row] = img
    return Corpus(values=values,
                  labels={k: np.array([r.label_id for r in rs], dtype=np.int64)
                          for k, rs in by_split.items()},
                  label_names=label_names, records=records)
