import hashlib
import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mvgen import checkpoint as ckpt
from mvgen import cli, pgmio
from mvgen import metrics as mx
from mvgen import prior as pr
from mvgen import tokenizer as tok
from mvgen.numerics import ContractError

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
NAN, INF = float("nan"), float("inf")


def run_cli(*argv, cwd=None, **env_vars):
    env = dict(os.environ, PYTHONPATH=REPO_SRC, **env_vars)
    return subprocess.run([sys.executable, "-m", "mvgen", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)


SMALL_CORPUS = {
    "per_label": 10,
    "resolution": 16,
    "split": [0.8, 0.1, 0.1],
    "master_seed": 5,
    "out_dir": "corpus",
}

SMALL_TOKENIZER = {
    "schedule": [1, 2],
    "vocab_size": 16,
    "embed_dim": 4,
    "steps": 40,
    "batch_size": 8,
    "save_every": 20,
    "optimizer": {"peak_lr": 2e-3, "warmup_steps": 5, "total_steps": 40},
}

SMALL_PRIOR = {
    "depth": 1,
    "width": 16,
    "heads": 2,
    "steps": 30,
    "batch_size": 8,
    "save_every": 15,
    "optimizer": {"peak_lr": 1e-3, "warmup_steps": 5, "total_steps": 30},
}


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def dir_hash(root, skip_suffixes=(".config.json",)):
    digest = hashlib.sha256()
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if any(name.endswith(s) for s in skip_suffixes):
                continue
            digest.update(name.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A fully-populated workdir: corpus, tokenizer, prior, samples."""
    root = tmp_path_factory.mktemp("cli")
    write_json(root / "corpus.json", SMALL_CORPUS)
    write_json(root / "tok.json", SMALL_TOKENIZER)
    write_json(root / "prior.json", SMALL_PRIOR)
    out = run_cli("datagen", "--workdir", str(root), "--config", str(root / "corpus.json"))
    assert out.returncode == 0, out.stderr
    out = run_cli("train", "tokenizer", "--workdir", str(root),
                  "--config", str(root / "tok.json"))
    assert out.returncode == 0, out.stderr
    out = run_cli("train", "prior", "--workdir", str(root),
                  "--config", str(root / "prior.json"))
    assert out.returncode == 0, out.stderr
    return root


class TestDatagen:
    def test_corpus_layout_and_manifest(self, workdir):
        manifest = (workdir / "corpus" / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "MVCORPUS 1"
        assert len(manifest) == 1 + 4 * 10
        fields = manifest[1].split("\t")
        assert len(fields) == 4
        img = pgmio.read_pgm(workdir / "corpus" / fields[0])
        assert img.shape == (16, 16)

    def test_same_seed_identical_manifest_hash(self, workdir, tmp_path):
        write_json(tmp_path / "corpus.json", SMALL_CORPUS)
        out = run_cli("datagen", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "corpus.json"))
        assert out.returncode == 0
        a = (workdir / "corpus" / "manifest.txt").read_bytes()
        b = (tmp_path / "corpus" / "manifest.txt").read_bytes()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()

    def test_missing_output_dir_created_recursively(self, tmp_path):
        cfg = dict(SMALL_CORPUS, out_dir="deep/nested/corpus", per_label=2)
        write_json(tmp_path / "c.json", cfg)
        out = run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "c.json"))
        assert out.returncode == 0
        assert (tmp_path / "deep" / "nested" / "corpus" / "manifest.txt").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        write_json(tmp_path / "c.json", dict(SMALL_CORPUS, bogus=1))
        out = run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "c.json"))
        assert out.returncode == 2
        assert "bogus" in out.stderr

    def test_config_echoed(self, workdir):
        echo = json.loads((workdir / "corpus" / "corpus_config.json").read_text())
        assert echo["command"] == "datagen"
        assert echo["corpus"]["per_label"] == 10


class TestTrain:
    def test_loss_csv_format(self, workdir):
        lines = (workdir / "tokenizer_loss.csv").read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 1 + SMALL_TOKENIZER["steps"]
        step, lr, loss = lines[1].split(",")
        assert int(step) == 0 and float(loss) > 0

    def test_prior_without_tokenizer_exits_2(self, tmp_path):
        write_json(tmp_path / "corpus.json", dict(SMALL_CORPUS, per_label=2))
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        write_json(tmp_path / "p.json", SMALL_PRIOR)
        out = run_cli("train", "prior", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "p.json"))
        assert out.returncode == 2
        assert "tokenizer checkpoint" in out.stderr

    def test_zero_steps_writes_initial_checkpoint_and_empty_csv(self, workdir, tmp_path):
        write_json(tmp_path / "corpus.json", SMALL_CORPUS)
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        cfg = dict(SMALL_TOKENIZER, steps=0)
        cfg["optimizer"] = dict(cfg["optimizer"], total_steps=1, warmup_steps=0)
        write_json(tmp_path / "t.json", cfg)
        out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "t.json"))
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "tokenizer.mvckpt").exists()
        assert (tmp_path / "tokenizer_loss.csv").read_text() == "step,lr,loss\n"

    def test_resume_is_bit_exact(self, workdir, tmp_path):
        write_json(tmp_path / "corpus.json", SMALL_CORPUS)
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        # uninterrupted 40 steps (same config as the fixture run)
        write_json(tmp_path / "t.json", SMALL_TOKENIZER)
        out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "t.json"))
        assert out.returncode == 0, out.stderr
        full = (tmp_path / "tokenizer.mvckpt").read_bytes()
        full_csv = (tmp_path / "tokenizer_loss.csv").read_text()

        # interrupted at 20, resumed to 40
        half_dir = tmp_path / "half"
        half_dir.mkdir()
        write_json(half_dir / "corpus.json", SMALL_CORPUS)
        run_cli("datagen", "--workdir", str(half_dir), "--config", str(half_dir / "corpus.json"))
        write_json(half_dir / "t20.json", dict(SMALL_TOKENIZER, steps=20))
        out = run_cli("train", "tokenizer", "--workdir", str(half_dir),
                      "--config", str(half_dir / "t20.json"))
        assert out.returncode == 0, out.stderr
        write_json(half_dir / "t40.json", SMALL_TOKENIZER)
        out = run_cli("train", "tokenizer", "--workdir", str(half_dir),
                      "--config", str(half_dir / "t40.json"),
                      "--resume", str(half_dir / "tokenizer.mvckpt"))
        assert out.returncode == 0, out.stderr
        resumed = (half_dir / "tokenizer.mvckpt").read_bytes()
        assert resumed == full
        resumed_csv = (half_dir / "tokenizer_loss.csv").read_text()
        # resumed CSV covers steps 20..39; its rows must match the full run's tail
        assert full_csv.splitlines()[21:] == resumed_csv.splitlines()[1:]

    def test_resume_schedule_mismatch_exits_2(self, workdir, tmp_path):
        write_json(tmp_path / "corpus.json", SMALL_CORPUS)
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        write_json(tmp_path / "t.json", dict(SMALL_TOKENIZER, schedule=[1, 2, 4]))
        out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "t.json"),
                      "--resume", str(workdir / "tokenizer.mvckpt"))
        assert out.returncode == 2
        assert "schedule" in out.stderr

    def test_tokenizer_resume_on_a_corpus_of_another_resolution_exits_2(self, workdir, tmp_path):
        write_json(tmp_path / "corpus.json", dict(SMALL_CORPUS, per_label=2, resolution=32))
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        write_json(tmp_path / "t.json", SMALL_TOKENIZER)
        out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "t.json"),
                      "--resume", str(workdir / "tokenizer.mvckpt"))
        assert_rejected(out, f"{workdir / 'tokenizer.mvckpt'}: the checkpoint's model config "
                             "differs from this run's: resolution 16 != 32")
        assert not (tmp_path / "tokenizer.mvckpt").exists()

    def test_prior_resume_with_another_depth_exits_2(self, workdir, tmp_path):
        write_json(tmp_path / "p.json", dict(SMALL_PRIOR, depth=2, corpus_dir=str(workdir / "corpus"),
                                             tokenizer_checkpoint=str(workdir / "tokenizer.mvckpt")))
        out = run_cli("train", "prior", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "p.json"),
                      "--resume", str(workdir / "prior.mvckpt"))
        assert_rejected(out, "differs from this run's: depth 1 != 2")
        assert not (tmp_path / "prior.mvckpt").exists()

    def test_prior_resume_is_bit_exact(self, workdir, tmp_path):
        write_json(tmp_path / "corpus.json", SMALL_CORPUS)
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        (tmp_path / "tokenizer.mvckpt").write_bytes((workdir / "tokenizer.mvckpt").read_bytes())
        # uninterrupted 30 steps, then interrupted at 15 and resumed to 30
        full = dict(SMALL_PRIOR, checkpoint="full.mvckpt", loss_csv="full.csv")
        half = dict(SMALL_PRIOR, checkpoint="half.mvckpt", loss_csv="half.csv")
        write_json(tmp_path / "full.json", full)
        write_json(tmp_path / "p15.json", dict(half, steps=15))
        write_json(tmp_path / "p30.json", half)
        for config, resume in (("full.json", ()), ("p15.json", ()),
                               ("p30.json", ("--resume", str(tmp_path / "half.mvckpt")))):
            out = run_cli("train", "prior", "--workdir", str(tmp_path),
                          "--config", str(tmp_path / config), *resume)
            assert out.returncode == 0, out.stderr
        assert (tmp_path / "half.mvckpt").read_bytes() == (tmp_path / "full.mvckpt").read_bytes()
        full_csv = (tmp_path / "full.csv").read_text().splitlines()
        resumed_csv = (tmp_path / "half.csv").read_text().splitlines()
        # the resumed CSV covers steps 15..29; its rows must match the full run's tail
        assert len(full_csv) == 1 + 30 and full_csv[16:] == resumed_csv[1:]

    def test_save_every_zero_exits_2(self, tmp_path):
        write_json(tmp_path / "corpus.json", dict(SMALL_CORPUS, per_label=2))
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        write_json(tmp_path / "t.json", dict(SMALL_TOKENIZER, save_every=0))
        out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "t.json"))
        assert out.returncode == 2
        assert "save_every" in out.stderr


def assert_rejected(out, needle):
    """Exit 2 with one `error:` line holding needle, and no traceback."""
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert needle in out.stderr


class TestConfigTypes:
    """A train-config value of the wrong type exits 2 before anything runs."""

    @pytest.mark.parametrize("component,config,needle", [
        ("tokenizer", {"steps": "40"}, 'steps must be an integer, not "40"'),
        ("prior", {"batch_size": True}, "batch_size must be an integer, not true"),
        ("tokenizer", {"beta_commit": "0.25"}, 'beta_commit must be a number, not "0.25"'),
        ("prior", {"dtype": 32}, "dtype must be a string, not 32"),
        ("tokenizer", {"schedule": [1, 2.5]}, "schedule must be a list of integers, not [1, 2.5]"),
        ("tokenizer", {"optimizer": {"peak_lr": "high"}}, 'peak_lr must be a number, not "high"'),
        ("prior", {"optimizer": {"warmup_steps": 5.0}}, "warmup_steps must be an integer, not 5.0"),
    ])
    def test_mistyped_value_exits_2(self, tmp_path, component, config, needle):
        write_json(tmp_path / "c.json", config)
        out = run_cli("train", component, "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "c.json"))
        assert_rejected(out, needle)

    def test_int_for_float_list_for_tuple_and_null_default_accepted(self):
        cfg = cli._train_config(cli.TokenizerTrainConfig, {
            "beta_commit": 1, "schedule": [1, 2], "optimizer": {"min_lr": None, "peak_lr": 1}},
            "tokenizer training config")
        assert cfg.beta_commit == 1 and cfg.schedule == [1, 2]
        assert cfg.optimizer.peak_lr == 1 and cfg.optimizer.min_lr == 0.01

    def test_optimizer_must_be_an_object(self, tmp_path):
        write_json(tmp_path / "c.json", {"optimizer": 3})
        out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "c.json"))
        assert_rejected(out, "optimizer must be a JSON object")

    def test_peak_lr_alone_sets_the_floor_to_a_hundredth(self, workdir):
        cfg = dict(SMALL_TOKENIZER, steps=0, checkpoint="lr.mvckpt", loss_csv="lr.csv",
                   optimizer={"peak_lr": 1.0, "warmup_steps": 0})
        write_json(workdir / "lr.json", cfg)
        out = run_cli("train", "tokenizer", "--workdir", str(workdir),
                      "--config", str(workdir / "lr.json"))
        assert out.returncode == 0, out.stderr
        echo = json.loads((workdir / "lr.mvckpt.config.json").read_text())
        assert echo["tokenizer"]["optimizer"]["min_lr"] == 0.01

    @pytest.mark.parametrize("config,needle", [
        ({"per_label": "10"}, 'per_label must be an integer, not "10"'),
        ({"labels": [1]}, "labels[0] must be a JSON object"),
        ({"labels": [{"id": 0}]}, "labels[0]: missing keys ['name', 'family']"),
        ({"split": [0.5, 0.5]}, "split must be a list of 3 numbers, not [0.5, 0.5]"),
        ({"split": ["a", 0.5, 0.5]}, 'split must be a list of 3 numbers, not ["a", 0.5, 0.5]'),
        ({"noise_level": None}, "noise_level must be a number, not null"),
        ({"labels": []}, "labels must name at least one label"),
        (b"\xff{}", "codec can't decode byte 0xff"),
        (None, "Is a directory"),
        ({"labels": [{"id": 0, "name": "ellipses", "family": "nested_ellipses"},
                     {"id": 2, "name": "rings", "family": "ring_with_core"}]},
         "corpus config: label ids must run 0..1, not [0, 2]"),
        ({"labels": [{"id": 0, "name": "same", "family": "nested_ellipses"},
                     {"id": 1, "name": "same", "family": "ring_with_core"}]},
         "corpus config: label names must be distinct path components, not ['same', 'same']"),
        ({"labels": [{"id": 0, "name": "../up", "family": "nested_ellipses"}]},
         "label names must be distinct path components, not ['../up']"),
    ])
    def test_bad_corpus_config_exits_2(self, tmp_path, config, needle):
        path = tmp_path / "c.json"
        if config is None:
            path.mkdir()
        elif isinstance(config, bytes):
            path.write_bytes(config)
        else:
            write_json(path, config)
        out = run_cli("datagen", "--workdir", str(tmp_path), "--config", str(path))
        assert_rejected(out, needle)

    @pytest.mark.parametrize("cls", [tok.TokenizerConfig, pr.PriorConfig])
    def test_dtype_must_be_float32_or_float64(self, cls):
        with pytest.raises(ContractError, match="dtype must be float32 or float64, not 'float16'"):
            cls(dtype="float16")


class TestBadCheckpoint:
    """An unreadable or wrong-kind checkpoint exits 2 with one error line."""

    def test_garbage_tokenizer(self, tmp_path):
        (tmp_path / "tokenizer.mvckpt").write_bytes(b"garbage\n")
        out = run_cli("train", "prior", "--workdir", str(tmp_path))
        assert_rejected(out, "not an MVCKPT checkpoint")

    def test_truncated_tokenizer(self, workdir, tmp_path):
        blob = (workdir / "tokenizer.mvckpt").read_bytes()
        (tmp_path / "tokenizer.mvckpt").write_bytes(blob[:-10])
        out = run_cli("train", "prior", "--workdir", str(tmp_path))
        assert_rejected(out, "runs past the end")

    def test_wrong_kind_resume(self, workdir, tmp_path):
        write_json(tmp_path / "corpus.json", dict(SMALL_CORPUS, per_label=2))
        run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
        write_json(tmp_path / "t.json", SMALL_TOKENIZER)
        out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                      "--config", str(tmp_path / "t.json"),
                      "--resume", str(workdir / "prior.mvckpt"))
        assert_rejected(out, "holds a prior, not a tokenizer")
        assert not (tmp_path / "tokenizer.mvckpt").exists()


@pytest.mark.parametrize("step", ["20", -1, 2.5])
def test_mistyped_train_step_resume_exits_2(workdir, tmp_path, step):
    write_json(tmp_path / "corpus.json", dict(SMALL_CORPUS, per_label=2))
    run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
    write_json(tmp_path / "t.json", SMALL_TOKENIZER)
    config, arrays = ckpt.read_checkpoint(workdir / "tokenizer.mvckpt")
    ckpt.write_checkpoint(tmp_path / "resume.mvckpt", dict(config, train_step=step), arrays)
    out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                  "--config", str(tmp_path / "t.json"), "--resume", str(tmp_path / "resume.mvckpt"))
    assert_rejected(out, f"resume.mvckpt: train_step must be a non-negative integer, "
                         f"not {json.dumps(step)}")


def test_prior_resume_with_swapped_labels_exits_2(workdir, tmp_path):
    """A prior whose header names ids 0 and 2 the other way round learned each
    of them for the other label; resuming it on the corpus would train on."""
    base = dict(SMALL_PRIOR, corpus_dir=str(workdir / "corpus"),
                tokenizer_checkpoint=str(workdir / "tokenizer.mvckpt"))
    write_json(tmp_path / "p4.json", dict(base, steps=4, checkpoint="p4.mvckpt",
                                          loss_csv="p4.csv"))
    out = run_cli("train", "prior", "--workdir", str(tmp_path),
                  "--config", str(tmp_path / "p4.json"))
    assert out.returncode == 0, out.stderr
    config, arrays = ckpt.read_checkpoint(tmp_path / "p4.mvckpt")
    corpus_labels = {int(k): v for k, v in config["labels"].items()}
    swapped = dict(config["labels"], **{"0": config["labels"]["2"], "2": config["labels"]["0"]})
    ckpt.write_checkpoint(tmp_path / "swapped.mvckpt", dict(config, labels=swapped), arrays)
    write_json(tmp_path / "p8.json", dict(base, steps=8))
    before = sorted(os.listdir(tmp_path))
    out = run_cli("train", "prior", "--workdir", str(tmp_path),
                  "--config", str(tmp_path / "p8.json"),
                  "--resume", str(tmp_path / "swapped.mvckpt"))
    swapped_labels = {int(k): v for k, v in swapped.items()}
    assert_rejected(out, f"{tmp_path / 'swapped.mvckpt'}: the checkpoint's labels "
                         f"{swapped_labels} differ from the corpus's {corpus_labels}")
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv", [
    ("sample", "--label", "ring_with_core", "--count", "1", "--tokenizer", "tok2.mvckpt"),
    ("bench", "measure", "--count", "2", "--tokenizer", "tok2.mvckpt"),
    ("train", "prior", "--config", "{tmp}/p.json"),
], ids=["sample", "bench_measure", "train_prior_resume"])
def test_a_prior_with_another_tokenizer_exits_2(workdir, tmp_path, argv):
    """tok2.mvckpt has the workdir tokenizer's config but another model_seed."""
    write_json(tmp_path / "t.json", dict(SMALL_TOKENIZER, corpus_dir=str(workdir / "corpus"),
                                         model_seed=12, steps=0, checkpoint="tok2.mvckpt"))
    out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                  "--config", str(tmp_path / "t.json"))
    assert out.returncode == 0, out.stderr
    write_json(tmp_path / "p.json", dict(SMALL_PRIOR, corpus_dir=str(workdir / "corpus"),
                                         tokenizer_checkpoint="tok2.mvckpt"))
    prior = str(workdir / "prior.mvckpt")
    flag = "--resume" if argv[0] == "train" else "--prior"
    out = run_cli(*(a.format(tmp=tmp_path) for a in argv), "--workdir", str(tmp_path),
                  flag, prior)
    assert_rejected(out, f"{prior} was trained on another codebook than "
                         f"{tmp_path / 'tok2.mvckpt'}'s")
    assert sorted(os.listdir(tmp_path)) == ["p.json", "t.json", "tok2.mvckpt",
                                            "tok2.mvckpt.config.json", "tokenizer_loss.csv"]


def sample_rewritten(workdir, tmp_path, name, edit):
    """`mvgen sample` in tmp_path, on copies of workdir's checkpoints whose
    `name` checkpoint edit(config, arrays) has changed."""
    for kind in ("tokenizer", "prior"):
        (tmp_path / f"{kind}.mvckpt").write_bytes((workdir / f"{kind}.mvckpt").read_bytes())
    config, arrays = ckpt.read_checkpoint(tmp_path / f"{name}.mvckpt")
    edit(config, arrays)
    ckpt.write_checkpoint(tmp_path / f"{name}.mvckpt", config, arrays)
    return run_cli("sample", "--workdir", str(tmp_path), "--label", "ring_with_core",
                   "--count", "1")


class TestSectionShapes:
    """A checkpoint section whose shape the model does not expect exits 2."""

    @pytest.mark.parametrize("name,section", [("prior", "head.w"), ("prior", "code_table"),
                                              ("tokenizer", "codebook.embeddings")])
    def test_sample_exits_2(self, workdir, tmp_path, name, section):
        out = sample_rewritten(workdir, tmp_path, name, lambda config, arrays: arrays.update(
            {section: np.zeros((3, 3), dtype=np.float32)}))
        assert_rejected(out, f"section '{section}' has shape (3, 3)")


@pytest.mark.parametrize("name,key,value,needle", [
    ("tokenizer", "vocab_size", "16", 'TokenizerConfig: vocab_size must be an integer, not "16"'),
    ("prior", "cond_dropout_p", None, "PriorConfig: cond_dropout_p must be a number, not null"),
    ("prior", "labels", ["ring_with_core"],
     'prior.mvckpt: labels must map ids to names, not ["ring_with_core"]'),
    ("prior", "labels", {"zero": "ring_with_core"},
     "prior.mvckpt: label ids must run 0..0, not ['zero']"),
    ("prior", "labels", {"0": "nested_ellipses", "1": "ring_with_core"},
     "prior.mvckpt: 2 labels for a prior of n_labels=4"),
    ("prior", "labels", {"0": "a", "1": "a", "2": "ring_with_core", "3": "b"},
     "prior.mvckpt: label names must be distinct path components"),
    ("tokenizer", "beta_commit", NAN, "TokenizerConfig: beta_commit must be a number, not NaN"),
])
def test_mistyped_checkpoint_header_exits_2(workdir, tmp_path, name, key, value, needle):
    out = sample_rewritten(workdir, tmp_path, name,
                           lambda config, arrays: config.update({key: value}))
    assert_rejected(out, needle)


@pytest.mark.parametrize("labels,needle", [
    (["nested_ellipses"], 'tokenizer.mvckpt: labels must map ids to names, not ["nested_ellipses"]'),
    ({"0": "parallel_bands", "1": "nested_ellipses", "2": "ring_with_core",
      "3": "lattice_of_blobs"}, "differ from the {0: 'parallel_bands', 1: 'nested_ellipses'"),
])
def test_train_prior_checks_the_tokenizer_labels(workdir, tmp_path, labels, needle):
    write_json(tmp_path / "corpus.json", dict(SMALL_CORPUS, per_label=2))
    run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
    config, arrays = ckpt.read_checkpoint(workdir / "tokenizer.mvckpt")
    ckpt.write_checkpoint(tmp_path / "tokenizer.mvckpt", dict(config, labels=labels), arrays)
    out = run_cli("train", "prior", "--workdir", str(tmp_path))
    assert_rejected(out, needle)
    assert not (tmp_path / "prior.mvckpt").exists()


@pytest.mark.parametrize("edit,needle", [
    (lambda root, first: pgmio.write_pgm(root / first, np.zeros((8, 8))),
     "a 8x8 slice in a corpus of 16x16 slices"),
    (lambda root, first: (root / "manifest.txt").write_text(
        (root / "manifest.txt").read_text().replace(first, "images/ring_with_core")),
     "malformed line 'images/ring_with_core\\t"),
    (lambda root, first: (root / "manifest.txt").write_text(
        (root / "manifest.txt").read_text().replace(first, first + "\0")),
     "malformed line"),
])
def test_malformed_corpus_exits_2(tmp_path, edit, needle):
    write_json(tmp_path / "corpus.json", dict(SMALL_CORPUS, per_label=2))
    run_cli("datagen", "--workdir", str(tmp_path), "--config", str(tmp_path / "corpus.json"))
    root = tmp_path / "corpus"
    edit(root, (root / "manifest.txt").read_text().splitlines()[-1].split("\t")[0])
    write_json(tmp_path / "t.json", dict(SMALL_TOKENIZER, steps=0))
    out = run_cli("train", "tokenizer", "--workdir", str(tmp_path),
                  "--config", str(tmp_path / "t.json"))
    assert_rejected(out, needle)


@pytest.mark.parametrize("argv,needle", [
    (("datagen", "--workdir", "{file}", "--config", "{config}"), "Not a directory"),
    (("eval", "--workdir", "{workdir}", "--real", "{file}", "--fake", "corpus/images/ring_with_core",
      "--embedder", "tokenizer.mvckpt"), "Not a directory"),
    (("eval", "--workdir", "{workdir}", "--real", "corpus/images/ring_with_core",
      "--fake", "corpus/images/ring_with_core", "--embedder", "tokenizer.mvckpt",
      "--out", "{dir}"), "Is a directory"),
    (("sample", "--workdir", "{workdir}", "--label", "ring_with_core", "--count", "1",
      "--out", "{file}"), "File exists"),
    (("inspect-codebook", "--workdir", "{workdir}", "--eval-dir", "{file}"), "Not a directory"),
])
def test_path_of_the_wrong_kind_exits_2(workdir, tmp_path, argv, needle):
    (tmp_path / "file").write_text("not a directory\n")
    write_json(tmp_path / "c.json", dict(SMALL_CORPUS, per_label=2))
    paths = {"file": tmp_path / "file", "dir": tmp_path, "workdir": workdir,
             "config": tmp_path / "c.json"}
    assert_rejected(run_cli(*(a.format(**paths) for a in argv)), needle)


@pytest.mark.parametrize("argv,config,needle", [
    (("train", "tokenizer"), {"vocab_size": 0}, "vocab_size must be positive"),
    (("train", "tokenizer"), {"embed_dim": 0}, "embed_dim must be positive"),
    (("train", "prior"), {"width": 0}, "width and heads must be positive"),
    (("train", "prior"), {"heads": 0}, "width and heads must be positive"),
    (("train", "prior"), {"heads": -2}, "width and heads must be positive"),
    (("train", "tokenizer"), {"batch_size": 0}, "batch_size must be positive"),
    (("train", "prior"), {"batch_size": -2}, "batch_size must be positive"),
    (("train", "tokenizer"), {"steps": -5}, "steps must be non-negative"),
    (("train", "tokenizer"), {"ema_decay": 1.5}, "ema_decay must lie in [0, 1]"),
    (("datagen",), {"split": [1.2, -0.1, -0.1]}, "split fractions must be non-negative"),
    (("datagen",), {"noise_level": NAN}, "noise_level must be a number, not NaN"),
    (("datagen",), {"split": [NAN, 0.1, 0.1]}, "split must be a list of 3 numbers, not [NaN"),
    (("datagen",), {"noise_level": 10 ** 400}, "noise_level must be a number, not 10000"),
    (("train", "tokenizer"), {"optimizer": {"peak_lr": INF}},
     "peak_lr must be a number, not Infinity"),
    (("sample", "--cfg", "nan"), None, "cfg_scale must be finite and non-negative"),
    (("sample", "--temperature", "nan"), None, "temperature must be non-negative"),
    (("train", "prior"), {"depth": -1}, "depth must be non-negative"),
    (("datagen",), {"master_seed": 2**127}, f"rng key part {2**127} lies outside"),
    (("train", "tokenizer"), {"seed": 2**127}, f"rng key part {2**127} lies outside"),
    (("train", "prior"), {"model_seed": -2**127 - 1}, f"rng key part {-2**127 - 1} lies outside"),
    (("sample", "--seed", str(2**127)), None, f"rng key part {2**127} lies outside"),
    (("sample", "--seed", str(2**127 - 1), "--count", "2"), None,
     f"rng key part {2**127} lies outside"),
    (("sample", "--top-k", "17"), None, "top_k exceeds the vocabulary size"),
    (("datagen",), {"noise_level": -3}, "noise_level must be non-negative"),
    (("train", "tokenizer"), {"beta_commit": -5}, "beta_commit must be non-negative"),
    (("train", "tokenizer"), {"optimizer": {"weight_decay": -2}},
     "weight_decay must be non-negative"),
    (("train", "tokenizer"), {"optimizer": {"warmup_steps": -5}},
     "warmup_steps must be non-negative"),
    (("train", "tokenizer"), {"optimizer": {"eps": 0}}, "eps must be positive"),
    (("train", "prior"), {"optimizer": {"peak_lr": -1}}, "peak_lr must be non-negative"),
    (("train", "prior"), {"optimizer": {"min_lr": -1e-4}}, "min_lr must be non-negative"),
])
def test_out_of_range_or_non_finite_value_exits_2(workdir, tmp_path, argv, config, needle):
    """Runs in tmp_path on workdir's corpus and checkpoints, so nothing is
    written into workdir even where a value is let through. A rejected sample
    run leaves no output directory."""
    base = {"datagen": dict(SMALL_CORPUS, per_label=2),
            "tokenizer": dict(SMALL_TOKENIZER, corpus_dir=str(workdir / "corpus")),
            "prior": dict(SMALL_PRIOR, corpus_dir=str(workdir / "corpus"),
                          tokenizer_checkpoint=str(workdir / "tokenizer.mvckpt"))}
    if argv[0] == "sample":
        out = run_cli("sample", "--workdir", str(workdir), "--label", "ring_with_core",
                      "--count", "1", "--out", str(tmp_path / "samples"), *argv[1:])
        assert not (tmp_path / "samples").exists()
    else:
        cfg = base[argv[-1]]
        for key, value in config.items():
            cfg[key] = dict(cfg[key], **value) if key == "optimizer" else value
        write_json(tmp_path / "c.json", cfg)
        out = run_cli(*argv, "--workdir", str(tmp_path), "--config", str(tmp_path / "c.json"))
    assert_rejected(out, needle)


def test_nan_weight_sample_exits_3_naming_the_op(workdir, tmp_path):
    def plant_nan(config, arrays):
        arrays["block0.ffn1.w"][0, 0] = np.nan

    out = sample_rewritten(workdir, tmp_path, "prior", plant_nan)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("numeric failure: ") and out.stderr.count("\n") == 1
    assert "non-finite values produced by op 'linear'" in out.stderr


def test_overflowing_temperature_sample_exits_3(workdir):
    out = run_cli("sample", "--workdir", str(workdir), "--label", "ring_with_core",
                  "--count", "1", "--temperature", "1e-310", "--out", "tiny_t")
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert out.stderr == "numeric failure: non-finite sampling distribution at scale 0\n"


class TestSample:
    def test_deterministic_and_named(self, workdir):
        args = ("sample", "--workdir", str(workdir), "--label", "ring_with_core",
                "--count", "3", "--seed", "42", "--tokens", "--out", "s1")
        out = run_cli(*args)
        assert out.returncode == 0, out.stderr
        names = sorted(os.listdir(workdir / "s1"))
        assert "ring_with_core_42_0000.pgm" in names
        assert "ring_with_core_42_0000.mvtk" in names
        out = run_cli(*args[:-1], "s2")
        assert out.returncode == 0
        assert dir_hash(workdir / "s1", skip_suffixes=("sample_config.json",)) == \
            dir_hash(workdir / "s2", skip_suffixes=("sample_config.json",))

    def test_unknown_label_exits_2_listing_known(self, workdir):
        out = run_cli("sample", "--workdir", str(workdir), "--label", "nonsense",
                      "--count", "1")
        assert out.returncode == 2
        assert "ring_with_core" in out.stderr

    def test_cfg_one_identical_to_no_cfg(self, workdir):
        a = ("sample", "--workdir", str(workdir), "--label", "parallel_bands",
             "--count", "2", "--seed", "7", "--cfg", "1.0", "--out", "cfg1")
        b = ("sample", "--workdir", str(workdir), "--label", "parallel_bands",
             "--count", "2", "--seed", "7", "--no-cfg", "--out", "cfg_off")
        assert run_cli(*a).returncode == 0
        assert run_cli(*b).returncode == 0
        for name in os.listdir(workdir / "cfg1"):
            if name.endswith(".pgm"):
                x = (workdir / "cfg1" / name).read_bytes()
                y = (workdir / "cfg_off" / name).read_bytes()
                assert x == y

    def test_negative_count_exits_2_writing_nothing(self, workdir):
        out = run_cli("sample", "--workdir", str(workdir), "--label", "nested_ellipses",
                      "--count", "-2", "--out", "negative")
        assert_rejected(out, "--count must be non-negative, not -2")
        assert not (workdir / "negative").exists()

    def test_count_zero_succeeds_with_no_files(self, workdir):
        out = run_cli("sample", "--workdir", str(workdir), "--label", "nested_ellipses",
                      "--count", "0", "--out", "empty")
        assert out.returncode == 0
        pgms = [n for n in os.listdir(workdir / "empty") if n.endswith(".pgm")]
        assert pgms == []


def test_training_and_guided_sampling_hash_the_same_at_1_and_2_blas_threads(workdir, tmp_path):
    """Output is a pure function of (weights, label, config, seed), whatever
    the BLAS thread count."""
    config = dict(SMALL_PRIOR, corpus_dir=str(workdir / "corpus"),
                  tokenizer_checkpoint=str(workdir / "tokenizer.mvckpt"))
    hashes = []
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        write_json(root / "prior.json", config)
        out = run_cli("train", "prior", "--workdir", str(root), "--config", str(root / "prior.json"),
                      OPENBLAS_NUM_THREADS=threads)
        assert out.returncode == 0, out.stderr
        out = run_cli("sample", "--workdir", str(root), "--tokenizer", config["tokenizer_checkpoint"],
                      "--label", "ring_with_core", "--count", "3", "--seed", "11", "--tokens",
                      OPENBLAS_NUM_THREADS=threads)
        assert out.returncode == 0, out.stderr
        hashes.append(dir_hash(root))
    assert hashes[0] == hashes[1]


class TestEval:
    def test_identical_dirs_report_zero_fid(self, workdir):
        label_dir = "corpus/images/ring_with_core"
        out = run_cli("eval", "--workdir", str(workdir), "--real", label_dir,
                      "--fake", label_dir, "--embedder", "tokenizer.mvckpt",
                      "--out", "m1.csv")
        assert out.returncode == 0, out.stderr
        rows = (workdir / "m1.csv").read_text().splitlines()
        assert rows[0] == "model,n_real,n_fake,fid,kid,median_time_s,efficiency,gamma,seed"
        fid = float(rows[1].split(",")[3])
        assert fid < 1e-6

    def test_too_few_images_exits_2(self, workdir, tmp_path):
        lonely = tmp_path / "one"
        lonely.mkdir()
        pgmio.write_pgm(lonely / "a.pgm", np.zeros((16, 16)))
        out = run_cli("eval", "--workdir", str(workdir), "--real", str(lonely),
                      "--fake", str(lonely), "--embedder", "tokenizer.mvckpt")
        assert out.returncode == 2

    def test_truncated_pgm_exits_2(self, workdir, tmp_path):
        cut = tmp_path / "cut"
        cut.mkdir()
        for name in ("a.pgm", "b.pgm"):
            (cut / name).write_bytes(pgmio.encode_pgm(np.zeros((16, 16)))[:20])
        out = run_cli("eval", "--workdir", str(workdir), "--real", str(cut),
                      "--fake", str(cut), "--embedder", "tokenizer.mvckpt")
        assert_rejected(out, "a.pgm: PGM of 16x16 pixels")

    def test_mixed_sizes_exit_2(self, workdir, tmp_path):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        pgmio.write_pgm(mixed / "a.pgm", np.zeros((16, 16)))
        pgmio.write_pgm(mixed / "b.pgm", np.zeros((8, 8)))
        out = run_cli("eval", "--workdir", str(workdir), "--real", str(mixed),
                      "--fake", str(mixed), "--embedder", "tokenizer.mvckpt")
        assert out.returncode == 2
        assert "mixed" in out.stderr.lower() or "sizes" in out.stderr

    def test_images_of_another_size_than_the_embedder_exit_2(self, workdir, tmp_path):
        for name in ("a.pgm", "b.pgm"):
            pgmio.write_pgm(tmp_path / name, np.zeros((32, 32)))
        out = run_cli("eval", "--workdir", str(workdir), "--real", str(tmp_path),
                      "--fake", str(tmp_path), "--embedder", "tokenizer.mvckpt", "--out", "m3.csv")
        assert_rejected(out, "image size does not match the embedder's resolution")
        assert not (workdir / "m3.csv").exists()

    @pytest.mark.parametrize("time", ["nan", "inf", "-0.5"])
    def test_time_not_finite_and_non_negative_exits_2_appending_nothing(self, workdir, time):
        out = run_cli("eval", "--workdir", str(workdir), "--real", "corpus/images/parallel_bands",
                      "--fake", "corpus/images/nested_ellipses", "--embedder", "tokenizer.mvckpt",
                      "--time", time, "--out", "m_time.csv")
        assert_rejected(out, "a finite, non-negative time")
        assert f"and time {float(time)}" in out.stderr
        assert not (workdir / "m_time.csv").exists()

    def test_row_consistent_with_efficiency_formula(self, workdir):
        label_dir = "corpus/images/parallel_bands"
        out = run_cli("eval", "--workdir", str(workdir), "--real", label_dir,
                      "--fake", "corpus/images/nested_ellipses",
                      "--embedder", "tokenizer.mvckpt", "--time", "0.25",
                      "--out", "m2.csv")
        assert out.returncode == 0, out.stderr
        row = (workdir / "m2.csv").read_text().splitlines()[1].split(",")
        fid, eff = float(row[3]), float(row[6])
        assert eff == pytest.approx(fid * (np.log10(1.25)) ** 0.1, rel=1e-6)


class TestBench:
    def test_verify_table1_passes(self):
        out = run_cli("bench", "verify-table1")
        assert out.returncode == 0, out.stderr
        assert "max absolute deviation" in out.stdout
        worst = float(out.stdout.rsplit("max absolute deviation:", 1)[1].split()[0])
        assert worst <= 0.05

    def test_verify_table1_natural_log_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(mx, "efficiency",
                            lambda q, p: q * math.log(1.0 + p) ** mx.EFFICIENCY_GAMMA)
        assert cli.main(["bench", "verify-table1"]) == 3
        out = capsys.readouterr()
        assert out.err == "verification FAILED\n"
        worst = float(out.out.rsplit("max absolute deviation:", 1)[1].split()[0])
        assert worst > 5.0

    def test_measure_reports_2k_passes(self, workdir):
        out = run_cli("bench", "measure", "--workdir", str(workdir),
                      "--label", "lattice_of_blobs", "--count", "3",
                      "--real", "corpus/images/lattice_of_blobs")
        assert out.returncode == 0, out.stderr
        assert "forward passes per image: 4" in out.stdout  # 2K for K=2

    def test_measure_rejects_real_images_of_another_size(self, workdir, tmp_path):
        for name in ("a.pgm", "b.pgm"):
            pgmio.write_pgm(tmp_path / name, np.zeros((32, 32)))
        out = run_cli("bench", "measure", "--workdir", str(workdir),
                      "--label", "lattice_of_blobs", "--count", "2", "--real", str(tmp_path))
        assert_rejected(out, "real and fake image sizes differ")


class TestInspectCodebook:
    def test_heatmap_and_utilization(self, workdir):
        out = run_cli("inspect-codebook", "--workdir", str(workdir),
                      "--eval-dir", "corpus/images/ring_with_core",
                      "--out", "usage.pgm")
        assert out.returncode == 0, out.stderr
        assert "utilization:" in out.stdout
        heatmap = pgmio.read_pgm(workdir / "usage.pgm")
        assert heatmap.shape == (4, 4)  # 16 codes -> 4x4 grid
        total = np.rint(heatmap * 255).sum()
        assert abs(total - 255) <= 16  # rounding slack, one unit per bin

    def test_single_image_single_bright_cell(self, workdir, tmp_path):
        single = tmp_path / "single"
        single.mkdir()
        src = workdir / "corpus" / "images" / "nested_ellipses"
        name = sorted(os.listdir(src))[0]
        (single / name).write_bytes((src / name).read_bytes())
        # K=2 schedule (1,2): 5 tokens -> at most 5 nonzero bins; with one
        # image the heatmap is dominated by very few cells
        out = run_cli("inspect-codebook", "--workdir", str(workdir),
                      "--eval-dir", str(single), "--out", "usage1.pgm")
        assert out.returncode == 0
        heatmap = pgmio.read_pgm(workdir / "usage1.pgm")
        assert np.count_nonzero(heatmap) <= 5

    def test_mixed_sizes_exit_2(self, workdir, tmp_path):
        pgmio.write_pgm(tmp_path / "a.pgm", np.zeros((16, 16)))
        pgmio.write_pgm(tmp_path / "b.pgm", np.zeros((8, 8)))
        out = run_cli("inspect-codebook", "--workdir", str(workdir), "--eval-dir", str(tmp_path))
        assert_rejected(out, "mixed image sizes")


@pytest.mark.parametrize("command", [("datagen",), ("train", "tokenizer"), ("train", "prior")],
                         ids=["datagen", "tokenizer", "prior"])
def test_rerun_with_echoed_config_reproduces_artifacts(workdir, tmp_path, command):
    """Every file the command writes, its config echo included, byte for byte."""
    inputs = {"corpus_dir": str(workdir / "corpus"),
              "tokenizer_checkpoint": str(workdir / "tokenizer.mvckpt")}
    key = command[-1] if command[0] == "train" else "corpus"
    config, echo = {
        "corpus": (dict(SMALL_CORPUS, per_label=4), "corpus/corpus_config.json"),
        "tokenizer": (dict(SMALL_TOKENIZER, corpus_dir=inputs["corpus_dir"]),
                      "tokenizer.mvckpt.config.json"),
        "prior": (dict(SMALL_PRIOR, **inputs), "prior.mvckpt.config.json"),
    }[key]
    write_json(tmp_path / "given.json", config)
    out = run_cli(*command, "--workdir", str(tmp_path), "--config", str(tmp_path / "given.json"))
    assert out.returncode == 0, out.stderr
    skip = ("given.json", "echoed.json")
    first = dir_hash(tmp_path, skip_suffixes=skip)
    echoed = json.loads((tmp_path / echo).read_text())[key]
    write_json(tmp_path / "echoed.json", echoed)
    out = run_cli(*command, "--workdir", str(tmp_path), "--config", str(tmp_path / "echoed.json"))
    assert out.returncode == 0, out.stderr
    assert dir_hash(tmp_path, skip_suffixes=skip) == first


@pytest.mark.parametrize("script", ["acceptance_margins", "cli_traffic"])
def test_uncollected_script_imports(script):
    # pytest collects neither script; importing one runs no main()
    assert callable(importlib.import_module(script).main)
