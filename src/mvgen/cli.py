"""Command-line surface: corpus generation, training, sampling, evaluation,
benchmarking, codebook inspection.

Every command resolves its configuration (JSON file over defaults, unknown
keys rejected), echoes the resolved tree to stdout and next to its primary
artifact, and derives all randomness from seeds in that tree. Exit codes:
0 success, 2 usage or precondition failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import datagen as dg
from . import metrics as mx
from . import pgmio
from . import prior as pr
from . import sampler as smp
from . import tokenizer as tok
from .configs import ConfigError, parse_config
from .numerics import ContractError, NumericError, OptimizerConfig
from .rng import rng_for

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# -- configs ---------------------------------------------------------------------


@dataclasses.dataclass
class LabelConfig:
    id: int
    name: str
    family: str


@dataclasses.dataclass
class CorpusConfig:
    per_label: int = 500
    resolution: int = 32
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    master_seed: int = 2026
    noise_level: float = 1.0
    out_dir: str = "corpus"
    labels: list[LabelConfig] = dataclasses.field(default_factory=lambda: [
        LabelConfig(i, fam, fam) for i, fam in enumerate(dg.FAMILIES)])

    def __post_init__(self):
        if not self.labels:
            raise ConfigError("corpus config: labels must name at least one label")
        dg.label_table(((l.id, l.name) for l in self.labels),
                       lambda why: ConfigError(f"corpus config: {why}"))


@dataclasses.dataclass
class TokenizerTrainConfig:
    corpus_dir: str = "corpus"
    schedule: tuple[int, ...] = (1, 2, 3, 4)
    vocab_size: int = 64
    embed_dim: int = 8
    beta_commit: float = 0.25
    ema_decay: float = 0.99
    dtype: str = "float32"
    steps: int = 5000
    batch_size: int = 16
    seed: int = 13
    model_seed: int = 11
    save_every: int = 1000
    checkpoint: str = "tokenizer.mvckpt"
    loss_csv: str = "tokenizer_loss.csv"
    optimizer: OptimizerConfig = dataclasses.field(default_factory=lambda: OptimizerConfig(
        peak_lr=3e-3, warmup_steps=150, total_steps=5000))


@dataclasses.dataclass
class PriorTrainConfig:
    corpus_dir: str = "corpus"
    tokenizer_checkpoint: str = "tokenizer.mvckpt"
    depth: int = 4
    width: int = 128
    heads: int = 4
    cond_dropout_p: float = 0.1
    dtype: str = "float32"
    steps: int = 1500
    batch_size: int = 32
    seed: int = 19
    model_seed: int = 17
    save_every: int = 500
    checkpoint: str = "prior.mvckpt"
    loss_csv: str = "prior_loss.csv"
    optimizer: OptimizerConfig = dataclasses.field(default_factory=lambda: OptimizerConfig(
        peak_lr=1e-3, warmup_steps=100, total_steps=1500))


def _train_config(cls, data: dict, context: str):
    """A train config from its JSON object over cls's defaults; the optimizer's
    total_steps follows steps unless it is given."""
    cfg = parse_config(cls, data, context, cls())
    if "total_steps" not in data.get("optimizer", {}):
        cfg.optimizer = dataclasses.replace(cfg.optimizer, total_steps=max(cfg.steps, 1))
    return cfg


def _load_config_file(path: str | None):
    if path is None:
        return {}
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError(f"config file {path}: {err}") from None


def _header_labels(path: str, config: dict, n_labels: int | None = None) -> dict[int, str]:
    """The {id: name} label table in the header config of the checkpoint at
    path; ArtifactError naming path unless it is one, of n_labels when given."""
    def error(why: str):
        return ckpt.ArtifactError(f"{path}: {why}")

    labels = config.get("labels")
    if not isinstance(labels, dict):
        raise error(f"labels must map ids to names, not {json.dumps(labels)[:80]}")
    table = dg.label_table(labels.items(), error)
    if n_labels is not None and len(table) != n_labels:
        raise error(f"{len(table)} labels for a prior of n_labels={n_labels}")
    return table


def _picked(args, *names) -> dict:
    """The named command-line arguments, for a config echo."""
    return {name: getattr(args, name) for name in names}


def _echo_config(tree: dict, echo_path: str) -> None:
    text = json.dumps(tree, indent=2, sort_keys=True)
    print(text)
    os.makedirs(os.path.dirname(echo_path) or ".", exist_ok=True)
    ckpt.write_artifact(echo_path, (text + "\n").encode("utf-8"))


def _read_pgm_dir(path: str, least: int = 2) -> np.ndarray:
    names = sorted(n for n in os.listdir(path) if n.endswith(".pgm"))
    if len(names) < least:
        raise ConfigError(f"need {least} or more PGM images in {path}")
    images = [pgmio.read_pgm(os.path.join(path, n)) for n in names]
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise ConfigError(f"mixed image sizes in {path}: {sorted(shapes)}")
    return np.stack(images)


# -- commands --------------------------------------------------------------------


def cmd_datagen(args) -> int:
    cfg = parse_config(CorpusConfig, _load_config_file(args.config), "corpus config",
                       CorpusConfig())
    out_dir = os.path.join(args.workdir, cfg.out_dir)
    specs = [dg.PhantomSpec(dg.DatasetLabel(l.id, l.name), l.family,
                            cfg.noise_level, cfg.master_seed) for l in cfg.labels]
    corpus = dg.build_corpus(specs, cfg.per_label, cfg.resolution,
                             split=cfg.split, master_seed=cfg.master_seed)
    dg.save_corpus(corpus, out_dir)
    _echo_config({"command": "datagen", "corpus": dataclasses.asdict(cfg)},
                 os.path.join(out_dir, "corpus_config.json"))
    print(f"slices: {len(corpus.records)}")
    print(f"manifest sha256: {corpus.manifest_hash()}")
    return EXIT_OK


def _resume(path: str, load, model_cfg):
    """(model, train_step, header config) from a checkpoint whose model
    config must equal model_cfg, the one this run builds."""
    model, config = load(path)
    differ = [f"{f.name} {getattr(model.config, f.name)!r} != {getattr(model_cfg, f.name)!r}"
              for f in dataclasses.fields(model_cfg)
              if getattr(model.config, f.name) != getattr(model_cfg, f.name)]
    if differ:
        raise ConfigError(f"{path}: the checkpoint's model config differs from this run's: "
                          + "; ".join(differ))
    step = config.get("train_step", 0)
    if type(step) is not int or step < 0:
        raise ckpt.ArtifactError(f"{path}: train_step must be a non-negative integer, "
                                 f"not {json.dumps(step)}")
    return model, step, config


def _train(args, cfg, model, start_step: int, fit, save, extra: dict) -> int:
    """Run `fit(step, chunk)` in chunks of save_every steps up to cfg.steps,
    saving after each; then write the loss CSV and echo the config."""
    if cfg.steps < 0:
        raise ConfigError("steps must be non-negative")
    for name in ("save_every", "batch_size"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be positive")
    ckpt_path = os.path.join(args.workdir, cfg.checkpoint)
    curve: list[tuple[int, float, float]] = []
    step = start_step
    while step < cfg.steps:
        chunk = min(cfg.save_every, cfg.steps - step)
        curve += fit(step, chunk)
        step += chunk
        save(ckpt_path, model, extra_config=extra, train_step=step, optimizer_state=True)
    if step == start_step:
        save(ckpt_path, model, extra_config=extra, train_step=step, optimizer_state=True)
    rows = "".join(f"{i},{lr:.10g},{loss:.10g}\n" for i, lr, loss in curve)
    ckpt.write_artifact(os.path.join(args.workdir, cfg.loss_csv),
                        ("step,lr,loss\n" + rows).encode("ascii"))
    _echo_config({"command": f"train {args.component}", args.component: dataclasses.asdict(cfg)},
                 ckpt_path + ".config.json")
    if curve:
        print(f"final loss: {curve[-1][2]:.6f}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def _train_tokenizer(args, data: dict) -> int:
    cfg = _train_config(TokenizerTrainConfig, data, "tokenizer training config")
    corpus = dg.load_corpus(os.path.join(args.workdir, cfg.corpus_dir),
                            dtype=tok.ModelConfig(dtype=cfg.dtype).np_dtype())
    model_cfg = ckpt.config_from(tok.TokenizerConfig, vars(cfg), resolution=corpus.resolution)
    if args.resume:
        model, start_step, _ = _resume(args.resume, tok.load_tokenizer, model_cfg)
    else:
        model, start_step = tok.TokenizerModel.create(model_cfg, seed=cfg.model_seed), 0

    def fit(step, chunk):
        return tok.train_tokenizer(corpus.values["train"], model, cfg.optimizer, steps=chunk,
                                   batch_size=cfg.batch_size, seed=cfg.seed, start_step=step,
                                   log_every=1)

    extra = {"labels": {str(k): v for k, v in corpus.label_names.items()}}
    return _train(args, cfg, model, start_step, fit, tok.save_tokenizer, extra)


def _train_prior(args, data: dict) -> int:
    cfg = _train_config(PriorTrainConfig, data, "prior training config")
    tok_path = os.path.join(args.workdir, cfg.tokenizer_checkpoint)
    if not os.path.exists(tok_path):
        raise ConfigError(f"tokenizer checkpoint not found: {tok_path} "
                          "(train the tokenizer first)")
    tokenizer, tok_config = tok.load_tokenizer(tok_path)
    corpus = dg.load_corpus(os.path.join(args.workdir, cfg.corpus_dir),
                            dtype=tokenizer.config.np_dtype())
    tok_labels = _header_labels(tok_path, tok_config) if "labels" in tok_config else None
    if tok_labels not in (None, corpus.label_names):
        raise ConfigError(f"corpus labels {corpus.label_names} differ from the "
                          f"{tok_labels} of {tok_path}")
    labels_cfg = {str(k): v for k, v in corpus.label_names.items()}
    prior_cfg = ckpt.config_from(pr.PriorConfig, vars(cfg), vocab_size=tokenizer.config.vocab_size,
                                 schedule=tokenizer.config.schedule, n_labels=len(labels_cfg),
                                 code_dim=tokenizer.config.embed_dim)
    if args.resume:
        model, start_step, header = _resume(args.resume, pr.load_prior, prior_cfg)
        resumed_labels = _header_labels(args.resume, header, prior_cfg.n_labels)
        if resumed_labels != corpus.label_names:
            raise ConfigError(f"{args.resume}: the checkpoint's labels {resumed_labels} differ "
                              f"from the corpus's {corpus.label_names}")
        _check_codebook(args.resume, model, tok_path, tokenizer)
    else:
        model = pr.PriorModel.create(prior_cfg, tokenizer.codebook.embeddings,
                                     seed=cfg.model_seed)
        start_step = 0
    train_grids = tok.encode_batch(tokenizer, corpus.values["train"])

    def fit(step, chunk):
        return pr.train_prior(train_grids, corpus.labels["train"], model, cfg.optimizer,
                              steps=chunk, batch_size=cfg.batch_size, seed=cfg.seed,
                              start_step=step, log_every=1)

    extra = {"labels": labels_cfg, "tokenizer_checkpoint": cfg.tokenizer_checkpoint}
    return _train(args, cfg, model, start_step, fit, pr.save_prior, extra)


def cmd_train(args) -> int:
    train = _train_tokenizer if args.component == "tokenizer" else _train_prior
    return train(args, _load_config_file(args.config))


def _check_codebook(prior_path: str, model, tok_path: str, tokenizer) -> None:
    """ConfigError unless the prior's code table is the tokenizer's codebook
    (both are stored as float32, so the cast is exact)."""
    codebook = tokenizer.codebook.embeddings.astype(model.code_table.dtype)
    if not np.array_equal(model.code_table, codebook):
        raise ConfigError(f"{prior_path} was trained on another codebook than {tok_path}'s")


def _load_models(args):
    """The tokenizer and prior that args name, and the prior's id for args.label."""
    tok_path = os.path.join(args.workdir, args.tokenizer)
    tokenizer, _ = tok.load_tokenizer(tok_path)
    prior_path = os.path.join(args.workdir, args.prior)
    model, prior_config = pr.load_prior(prior_path)
    _check_codebook(prior_path, model, tok_path, tokenizer)
    by_name = {name: i for i, name in
               _header_labels(prior_path, prior_config, model.config.n_labels).items()}
    if args.label not in by_name:
        raise ConfigError(f"unknown label '{args.label}'; known labels: {sorted(by_name)}")
    return tokenizer, model, by_name[args.label]


def cmd_sample(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count must be non-negative, not {args.count}")
    tokenizer, model, label_id = _load_models(args)
    cfg = smp.SamplingConfig(cfg_scale=None if args.no_cfg else args.cfg,
                             top_k=args.top_k, top_p=args.top_p,
                             temperature=args.temperature, seed=args.seed)
    if cfg.top_k is not None and cfg.top_k > model.config.vocab_size:
        raise ContractError("top_k exceeds the vocabulary size")
    if args.count:  # the first and last image seeds must be rng key parts
        rng_for(cfg.seed, cfg.seed + args.count - 1)
    out_dir = os.path.join(args.workdir, args.out)
    os.makedirs(out_dir, exist_ok=True)
    meta = {"command": "sample", "sampling": dataclasses.asdict(cfg),
            **_picked(args, "label", "count", "tokenizer", "prior")}
    total_passes = 0
    for index in range(args.count):
        per_image = dataclasses.replace(cfg, seed=cfg.seed + index)
        result = smp.generate(model, tokenizer, label_id, per_image)
        stem = f"{args.label}_{per_image.seed}_{index:04d}"
        pgmio.write_pgm(os.path.join(out_dir, stem + ".pgm"), result.values)
        if args.tokens:
            tok.write_token_stream(os.path.join(out_dir, stem + ".mvtk"),
                                   result.pyramid, model.config.vocab_size)
        total_passes += result.forward_passes
    _echo_config(meta, os.path.join(out_dir, "sample_config.json"))
    print(f"generated {args.count} images under {out_dir}")
    if args.count:
        print(f"forward passes per image: {total_passes // args.count}")
    return EXIT_OK


def cmd_eval(args) -> int:
    real = _read_pgm_dir(os.path.join(args.workdir, args.real))
    fake = _read_pgm_dir(os.path.join(args.workdir, args.fake))
    embedder = mx.FeatureEmbedder.from_checkpoint(os.path.join(args.workdir, args.embedder))
    report = mx.evaluate(real, fake, embedder, median_time_s=args.time,
                         model=args.model, seed=args.seed)
    csv_path = os.path.join(args.workdir, args.out)
    try:
        with open(csv_path, "rb") as fh:
            table = fh.read()
    except FileNotFoundError:
        table = (mx.CSV_HEADER + "\n").encode("ascii")
    ckpt.write_artifact(csv_path, table + (report.csv_row() + "\n").encode("ascii"))
    _echo_config({"command": "eval", **_picked(args, "real", "fake", "embedder", "model", "time",
                                                "seed", "out")}, csv_path + ".config.json")
    print(report.text_report())
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.mode == "verify-table1":
        print(json.dumps({"command": "bench verify-table1"}))
        rows, worst = mx.verify_table1()
        for row, value in rows:
            print(f"{row.model:12s} time={row.time_s:5.2f}s fid={row.fid:7.2f} "
                  f"published={row.efficiency:6.2f} recomputed={value:8.4f} "
                  f"dev={abs(value - row.efficiency):.4f}")
        print(f"max absolute deviation: {worst:.4f} (tolerance {mx.EFFICIENCY_TOLERANCE})")
        if worst > mx.EFFICIENCY_TOLERANCE:
            print("verification FAILED", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK

    # measure
    print(json.dumps({"command": "bench measure", **_picked(
        args, "tokenizer", "prior", "label", "count", "cfg", "seed", "real")}, sort_keys=True))
    tokenizer, model, label_id = _load_models(args)
    counter = {"i": 0, "passes": 0}

    def one():
        cfg = smp.SamplingConfig(cfg_scale=args.cfg, seed=args.seed + counter["i"])
        result = smp.generate(model, tokenizer, label_id, cfg)
        counter["i"] += 1
        counter["passes"] = result.forward_passes
        return result

    timing = mx.time_generation(one, n_images=args.count, warmup=min(2, args.count - 1))
    fid = float("nan")
    efficiency = float("nan")
    if args.real:
        real = _read_pgm_dir(os.path.join(args.workdir, args.real))
        fakes = []
        for i in range(max(args.count, 16)):
            cfg = smp.SamplingConfig(cfg_scale=args.cfg, seed=args.seed + 10_000 + i)
            fakes.append(smp.generate(model, tokenizer, label_id, cfg).values)
        embedder = mx.FeatureEmbedder(tokenizer)
        report = mx.evaluate(real, np.stack(fakes), embedder,
                             median_time_s=timing.median_s, model="local", seed=args.seed)
        fid, efficiency = report.fid, report.efficiency
    print(f"median_time_s={timing.median_s:.6f} fid={fid:.6f} efficiency={efficiency:.6f}")
    print(f"forward passes per image: {counter['passes']} "
          f"(2K for {model.schedule.num_scales} scales with guidance)")
    print(f"fingerprint: {timing.fingerprint}")
    return EXIT_OK


def cmd_inspect_codebook(args) -> int:
    tokenizer, _ = tok.load_tokenizer(os.path.join(args.workdir, args.checkpoint))
    images = _read_pgm_dir(os.path.join(args.workdir, args.eval_dir), least=1)
    hist, utilization, heatmap = tok.codebook_usage(tokenizer, images)
    out_path = os.path.join(args.workdir, args.out)
    # heatmap pixels are round(frequency * 255), so they sum to ~255
    pgmio.write_pgm(out_path, heatmap)
    _echo_config({"command": "inspect-codebook", "images": len(images),
                  **_picked(args, "checkpoint", "eval_dir", "out")}, out_path + ".config.json")
    print(f"codes: {hist.size}  utilization: {utilization:.4f}")
    print(f"heatmap: {out_path}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvgen",
                                     description="multi-scale token image generation")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("datagen", help="generate the phantom corpus")
    p.add_argument("--workdir", required=True)
    p.add_argument("--config", default=None, help="JSON corpus config")
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("train", help="train the tokenizer or the prior")
    p.add_argument("component", choices=["tokenizer", "prior"])
    p.add_argument("--workdir", required=True)
    p.add_argument("--config", default=None, help="JSON training config")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="generate conditional samples")
    p.add_argument("--workdir", required=True)
    p.add_argument("--tokenizer", default="tokenizer.mvckpt")
    p.add_argument("--prior", default="prior.mvckpt")
    p.add_argument("--label", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cfg", type=float, default=4.0, help="guidance strength")
    p.add_argument("--no-cfg", action="store_true", help="disable guidance entirely")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--top-p", type=float, default=None)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--tokens", action="store_true", help="also write MVTK token streams")
    p.add_argument("--out", default="samples")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="FID/KID/efficiency between two image dirs")
    p.add_argument("--workdir", required=True)
    p.add_argument("--real", required=True)
    p.add_argument("--fake", required=True)
    p.add_argument("--embedder", required=True, help="tokenizer checkpoint")
    p.add_argument("--model", default="local")
    p.add_argument("--time", type=float, default=0.0, help="median seconds per image")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="metrics.csv")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="verify the published efficiency table or measure locally")
    p.add_argument("mode", choices=["verify-table1", "measure"])
    p.add_argument("--workdir", default=".")
    p.add_argument("--tokenizer", default="tokenizer.mvckpt")
    p.add_argument("--prior", default="prior.mvckpt")
    p.add_argument("--label", default=dg.FAMILIES[0])
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--cfg", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--real", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect-codebook", help="usage histogram heatmap + utilization")
    p.add_argument("--workdir", required=True)
    p.add_argument("--checkpoint", default="tokenizer.mvckpt")
    p.add_argument("--eval-dir", required=True)
    p.add_argument("--out", default="codebook_usage.pgm")
    p.set_defaults(fn=cmd_inspect_codebook)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, ckpt.ArtifactError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
