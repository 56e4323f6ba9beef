"""The three workloads and the run that measures one of them.

A run has four phases, all in one process with one closed-loop client:

1. corpus: build the seeded phantom corpus and save it (`mvgen datagen`),
   repeated; the median is `corpus_build_s`.
2. set-up: build the models from fixed seeds, save and reload them through
   MVCKPT, and warm up (first training steps, or a first generated pair),
   repeated; the median is `setup_s`. The last set-up is the one measured.
3. loop: closed-loop iterations until `--seconds` have passed. On desk-train
   an iteration is one tokenizer step then one prior step; on the sampling
   workloads it is one guided then one unguided image of the next label, each
   written as PGM plus MVTK. Interleaving the two kinds in every iteration
   keeps their ratio immune to host speed drift.
4. finish: read back every written file, run the evaluation (desk-sample),
   and check the outputs.

Reported times are host-speed normalized against the reference kernel of
`hostspeed.py`, timed before every iteration and around every set-up and
corpus build; the `*_wall` values are the clock as read.

Only public functions that the CLI itself calls are used, with the configs the
CLI and the acceptance fixture use.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import shutil
import statistics
import time

import numpy as np

from mvgen import checkpoint as ckpt
from mvgen import datagen as dg
from mvgen import metrics as mx
from mvgen import pgmio
from mvgen import prior as pr
from mvgen import sampler as smp
from mvgen import tokenizer as tok
from mvgen.numerics import OptimizerConfig

from . import checks, hostspeed
from .tracer import Tracer, median_over, ratio

RESOLUTION = 32
LABELS = tuple(enumerate(dg.FAMILIES))
# CLI training defaults (`mvgen train tokenizer|prior`) and model seeds
TOKENIZER_OPT = OptimizerConfig(peak_lr=3e-3, warmup_steps=150, total_steps=5000)
PRIOR_OPT = OptimizerConfig(peak_lr=1e-3, warmup_steps=100, total_steps=1500)
TOKENIZER_MODEL_SEED, PRIOR_MODEL_SEED = 11, 17
# acceptance fixture sampling settings
GUIDED = smp.SamplingConfig(cfg_scale=4.0, top_k=16, top_p=0.95)
UNGUIDED = smp.SamplingConfig(cfg_scale=None, top_k=16, top_p=0.95)
# leading iterations whose outputs are digested and compared across runs
DIGEST_ITERATIONS = 4
ENCODE_EVERY = 16
EVAL_FAKES = 200
# host speed reference runs before and after each corpus build and each set-up
PHASE_REFERENCES = 9


@dataclasses.dataclass(frozen=True)
class Size:
    per_label: int
    corpus_repeats: int
    setup_repeats: int


FULL = Size(per_label=150, corpus_repeats=3, setup_repeats=3)
SMOKE = Size(per_label=12, corpus_repeats=1, setup_repeats=1)


def label_names() -> dict:
    return {str(i): name for i, name in LABELS}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With n samples that is the 11th largest, at percentile 100 * (1 - 10 / n).
    With 20 or fewer samples that would not lie above the median, so the
    maximum stands in for it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (1.0 - 10.0 / n)


def _ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _iqr_share(samples: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


# -- desk-train -------------------------------------------------------------------


class DeskTrain:
    """Tokenizer (V=64, C=8, (1,2,3,4), batch 16) and prior (d4/w128/4 heads, batch 32), float32."""

    name = "desk-train"
    tokenizer_config = tok.TokenizerConfig(dtype="float32")

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.tok_stream, self.prior_stream = seed + 13, seed + 19
        self.tok_losses: list[float] = []
        self.prior_losses: list[float] = []
        # (iteration, seconds) of each timed operation
        self.tok_ms: list[tuple] = []
        self.prior_ms: list[tuple] = []
        self.encode_s: list[tuple] = []
        self.problems: list[str] = []

    def setup(self, corpus_dir: str) -> list[str]:
        corpus = dg.load_corpus(corpus_dir, dtype=np.float32)
        self.train = corpus.values["train"]
        self.labels = corpus.labels["train"]
        model = tok.TokenizerModel.create(self.tokenizer_config, seed=TOKENIZER_MODEL_SEED)
        # the first step seeds the codebook from data and pays for first calls
        tok_curve = tok.train_tokenizer(self.train, model, TOKENIZER_OPT, steps=1, batch_size=16,
                                        seed=self.tok_stream, start_step=0, warm_start=True,
                                        log_every=1)
        tok_path = os.path.join(self.work, "tokenizer.mvckpt")
        tok.save_tokenizer(tok_path, model, extra_config={"labels": label_names()},
                           train_step=1, optimizer_state=True)
        self.tokenizer, _ = tok.load_tokenizer(tok_path)
        self.grids = tok.encode_batch(self.tokenizer, self.train)
        prior_cfg = pr.PriorConfig(depth=4, width=128, heads=4, vocab_size=64,
                                   schedule=self.tokenizer_config.schedule, n_labels=len(LABELS),
                                   code_dim=8, dtype="float32")
        model = pr.PriorModel.create(prior_cfg, self.tokenizer.codebook.embeddings,
                                     seed=PRIOR_MODEL_SEED)
        prior_curve = pr.train_prior(self.grids, self.labels, model, PRIOR_OPT, steps=1,
                                     batch_size=32, seed=self.prior_stream, start_step=0,
                                     log_every=1)
        prior_path = os.path.join(self.work, "prior.mvckpt")
        pr.save_prior(prior_path, model, extra_config={"labels": label_names()},
                      train_step=1, optimizer_state=True)
        self.prior, _ = pr.load_prior(prior_path)
        self.tok_losses = [tok_curve[0][2]]
        self.prior_losses = [prior_curve[0][2]]
        self.first_prior_loss = prior_curve[0][2]
        return [ckpt.checkpoint_hash(tok_path), ckpt.checkpoint_hash(prior_path),
                checks.digest(*self.grids)]

    def iterate(self, i: int, run: "Run") -> None:
        step = i + 1
        start = time.perf_counter()
        curve = run.attempt(lambda: tok.train_tokenizer(
            self.train, self.tokenizer, TOKENIZER_OPT, steps=1, batch_size=16,
            seed=self.tok_stream, start_step=step, warm_start=False, log_every=1))
        mid = time.perf_counter()
        if curve is not None:
            self.tok_losses.append(curve[0][2])
            self.tok_ms.append((i, mid - start))
        curve = run.attempt(lambda: pr.train_prior(
            self.grids, self.labels, self.prior, PRIOR_OPT, steps=1, batch_size=32,
            seed=self.prior_stream, start_step=step, log_every=1))
        end = time.perf_counter()
        if curve is not None:
            self.prior_losses.append(curve[0][2])
            self.prior_ms.append((i, end - mid))
        if i < DIGEST_ITERATIONS:
            run.outputs.append(checks.digest(self.tok_losses[-1], self.prior_losses[-1]))

    def between(self, i: int, run: "Run") -> None:
        """Re-encode the training split (fresh prior targets) every ENCODE_EVERY iterations."""
        if (i + 1) % ENCODE_EVERY == 0:
            self._encode(i, run)

    def _encode(self, i: int, run: "Run") -> None:
        start = time.perf_counter()
        grids = run.attempt(lambda: tok.encode_batch(self.tokenizer, self.train))
        elapsed = time.perf_counter() - start
        if grids is not None:
            self.grids = grids
            self.encode_s.append((i, elapsed))

    def finish(self, run: "Run") -> None:
        if not self.encode_s:
            self._encode(len(run.iteration_s) - 1, run)
        self.problems += checks.losses_problems("tokenizer", self.tok_losses)
        self.problems += checks.losses_problems("prior", self.prior_losses)
        self.problems += checks.initial_prior_loss_problems(self.first_prior_loss, 64)
        for g in self.grids:
            if g.min() < 0 or g.max() >= 64:
                self.problems.append("encoded token outside the codebook")

    def codebook_used_share(self) -> float:
        return float(np.unique(np.concatenate([g.ravel() for g in self.grids])).size) / 64

    def report(self, run: "Run") -> dict:
        tok_s, prior_s = run.normalized(self.tok_ms), run.normalized(self.prior_ms)
        tok_ms, prior_ms = _ms(tok_s), _ms(prior_s)
        return {
            "tokenizer_step_ms": (tok_ms, "ms"),
            "tokenizer_step_ms_tail": (tail(tok_s)[0] * 1e3, "ms"),
            "prior_step_ms": (prior_ms, "ms"),
            "prior_step_ms_tail": (tail(prior_s)[0] * 1e3, "ms"),
            "encode_images_per_s": (self.train.shape[0] / statistics.median(
                run.normalized(self.encode_s)), "1/s"),
            "tokenizer_steps": (len(self.tok_ms), "count"),
            "prior_steps": (len(self.prior_ms), "count"),
            # the acceptance fixture trains 5000 tokenizer and 1200 prior steps
            "fixture_training_s_predicted": ((5000 * tok_ms + 1200 * prior_ms) / 1e3, "s"),
            "final_tokenizer_loss": (self.tok_losses[-1], "loss"),
            "final_prior_loss": (self.prior_losses[-1], "nats"),
        }


# -- sampling workloads ----------------------------------------------------------------


class Sampling:
    """Closed-loop generation of a guided and an unguided image per iteration."""

    def __init__(self, name: str, tokenizer_config: tok.TokenizerConfig, prior_shape: tuple,
                 evaluate: bool, seed: int, work: str):
        self.name = name
        self.tokenizer_config = tokenizer_config
        self.prior_shape = prior_shape  # (depth, width, heads)
        self.evaluate = evaluate
        self.seed = seed
        self.work = work
        self.samples_dir = os.path.join(work, "samples")
        # (iteration, seconds) of each generate call
        self.guided_ms: list[tuple] = []
        self.unguided_ms: list[tuple] = []
        # (path stem, kind, pyramid, values, forward passes, expected passes)
        self.written: list[tuple] = []
        self.problems: list[str] = []
        self.eval_report: dict = {}

    def setup(self, corpus_dir: str) -> list[str]:
        corpus = dg.load_corpus(corpus_dir, dtype=np.float32)
        self.held_out = np.concatenate([corpus.values["val"], corpus.values["test"]])
        model = tok.TokenizerModel.create(self.tokenizer_config, seed=TOKENIZER_MODEL_SEED)
        tok.init_codebook_from_data(model, corpus.values["train"][:16], seed=TOKENIZER_MODEL_SEED)
        depth, width, heads = self.prior_shape
        prior_cfg = pr.PriorConfig(depth=depth, width=width, heads=heads, vocab_size=64,
                                   schedule=self.tokenizer_config.schedule,
                                   n_labels=len(LABELS), code_dim=8, dtype="float32")
        prior = pr.PriorModel.create(prior_cfg, model.codebook.embeddings, seed=PRIOR_MODEL_SEED)
        # as the tiny_prior test fixture does: a seeded non-zero head, so that
        # guidance and truncation act on non-uniform distributions
        rng = np.random.default_rng(101)
        for name in ("head.w", "head.b"):
            shape = prior.params[name].shape
            prior.params[name].values = rng.normal(0, 0.05, size=shape).astype(np.float32)
        tok_path = os.path.join(self.work, "tokenizer.mvckpt")
        prior_path = os.path.join(self.work, "prior.mvckpt")
        tok.save_tokenizer(tok_path, model, extra_config={"labels": label_names()})
        pr.save_prior(prior_path, prior, extra_config={"labels": label_names(),
                                                       "tokenizer_checkpoint": "tokenizer.mvckpt"})
        self.tokenizer, _ = tok.load_tokenizer(tok_path)
        self.prior, _ = pr.load_prior(prior_path)
        os.makedirs(self.samples_dir, exist_ok=True)
        warm = [smp.generate(self.prior, self.tokenizer, 0, dataclasses.replace(cfg, seed=-1))
                for cfg in (GUIDED, UNGUIDED)]
        return [ckpt.checkpoint_hash(tok_path), ckpt.checkpoint_hash(prior_path),
                checks.digest(*(r.pyramid.flat() for r in warm))]

    def iterate(self, i: int, run: "Run") -> None:
        label, name = LABELS[i % len(LABELS)]
        seed = self.seed * 1_000_000 + i
        k = self.prior.schedule.num_scales
        for kind, cfg, expected, samples in (("guided", GUIDED, 2 * k, self.guided_ms),
                                             ("unguided", UNGUIDED, k, self.unguided_ms)):
            run.tag(kind)
            stem = os.path.join(self.samples_dir, f"{name}_{seed}_{i:05d}_{kind}")
            out = run.attempt(lambda: self._sample(label, dataclasses.replace(cfg, seed=seed), stem))
            if out is None:
                continue
            result, elapsed = out
            samples.append((i, elapsed))
            self.written.append((stem, kind, result.pyramid, result.values,
                                 result.forward_passes, expected))
            if i < DIGEST_ITERATIONS:
                run.outputs.append(checks.digest(result.pyramid.flat(), result.values))

    def _sample(self, label: int, cfg: smp.SamplingConfig, stem: str):
        """One image as `mvgen sample --tokens` makes it; returns (result, generate seconds)."""
        start = time.perf_counter()
        result = smp.generate(self.prior, self.tokenizer, label, cfg)
        elapsed = time.perf_counter() - start
        pgmio.write_pgm(stem + ".pgm", result.values)
        tok.write_token_stream(stem + ".mvtk", result.pyramid, 64)
        return result, elapsed

    def between(self, i: int, run: "Run") -> None:
        pass

    def finish(self, run: "Run") -> None:
        for stem, kind, pyramid, values, passes, expected in self.written:
            try:
                with open(stem + ".mvtk", "rb") as fh:
                    stream = fh.read()
                self.problems += checks.sample_problems(pyramid, values, passes, expected,
                                                        stream, tok.tokens_from_bytes)
                self.problems += checks.pgm_problems(values, pgmio.read_pgm(stem + ".pgm"))
            except (OSError, ValueError) as err:
                self.problems.append(f"{stem}: written files do not read back: {err}")
        if self.evaluate:
            fakes = np.stack([w[3] for w in self.written if w[1] == "guided"][:EVAL_FAKES])
            run.tag("eval", request="eval")
            start = time.perf_counter()
            result = run.attempt(lambda: mx.evaluate(
                self.held_out, fakes, mx.FeatureEmbedder(self.tokenizer),
                median_time_s=statistics.median(s for _, s in self.guided_ms)))
            elapsed = run.normalized([(len(run.iteration_s) - 1, time.perf_counter() - start)])[0]
            if result is not None:
                self.problems += checks.finite_problems("FID", result.fid)
                self.problems += checks.finite_problems("KID", result.kid)
                self.eval_report = {"eval_s": (elapsed, "s"), "fid": (result.fid, "fid"),
                                    "kid": (result.kid, "kid"),
                                    "efficiency": (result.efficiency, "score"),
                                    "eval_fakes": (int(fakes.shape[0]), "count"),
                                    "eval_reals": (int(self.held_out.shape[0]), "count")}

    def codebook_used_share(self) -> float:
        first = [w[2].flat() for w in self.written[:2 * DIGEST_ITERATIONS]]
        return float(np.unique(np.concatenate(first)).size) / 64

    def report(self, run: "Run") -> dict:
        guided = run.normalized(self.guided_ms)
        guided_tail, pct = tail(guided)
        out = {
            "generate_guided_ms": (_ms(guided), "ms"),
            "generate_guided_ms_tail": (guided_tail * 1e3, "ms"),
            "generate_guided_ms_tail_percentile": (pct, "%"),
            "generate_guided_ms_wall": (_ms([s for _, s in self.guided_ms]), "ms"),
            "generate_unguided_ms": (_ms(run.normalized(self.unguided_ms)), "ms"),
            # the whole loop, with decode and writes
            "sample_images_per_s": (2 * run.end_to_end()["iterations_per_s"][0], "1/s"),
            "images": (len(self.written), "count"),
        }
        out.update(self.eval_report)
        return out


def make_workload(name: str, seed: int, work: str):
    if name == "desk-train":
        return DeskTrain(seed, work)
    if name == "desk-sample":
        return Sampling(name, tok.TokenizerConfig(dtype="float32"), (4, 128, 4),
                        evaluate=True, seed=seed, work=work)
    if name == "long-pyramid-sample":
        return Sampling(name, tok.TokenizerConfig(resolution=32, schedule=tok.PAPER_SCHEDULE.sizes,
                                                  vocab_size=64, embed_dim=8, dtype="float32"),
                        (2, 32, 2), evaluate=False, seed=seed, work=work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk-train", "desk-sample", "long-pyramid-sample")


# -- the run ---------------------------------------------------------------------------


class Run:
    """Drives one workload through its phases and collects what it measured."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: Size,
                 work: str):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = work
        self.tracer = Tracer() if trace else None
        self.workload = make_workload(workload, seed, work)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: list[str] = []
        self.problems: list[str] = []
        self._request = "none"

    # -- helpers used by the workloads --------------------------------------------

    def attempt(self, fn):
        """Run one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as err:  # any failure of the program is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(err).__name__}: {err}")
            return None

    def tag(self, tag: str, request=None) -> None:
        """Label the following calls (guided, unguided, eval) for the tracer's counters."""
        if self.tracer is not None:
            self.tracer.begin(self._request if request is None else request, tag)

    def _trace(self, on: bool, request) -> None:
        self._request = request
        if self.tracer is None:
            return
        if on:
            self.tracer.install()
            self.tracer.begin(request, "train" if self.workload.name == "desk-train" else "")
        else:
            self.tracer.uninstall()

    # -- phases ------------------------------------------------------------------------

    def execute(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        host = self.host = hostspeed.HostSpeed()
        corpus_dir = os.path.join(self.work, "corpus")
        specs = [dg.PhantomSpec(dg.DatasetLabel(i, fam), fam, 1.0, self.seed) for i, fam in LABELS]
        self.corpus_s, self.corpus_ref, manifests = [], [], []
        for r in range(self.size.corpus_repeats):
            self._trace(True, f"corpus-{r}")
            before = host.sample(PHASE_REFERENCES)
            start = time.perf_counter()
            corpus = dg.build_corpus(specs, self.size.per_label, RESOLUTION,
                                     master_seed=self.seed)
            dg.save_corpus(corpus, corpus_dir)
            self.corpus_s.append(time.perf_counter() - start)
            self.corpus_ref.append(statistics.median(before + host.sample(PHASE_REFERENCES)))
            manifests.append(corpus.manifest_hash())
        self.problems += checks.same_problems("corpus manifest", manifests)
        self.rss_mb = {"corpus": _peak_rss_mb()}

        self.setup_s, self.setup_ref, setups = [], [], []
        for r in range(self.size.setup_repeats):
            self._trace(True, f"setup-{r}")
            gc.collect()
            before = host.sample(PHASE_REFERENCES)
            start = time.perf_counter()
            setups.append(checks.digest(*self.workload.setup(corpus_dir)))
            self.setup_s.append(time.perf_counter() - start)
            self.setup_ref.append(statistics.median(before + host.sample(PHASE_REFERENCES)))
        self.setup_digest = setups[-1]
        self.problems += checks.same_problems("set-up checkpoints and outputs", setups)
        self.rss_mb["setup"] = _peak_rss_mb()

        self._trace(False, None)
        gc.collect()
        self.iteration_s: list[float] = []
        self.iteration_ref: list[list[float]] = []
        self.cycle_s: list[float] = []
        self.traced: list[bool] = []
        cpu_start = time.process_time()
        loop_start = time.perf_counter()
        deadline = loop_start + self.seconds
        i = 0
        while time.perf_counter() < deadline or i < DIGEST_ITERATIONS:
            # a few percent of the previous iteration's time goes to the reference
            last = self.iteration_s[-1] if self.iteration_s else self.setup_s[-1]
            self.iteration_ref.append(host.sample(hostspeed.repeats_for(last)))
            traced = self.tracer is not None and i % 2 == 0
            self._trace(traced, i)
            start = time.perf_counter()
            self.workload.iterate(i, self)
            self.iteration_s.append(time.perf_counter() - start)
            self.traced.append(traced)
            self._trace(False, None)
            self.workload.between(i, self)
            # the loop's time from this iteration's start to the next one's
            self.cycle_s.append(time.perf_counter() - start)
            i += 1
        self.loop_wall_s = time.perf_counter() - loop_start
        self.loop_s = sum(self.cycle_s)
        self.loop_cpu_s = time.process_time() - cpu_start
        self.rss_mb["loop"] = _peak_rss_mb()
        self._trace(self.tracer is not None, "finish")
        self.workload.finish(self)
        self._trace(False, None)
        self.problems += self.workload.problems
        self.rss_mb["finish"] = _peak_rss_mb()

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- results -----------------------------------------------------------------------

    def normalized(self, timed: list[tuple]) -> list[float]:
        """(iteration, seconds) pairs rescaled by the host speed reference of that iteration."""
        local = hostspeed.local_references(self.iteration_ref)
        return [hostspeed.normalized(s, local[i]) for i, s in timed]

    def normalized_iterations(self, traced: bool, times=None) -> list[float]:
        """Normalized iteration (or `times`) durations of the traced or untraced iterations."""
        return self.normalized([(i, s) for i, s in enumerate(times or self.iteration_s)
                                if self.traced[i] == traced])

    def end_to_end(self) -> dict:
        """Metrics gated on every workload, host-speed normalized: (value, unit)."""
        samples = self.normalized_iterations(traced=False)
        cycles = self.normalized_iterations(False, self.cycle_s)
        return {
            "setup_s": (statistics.median(
                hostspeed.normalized(s, r) for s, r in zip(self.setup_s, self.setup_ref)), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "iteration_ms": (_ms(samples), "ms"),
            "iteration_ms_p90": (float(np.percentile(samples, 90)) * 1e3, "ms"),
            "iterations_per_s": (len(cycles) / sum(cycles), "1/s"),
        }

    def samples(self) -> dict:
        """Per-iteration series, for the report file."""
        return {"iteration_s": self.iteration_s, "cycle_s": self.cycle_s,
                "reference_s": self.iteration_ref, "traced": self.traced}

    def workload_report(self) -> dict:
        """Every end-to-end metric of this workload, under the names of its own layer."""
        out = self.end_to_end()
        value, pct = tail(self.normalized_iterations(traced=False))
        wall = [s for s, t in zip(self.iteration_s, self.traced) if not t]
        # the highest percentile with at least 10 iterations beyond it; p90 is
        # gated because the last few percent follow the host's rare stalls
        out["iteration_ms_tail"] = (value * 1e3, "ms")
        out["iteration_ms_tail_percentile"] = (pct, "%")
        out["iterations"] = (len(self.iteration_s), "count")
        out["ops_failed_share"] = (ratio(self.failed, self.attempted), "share")
        out["corpus_build_s"] = (statistics.median(
            hostspeed.normalized(s, r) for s, r in zip(self.corpus_s, self.corpus_ref)), "s")
        # unnormalized wall-clock values and the host speed they were measured at
        out["setup_s_wall"] = (statistics.median(self.setup_s), "s")
        out["corpus_build_s_wall"] = (statistics.median(self.corpus_s), "s")
        out["iteration_ms_wall"] = (_ms(wall), "ms")
        out["iteration_ms_tail_wall"] = (tail(wall)[0] * 1e3, "ms")
        out["iterations_per_s_wall"] = (len(self.iteration_s) / self.loop_s, "1/s")
        out["host_slowdown"] = (statistics.median(self.host.samples) / hostspeed.NOMINAL_S, "x")
        out["host_reference_spread"] = (_iqr_share([t for part in self.iteration_ref
                                                    for t in part]), "share")
        out["loop_cpu_over_wall"] = (self.loop_cpu_s / self.loop_wall_s, "share")
        for phase, mb in self.rss_mb.items():
            out[f"peak_rss_mb_after_{phase}"] = (mb, "MB")
        out.update(self.workload.report(self))
        return out

    def per_layer(self) -> dict:
        """Per-layer metrics from the traced requests: (value, unit)."""
        stats = self.tracer.stats
        traced = [i for i, t in enumerate(self.traced) if t]
        iters = [stats[i] for i in traced]
        every = list(stats.values())
        local = hostspeed.local_references(self.iteration_ref)
        speed = [hostspeed.normalized(1.0, local[i]) for i in traced]

        def count(key: str, scale: float = 1.0) -> float:
            return median_over(iters, key) * scale

        def ms(key: str) -> float:
            """Median over traced iterations of a time, host-speed normalized, in ms."""
            unit = 1.0 if key.startswith("op.ms.") else 1e3
            return float(np.median([s.get(key, 0.0) * f for s, f in zip(iters, speed)])) * unit

        def total(key: str, among=every) -> float:
            return sum(s.get(key, 0.0) for s in among)

        def per_call(span: str) -> float:
            return ratio(total("incl." + span), total("calls." + span)) * 1e3

        out = {}
        for kind in sorted({k.split(".", 2)[2] for s in iters for k in s if k.startswith("op.count.")}
                           | set(OPS)):
            out[f"numerics.op_count.{kind}"] = (count("op.count." + kind), "count")
            out[f"numerics.fwd_ms.{kind}"] = (ms("op.ms." + kind), "ms")
        out["numerics.backward_ms"] = (ms("incl.numerics.backward"), "ms")
        out["numerics.adamw_ms"] = (ms("incl.numerics.adamw"), "ms")
        out["numerics.clip_ms"] = (ms("incl.numerics.clip"), "ms")
        out["numerics.clip_share"] = (ratio(total("numerics.clipped", iters),
                                            total("calls.numerics.clip", iters)), "share")
        # computed from operand shapes, forward ops only
        out["numerics.matmul_gflop"] = (count("flop.matmul", 1e-9), "GFLOP")
        out["numerics.conv_gflop"] = (count("flop.conv2d", 1e-9)
                                      + count("flop.conv_transpose2d", 1e-9), "GFLOP")
        out["numerics.matmul_mb"] = (count("bytes.matmul", 1e-6), "MB")

        out["datagen.phantom_ms"] = (per_call("datagen.phantom"), "ms")
        out["datagen.preprocess_ms"] = (per_call("datagen.preprocess"), "ms")
        out["datagen.accept_share"] = (ratio(total("datagen.accepted"),
                                             total("calls.datagen.phantom")), "share")

        out["tokenizer.encoder_ms"] = (ms("incl.tokenizer.encoder"), "ms")
        out["tokenizer.phi_ms"] = (ms("incl.tokenizer.phi"), "ms")
        out["tokenizer.decoder_ms"] = (ms("incl.tokenizer.decoder"), "ms")
        out["tokenizer.walk_self_ms"] = (sum(ms("self.tokenizer." + s) for s in (
            "training_graph", "encode_batch", "decode_batch")), "ms")
        out["tokenizer.step_self_ms"] = (ms("self.tokenizer.train_step"), "ms")
        out["tokenizer.codebook_used_share"] = (self.workload.codebook_used_share(), "share")

        out["prior.embed_ms"] = (ms("incl.prior.embed"), "ms")
        out["prior.forward_ms"] = (ms("incl.prior.forward_batch")
                                   + ms("incl.prior.next_scale_logits"), "ms")
        out["prior.loss_ms"] = (ms("self.prior.batch_loss"), "ms")
        # per image: a guided image on the sampling workloads, a training image on desk-train
        for tag in ("guided", "unguided", "train"):
            images = total(f"prior.images.{tag}", iters)
            suffix = "" if tag == self.image_tag() else f".{tag}"
            if suffix and not images:
                continue
            positions = total(f"prior.positions.{tag}", iters)
            out[f"prior.passes_per_image{suffix}"] = (
                ratio(total(f"prior.passes.{tag}", iters), images), "count")
            out[f"prior.positions_per_image{suffix}"] = (ratio(positions, images), "count")
            out[f"prior.qk_pairs_per_image{suffix}"] = (
                ratio(total(f"prior.qk_pairs.{tag}", iters), images), "count")
            out[f"prior.useful_share{suffix}"] = (
                ratio(total(f"prior.consumed.{tag}", iters), positions), "share")

        out["sampler.prior_ms"] = (ms("incl.prior.next_scale_logits"), "ms")
        out["sampler.guidance_ms"] = (ms("incl.sampler.cfg_combine"), "ms")
        out["sampler.filter_ms"] = (ms("incl.sampler.top_k")
                                    + ms("incl.sampler.top_p"), "ms")
        out["sampler.draw_ms"] = (ms("incl.sampler.draw"), "ms")
        out["sampler.decode_ms"] = (ms("incl.tokenizer.decode_batch"), "ms")
        out["sampler.self_ms"] = (ms("self.sampler.generate")
                                  + ms("self.sampler.sample_scale"), "ms")
        out["sampler.support_kept"] = (ratio(total("sampler.kept", iters),
                                             total("sampler.filtered", iters)), "count")

        evals = [stats["eval"]] if "eval" in stats else []
        for part in ("embed", "frechet", "kid"):
            out[f"metrics.{part}_ms"] = (total(f"incl.metrics.{part}", evals) * 1e3, "ms")
        out["checkpoint.save_ms"] = (per_call("checkpoint.write"), "ms")
        out["checkpoint.load_ms"] = (per_call("checkpoint.read"), "ms")
        out["checkpoint.bytes"] = (total("checkpoint.bytes") / self.size.setup_repeats, "bytes")
        writes = total("calls.io.write_pgm") + total("calls.io.write_mvtk")
        out["io.write_ms"] = (ratio(total("incl.io.write_pgm") + total("incl.io.write_mvtk"),
                                    writes) * 1e3, "ms")
        traced_s = self.normalized_iterations(traced=True)
        untraced = self.normalized_iterations(traced=False)
        out["trace.overhead_share"] = (statistics.median(traced_s) / statistics.median(untraced)
                                       - 1.0, "share")
        out["trace.iteration_ms"] = (_ms(traced_s), "ms")
        out["trace.untraced_iteration_ms"] = (_ms(untraced), "ms")
        out["trace.spans"] = (len(self.tracer.spans), "count")
        return out

    def image_tag(self) -> str:
        return "train" if self.workload.name == "desk-train" else "guided"

    def positions_problems(self, per_layer: dict) -> list[str]:
        """Guided positions per image equal 2 * sum_k (tokens of scales 1..k)."""
        if self.workload.name == "desk-train":
            return []
        expected = closed_form_positions(self.workload.prior.schedule.sizes)
        got = per_layer["prior.positions_per_image"][0]
        return [] if got == expected else [f"positions per guided image {got} != {expected}"]


OPS = ("matmul", "add", "mul", "conv2d", "conv_transpose2d", "resize_bilinear", "layernorm",
       "gelu", "softmax", "l2_normalize", "take")


def closed_form_positions(sizes) -> int:
    return 2 * sum(sum(n * n for n in sizes[:k + 1]) for k in range(len(sizes)))

