"""One sha256 over the bits of training, evaluation and sampling (not
collected by pytest).

In float32 and float64, on priors with every weight perturbed (so AdaLN's
gates pass attention, the mask and the key/value cache through to the
logits), it feeds the hash:
- a short prior training run: its (step, lr, loss) curve, then every
  parameter with its AdamW moments;
- `per_token_loss` over the training grids;
- guided, unguided and greedy samples, pyramids and pixels, on the desk
  (1, 2, 3, 4) and the paper schedule.

It prints the digest. Two checkouts compute the same bits on these paths when
they print the same line; to check a parent commit, copy this script into its
checkout and run it there:

    OPENBLAS_NUM_THREADS=1 python tests/bit_digest.py

The run takes about ten seconds on one core.
"""

import hashlib
import os
import sys

import numpy as np

TESTS = os.path.dirname(os.path.abspath(__file__))
DTYPES = ("float32", "float64")
VOCAB = 16


def digest() -> str:
    """mvgen is imported here, from this checkout's src/."""
    sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]
    from test_prior import make_model, perturbed
    from test_sampler import matched_tokenizer

    from mvgen import prior as pr
    from mvgen import sampler as smp
    from mvgen.numerics import OptimizerConfig
    from mvgen.tokenizer import DESK_SCHEDULE, PAPER_SCHEDULE

    sampling = (smp.SamplingConfig(cfg_scale=3.0, top_k=5, top_p=0.9, seed=11),
                smp.SamplingConfig(cfg_scale=None, top_p=0.95, seed=12),
                smp.SamplingConfig(cfg_scale=2.0, temperature=0.0, seed=13))
    h = hashlib.sha256()

    def feed(*arrays):
        for a in arrays:
            a = np.asarray(a)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    for dtype in DTYPES:
        sizes = DESK_SCHEDULE.sizes
        model = perturbed(make_model(schedule=sizes, vocab=VOCAB, depth=2, width=32,
                                     p_drop=0.25, dtype=dtype), seed=1)
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=40)
        grids = [rng.integers(0, VOCAB, size=(40, n, n)) for n in sizes]
        opt = OptimizerConfig(peak_lr=3e-3, warmup_steps=3, total_steps=10)
        curve = pr.train_prior(grids, labels, model, opt, steps=10, batch_size=8, seed=3,
                               log_every=1)
        feed(np.array(curve, dtype=np.float64))
        for p in model.parameters():
            feed(p.values, p.m, p.v)
        feed(pr.per_token_loss(model, grids, labels))
        for schedule in (DESK_SCHEDULE, PAPER_SCHEDULE):
            prior = perturbed(make_model(schedule=schedule.sizes, vocab=VOCAB, depth=2,
                                         width=32, dtype=dtype), seed=4)
            tokenizer = matched_tokenizer(schedule=schedule.sizes, vocab=VOCAB)
            for cfg in sampling:
                for c in range(prior.config.n_labels):
                    out = smp.generate(prior, tokenizer, c, cfg)
                    feed(out.values, *out.pyramid.grids)
    return h.hexdigest()


def main() -> None:
    print(digest())


if __name__ == "__main__":
    main()
