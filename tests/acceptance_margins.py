"""Acceptance margins over several seed pairs (not collected by pytest).

Runs test_acceptance's desk pipeline for fixed (tokenizer, prior) seed
pairs and prints one JSON line per pair: criteria 8a-8e, the residual
energies and criterion 10's guided and unguided distances. Pair 0 is the
acceptance fixture's own. The spread across pairs shows how much margin a
verdict at the fixture seeds has; it is not a way to pick a passing seed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/acceptance_margins.py [--pair i]

Each pair takes about as long as the acceptance fixture (8 minutes on one
core); `--pair` runs one, so pairs can run side by side.
"""

import argparse
import contextlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import test_acceptance as ta  # noqa: E402

from mvgen import prior as pr  # noqa: E402
from mvgen import tokenizer as tok  # noqa: E402

# (tokenizer seeds, prior seeds), each (model init, training stream)
PAIRS = (
    (ta.TOKENIZER_SEEDS, ta.PRIOR_SEEDS),
    ((23, 29), (31, 37)),
    ((41, 43), (47, 53)),
)


def margins(tokenizer_seeds, prior_seeds) -> dict:
    with contextlib.redirect_stdout(sys.stderr):
        run = ta.desk_pipeline(tokenizer_seeds, prior_seeds)
    tkn, val = run["tokenizer"], run["val"]
    guided, unguided = ta.guidance_distances(run)
    return {
        "tokenizer_seeds": list(tokenizer_seeds), "prior_seeds": list(prior_seeds),
        "8a_psnr": tok.reconstruction_psnr(tkn, val),
        "8b_prefix_mse": ta.prefix_mses(run),
        "8c_utilization": tok.codebook_usage(tkn, val)[1],
        "8d_loss": pr.per_token_loss(run["prior"], run["val_grids"], run["val_labels"]),
        "8e_rates": ta.detector_rates(run),
        "residual_energies": tok.residual_energies(tkn, val[:64]),
        "10_guided": guided, "10_unguided": unguided,
        "wall_s": run["wall_s"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pair", type=int, choices=range(len(PAIRS)), default=None,
                        help="run only this pair (default: all)")
    args = parser.parse_args()
    picks = range(len(PAIRS)) if args.pair is None else [args.pair]
    for i in picks:
        print(json.dumps({"pair": i, **margins(*PAIRS[i])}), flush=True)


if __name__ == "__main__":
    main()
