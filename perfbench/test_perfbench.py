"""The benchmark's own tests: every workload at a minimal size, and the checks.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mvgen import tokenizer as tok
from perfbench import checks, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))

# every per-layer metric the traced run reports, on every workload
REPORTED_PER_LAYER = (
    [f"numerics.op_count.{op}" for op in workloads.OPS]
    + [f"numerics.fwd_ms.{op}" for op in workloads.OPS]
    + ["numerics.backward_ms", "numerics.adamw_ms", "numerics.clip_ms", "numerics.clip_share",
       "numerics.matmul_gflop", "numerics.conv_gflop", "numerics.matmul_mb",
       "datagen.phantom_ms", "datagen.preprocess_ms", "datagen.accept_share",
       "tokenizer.encoder_ms", "tokenizer.phi_ms", "tokenizer.decoder_ms",
       "tokenizer.walk_self_ms", "tokenizer.step_self_ms", "tokenizer.codebook_used_share",
       "prior.embed_ms", "prior.forward_ms", "prior.loss_ms", "prior.passes_per_image",
       "prior.positions_per_image", "prior.qk_pairs_per_image", "prior.useful_share",
       "sampler.prior_ms", "sampler.guidance_ms", "sampler.filter_ms", "sampler.draw_ms",
       "sampler.decode_ms", "sampler.self_ms", "sampler.support_kept",
       "metrics.embed_ms", "metrics.frechet_ms", "metrics.kid_ms",
       "checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes", "io.write_ms",
       "trace.overhead_share"])

REPORTED_END_TO_END = {
    "desk-train": ["corpus_build_s", "tokenizer_step_ms", "prior_step_ms",
                   "encode_images_per_s"],
    "desk-sample": ["generate_guided_ms", "generate_guided_ms_tail",
                    "generate_guided_ms_tail_percentile", "generate_unguided_ms",
                    "sample_images_per_s", "eval_s"],
    "long-pyramid-sample": ["generate_guided_ms", "generate_guided_ms_tail",
                            "generate_unguided_ms", "sample_images_per_s"],
}


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_names_every_metric_with_its_unit(results, workload, trace):
    report, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if trace == 0:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_report_holds_every_workload_and_layer_metric(results, workload):
    untraced, _ = results[workload, 0]
    traced, _ = results[workload, 1]
    for name in REPORTED_END_TO_END[workload] + ["setup_s", "peak_rss_mb", "ops_failed_share"]:
        assert untraced["end_to_end"][name]["unit"], name
    assert untraced["end_to_end"]["ops_failed_share"]["value"] == 0.0
    for name in REPORTED_PER_LAYER:
        assert traced["per_layer"][name]["unit"], name
    assert traced["output_digest"] == untraced["output_digest"]
    assert traced["setup_digest"] == untraced["setup_digest"]
    for key in ("numpy", "blas", "blas_threads", "nproc", "loadavg_before", "loadavg_after",
                "git_sha", "src_lines"):
        assert key in untraced["fingerprint"]
    assert untraced["fingerprint"]["blas_threads"] in (1, None)


def test_positions_match_the_closed_form(results):
    desk = results["desk-sample", 1][0]["per_layer"]
    long = results["long-pyramid-sample", 1][0]["per_layer"]
    assert desk["prior.positions_per_image"]["value"] == 100
    assert long["prior.positions_per_image"]["value"] == 3420
    assert desk["prior.passes_per_image"]["value"] == 8
    assert long["prior.passes_per_image"]["value"] == 20
    assert workloads.closed_form_positions(tok.PAPER_SCHEDULE.sizes) == 3420


def _pyramid():
    rng = np.random.default_rng(0)
    return tok.TokenPyramid(tuple(rng.integers(0, 64, size=(n, n)) for n in (1, 2, 3, 4)))


def test_flipped_token_trips_the_sample_check():
    pyramid = _pyramid()
    values = np.full((32, 32), 0.5)
    stream = tok.tokens_to_bytes(pyramid, 64)
    assert checks.sample_problems(pyramid, values, 8, 8, stream, tok.tokens_from_bytes) == []
    flipped = bytearray(stream)
    flipped[-1] ^= 1
    problems = checks.sample_problems(pyramid, values, 8, 8, bytes(flipped),
                                      tok.tokens_from_bytes)
    assert any("MVTK" in p for p in problems)
    assert checks.sample_problems(pyramid, values, 4, 8, stream, tok.tokens_from_bytes)
    assert checks.sample_problems(pyramid, values + 0.6, 8, 8, stream, tok.tokens_from_bytes)


def test_bad_losses_trip_the_loss_check():
    assert checks.losses_problems("prior", [4.16, 4.1, 4.0, 3.9]) == []
    assert checks.losses_problems("prior", [4.16, 4.1, float("nan"), 3.9])
    assert checks.losses_problems("prior", [4.0, 4.1, 4.2, 4.3])
    assert checks.initial_prior_loss_problems(math.log(64), 64) == []
    assert checks.initial_prior_loss_problems(4.0, 64)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = workloads.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)


def test_uninstall_restores_every_binding():
    from mvgen import numerics, prior, sampler
    from mvgen.numerics import tensor

    before = (tensor.matmul, numerics.matmul, prior.softmax, sampler.decode_batch,
              tensor.Tensor.backward, prior.PriorModel.next_scale_logits)
    t = tracer.Tracer()
    t.install()
    assert tensor.matmul is not before[0] and prior.softmax is not before[2]
    t.uninstall()
    after = (tensor.matmul, numerics.matmul, prior.softmax, sampler.decode_batch,
             tensor.Tensor.backward, prior.PriorModel.next_scale_logits)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, "perfbench", "out", "no-program")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("desk-sample", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(os.listdir(bare)) == ["BENCHMARK.json", "perfbench"]
    shutil.rmtree(bare)
