"""mvgen benchmark: one workload per invocation, one JSON result line at the end.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` there and nowhere else. `--trace 0` measures with no instrumentation
and reports the end-to-end metrics; `--trace 1` installs the span tracer on
alternate iterations and reports the per-layer metrics and the tracing
overhead. The full report (every metric of the workload, correctness checks
and the machine fingerprint) is printed on the line before the result and
written under `perfbench/out/`.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
EXIT_NO_PROGRAM = 2


def _load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _src_files() -> list[str]:
    files = []
    for base, _, names in os.walk(SRC):
        files += [os.path.join(base, n) for n in names if n.endswith(".py")]
    return sorted(files)


def fingerprint(loadavg_before: tuple) -> dict:
    import numpy as np

    files = _src_files()
    h = hashlib.blake2b(digest_size=16)
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, SRC).encode() + b"\x00" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": loadavg_before,
        "loadavg_after": os.getloadavg(),
        "git_sha": sha,
        "src_digest": h.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
    }


def _blas_threads():
    """Thread count OpenBLAS reports, found through the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _compare_digests(key: str, record: dict) -> list[str]:
    """Outputs of the same seed and source are identical across runs and trace modes."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        return [f"{part} differs from an earlier run of the same seed"
                for part in record if known[key].get(part) != record[part]]
    known[key] = record
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal corpus and one set-up, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mvgen", "__init__.py")):
        print(f"error: no mvgen sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    loadavg_before = os.getloadavg()
    sys.path[:0] = [SRC, ROOT]
    import mvgen

    if not os.path.abspath(mvgen.__file__).startswith(SRC + os.sep):
        print(f"error: mvgen imported from {mvgen.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    from perfbench import checks, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    spec = _load_benchmark_spec()
    size = workloads.SMOKE if args.smoke else workloads.FULL
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), size, work)
    try:
        run.execute()
    finally:
        run.cleanup()

    report = run.workload_report()
    problems = list(run.problems)
    if args.trace:
        layers = run.per_layer()
        problems += run.positions_problems(layers)
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
        run.tracer.write_spans(spans_path)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        layers = {}
        wanted = [m["name"] for m in spec["end_to_end"]]
    info = fingerprint(loadavg_before)
    key = "|".join([args.workload, str(args.seed), "smoke" if args.smoke else "full",
                    info["src_digest"]])
    problems += _compare_digests(key, {"setup": run.setup_digest,
                                       "outputs": checks.digest(*run.outputs)})
    values = {**report, **layers}
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in wanted}
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "end_to_end": {k: {"value": v, "unit": u} for k, v, u in
                       ((k, *report[k]) for k in report)},
        "per_layer": {k: {"value": v, "unit": u} for k, v, u in
                      ((k, *layers[k]) for k in layers)},
        "problems": problems, "errors": run.errors,
        "setup_digest": run.setup_digest, "output_digest": checks.digest(*run.outputs),
        "fingerprint": info,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**full, "samples": run.samples()}, fh, indent=1)
    print(json.dumps({"report": full}))
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
