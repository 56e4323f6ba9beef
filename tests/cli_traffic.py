"""Every mvgen command on a small workdir, with the files it writes and the
src/ statements no command runs (not collected by pytest).

Runs datagen, both trainings, a resume of each, guided, unguided, truncated and greedy
samples with token streams, eval, both bench modes and inspect-codebook
in-process on tests/test_cli.py's SMALL configs, in a temporary workdir, once
in float32 and once in float64, all under the stdlib `trace` module's line
counts. Prints to stdout `sha256  relative/path` for every file in the
workdir (the config files it writes and every file the commands write), and
to stderr each src/ statement that no command executed, grouped by function,
and last `src/ lines: N`, the newline count of every .py file under src/:

    OPENBLAS_NUM_THREADS=1 python tests/cli_traffic.py > files.txt 2> unrun.txt

Two checkouts write the same bytes when `diff` of their stdouts is empty; to
check a parent commit, copy this script into its checkout and run it there.
The run takes about ten seconds on one core.
"""

import contextlib
import dis
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import trace
import types

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")
DTYPES = ("float32", "float64")


def run_commands(root: str) -> None:
    """Every command in a workdir per dtype under root; mvgen is imported here,
    so its module-level statements are traced too."""
    sys.path[:0] = [SRC, TESTS]
    import test_cli as tc

    from mvgen import cli

    for dtype in DTYPES:
        work = os.path.join(root, dtype)
        os.makedirs(work)
        configs = {
            "corpus.json": tc.SMALL_CORPUS,
            "tok.json": dict(tc.SMALL_TOKENIZER, dtype=dtype),
            "resume_tok.json": dict(tc.SMALL_TOKENIZER, dtype=dtype, steps=50,
                                    checkpoint="tokenizer_resumed.mvckpt",
                                    loss_csv="tokenizer_resumed_loss.csv"),
            "prior.json": dict(tc.SMALL_PRIOR, dtype=dtype),
            "resume.json": dict(tc.SMALL_PRIOR, dtype=dtype, steps=45,
                                checkpoint="prior_resumed.mvckpt",
                                loss_csv="prior_resumed_loss.csv"),
        }
        for name, data in configs.items():
            with open(os.path.join(work, name), "w") as fh:
                json.dump(data, fh)
        at = ("--workdir", work)
        sample = ("sample", *at, "--label", "ring_with_core", "--tokens")
        commands = [
            ("datagen", *at, "--config", os.path.join(work, "corpus.json")),
            ("train", "tokenizer", *at, "--config", os.path.join(work, "tok.json")),
            ("train", "tokenizer", *at, "--config", os.path.join(work, "resume_tok.json"),
             "--resume", os.path.join(work, "tokenizer.mvckpt")),
            ("train", "prior", *at, "--config", os.path.join(work, "prior.json")),
            ("train", "prior", *at, "--config", os.path.join(work, "resume.json"),
             "--resume", os.path.join(work, "prior.mvckpt")),
            (*sample, "--count", "3", "--seed", "42", "--out", "guided"),
            (*sample, "--count", "2", "--seed", "3", "--no-cfg", "--out", "unguided"),
            (*sample, "--count", "2", "--seed", "7", "--cfg", "3", "--top-k", "5",
             "--top-p", "0.8", "--out", "truncated"),
            (*sample, "--count", "2", "--temperature", "0", "--out", "greedy"),
            ("eval", *at, "--real", "corpus/images/parallel_bands", "--fake", "guided",
             "--embedder", "tokenizer.mvckpt", "--time", "0.25"),
            ("bench", "verify-table1"),
            ("bench", "measure", *at, "--label", "ring_with_core", "--count", "3",
             "--real", "corpus/images/ring_with_core"),
            ("inspect-codebook", *at, "--eval-dir", "corpus/images/ring_with_core"),
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(argv))
            if code != 0:
                raise SystemExit(f"mvgen {' '.join(argv)} exited {code}")


def file_digests(root: str) -> list[str]:
    lines = []
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, root)}")
    return lines


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def statement_lines(code: types.CodeType) -> set[int]:
    """Lines with bytecode of code's own; a function's entry instructions
    carry its def (or first decorator) line, which runs in the enclosing code."""
    return {ins.positions.lineno for ins in dis.get_instructions(code)
            if ins.positions.lineno and ins.opname not in ("RESUME", "RETURN_GENERATOR")}


def spans(lines: list[int], executable: set[int]) -> str:
    """'3, 7-9' for sorted lines; a span runs over executable lines only."""
    rank = {line: i for i, line in enumerate(sorted(executable))}
    out = []
    for _, group in itertools.groupby(enumerate(lines), key=lambda p: rank[p[1]] - p[0]):
        group = [line for _, line in group]
        out.append(str(group[0]) if len(group) == 1 else f"{group[0]}-{group[-1]}")
    return ", ".join(out)


def unrun_report(counts: dict) -> list[str]:
    ran = {(os.path.realpath(path), line) for path, line in counts}
    report = []
    for dirpath, _, names in sorted(os.walk(os.path.join(SRC, "mvgen"))):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.realpath(os.path.join(dirpath, name))
            with open(path, encoding="utf-8") as fh:
                module = compile(fh.read(), path, "exec")
            by_function = {}
            for code in code_objects(module):
                executable = statement_lines(code)
                lines = sorted(line for line in executable if (path, line) not in ran)
                if lines:
                    by_function[code.co_qualname] = (lines, executable)
            if by_function:
                report.append(os.path.relpath(path, ROOT))
                report += [f"  {qualname}  {spans(lines, executable)}"
                           for qualname, (lines, executable) in by_function.items()]
    return report


def src_lines() -> int:
    total = 0
    for dirpath, _, names in os.walk(SRC):
        for name in (n for n in names if n.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def main() -> None:
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as root:
        tracer.runfunc(run_commands, root)
        print("\n".join(file_digests(root)))
    print("\n".join(unrun_report(tracer.results().counts)), file=sys.stderr)
    print(f"src/ lines: {src_lines()}", file=sys.stderr)


if __name__ == "__main__":
    main()
