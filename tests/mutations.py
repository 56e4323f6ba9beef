"""Named source mutations that the non-acceptance tests must each catch (not
collected by pytest).

Each mutation replaces a few lines of src/ by a plausible mistake: attention
that stops seeing the coarser scales, AdaLN without its gates or shifts, a
wrong gelu derivative, draws on other keys, flipped guidance, a miscounted
walk, a null walk that reads the condition's rows or modulations, a decode
without its refinements. For each, one at a time, the script copies src/,
tests/, perfbench/ and pyproject.toml into a temporary directory, applies the
mutation there and runs `pytest -x` over tests/ without
tests/test_acceptance.py. It prints each mutation with the first test that
failed, or SURVIVED, and exits 1 if any mutation survived:

    OPENBLAS_NUM_THREADS=1 python tests/mutations.py [name ...]

A mutation whose lines are no longer in src/ stops the script, so the list
follows the code. Each run stops at its first failure, so a caught mutation
takes well under a minute, most of it in tests/test_cli.py, which runs
before the prior and sampler tests; the thirteen took twelve and a half
minutes together on a 2-core x86-64 host. One that survives runs every test.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

# name -> (file under src/mvgen, [(lines, the lines that replace them)])
MUTATIONS = {
    "keys-from-values": ("prior.py", [(
        "self.keys[block][:, :, start:end] = k.values",
        "self.keys[block][:, :, start:end] = v.values")]),
    "later-pass-reads-own-rows": ("prior.py", [(
        "return as_tensor(self.keys[block][:, :, :end]), as_tensor(self.values[block][:, :, :end])",
        "return (as_tensor(self.keys[block][:, :, start:end]),\n"
        "                as_tensor(self.values[block][:, :, start:end]))")]),
    "mask-skipped": ("prior.py", [(
        'attend(q, k, v, self.params[f"block{i}.temp"], mask)',
        'attend(q, k, v, self.params[f"block{i}.temp"], None)')]),
    "adaln-gates-dropped": ("prior.py", [
        ("x = gated_add(x, a1, self._attention(i, modulate(x, g1, b1), cache))",
         "x = x + self._attention(i, modulate(x, g1, b1), cache)"),
        ('x = gated_add(x, a2, self._linear(f"block{i}.ffn2", ffn))',
         'x = x + self._linear(f"block{i}.ffn2", ffn)')]),
    "adaln-shifts-dropped": ("prior.py", [
        ("modulate(x, g1, b1)", "modulate(x, g1, 0.0)"),
        ("modulate(x, g2, b2)", "modulate(x, g2, 0.0)"),
        ("modulate(x, gf, bf)", "modulate(x, gf, 0.0)")]),
    "gelu-derivative-without-cubic-term": ("numerics/tensor.py", [(
        "xx *= 3 * 0.044715", "xx *= 0.0")]),
    "draw-keyed-one-off": ("sampler.py", [(
        'first_uniforms([((seed, "draw", k), range(n * n))',
        'first_uniforms([((seed, "draw", k), range(1, n * n + 1))')]),
    "uniforms-from-previous-scale": ("sampler.py", [(
        'first_uniforms([((seed, "draw", k), range(n * n))',
        'first_uniforms([((seed, "draw", k - 1), range(n * n))')]),
    "null-walk-reads-condition-rows": ("prior.py", [(
        'rows.append(self._placed(take(self.params["cond_emb"], start), 0))',
        'rows.append(cache.inputs.__dict__.setdefault(\n'
        '                "scale_1", self._placed(take(self.params["cond_emb"], start), 0)))')]),
    "modulations-reused-across-conditions": ("sampler.py", [(
        "caches = (ScaleCache(c, inputs=inputs), ScaleCache(prior.config.null_index, inputs=inputs))",
        "caches = (cond := ScaleCache(c, inputs=inputs), ScaleCache(\n"
        "            prior.config.null_index, inputs=inputs, modulations=cond.modulations))")]),
    "guidance-sign-flipped": ("sampler.py", [(
        "return uncond + s * (cond - uncond)", "return uncond - s * (cond - uncond)")]),
    "guided-walk-counts-k-passes": ("sampler.py", [(
        "forward_passes=len(prefix) * (1 if cfg.cfg_scale is None else 2)",
        "forward_passes=len(prefix)")]),
    "phi-left-out-of-decode": ("tokenizer.py", [(
        "f = f + model.phi(k, resize_bilinear(zq, n_latent, n_latent)).values",
        "f = f + resize_bilinear(zq, n_latent, n_latent).values")]),
}


def mutated_copy(root: str, name: str) -> None:
    """The checkout's test inputs under root, with mutation `name` applied."""
    for entry in COPIED:
        source = os.path.join(ROOT, entry)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(root, entry), ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", "out"))
        else:
            shutil.copy(source, root)
    module, edits = MUTATIONS[name]
    path = os.path.join(root, "src", "mvgen", module)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for old, new in edits:
        if text.count(old) != 1:
            raise SystemExit(f"mutation {name}: src/mvgen/{module} holds {old!r} "
                             f"{text.count(old)} times, not once")
        text = text.replace(old, new)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def first_failure(name: str) -> str | None:
    """The first test that fails with mutation `name`, or None if none does."""
    with tempfile.TemporaryDirectory() as root:
        mutated_copy(root, name)
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_acceptance.py", "tests"],
            cwd=root, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    if out.returncode == 0:
        return None
    failed = [line.split()[1] for line in out.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {out.returncode}"


def main(argv: list[str] | None = None) -> int:
    names = argv if argv is not None else sys.argv[1:]
    unknown = sorted(set(names) - set(MUTATIONS))
    if unknown:
        raise SystemExit(f"unknown mutations {unknown}; known: {sorted(MUTATIONS)}")
    survived = 0
    for name in names or MUTATIONS:
        caught = first_failure(name)
        survived += caught is None
        print(f"{name}: {caught or 'SURVIVED'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
