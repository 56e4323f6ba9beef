"""perfbench's tracer wraps mvgen's layers and ops by name from outside the
package; a rename in src/ would break `perfbench/run.py --trace 1` unseen, as
the default test run does not collect perfbench's own tests."""

import os
import sys

import mvgen.cli  # noqa: F401  (loads every module the tracer patches)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import LAYER_TARGETS, OP_TARGETS, Tracer  # noqa: E402


def bindings() -> dict:
    """Every attribute of every loaded mvgen module and of its classes, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mvgen" or name.startswith("mvgen.")):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, key, k), v) for k, v in vars(value).items())
    return out


def test_every_traced_name_resolves_and_uninstall_restores_every_binding():
    targets = [(module, attr) for _, module, attr in LAYER_TARGETS]
    targets += [(module, kind) for kind, module in OP_TARGETS.items()]
    before = bindings()
    originals = {target: Tracer._resolve(*target) for target in targets}
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [t for t in targets if Tracer._resolve(*t) is not originals[t]]
    finally:
        tracer.uninstall()
    assert wrapped == targets
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
