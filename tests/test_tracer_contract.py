"""perfbench's tracer wraps mvgen's layers and ops by name from outside the
package; a rename in src/ would break `perfbench/run.py --trace 1` unseen, as
the default test run does not collect perfbench's own tests."""

import inspect
import os
import sys

import mvgen.cli  # noqa: F401  (loads every module the tracer patches)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import LAYER_TARGETS, OP_TARGETS, Tracer  # noqa: E402

TARGETS = [(module, attr) for _, module, attr in LAYER_TARGETS]
TARGETS += [(module, kind) for kind, module in OP_TARGETS.items()]

# the parameter at each argument position perfbench's hooks and cost functions read
READ_POSITIONS = {
    ("mvgen.prior", "PriorModel.next_scale_logits"): {1: "prefix_grids"},
    ("mvgen.prior", "PriorModel.forward_batch"): {2: "labels"},
    ("mvgen.checkpoint", "write_checkpoint"): {0: "path"},
    ("mvgen.numerics.tensor", "matmul"): {0: "a", 1: "b"},
    ("mvgen.numerics.conv", "conv2d"): {0: "x", 1: "weight"},
    ("mvgen.numerics.conv", "conv_transpose2d"): {0: "x", 1: "weight"},
}


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
    before = bindings()
    originals = {target: Tracer._resolve(*target) for target in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [t for t in TARGETS if Tracer._resolve(*t) is not originals[t]]
    finally:
        tracer.uninstall()
    assert wrapped == TARGETS
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_every_argument_position_the_tracer_reads_keeps_its_parameter():
    for (module, attr), reads in READ_POSITIONS.items():
        assert (module, attr) in TARGETS
        params = list(inspect.signature(Tracer._resolve(module, attr)).parameters)
        assert {i: params[i] for i in reads} == reads, (module, attr)
