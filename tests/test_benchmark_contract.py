"""The benchmark in ``perfbench/`` drives ikedev through its public API.

These checks read the benchmark's own modules, without changing them, and
fail when an API change would break a benchmark run: every function the
tracer wraps must exist, and one operation of each workload must pass its
check.
"""

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ikedev
from ikedev import cli, codec, crypto, netsim, protocol, usbkey

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import ``perfbench/<name>.py`` under a name of its own."""
    module_name = f"_perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


IKE = SimpleNamespace(crypto=crypto, usbkey=usbkey, codec=codec,
                      protocol=protocol, netsim=netsim, cli=cli)


def test_every_traced_function_exists():
    src = Path(__file__).resolve().parent.parent / "src"
    assert src in Path(ikedev.__file__).resolve().parents
    for layer, names in _load("tracing").TRACED.items():
        for qualname in names:
            owner = getattr(IKE, layer)
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}.{qualname}"


def _steps():
    """(workload, op index) pairs: op 0, and for the modp2048 workloads the
    first op of each responder config in their round."""
    steps = []
    for name, workload in sorted(_load("workloads").WORKLOADS.items()):
        index = 0
        for _, count in getattr(workload, "ROUND", ((None, 1),)):
            steps.append((name, index))
            index += count
    return steps


@pytest.mark.parametrize("name, index", _steps())
def test_one_operation_of_each_workload_passes_its_check(name, index):
    workload = _load("workloads").WORKLOADS[name](IKE, 1)
    sample = workload.step(index, None, False)
    assert sample.ok, sample.kind


@pytest.mark.parametrize("variant", list(protocol.Variant))
def test_flood_workload_forges_netsims_flood_packet(variant):
    # the modp2048 flood forges message 1 through codec.link_payloads and
    # DevBody.from_sealed; it must build netsim's flood packet byte for byte
    workload = _load("workloads").FloodModp2048(IKE, 1)
    for seed in range(5):
        assert workload._forge(variant, random.Random(seed)) == (
            netsim._forged_msg1(variant, random.Random(seed),
                                crypto.MODP2048_GROUP, "attacker"))
