"""Each benchmark workload, run in-process under the benchmark's own
tracer, finds every function the tracer targets and records a call in
every layer that perfbench/run.py's EXPECTED_LAYERS requires of it.

perfbench/run.py and perfbench/tracer.py are loaded from their files
under names of their own, so they shadow no other module."""

import importlib.util
import sys
from pathlib import Path

import pytest

from qtpark import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench, tracing = load("run"), load("tracer")


def clear_caches():
    """Empty every lru_cache of qtpark, as a fresh benchmark process has
    them: a cached q_int_product, say, makes no QTPoly product."""
    for name, module in list(sys.modules.items()):
        if name == "qtpark" or name.startswith("qtpark."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_records_every_expected_layer(capsys, tmp_path, workload):
    clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv)
                 for argv in bench.workload_commands(workload, 1)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    tracer.dump(str(tmp_path / "spans.npz"))
    spans = tracing.load_spans(str(tmp_path / "spans.npz"))
    layers = {name.split(".")[0] for name in spans["names"][spans["name"]]}
    assert codes == [0] * len(codes)
    assert tracer.absent == []
    assert [layer for layer in bench.EXPECTED_LAYERS[workload]
            if layer not in layers] == []
