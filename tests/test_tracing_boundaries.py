"""The traced benchmark run wraps package functions by module, name and
identity; these tests keep a moved or copied function from silently
dropping out of its spans."""

import importlib
import importlib.util
from pathlib import Path

from binform import polycore, transvectant, wigner

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

KERNELS = ("_raw_mul", "_raw_polarize", "_raw_omega_power", "_raw_substitute",
           "_raw_bracket_power")


def test_every_traced_boundary_resolves():
    for module, attr in tracing.BOUNDARIES:
        obj = importlib.import_module(f"binform.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), (module, attr)
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def test_traced_kernels_live_in_polycore():
    assert set(tracing.RAW_KERNELS) <= set(KERNELS)


def test_the_chain_and_transvect_call_the_polycore_kernels():
    # the 9-j chain, project_pi and section_iota share polycore's one
    # split/merge engine, and no module keeps a copy of a raw kernel
    for module in (wigner, transvectant):
        for name in ("_split", "_merge"):
            assert getattr(module, name) is getattr(polycore, name), (module, name)
        for name in KERNELS:
            assert getattr(module, name, None) in (None, getattr(polycore, name)), (module, name)
