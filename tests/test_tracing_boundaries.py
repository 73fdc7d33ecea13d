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
    for name in KERNELS:
        assert getattr(wigner, name) is getattr(polycore, name), name
    # transvect runs its own Leibniz kernel; project_pi's _project keeps these
    for name in ("_raw_omega_power", "_raw_substitute"):
        assert getattr(transvectant, name) is getattr(polycore, name), name
    assert not hasattr(transvectant, "_raw_mul")
