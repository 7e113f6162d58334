"""The package surface that other code names: each module's `__all__`, and
the functions and methods that the benchmark's tracer wraps by name."""

import importlib
import importlib.util
import pathlib

import srw

ROOT = pathlib.Path(__file__).resolve().parent.parent

# What `srwbench/layertrace.install` wraps besides SPANNED and VERIFY_ITEMS.
_ALSO_TRACED = (
    ("hecke", "hecke_provider"),
    ("order", "InstanceOrder.greater"),
    ("order", "InstanceOrder.equivalent"),
    ("diagrams", "Tiling.adjoin_at_corner"),
)


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "srwbench" / "layertrace.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_exported_name_exists():
    missing = []
    for module in srw.__all__:
        mod = importlib.import_module(f"srw.{module}")
        missing += [f"{module}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_traced_names_exist():
    lt = _layertrace()
    targets = (
        list(lt.SPANNED)
        + [("hecke", fn) for fn in lt.VERIFY_ITEMS]
        + list(_ALSO_TRACED)
    )
    missing = []
    for module, dotted in targets:
        obj = importlib.import_module(f"srw.{module}")
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{dotted}")
    assert missing == []
