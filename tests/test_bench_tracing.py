"""The traced benchmark run patches kbundle functions by name; every name it
lists must exist, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

from kbundle.tannaka import TensorSections, reduce_bundle_mod_p, tensor_dim_cell

from sample_bundles import rank2_degree0_bundle

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, attr in tracing.TRACED:
        owner = importlib.import_module(f"kbundle.{mod_name}")
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        value = owner.__dict__[name] if classes else getattr(owner, name)
        assert callable(value), f"{mod_name}.{attr}"


def test_tensor_dim_cell_evidence_is_a_string():
    """The traced run calls `.evidence.startswith` on every cell it wraps."""
    bundle = rank2_degree0_bundle()
    for b in (bundle, reduce_bundle_mod_p(bundle, 32003)):
        sections = TensorSections(b)
        for method in ("default", "exact"):
            assert isinstance(tensor_dim_cell(sections, 3, 0, method).evidence, str)
