"""Every function the benchmark's tracer wraps exists in ``crossblock``.

``bench/tracer.py`` wraps functions by module and name and drops a whole
span when any of its targets is missing, so a rename in the package would
silently blank that span's per-layer metrics. The tracer imports only the
standard library at load, so it is loaded here by path and its ``TARGETS``
are resolved the way its ``install`` resolves them.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves_in_crossblock():
    spec = importlib.util.spec_from_file_location("crossblock_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, span, _ in tracer.TARGETS:
        owner = importlib.import_module(f"crossblock.{module_name}")
        owner_path, _, name = attr.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path, None)
        if owner is None or inspect.getattr_static(owner, name, None) is None:
            missing.append(f"{module_name}.{attr} ({span})")
    assert tracer.TARGETS and missing == []
