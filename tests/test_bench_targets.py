"""The benchmark's traced (module, function) names must exist in zrpgap.

bench/tracing.py imports only the standard library at top level, so it is
loaded here by path; a change that deletes or renames a traced function
fails this test instead of a benchmark pass.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_functions_resolve():
    targets = load_targets()
    assert targets
    missing = []
    for module_name, func_name, _span, _hook in targets:
        module = importlib.import_module(f"zrpgap.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"{module_name}.{func_name}")
    assert missing == []
