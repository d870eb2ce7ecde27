"""The benchmark traces azsl by patching its functions by name (perfbench/spans.py).

A rename under src/ should fail here, not in the middle of a traced benchmark run.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.phase_targets() + spans.layer_targets()
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _name, _opts in targets if not callable(getattr(owner, attr, None))
    ]
    assert len(targets) > 20
    assert missing == []
