"""The benchmark's span table wraps only attributes that the package defines."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_table_names_existing_attributes():
    # traced() restores each original from owner.__dict__, so an attribute
    # that is renamed away, or only inherited, breaks the benchmark's run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans._patch_table(spans.Tracer())
    assert table
    missing = [(owner.__name__, attr) for owner, attr, _ in table if attr not in owner.__dict__]
    assert missing == []
