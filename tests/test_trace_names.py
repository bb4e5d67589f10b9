"""The benchmark's tracer wraps program functions by name; a name that is
renamed or removed in the program would break a traced run.  The tracer
module is read and executed here without importing it as a package
module, so no file is written next to it."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    missing = [
        (span, name)
        for span, targets, _ in load_tracing().span_table()
        for holder, name in targets
        if not (name in holder if isinstance(holder, dict) else hasattr(holder, name))
    ]
    assert missing == []
