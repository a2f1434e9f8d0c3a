"""The benchmark's contract with the library: its self-test passes, and every
name its tracer patches still exists."""

import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_selftest_and_trace_targets():
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr

    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attribute, span, _ in tracing.PATCHES:
        assert callable(getattr(owner, attribute, None)), f"{span}: {owner.__name__}.{attribute}"
