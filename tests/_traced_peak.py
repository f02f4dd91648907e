"""Traced-allocation peak of one call, for the memory regression tests."""

import tracemalloc


def traced_peak(fn) -> int:
    """Bytes by which the traced allocations peak above their level at the
    call while ``fn()`` runs.  tracemalloc sees numpy's buffers, and the
    same calls give the same peak on every run."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
