"""Deterministic block-parallel evaluation.

Work is split into fixed-size blocks; every output element is written by
exactly one block and each block performs the same arithmetic regardless
of the worker count, so results are bit-identical for any number of
threads.
"""

from concurrent.futures import ThreadPoolExecutor

BLOCK = 4096


def map_blocks(fn, n, workers=1):
    """Call ``fn(start, stop)`` over [0, n) in blocks; return results in
    order.  Kept only because ``perfbench/tracer.py`` wraps it: its one
    caller, ``beam.transform_beam_values``, is on no output path."""
    spans = [(s, min(s + BLOCK, n)) for s in range(0, max(n, 1), BLOCK)]
    if workers <= 1 or len(spans) <= 1:
        return [fn(s, e) for s, e in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda se: fn(*se), spans))
