"""Fixed-size block evaluation, in order, in the calling thread."""

BLOCK = 4096


def map_blocks(fn, n, workers=1):
    """Call ``fn(start, stop)`` over [0, n) in blocks of BLOCK, in order, in
    the calling thread; return the results in order.  ``workers`` is
    accepted and ignored.  Kept only because ``perfbench/tracer.py`` wraps
    it: its one caller, ``beam.transform_beam_values``, is on no output
    path."""
    return [fn(s, min(s + BLOCK, n)) for s in range(0, max(n, 1), BLOCK)]
