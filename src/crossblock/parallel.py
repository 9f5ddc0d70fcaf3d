"""Order-independent parallel mapping.

Work items are addressed by index and results are placed by index, so the
output is identical for any thread count. Thread-based because the heavy
lifting happens inside BLAS/LAPACK calls that release the GIL.
"""

import os
from concurrent.futures import ThreadPoolExecutor

# Upper bound on the elements of one chunk of pre-drawn random indices.
_DRAW_CHUNK_ELEMENTS = 1 << 18


def default_threads() -> int:
    """Thread count from CROSSBLOCK_THREADS, defaulting to 1."""
    raw = os.environ.get("CROSSBLOCK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def parallel_map(fn, n_items: int, threads: int = 1) -> list:
    """Evaluate fn(i) for i in range(n_items) and return results in index order."""
    if threads <= 1 or n_items <= 1:
        return [fn(i) for i in range(n_items)]
    results = [None] * n_items
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(fn, i): i for i in range(n_items)}
        for fut in futures:
            results[futures[fut]] = fut.result()
    return results


def map_draws(fn, draw, n_items: int, draw_size: int, threads: int = 1) -> list:
    """Evaluate fn(i, d_i) for the draws d_0..d_{n_items-1} of one random batch.

    ``draw(k)`` returns the batch's next k draws (indexable, one entry per
    draw, each of about ``draw_size`` elements). It is called only here, in
    the calling thread and in index order, in chunks of at most
    ``_DRAW_CHUNK_ELEMENTS`` elements. No generator is shared between
    threads and memory stays bounded, while results are identical for any
    thread count and chunk size. Results come back in index order.
    """
    chunk = max(1, _DRAW_CHUNK_ELEMENTS // max(1, draw_size))
    results = []
    for start in range(0, n_items, chunk):
        draws = draw(min(chunk, n_items - start))
        results += parallel_map(lambda j: fn(start + j, draws[j]), len(draws), threads)
    return results
