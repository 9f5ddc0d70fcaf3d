"""Order-independent parallel mapping.

Work items are addressed by index and results are placed by index, so the
output is identical for any thread count. Thread-based because the heavy
lifting happens inside BLAS/LAPACK calls that release the GIL.
"""

import os
from concurrent.futures import ThreadPoolExecutor

# Every resampler's one working-set budget: the most elements a stack of draws gathers.
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
    """Evaluate the draws of one random batch a stack at a time.

    ``draw(k)`` returns the batch's next k draws as one stack, each draw
    gathering about ``draw_size`` elements; it runs only here, in the
    calling thread and in index order. ``fn(start, stack)`` evaluates a
    stack whose first draw has index ``start`` and returns one result per
    draw. Stacks hold at most ``_DRAW_CHUNK_ELEMENTS`` elements and up to
    ``threads`` run at once (below 1 counts as 1), so memory stays bounded.
    Results come back in draw order, identical for any thread count and
    stack size.
    """
    threads = max(1, threads)
    most = max(1, _DRAW_CHUNK_ELEMENTS // max(1, draw_size))
    results, start = [], 0
    while start < n_items:
        size = min(most, -(-(n_items - start) // threads))
        stacks = []
        while start < n_items and len(stacks) < threads:
            stacks.append((start, draw(min(size, n_items - start))))
            start += len(stacks[-1][1])
        for part in parallel_map(lambda j: fn(*stacks[j]), len(stacks), threads):
            results += part
    return results
