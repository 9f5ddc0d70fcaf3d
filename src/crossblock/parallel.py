"""Order-independent parallel mapping.

Work items are addressed by index and results are placed by index, so the
output is identical for any thread count. Thread-based because the heavy
lifting happens inside BLAS/LAPACK calls that release the GIL.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .rng import substream

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


def _check_sample_sizes(sample_sizes, n) -> None:
    """The sample-size rule: at least one size, none repeated, each in [2, n]
    (n is None where the population is not known yet)."""
    if len(sample_sizes) == 0 or min(sample_sizes) < 2:
        raise ValueError("sample_sizes (--sample-sizes) must list at least one size, "
                         "each at least 2")
    repeated = [s for i, s in enumerate(sample_sizes) if s in sample_sizes[:i]]
    if repeated:
        raise ValueError(f"sample size {repeated[0]} is listed more than once")
    if n is not None and max(sample_sizes) > n:
        raise ValueError(f"sample size {max(sample_sizes)} exceeds the population's {n} rows")


def _map_subsamples(at_size, n, sample_sizes, seed, purpose, row_elements, signs, n_draws,
                    threads):
    """Yield ``(size, results)`` per sample size of ``_check_sample_sizes``:
    ``at_size(size)(i, rows, orientation)`` of ``n_draws`` row subsets of an
    n-row population, or [] and no draw where ``at_size`` returns None. Draw
    i is the i-th ``choice(n, size, replace=False)`` of the (seed, purpose,
    size) generator, then ``signs`` random +-1 orientation signs (None when
    0); it gathers ``size * row_elements`` elements."""
    _check_sample_sizes(sample_sizes, n)
    for size in sample_sizes:
        one = at_size(size)
        if one is None:
            yield size, []
            continue
        batch = substream(seed, purpose, size)

        def draw(k):
            return [(batch.choice(n, size, replace=False),
                     batch.integers(0, 2, signs) * 2.0 - 1.0 if signs else None)
                    for _ in range(k)]

        yield size, map_draws(
            lambda start, stack: [one(start + j, *d) for j, d in enumerate(stack)],
            draw, n_draws, size * row_elements, threads,
        )
