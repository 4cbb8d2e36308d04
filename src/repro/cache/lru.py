"""Set-associative LRU cache simulation.

The cache state is one ``(num_sets, ways)`` int64 array: each row
holds a set's lines most recently used first, with -1 marking an empty
slot, so line ids must be non-negative.  Two equivalent interfaces
read and write it:

* :meth:`LruCache.access` — one line at a time; the obvious reference
  implementation, used directly by unit and property tests.
* :meth:`LruCache.simulate` — whole address streams at once.  It runs
  the compiled sequential replay of :mod:`repro.cache.kernels` when
  that is available, and otherwise a Python loop that exploits two
  exact identities: an access to the line just accessed always hits
  (so consecutive duplicates can be collapsed), and accesses to
  different sets never interact (so the stream can be stably
  partitioned per set and each set replayed independently).  All paths
  produce bit-identical miss masks.

The cache is *stateful across calls*, so long streams can be fed in
chunks, and the two interfaces can be interleaved on one instance.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cache import kernels
from repro.cache.config import CacheConfig


class LruCache:
    """An N-way set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._state = np.full((config.num_sets, config.ways), -1, dtype=np.int64)

    def reset(self) -> None:
        """Empty the cache."""
        self._state.fill(-1)

    # -- reference path ------------------------------------------------------

    def access(self, line: int) -> bool:
        """Access one line; returns True on hit."""
        line = int(line)
        if line < 0:
            raise ValueError(f"line ids must be non-negative, got {line}")
        row = self._state[line % self.config.num_sets]
        ways = row.tolist()
        hit = line in ways
        position = ways.index(line) if hit else len(ways) - 1
        row[1 : position + 1] = ways[:position]
        row[0] = line
        return hit

    # -- batched path ----------------------------------------------------------

    def simulate(self, lines: np.ndarray) -> np.ndarray:
        """Access a stream of lines; returns a per-access miss mask."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if lines.ndim != 1:
            raise ValueError(f"expected a 1-D line stream, got shape {lines.shape}")
        n = len(lines)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if int(lines.min()) < 0:
            raise ValueError("line ids must be non-negative")
        replayed = kernels.lru_replay(lines, self._state)
        if replayed is not None:
            return replayed

        # -- Python reference replay -----------------------------------------
        # Collapse consecutive duplicates: repeats always hit.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        positions = np.flatnonzero(keep)
        deduped = lines[positions]

        # Stable partition by set; each set's subsequence keeps its order.
        sets = deduped % self.config.num_sets
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        boundaries = np.flatnonzero(np.diff(sorted_sets)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(order)]))

        deduped_misses = np.zeros(len(positions), dtype=bool)
        max_ways = self.config.ways
        for start, end in zip(starts, ends):
            row = self._state[int(sorted_sets[start])]
            ways = [held for held in row.tolist() if held >= 0]
            for index in order[start:end]:
                line = int(deduped[index])
                try:
                    position = ways.index(line)
                except ValueError:
                    deduped_misses[index] = True
                    if len(ways) >= max_ways:
                        ways.pop()
                    ways.insert(0, line)
                else:
                    if position:
                        del ways[position]
                        ways.insert(0, line)
            row[: len(ways)] = ways
            row[len(ways) :] = -1

        misses = np.zeros(n, dtype=bool)
        misses[positions] = deduped_misses
        return misses

    def contents(self) -> Dict[int, List[int]]:
        """Snapshot of each non-empty set, MRU first (for tests)."""
        return {
            index: [line for line in row if line >= 0]
            for index, row in enumerate(self._state.tolist())
            if row[0] >= 0
        }
