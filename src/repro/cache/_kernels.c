/* Sequential kernels behind repro.cache.kernels.
 *
 * Built on first use with the system C compiler and loaded through
 * ctypes; the Python loops in LruCache.simulate and
 * core/prefetch.py::_pipeline_cycles are the bit-exact references.
 */
#include <stdint.h>

/* Replay n line accesses through a set-associative true-LRU cache.
 *
 * state holds num_sets rows of `ways` line ids, most recently used
 * first, -1 marking an empty slot; lines must be non-negative so they
 * never match the sentinel.  misses[i] is set to 1 when access i
 * misses, 0 when it hits.
 */
void lru_replay(const int64_t *lines, int64_t n, int64_t *state,
                int64_t num_sets, int64_t ways, uint8_t *misses)
{
    const int pow2 = (num_sets & (num_sets - 1)) == 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t line = lines[i];
        int64_t *row = state + (pow2 ? line & (num_sets - 1) : line % num_sets) * ways;
        int64_t k = 0;
        while (k < ways && row[k] != line)
            k++;
        misses[i] = k == ways;
        if (k == ways)
            k = ways - 1;
        for (; k > 0; k--)
            row[k] = row[k - 1];
        row[0] = line;
    }
}

/* The prefetch pipeline's max-plus recurrence over n fragments.
 *
 * costs[i] is misses[i] times the per-line transfer time.  ring holds
 * the retire times of the last min(depth, n) fragments.  Every max()
 * keeps Python's operand order and the caller compiles without FP
 * contraction, so the result matches the Python loop bit for bit.
 */
double pipeline_cycles(const int64_t *misses, const double *costs, int64_t n,
                       int64_t depth, double latency, double *ring)
{
    const int64_t size = depth < n ? depth : n;
    int64_t slot = 0;
    double issue = -1.0, bus_free = 0.0, last_retire = -1.0;
    for (int64_t i = 0; i < n; i++) {
        issue += 1.0;
        if (i >= depth && ring[slot] > issue)
            issue = ring[slot];
        double ready = issue;
        if (misses[i]) {
            const double begin = issue > bus_free ? issue : bus_free;
            bus_free = begin + costs[i];
            ready = bus_free + latency;
        }
        last_retire += 1.0;
        if (ready > last_retire)
            last_retire = ready;
        ring[slot] = last_retire;
        if (++slot == size)
            slot = 0;
    }
    return n ? last_retire + 1.0 : 0.0;
}
