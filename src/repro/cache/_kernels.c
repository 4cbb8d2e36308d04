/* Sequential kernels behind repro.cache.kernels.
 *
 * Built on first use with the system C compiler and loaded through
 * ctypes; the Python loops in LruCache.simulate and
 * core/prefetch.py::_pipeline_cycles, and the event kernel behind
 * core/distributor.py::run_event_machine, are the bit-exact references.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

/* The finite-FIFO machine of core/distributor.py, event for event.
 *
 * One in-order distributor feeds m stream entries (triangle, node,
 * pixels, texels) into n bounded triangle FIFOs, then one END item
 * into each; every node drains its FIFO one triangle at a time.  The
 * schedule replays the Python event kernel (sim/kernel.py with
 * sim/fifo.py) exactly, because the FIFO high-water marks depend on
 * how same-cycle events are ordered:
 *
 *  - pending wake-ups (node completions and the distributor's release
 *    wait, at most n + 1) sit in a (time, sequence) min-heap;
 *  - at time 0 every node waits on its empty FIFO before the
 *    distributor runs;
 *  - a put to a node waiting on an empty FIFO hands the item straight
 *    over and the node starts at once; otherwise it is stored while
 *    the FIFO holds fewer than `capacity` items, else the put blocks;
 *  - a get that frees a slot in the FIFO the distributor is blocked on
 *    stores the pending item and runs the distributor to its next
 *    block before the getting node starts its own triangle;
 *  - END items take FIFO slots like triangles.
 *
 * Times are computed as the Python code does (a wait fires at
 * now + (t - now)) and every max() keeps Python's operand order.
 *
 * A FIFO holds a contiguous run of its node's entries in stream order,
 * so it is two counters into that node's entry list: `tail` items put
 * (END is item number len) and `head` items taken.  Nothing is
 * allocated in proportion to `capacity`.
 *
 * finish, blocked and busy (double) and high_water and texels (int64)
 * are per-node outputs; blocked starts at the caller's totals, as does
 * totals[1] (blocked cycles), and totals[0] receives the frame time.
 * Returns the number of blocking puts, -1 for a node id outside
 * [0, n) or a triangle id outside the release array, -2 when out of
 * memory.
 */
typedef struct {
    double time;
    int64_t seq;
    int64_t id; /* node, or n for the distributor's release wait */
} fifo_event;

typedef struct {
    const int64_t *stream;
    int64_t m, n, capacity, setup;
    double ratio, now;
    const double *release;
    int64_t *entries, *first, *head, *tail;
    uint8_t *waiting;
    double *bus_free;
    /* distributor: next entry (m + k puts END to node k), the node its
     * put is blocked on (-1 when none), the time that put started */
    int64_t next, blocked_on, blocks;
    double before, blocked_total;
    fifo_event *heap;
    int64_t heap_size, seq;
    double *finish, *blocked, *busy;
    int64_t *high_water, *texels;
} fifo_state;

static int event_before(const fifo_event *a, const fifo_event *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static void schedule(fifo_state *s, double time, int64_t id)
{
    int64_t i = s->heap_size++;
    fifo_event e = {time, s->seq++, id};
    while (i > 0 && event_before(&e, &s->heap[(i - 1) / 2])) {
        s->heap[i] = s->heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    s->heap[i] = e;
}

static fifo_event next_event(fifo_state *s)
{
    fifo_event top = s->heap[0], last = s->heap[--s->heap_size];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= s->heap_size)
            break;
        if (child + 1 < s->heap_size && event_before(&s->heap[child + 1], &s->heap[child]))
            child++;
        if (!event_before(&s->heap[child], &last))
            break;
        s->heap[i] = s->heap[child];
        i = child;
    }
    s->heap[i] = last;
    return top;
}

static int64_t node_length(const fifo_state *s, int64_t node)
{
    return s->first[node + 1] - s->first[node];
}

static void distributor_run(fifo_state *s, int released);

/* A get by `node`: 1 with the item number in *item, or 0 when the FIFO
 * is empty and the node now waits. */
static int node_get(fifo_state *s, int64_t node, int64_t *item)
{
    if (s->tail[node] == s->head[node]) {
        s->waiting[node] = 1;
        return 0;
    }
    *item = s->head[node]++;
    if (s->blocked_on == node) {
        const int64_t count = ++s->tail[node] - s->head[node];
        if (count > s->high_water[node])
            s->high_water[node] = count;
        s->blocked_on = -1;
        if (s->next < s->m) {
            const double waited = s->now - s->before;
            if (waited > 0) {
                s->blocked_total += waited;
                s->blocked[node] += waited;
                s->blocks++;
            }
        }
        s->next++;
        distributor_run(s, 0);
    }
    return 1;
}

/* `node` starts its item number `item` at the current time and keeps
 * going while its triangles take no time. */
static void node_run(fifo_state *s, int64_t node, int64_t item)
{
    for (;;) {
        if (item == node_length(s, node))
            return; /* END */
        const int64_t *entry = s->stream + 4 * s->entries[s->first[node] + item];
        const int64_t pixels = entry[2], texels = entry[3];
        const double start = s->now;
        double begin = s->bus_free[node];
        if (start > begin)
            begin = start;
        const double cycles = texels == 0 || isinf(s->ratio) ? 0.0 : (double)texels / s->ratio;
        s->bus_free[node] = begin + cycles;
        s->texels[node] += texels;
        s->busy[node] += cycles;
        double end = start + (double)(s->setup > pixels ? s->setup : pixels);
        if (s->bus_free[node] > end)
            end = s->bus_free[node];
        if (end > s->now) {
            schedule(s, s->now + (end - s->now), node);
            return;
        }
        s->finish[node] = s->now;
        if (!node_get(s, node, &item))
            return;
    }
}

/* A put into `node`'s FIFO: 0 when it blocks. */
static int fifo_put(fifo_state *s, int64_t node)
{
    if (s->waiting[node]) {
        s->waiting[node] = 0;
        s->tail[node]++;
        node_run(s, node, s->head[node]++);
        return 1;
    }
    const int64_t count = s->tail[node] - s->head[node];
    if (count >= s->capacity)
        return 0;
    s->tail[node]++;
    if (count + 1 > s->high_water[node])
        s->high_water[node] = count + 1;
    return 1;
}

/* Run the distributor until it blocks, waits for a release or ends;
 * `released` skips the release check of the first entry after a wait. */
static void distributor_run(fifo_state *s, int released)
{
    for (; s->next < s->m + s->n; s->next++, released = 0) {
        int64_t node = s->next - s->m;
        if (s->next < s->m) {
            const int64_t *entry = s->stream + 4 * s->next;
            node = entry[1];
            if (s->release != NULL && !released && s->now < s->release[entry[0]]) {
                schedule(s, s->now + (s->release[entry[0]] - s->now), s->n);
                return;
            }
            s->before = s->now;
        }
        if (!fifo_put(s, node)) {
            s->blocked_on = node;
            return;
        }
    }
}

int64_t fifo_machine(const int64_t *stream, int64_t m, int64_t n, int64_t capacity,
                     int64_t setup, double ratio, const double *release,
                     int64_t release_len, double *finish, double *blocked,
                     int64_t *high_water, int64_t *texels, double *busy,
                     double *totals)
{
    fifo_state s = {.stream = stream, .m = m, .n = n, .capacity = capacity,
                    .setup = setup, .ratio = ratio, .release = release};
    s.entries = malloc((m > 0 ? m : 1) * sizeof(int64_t));
    s.first = calloc(n + 1, sizeof(int64_t));
    s.head = calloc(n + 1, sizeof(int64_t));
    s.tail = calloc(n + 1, sizeof(int64_t));
    s.waiting = malloc(n + 1);
    s.bus_free = calloc(n + 1, sizeof(double));
    s.heap = malloc((n + 1) * sizeof(fifo_event));
    int64_t result = -2;
    if (!s.entries || !s.first || !s.head || !s.tail || !s.waiting || !s.bus_free || !s.heap)
        goto done;
    result = -1;
    /* Counting sort of the entries by node, stable in stream order. */
    for (int64_t i = 0; i < m; i++) {
        const int64_t tri = stream[4 * i], node = stream[4 * i + 1];
        if (node < 0 || node >= n || (release != NULL && (tri < 0 || tri >= release_len)))
            goto done;
        s.first[node + 1]++;
    }
    for (int64_t k = 0; k < n; k++) {
        s.first[k + 1] += s.first[k];
        s.head[k] = s.first[k]; /* scratch: fill position */
    }
    for (int64_t i = 0; i < m; i++)
        s.entries[s.head[stream[4 * i + 1]]++] = i;
    for (int64_t k = 0; k < n; k++) {
        s.head[k] = 0;
        s.waiting[k] = 1;
    }
    s.blocked_on = -1;
    s.blocked_total = totals[1];
    s.finish = finish;
    s.blocked = blocked;
    s.busy = busy;
    s.high_water = high_water;
    s.texels = texels;
    distributor_run(&s, 0);
    while (s.heap_size > 0) {
        const fifo_event e = next_event(&s);
        s.now = e.time;
        if (e.id == n) {
            distributor_run(&s, 1);
        } else {
            int64_t item;
            s.finish[e.id] = s.now;
            if (node_get(&s, e.id, &item))
                node_run(&s, e.id, item);
        }
    }
    totals[0] = s.now;
    totals[1] = s.blocked_total;
    result = s.blocks;
done:
    free(s.entries);
    free(s.first);
    free(s.head);
    free(s.tail);
    free(s.waiting);
    free(s.bus_free);
    free(s.heap);
    return result;
}
