#include "runtime/telemetry/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace bts::runtime::telemetry {

namespace {

constexpr std::size_t kDefaultCapacity = 65536;

/** Global runtime switch: a bitmask of Category. Starts all-off so a
 *  telemetry-compiled binary pays only the relaxed load per site. */
std::atomic<u32> g_mask{0};

/**
 * One thread's fixed event array. The owning thread is the only
 * writer: it fills events[head] then publishes with a release store of
 * head+1; collectors acquire-load head and read at most that many
 * slots. A full buffer counts drops instead of wrapping — overwrite
 * semantics would tear slots under a concurrent collector, and for
 * profiling the *first* events of a run are the ones that pair with
 * the static per-node predictions.
 */
struct ThreadBuffer
{
    explicit ThreadBuffer(std::size_t capacity) : events(capacity) {}

    std::vector<TraceEvent> events;
    std::atomic<std::size_t> head{0};
    std::atomic<u64> dropped{0};
    u32 tid = 0;
    std::string name; //!< guarded by the registry mutex
};

/** Process-wide buffer registry. Buffers are shared_ptr so a thread
 *  exiting never invalidates a collector's view. */
struct Registry
{
    std::mutex m;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::size_t capacity = kDefaultCapacity;
};

Registry&
registry()
{
    // Leaked: thread_local destructors and static traced objects may
    // emit/collect during teardown, so the registry outlives them all.
    static Registry* r = new Registry;
    return *r;
}

/** Thread-name requested before the thread's buffer exists (creating
 *  one per named-but-silent thread would cost capacity x
 *  sizeof(TraceEvent) bytes for nothing). */
thread_local std::string t_pending_name;

thread_local std::shared_ptr<ThreadBuffer> t_buffer;

ThreadBuffer&
buffer_for_thread()
{
    if (!t_buffer) {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.m);
        auto buf = std::make_shared<ThreadBuffer>(r.capacity);
        buf->tid = static_cast<u32>(r.buffers.size());
        buf->name = t_pending_name;
        r.buffers.push_back(buf);
        t_buffer = std::move(buf);
    }
    return *t_buffer;
}

} // namespace

void
set_enabled(u32 category_mask)
{
    g_mask.store(category_mask, std::memory_order_relaxed);
}

u32
enabled_mask()
{
    return g_mask.load(std::memory_order_relaxed);
}

u64
now_ns()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
set_thread_name(const std::string& name)
{
    t_pending_name = name;
    if (t_buffer) {
        std::lock_guard<std::mutex> lock(registry().m);
        t_buffer->name = name;
    }
}

void
set_thread_buffer_capacity(std::size_t events)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    r.capacity = events;
}

void
acquire_thread_buffer()
{
    (void)buffer_for_thread();
}

void
emit(const TraceEvent& ev)
{
    ThreadBuffer& buf = buffer_for_thread();
    const std::size_t h = buf.head.load(std::memory_order_relaxed);
    if (h >= buf.events.size()) {
        buf.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buf.events[h] = ev;
    buf.head.store(h + 1, std::memory_order_release);
}

Trace
collect_trace()
{
    Trace out;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    out.threads.reserve(r.buffers.size());
    for (const auto& buf : r.buffers) {
        ThreadTrace t;
        t.tid = buf->tid;
        t.name = buf->name;
        t.dropped = buf->dropped.load(std::memory_order_relaxed);
        const std::size_t n =
            std::min(buf->head.load(std::memory_order_acquire),
                     buf->events.size());
        t.events.assign(buf->events.begin(),
                        buf->events.begin() +
                            static_cast<std::ptrdiff_t>(n));
        out.threads.push_back(std::move(t));
    }
    return out;
}

void
reset_trace()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    for (const auto& buf : r.buffers) {
        // Quiescence is the caller's contract; under it, resizing the
        // slot array and rewinding head cannot race an emit.
        if (buf->events.size() != r.capacity) {
            buf->events.assign(r.capacity, TraceEvent{});
            buf->events.shrink_to_fit();
        }
        buf->head.store(0, std::memory_order_release);
        buf->dropped.store(0, std::memory_order_relaxed);
    }
}

} // namespace bts::runtime::telemetry
