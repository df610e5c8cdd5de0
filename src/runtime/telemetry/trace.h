/**
 * @file
 * Low-overhead runtime tracing core: per-thread event buffers, RAII
 * scoped spans, and instant/counter events.
 *
 * The paper's whole argument is built on measured timelines (Fig. 8's
 * per-lane occupancy bars, the NTT/BConv busy fractions) — this is the
 * software counterpart: every hot layer (NTT/BConv kernels, evaluator
 * key-switch/rescale, Executor node dispatch, GraphServer job
 * lifecycle) emits events here, and the exporters (chrome_trace.h,
 * profile.h) turn one captured run into the same artifacts the paper
 * reports.
 *
 * Design constraints, in order:
 *  1. Near-zero cost when disabled. Compile-time the `BTS_TELEMETRY`
 *     definition (a CMake option, default ON) erases every macro to
 *     nothing; runtime-disabled (the default state) the cost of a span
 *     is one relaxed atomic load and a branch.
 *  2. No locks, no allocation on the hot path. Each thread owns a
 *     fixed-capacity event buffer, created when its first enabled
 *     span opens (before the span's start stamp, so no span is
 *     charged for it) or on its first other event; writes
 *     are single-producer (the owning thread) with a release store
 *     publishing each slot. A full buffer DROPS new events and counts
 *     them — tracing never blocks, reallocates, or crashes the traced
 *     code.
 *  3. Collection requires quiescence: collect_trace()/reset_trace()
 *     read or rewind buffers that other threads may own, so call them
 *     only when no traced work is in flight (after Executor::run /
 *     GraphServer::drain returns). Idle threads are fine — only
 *     concurrent *emission* races with collection.
 *
 * Events are tagged with a category (maskable at runtime), an op
 * level, an integer arg (limb count, value id, queue depth — per span
 * taxonomy, see docs/OBSERVABILITY.md) and a predicted-cost tag that
 * the Executor fills from the static ResourceSummary, closing the
 * predicted-vs-measured loop in profile.h.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"

namespace bts::runtime::telemetry {

/** Event source layer; each is a bit in the runtime enable mask. */
enum class Category : u32 {
    kNode = 1u << 0,      //!< Executor per-node dispatch spans
    kEvaluator = 1u << 1, //!< key-switch / rescale / mod-raise spans
    kKernel = 1u << 2,    //!< NTT / iNTT / BConv batch kernels
    kServer = 1u << 3,    //!< GraphServer job lifecycle + queue depth
    kWorkspace = 1u << 4, //!< buffer-pool acquire/release instants
    kBootstrap = 1u << 5, //!< bootstrap + its four stages
};

/** Every category bit — the "trace everything" mask. */
inline constexpr u32 kAllCategories = 0x3fu;

enum class EventKind : u8 {
    kSpan,    //!< [t0_ns, t1_ns] duration on the emitting thread
    kInstant, //!< point event at t0_ns
    kCounter, //!< sampled value (arg) at t0_ns, e.g. queue depth
};

/** One captured event. `name` must be a string with static storage
 *  duration (the buffer stores the pointer, not a copy). */
struct TraceEvent
{
    const char* name = nullptr;
    u64 t0_ns = 0; //!< steady_clock; 0 doubles as "span inactive"
    u64 t1_ns = 0; //!< == t0_ns for instants and counters
    Category cat = Category::kKernel;
    EventKind kind = EventKind::kSpan;
    int level = -1;    //!< RNS level of the op; -1 when not set
    i64 arg = 0;       //!< per-taxonomy tag: limbs, value id, depth…
    double cost_s = 0; //!< statically predicted cost; 0 when untagged
};

/** Set the runtime enable mask (bitwise OR of Category values; 0 —
 *  the initial state — disables all emission). */
void set_enabled(u32 category_mask);
u32 enabled_mask();

/** Monotonic timestamp in ns (steady_clock). */
u64 now_ns();

/** Name the calling thread's track in collected traces ("lane 0").
 *  Cheap; does not allocate an event buffer by itself. */
void set_thread_name(const std::string& name);

/** Capacity (in events) of buffers created AFTER this call; existing
 *  buffers are resized by the next reset_trace(). Default 65536. */
void set_thread_buffer_capacity(std::size_t events);

/** Append one event to the calling thread's buffer (drop-and-count
 *  when full). Callers must have checked enabled() already. */
void emit(const TraceEvent& ev);

/** Create and register the calling thread's buffer if it has none
 *  (capacity x sizeof(TraceEvent) bytes). An enabled ScopedSpan calls
 *  it before taking its start stamp. */
void acquire_thread_buffer();

#if defined(BTS_TELEMETRY)

inline bool
enabled(Category cat)
{
    return (enabled_mask() & static_cast<u32>(cat)) != 0;
}

#else

inline bool
enabled(Category)
{
    return false;
}

#endif

/** Point event (job lifecycle transitions, pool acquire/release). */
inline void
instant(Category cat, const char* name, i64 arg = 0, int level = -1)
{
    if (!enabled(cat)) return;
    TraceEvent ev;
    ev.name = name;
    ev.t0_ns = now_ns();
    ev.t1_ns = ev.t0_ns;
    ev.cat = cat;
    ev.kind = EventKind::kInstant;
    ev.arg = arg;
    ev.level = level;
    emit(ev);
}

/** Sampled counter value (renders as a counter track in Perfetto). */
inline void
counter(Category cat, const char* name, i64 value)
{
    if (!enabled(cat)) return;
    TraceEvent ev;
    ev.name = name;
    ev.t0_ns = now_ns();
    ev.t1_ns = ev.t0_ns;
    ev.cat = cat;
    ev.kind = EventKind::kCounter;
    ev.arg = value;
    emit(ev);
}

/**
 * RAII span: captures t0 at construction when its category is enabled,
 * emits the completed event at destruction. The set_* taggers are
 * no-ops on an inactive span, so call sites stay branch-free.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Category cat, const char* name)
    {
#if defined(BTS_TELEMETRY)
        if (enabled(cat)) {
            acquire_thread_buffer();
            ev_.cat = cat;
            ev_.name = name;
            ev_.t0_ns = now_ns();
        }
#else
        (void)cat;
        (void)name;
#endif
    }

    ~ScopedSpan()
    {
#if defined(BTS_TELEMETRY)
        if (ev_.t0_ns != 0) {
            ev_.t1_ns = now_ns();
            emit(ev_);
        }
#endif
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    bool
    active() const
    {
#if defined(BTS_TELEMETRY)
        return ev_.t0_ns != 0;
#else
        return false;
#endif
    }

    void
    set_level(int level)
    {
#if defined(BTS_TELEMETRY)
        if (ev_.t0_ns != 0) ev_.level = level;
#else
        (void)level;
#endif
    }

    void
    set_arg(i64 arg)
    {
#if defined(BTS_TELEMETRY)
        if (ev_.t0_ns != 0) ev_.arg = arg;
#else
        (void)arg;
#endif
    }

    void
    set_cost(double cost_s)
    {
#if defined(BTS_TELEMETRY)
        if (ev_.t0_ns != 0) ev_.cost_s = cost_s;
#else
        (void)cost_s;
#endif
    }

  private:
#if defined(BTS_TELEMETRY)
    TraceEvent ev_;
#endif
};

/** One thread's captured slice, in emission order. */
struct ThreadTrace
{
    u32 tid = 0;       //!< registration order; stable across collects
    std::string name;  //!< set_thread_name(), or "" for the default
    u64 dropped = 0;   //!< events lost to a full buffer
    std::vector<TraceEvent> events;
};

/** A full capture: every thread that emitted since the last reset. */
struct Trace
{
    std::vector<ThreadTrace> threads;

    std::size_t
    total_events() const
    {
        std::size_t n = 0;
        for (const ThreadTrace& t : threads) n += t.events.size();
        return n;
    }

    u64
    total_dropped() const
    {
        u64 n = 0;
        for (const ThreadTrace& t : threads) n += t.dropped;
        return n;
    }
};

/** Snapshot every thread buffer. Requires emission quiescence (see
 *  file comment); buffers are left intact. */
Trace collect_trace();

/** Rewind every thread buffer (and apply a pending capacity change).
 *  Requires emission quiescence. */
void reset_trace();

} // namespace bts::runtime::telemetry

// Call-site macros. They compile away entirely without BTS_TELEMETRY;
// with it, a disabled category costs one relaxed load + branch.
#define BTS_TELEMETRY_CAT2(a, b) a##b
#define BTS_TELEMETRY_CAT(a, b) BTS_TELEMETRY_CAT2(a, b)

/** Anonymous scoped span over the rest of the enclosing block. */
#define BTS_TRACE_SPAN(category, span_name)                        \
    ::bts::runtime::telemetry::ScopedSpan BTS_TELEMETRY_CAT(       \
        bts_trace_span_, __LINE__)(                                \
        ::bts::runtime::telemetry::Category::category, (span_name))

/** Named scoped span, for call sites that tag level/arg/cost. */
#define BTS_TRACE_SPAN_VAR(var, category, span_name)               \
    ::bts::runtime::telemetry::ScopedSpan var(                     \
        ::bts::runtime::telemetry::Category::category, (span_name))

#define BTS_TRACE_INSTANT(category, event_name, arg_value)         \
    ::bts::runtime::telemetry::instant(                            \
        ::bts::runtime::telemetry::Category::category, (event_name), \
        static_cast<::bts::i64>(arg_value))

#define BTS_TRACE_COUNTER(category, counter_name, counter_value)   \
    ::bts::runtime::telemetry::counter(                            \
        ::bts::runtime::telemetry::Category::category,             \
        (counter_name), static_cast<::bts::i64>(counter_value))
