/**
 * Tracing core tests (runtime/telemetry/): multi-thread capture, the
 * drop-new overflow contract (a full buffer counts, never blocks or
 * crashes), runtime category masking, and the Chrome trace exporter's
 * event shapes. The disabled-path overhead bound is timed on its own
 * in test_telemetry_overhead.cpp.
 *
 * Telemetry state is process-global; every test starts by disabling
 * emission and resetting the buffers so captures cannot leak across
 * cases (this suite runs one test binary, cases in order).
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/telemetry/chrome_trace.h"
#include "runtime/telemetry/trace.h"

// Capture-dependent cases skip when the hooks are compiled out
// (-DBTS_TELEMETRY=OFF): nothing emits by design, so there is nothing
// to assert on. Trace.DisabledEmitsNothing runs either way.
#if defined(BTS_TELEMETRY)
#define BTS_SKIP_WITHOUT_TELEMETRY() ((void)0)
#else
#define BTS_SKIP_WITHOUT_TELEMETRY() \
    GTEST_SKIP() << "built without BTS_TELEMETRY"
#endif

namespace bts::runtime::telemetry {
namespace {

void
quiesce_and_reset()
{
    set_enabled(0);
    set_thread_buffer_capacity(65536);
    reset_trace();
}

u32
mask(Category c)
{
    return static_cast<u32>(c);
}

TEST(Trace, DisabledEmitsNothing)
{
    quiesce_and_reset();
    BTS_TRACE_INSTANT(kKernel, "should.not.appear", 1);
    {
        BTS_TRACE_SPAN(kNode, "should.not.appear.either");
    }
    EXPECT_EQ(collect_trace().total_events(), 0u);
}

TEST(Trace, CapturesSpansAcrossThreads)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    quiesce_and_reset();
    set_enabled(mask(Category::kKernel));
    constexpr int kThreads = 3;
    constexpr int kSpansPer = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            set_thread_name("worker " + std::to_string(t));
            for (int i = 0; i < kSpansPer; ++i) {
                BTS_TRACE_SPAN_VAR(span, kKernel, "unit.work");
                span.set_level(t);
                span.set_arg(i);
            }
        });
    }
    for (auto& t : threads) t.join();
    set_enabled(0);

    const Trace trace = collect_trace();
    EXPECT_EQ(trace.total_events(),
              static_cast<std::size_t>(kThreads * kSpansPer));
    EXPECT_EQ(trace.total_dropped(), 0u);
    int named = 0;
    for (const ThreadTrace& th : trace.threads) {
        if (th.events.empty()) continue;
        ++named;
        EXPECT_EQ(th.events.size(), static_cast<std::size_t>(kSpansPer));
        EXPECT_TRUE(th.name.rfind("worker ", 0) == 0) << th.name;
        for (const TraceEvent& ev : th.events) {
            EXPECT_STREQ(ev.name, "unit.work");
            EXPECT_EQ(ev.kind, EventKind::kSpan);
            EXPECT_LE(ev.t0_ns, ev.t1_ns);
            EXPECT_NE(ev.t0_ns, 0u);
        }
        // Emission order is preserved within a thread.
        for (std::size_t i = 0; i + 1 < th.events.size(); ++i) {
            EXPECT_LE(th.events[i].arg, th.events[i + 1].arg);
        }
    }
    EXPECT_EQ(named, kThreads);
}

TEST(Trace, OverflowDropsNewEventsAndCounts)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    quiesce_and_reset();
    set_thread_buffer_capacity(16);
    set_enabled(mask(Category::kServer));
    // A fresh thread gets the reduced capacity; emit far past it.
    std::thread t([] {
        set_thread_name("overflow");
        for (int i = 0; i < 1000; ++i) {
            BTS_TRACE_INSTANT(kServer, "tick", i);
        }
    });
    t.join();
    set_enabled(0);

    const Trace trace = collect_trace();
    const ThreadTrace* th = nullptr;
    for (const ThreadTrace& cand : trace.threads) {
        if (cand.name == "overflow") th = &cand;
    }
    ASSERT_NE(th, nullptr);
    EXPECT_EQ(th->events.size(), 16u);
    EXPECT_EQ(th->dropped, 984u);
    // The survivors are the FIRST 16 (drop-new, not ring-wrap).
    for (std::size_t i = 0; i < th->events.size(); ++i) {
        EXPECT_EQ(th->events[i].arg, static_cast<i64>(i));
    }
    // reset_trace applies the pending default capacity again.
    quiesce_and_reset();
}

TEST(Trace, OpeningASpanRegistersTheThread)
{
    // A thread's buffer (capacity x sizeof(TraceEvent) bytes) is
    // acquired when its first enabled span opens, before the start
    // stamp: the allocation must not be charged to the span enclosing
    // the thread's first emitted event.
    BTS_SKIP_WITHOUT_TELEMETRY();
    quiesce_and_reset();
    set_enabled(mask(Category::kKernel));
    bool registered_while_open = false;
    std::size_t events_while_open = 1;
    std::thread t([&] {
        set_thread_name("first.span");
        BTS_TRACE_SPAN(kKernel, "outer");
        // Only this thread emits, so collecting mid-span is quiescent.
        for (const ThreadTrace& th : collect_trace().threads) {
            if (th.name != "first.span") continue;
            registered_while_open = true;
            events_while_open = th.events.size();
        }
    });
    t.join();
    set_enabled(0);
    EXPECT_TRUE(registered_while_open);
    EXPECT_EQ(events_while_open, 0u);

    std::size_t events_after = 0;
    for (const ThreadTrace& th : collect_trace().threads) {
        if (th.name == "first.span") events_after = th.events.size();
    }
    EXPECT_EQ(events_after, 1u);
}

TEST(Trace, CategoryMaskFilters)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    quiesce_and_reset();
    set_enabled(mask(Category::kServer));
    BTS_TRACE_INSTANT(kKernel, "masked.out", 0);
    BTS_TRACE_INSTANT(kServer, "kept", 7);
    set_enabled(0);

    const Trace trace = collect_trace();
    ASSERT_EQ(trace.total_events(), 1u);
    for (const ThreadTrace& th : trace.threads) {
        for (const TraceEvent& ev : th.events) {
            EXPECT_STREQ(ev.name, "kept");
            EXPECT_EQ(ev.cat, Category::kServer);
            EXPECT_EQ(ev.arg, 7);
        }
    }
    EXPECT_FALSE(enabled(Category::kServer));
    EXPECT_FALSE(enabled(Category::kKernel));
}

TEST(Trace, SpanTagsLandInTheEvent)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    quiesce_and_reset();
    set_enabled(mask(Category::kNode));
    {
        BTS_TRACE_SPAN_VAR(span, kNode, "HMult");
        EXPECT_TRUE(span.active());
        span.set_level(11);
        span.set_arg(42);
        span.set_cost(1.5e-4);
    }
    set_enabled(0);

    const Trace trace = collect_trace();
    ASSERT_EQ(trace.total_events(), 1u);
    for (const ThreadTrace& th : trace.threads) {
        for (const TraceEvent& ev : th.events) {
            EXPECT_EQ(ev.level, 11);
            EXPECT_EQ(ev.arg, 42);
            EXPECT_DOUBLE_EQ(ev.cost_s, 1.5e-4);
        }
    }
}

TEST(ChromeTrace, ExportsTracksSpansAndCounters)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    quiesce_and_reset();
    set_enabled(mask(Category::kServer) | mask(Category::kKernel));
    set_thread_name("lane 9");
    {
        BTS_TRACE_SPAN(kKernel, "ntt.fwd");
    }
    BTS_TRACE_INSTANT(kServer, "job.submitted", 1);
    BTS_TRACE_COUNTER(kServer, "server.queue_depth", 3);
    set_enabled(0);

    const std::string json = to_chrome_trace_json(collect_trace());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("lane 9"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

} // namespace
} // namespace bts::runtime::telemetry
