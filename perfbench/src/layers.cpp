#include "layers.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace tel = bts::runtime::telemetry;

namespace {

/** Executor node kinds reported one by one; the rest fold into
 *  executor.node_ms.other. Fused variants report with their base op. */
const std::pair<const char*, const char*> kNodes[] = {
    {"Bootstrap", "executor.node_ms.Bootstrap"},
    {"HRot", "executor.node_ms.HRot"},
    {"HRotHoisted", "executor.node_ms.HRotHoisted"},
    {"HMultRescale", "executor.node_ms.HMultRescale"},
    {"HMult", "executor.node_ms.HMultRescale"},
    {"PMult", "executor.node_ms.PMult"},
    {"PMultRescale", "executor.node_ms.PMult"},
};
constexpr const char* kOtherNode = "executor.node_ms.other";

/** Library span name -> layer bucket (docs/OBSERVABILITY.md taxonomy). */
const std::pair<const char*, const char*> kSpans[] = {
    {"ntt.fwd", "math.ntt"},
    {"ntt.fwd_lazy", "math.ntt"},
    {"ntt.inv", "math.ntt"},
    {"bconv", "rns.bconv"},
    {"bconv.grouped", "rns.bconv"},
    {"keyswitch", "ckks.keyswitch"},
    {"rotate.hoisted", "ckks.keyswitch"},
    {"rescale", "ckks.rescale"},
    {"modraise", "ckks.modraise"},
    {"bootstrap", "ckks.boot"},
    {"bootstrap.subsum", "ckks.boot.subsum"},
    {"bootstrap.cts", "ckks.boot.cts"},
    {"bootstrap.evalmod", "ckks.boot.evalmod"},
    {"bootstrap.stc", "ckks.boot.stc"},
};
constexpr const char* kUnmapped = "trace.unmapped";

/** Layers whose span counts are reported as <layer>.calls. */
const char* const kCounted[] = {"math.ntt", "rns.bconv", "ckks.keyswitch",
                                "ckks.rescale"};

const char*
node_bucket(const char* op)
{
    for (const auto& [name, bucket] : kNodes) {
        if (std::strcmp(op, name) == 0) return bucket;
    }
    return kOtherNode;
}

const char*
span_bucket(const char* name)
{
    for (const auto& [span, bucket] : kSpans) {
        if (std::strcmp(name, span) == 0) return bucket;
    }
    return kUnmapped;
}

double
get(const std::map<std::string, double>& m, const std::string& key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

struct Open
{
    const tel::TraceEvent* ev;
    double child_ms = 0;
    bool counted; //!< inside (or is) a node span
};

double
ms(const tel::TraceEvent& e)
{
    return static_cast<double>(e.t1_ns - e.t0_ns) * 1e-6;
}

} // namespace

bts::u32
traced_categories()
{
    return tel::kAllCategories &
           ~static_cast<bts::u32>(tel::Category::kWorkspace);
}

void
add_trace(const tel::Trace& trace, LayerTotals& totals)
{
    for (const tel::ThreadTrace& t : trace.threads) {
        totals.dropped += t.dropped;
        totals.events += t.events.size();
        std::vector<const tel::TraceEvent*> spans;
        for (const tel::TraceEvent& e : t.events) {
            if (e.kind == tel::EventKind::kSpan &&
                e.cat != tel::Category::kServer) {
                spans.push_back(&e);
            }
        }
        // Parents first: earlier start, and on a tie the longer span.
        std::sort(spans.begin(), spans.end(),
                  [](const tel::TraceEvent* a, const tel::TraceEvent* b) {
                      if (a->t0_ns != b->t0_ns) return a->t0_ns < b->t0_ns;
                      return a->t1_ns > b->t1_ns;
                  });
        std::vector<Open> stack;
        const auto close = [&](const Open& o) {
            if (!o.counted) return;
            const bool node = o.ev->cat == tel::Category::kNode;
            const char* bucket =
                node ? node_bucket(o.ev->name) : span_bucket(o.ev->name);
            totals.self_ms[bucket] += ms(*o.ev) - o.child_ms;
            totals.calls[bucket] += 1;
            if (std::strncmp(bucket, "ckks.boot.", 10) == 0) {
                totals.stage_ms[bucket] += ms(*o.ev);
            }
        };
        for (const tel::TraceEvent* e : spans) {
            while (!stack.empty() && stack.back().ev->t1_ns <= e->t0_ns) {
                close(stack.back());
                stack.pop_back();
            }
            const bool node = e->cat == tel::Category::kNode;
            if (!stack.empty() && e->t1_ns > stack.back().ev->t1_ns) {
                ++totals.misnested;
            }
            const bool parent_counted =
                !stack.empty() && stack.back().counted;
            if (!stack.empty()) stack.back().child_ms += ms(*e);
            if (node && !parent_counted) totals.node_ms += ms(*e);
            stack.push_back({e, 0.0, node || parent_counted});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
}

std::string
check_accounting(const LayerTotals& totals, double exec_ms)
{
    // The executor's dispatch between nodes measured 0.01% (boot-tmult)
    // to 0.14% (serve-mix) of execution time.
    constexpr double kMaxGapShare = 0.02;
    if (totals.dropped != 0) return "trace events were dropped";
    if (totals.misnested != 0) return "a span crosses its parent's end";
    // 1 us of slack for the two clocks' rounding.
    if (totals.node_ms > exec_ms + 1e-3) {
        return "node spans exceed the executor's measured time";
    }
    if (exec_ms - totals.node_ms > kMaxGapShare * exec_ms) {
        return "too much execution time outside node spans";
    }
    return "";
}

void
key_sizes(const Crypto& c, LayerExtras& x)
{
    x.rot_keys = static_cast<double>(c.boot->required_rotations().size());
    x.evk_mb = c.evk_mb();
}

void
put_layers(const LayerTotals& totals, double jobs, const LayerExtras& x,
           Outcome& out)
{
    auto& m = out.per_layer;
    const double per = jobs > 0 ? 1.0 / jobs : 0.0;
    for (const auto& [op, bucket] : kNodes) {
        m[bucket] = {get(totals.self_ms, bucket) * per, "ms"};
    }
    m[kOtherNode] = {get(totals.self_ms, kOtherNode) * per, "ms"};
    // The bootstrapper's spans report their summed self time as
    // ckks.boot.self_ms and each stage inclusively; the other layers
    // <layer>.self_ms.
    double boot_self = 0;
    for (const auto& [span, bucket] : kSpans) {
        const std::string b = bucket;
        if (b.rfind("ckks.boot", 0) != 0) {
            m[b + ".self_ms"] = {get(totals.self_ms, b) * per, "ms"};
        } else if (b.rfind("ckks.boot.", 0) == 0) {
            m[b + "_ms"] = {get(totals.stage_ms, b) * per, "ms"};
        }
    }
    for (const auto& [bucket, v] : totals.self_ms) {
        if (bucket.rfind("ckks.boot", 0) == 0) boot_self += v;
    }
    m["ckks.boot.self_ms"] = {boot_self * per, "ms"};
    for (const char* bucket : kCounted) {
        m[std::string(bucket) + ".calls"] = {get(totals.calls, bucket) * per,
                                             "count"};
    }
    m["trace.unmapped_ms"] = {get(totals.self_ms, kUnmapped) * per, "ms"};
    m["trace.dropped_events"] = {static_cast<double>(totals.dropped), "count"};

    m["job.latency_ms"] = {x.job_latency_ms, "ms"};
    m["bench.unattributed_ms"] = {x.bench_unattributed_ms, "ms"};
    m["executor.unattributed_ms"] = {x.executor_unattributed_ms, "ms"};
    m["server.queue_ms.mean"] = {x.queue_mean_ms, "ms"};
    const char* const cls[2] = {"cheap", "heavy"};
    for (int h = 0; h < 2; ++h) {
        const std::string c = cls[h];
        m["server.queue_ms." + c + ".p50"] = {x.queue_p50_ms[h], "ms"};
        m["server.queue_ms." + c + ".p95"] = {x.queue_p95_ms[h], "ms"};
        m["server.exec_ms." + c + ".p50"] = {x.exec_p50_ms[h], "ms"};
    }
    m["server.lane_busy_share"] = {x.lane_busy_share, "share"};
    m["loadgen.lag_ms.p99"] = {x.loadgen_lag_p99_ms, "ms"};
    m["runtime.register_ms"] = {x.register_ms, "ms"};
    m["runtime.build_ms"] = {x.build_ms, "ms"};
    m["runtime.lower_ms"] = {x.lower_ms, "ms"};
    m["sim.run_ms"] = {x.sim_run_ms, "ms"};
    m["sim.ops_per_sweep"] = {x.sim_ops, "count"};
    m["ckks.boot.rot_keys"] = {x.rot_keys, "count"};
    m["ckks.evk_mb"] = {x.evk_mb, "MB"};
    const double uses = static_cast<double>(x.ws.hits + x.ws.misses);
    m["workspace.peak_mb"] = {static_cast<double>(x.ws.peak_bytes) / 1e6, "MB"};
    m["workspace.hit_share"] = {
        uses > 0 ? static_cast<double>(x.ws.hits) / uses : 0.0, "share"};
    m["telemetry.overhead_share"] = {x.overhead_share, "share"};
}

} // namespace perfbench
