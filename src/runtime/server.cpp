#include "runtime/server.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "runtime/analysis/verifier.h"
#include "runtime/telemetry/trace.h"

namespace bts::runtime {

namespace {

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

hw::CkksInstance
serving_instance(const CkksContext& ctx, const Graph& g)
{
    hw::CkksInstance inst;
    inst.name = "serving";
    inst.n = ctx.n();
    inst.max_level = ctx.max_level();
    inst.dnum = ctx.dnum();
    inst.q0_bits = ctx.params().q0_bits;
    inst.scale_bits = ctx.params().scale_bits;
    inst.boot_levels =
        g.uses_bootstrap()
            ? ctx.max_level() - g.traits().bootstrap_out_level
            : 0;
    return inst;
}

GraphServer::GraphServer(EvalResources res, ServerOptions opts)
    : res_(res), opts_(opts)
{
    BTS_CHECK(opts_.lanes >= 1, "server needs at least one lane");
    BTS_CHECK(opts_.lanes_per_job >= 1, "lanes_per_job must be >= 1");
    BTS_CHECK(opts_.queue_capacity >= 1, "queue capacity must be >= 1");
    executors_.reserve(opts_.lanes);
    for (int i = 0; i < opts_.lanes; ++i) {
        ExecOptions eo;
        eo.lanes = opts_.lanes_per_job;
        executors_.push_back(std::make_unique<Executor>(res_, eo));
    }
    lanes_.reserve(opts_.lanes);
    for (int i = 0; i < opts_.lanes; ++i) {
        lanes_.emplace_back([this, i] { lane_loop(i); });
    }
}

GraphServer::~GraphServer()
{
    drain();
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    queue_cv_.notify_all();
    space_cv_.notify_all(); // release submitters blocked on a full queue
    for (std::thread& t : lanes_) t.join();
}

const passes::OptimizeResult*
GraphServer::register_graph(const Graph& g, const passes::PassOptions& opts)
{
    const RegisterKey key{g.uid(), g.num_nodes(), g.outputs().size()};
    {
        MutexLock lock(mutex_);
        const auto it = registered_.find(key);
        if (it != registered_.end()) return it->second.get();
    }
    // Admission control: reject a bad graph HERE, as a structured
    // VerifyError the client can render, instead of caching it and
    // failing every submitted job with a worker-lane exception. The
    // key check runs against what this server actually holds — a graph
    // can be well-formed yet unservable on these resources.
    analysis::AnalysisOptions verify_opts;
    analysis::KeySet keys;
    keys.mult = res_.mult_key != nullptr && !res_.mult_key->empty();
    keys.conj = res_.conj_key != nullptr && !res_.conj_key->empty();
    if (res_.bootstrapper != nullptr) {
        keys.bootstrap = res_.bootstrapper->output_level();
    }
    if (res_.rot_keys != nullptr) {
        for (const auto& [amount, key] : *res_.rot_keys) {
            if (!key.empty()) keys.rotations.insert(amount);
        }
    }
    verify_opts.keys = keys;
    verify_opts.lints = false; // warnings don't block registration
    verify_opts.noise = true;
    analysis::verify_or_throw(g, verify_opts);
    // Optimize outside the lock: the rewrite is pure, and lanes must
    // keep draining while a (potentially large) graph is compiled. A
    // racing duplicate registration is harmless — first insert wins.
    auto result = std::make_unique<const passes::OptimizeResult>(
        passes::PassManager(opts).optimize(g));
    // Price the optimized graph once (also outside the lock): the
    // summary feeds cost-aware admission for every job submitted
    // against it, and its per-node costs travel with each job to tag
    // the node spans bts_profile closes the loop against. A graph the
    // serving context's level geometry cannot express (the analyzer
    // throws) is served without an estimate.
    bool have_summary = false;
    analysis::ResourceSummary summary;
    try {
        summary = analysis::analyze_resources(
            result->graph,
            serving_instance(res_.eval->context(), result->graph));
        have_summary = true;
    } catch (const std::exception&) {
    }
    MutexLock lock(mutex_);
    const auto [it, inserted] = registered_.emplace(key,
                                                    std::move(result));
    if (inserted && have_summary) {
        summaries_.emplace(it->second->graph.uid(), std::move(summary));
    }
    return it->second.get();
}

const analysis::ResourceSummary*
GraphServer::resource_summary(const Graph& g) const
{
    MutexLock lock(mutex_);
    const auto it = summaries_.find(g.uid());
    return it != summaries_.end() ? &it->second : nullptr;
}

std::future<JobResult>
GraphServer::submit(JobRequest req)
{
    BTS_CHECK(req.graph != nullptr, "job has no graph");
    BTS_TRACE_INSTANT(kServer, "job.submitted", req.graph->uid());
    Job job;
    job.req = std::move(req);
    std::future<JobResult> fut = job.promise.get_future();
    {
        MutexLock lock(mutex_);
        const auto est = summaries_.find(job.req.graph->uid());
        if (est != summaries_.end()) job.summary = &est->second;
        // stop_ must be part of the wait predicate: a submitter blocked
        // on a full queue can otherwise wake after the lanes exited and
        // enqueue a job nobody will ever pop (broken promise).
        while (!stop_ && queue_.size() >= opts_.queue_capacity) {
            space_cv_.wait(mutex_);
        }
        BTS_CHECK(!stop_, "server is shutting down");
        job.submitted = Clock::now();
        if (submitted_ == 0) first_submit_ = job.submitted;
        ++submitted_;
        queue_.push_back(std::move(job));
        BTS_TRACE_INSTANT(kServer, "job.admitted", queue_.size());
        BTS_TRACE_COUNTER(kServer, "server.queue_depth", queue_.size());
    }
    queue_cv_.notify_one();
    return fut;
}

void
GraphServer::drain()
{
    MutexLock lock(mutex_);
    while (!(queue_.empty() && active_ == 0)) idle_cv_.wait(mutex_);
}

std::size_t
GraphServer::pick_job() const
{
    // Smallest estimate (SJF — keeps cheap traffic from queueing
    // behind one expensive job; no estimate orders as infinitely
    // expensive), then FIFO. O(queue) per pickup, bounded by
    // queue_capacity.
    const auto cost = [](const Job& j) {
        return j.summary == nullptr
                   ? std::numeric_limits<double>::infinity()
                   : j.summary->total_work_s;
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (cost(queue_[i]) < cost(queue_[best])) best = i;
    }
    return best;
}

void
GraphServer::lane_loop(int lane_idx)
{
    // Name the lane before any event is emitted: the Chrome-trace
    // exporter turns per-thread buffers into per-lane tracks (Fig 8's
    // lane axis), so the name is the track label.
    telemetry::set_thread_name("lane " + std::to_string(lane_idx));
    Executor& exec = *executors_[lane_idx];
    for (;;) {
        Job job;
        {
            MutexLock lock(mutex_);
            while (!stop_ && queue_.empty()) queue_cv_.wait(mutex_);
            if (queue_.empty()) return; // stop_ and no work left
            const std::size_t idx = pick_job();
            job = std::move(queue_[idx]);
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(idx));
            ++active_;
            BTS_TRACE_INSTANT(kServer, "job.scheduled",
                              job.req.graph->uid());
            BTS_TRACE_COUNTER(kServer, "server.queue_depth",
                              queue_.size());
        }
        // One freed slot admits one submitter: every blocked submitter
        // waits on the same predicate.
        space_cv_.notify_one();

        const Clock::time_point start = Clock::now();
        JobResult result;
        result.queue_s = seconds(start - job.submitted);
        result.est_cost_s =
            job.summary != nullptr ? job.summary->total_work_s : 0.0;
        ExecStats exec_stats;
        bool ok = true;
        {
            BTS_TRACE_SPAN_VAR(job_span, kServer, "job");
            job_span.set_arg(
                static_cast<i64>(job.req.graph->uid()));
            job_span.set_cost(result.est_cost_s);
            try {
                result.outputs = exec.run(*job.req.graph,
                                          std::move(job.req.inputs),
                                          &exec_stats, job.summary);
            } catch (...) {
                ok = false;
                job.promise.set_exception(std::current_exception());
            }
        }
        const Clock::time_point end = Clock::now();
        result.exec_s = seconds(end - start);
        BTS_TRACE_INSTANT(kServer, "job.done", job.req.graph->uid());
        // Fulfil the promise BEFORE decrementing active_: drain()
        // returning must imply every admitted job's future is ready.
        if (ok) job.promise.set_value(std::move(result));

        {
            MutexLock lock(mutex_);
            --active_;
            last_complete_ = end;
            if (ok) {
                ++completed_;
                ++completed_by_client_[job.req.client];
                exec_total_s_ += result.exec_s;
                peak_live_bytes_ = std::max(peak_live_bytes_,
                                            exec_stats.peak_live_bytes);
                // Algorithm-R reservoir: every completed job's latency
                // has equal probability of being in the sample.
                constexpr std::size_t kReservoir = 4096;
                const double latency = seconds(end - job.submitted);
                const auto offer = [&](std::vector<double>& sample,
                                       std::size_t seen) {
                    if (sample.size() < kReservoir) {
                        sample.push_back(latency);
                    } else {
                        const u64 slot = latency_rng_.uniform(seen);
                        if (slot < kReservoir) sample[slot] = latency;
                    }
                };
                offer(latencies_s_, ++latency_seen_);
                offer(client_latencies_s_[job.req.client],
                      ++client_latency_seen_[job.req.client]);
            } else {
                ++failed_;
            }
        }
        idle_cv_.notify_all();
    }
}

ServerStats
GraphServer::stats() const
{
    ServerStats s;
    std::vector<double> sorted;
    std::map<std::string, std::vector<double>> client_sorted;
    {
        MutexLock lock(mutex_);
        s.submitted = submitted_;
        s.completed = completed_;
        s.failed = failed_;
        s.completed_by_client = completed_by_client_;
        s.peak_live_bytes = peak_live_bytes_;
        sorted = latencies_s_;
        client_sorted = client_latencies_s_;
        if (completed_ > 0) {
            s.mean_exec_s =
                exec_total_s_ / static_cast<double>(completed_);
            const double span = seconds(last_complete_ - first_submit_);
            s.jobs_per_s = span > 0
                               ? static_cast<double>(completed_) / span
                               : 0.0;
        }
    }
    // Sort outside the lock: stats() must not stall admission or lane
    // completion while it computes percentiles.
    const auto pct = [](std::vector<double>& sample, double p) {
        std::sort(sample.begin(), sample.end());
        const std::size_t idx = static_cast<std::size_t>(
            p * static_cast<double>(sample.size() - 1));
        return sample[idx];
    };
    if (!sorted.empty()) {
        s.p50_latency_s = pct(sorted, 0.50);
        s.p99_latency_s = pct(sorted, 0.99);
    }
    for (auto& [client, sample] : client_sorted) {
        if (sample.empty()) continue;
        s.p99_latency_by_client_s[client] = pct(sample, 0.99);
    }
    return s;
}

} // namespace bts::runtime
