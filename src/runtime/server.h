/**
 * @file
 * Multi-client serving harness: a bounded job queue admitting
 * concurrent graphs onto a fixed set of worker lanes.
 *
 * This is the layer the ROADMAP's "serve heavy traffic" goal needs
 * above single Evaluator calls: clients submit (graph, inputs) jobs
 * and receive futures; each lane owns an Executor (so evk handles and
 * CMult plaintexts stay warm across that lane's jobs) and drains the
 * queue FIFO. Backpressure is by admission: submit() blocks while the
 * queue is at capacity, bounding the server's resident ciphertext
 * footprint.
 *
 * Throughput scales with lanes because jobs are independent: each
 * lane's Evaluator calls run concurrently against the shared immutable
 * CkksContext/keys (safe — tests pin concurrent-evaluator
 * bit-exactness), and the stats() snapshot reports jobs/s plus
 * p50/p99 latency, the numbers BM_Serving sweeps over 1..8 lanes.
 */
#pragma once

#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "runtime/analysis/resource.h"
#include "runtime/executor.h"
#include "runtime/passes/pass_manager.h"

namespace bts::runtime {

/** One client request: a borrowed graph plus its input bindings. The
 *  graph must outlive the job's completion. */
struct JobRequest
{
    const Graph* graph = nullptr;
    Binding inputs;
    std::string client; //!< ServerStats::completed_by_client bucket
    /** Scheduling class (cost-aware mode): higher-priority jobs are
     *  always picked before lower, regardless of cost or deadline. */
    int priority = 0;
    /** Relative deadline in seconds from submission; 0 = none. Within
     *  a priority class, deadline jobs run earliest-deadline-first
     *  ahead of deadline-free ones. */
    double deadline_s = 0;
};

/** What a completed job hands back through its future. */
struct JobResult
{
    std::vector<Ciphertext> outputs;
    double queue_s = 0; //!< admission -> lane pickup
    double exec_s = 0;  //!< lane pickup -> completion
    /** The statically estimated cost (ResourceSummary::total_work_s)
     *  admission scheduled this job by; 0 when the graph was never
     *  registered (no estimate). */
    double est_cost_s = 0;
};

/** Harness knobs. */
struct ServerOptions
{
    int lanes = 1;        //!< concurrent jobs (one Executor per lane)
    int lanes_per_job = 1; //!< intra-graph executor lanes on each lane
    std::size_t queue_capacity = 64; //!< admission bound (backpressure)
    /**
     * Cost-aware admission (default on): lanes pick the queued job
     * with the highest priority, then the earliest deadline, then the
     * smallest estimated cost (shortest-job-first keeps a stream of
     * cheap jobs from queueing behind one expensive one), then FIFO.
     * Estimates come from the ResourceSummary register_graph() caches;
     * a job whose graph has no summary is ordered as if infinitely
     * expensive (conservative) but is never rejected. Off = pure FIFO,
     * the pre-cost-model behaviour.
     */
    bool cost_aware = true;
    /**
     * Cost backpressure: submit() additionally blocks while the
     * estimated cost already queued exceeds this many seconds (so the
     * queue is bounded by predicted work, not just job count). An
     * empty queue always admits one job of any size. 0 = unlimited.
     */
    double max_queued_cost_s = 0;
};

/** Aggregate serving metrics since construction. */
struct ServerStats
{
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0; //!< jobs whose future carries an exception
    /** Completed jobs per JobRequest::client tag. */
    std::map<std::string, std::size_t> completed_by_client;
    double p50_latency_s = 0; //!< submit -> completion, successful jobs
    double p99_latency_s = 0;
    /** Per-client p99 latency — the cost-aware admission benchmark's
     *  cheap-traffic tail under mixed workloads. */
    std::map<std::string, double> p99_latency_by_client_s;
    double mean_exec_s = 0;
    /** completed / (last completion - first admission). */
    double jobs_per_s = 0;
    /** Estimated cost currently sitting in the queue, and its
     *  high-water mark (cost backpressure observability). */
    double queued_cost_s = 0;
    double peak_queued_cost_s = 0;
};

/**
 * Describe the functional @p ctx as a CkksInstance, so the resource
 * analyzer can price @p g against it (register_graph does). boot_levels
 * is per graph: the analyzer requires usable_levels == the graph's
 * declared bootstrap output level, which is a property of the bound
 * Bootstrapper, not of the parameter set.
 */
hw::CkksInstance serving_instance(const CkksContext& ctx, const Graph& g);

/** The job queue + worker lanes. */
class GraphServer
{
  public:
    GraphServer(EvalResources res, ServerOptions opts);
    ~GraphServer(); //!< drains accepted jobs, then joins the lanes

    GraphServer(const GraphServer&) = delete;
    GraphServer& operator=(const GraphServer&) = delete;

    /**
     * Admit a job; blocks while the queue is full. The returned future
     * resolves to the job's outputs, or rethrows the execution error
     * (a failed job never takes the server down).
     */
    std::future<JobResult> submit(JobRequest req);

    /**
     * Run @p g through the pass pipeline ONCE and cache the result for
     * the server's lifetime, keyed by Graph::uid() and @p g's node and
     * output counts — registering the same graph again returns the
     * cached entry (a graph grown since gets its own), so every lane's
     * Executor plans (and keeps warm) one optimized graph instead of
     * re-optimizing per job. Submit against `&result->graph` and
     * translate any raw-graph Value handles through result->remap()
     * when binding. The input graph is not retained.
     *
     * Admission control: the graph is statically verified first —
     * structure, metadata, noise/level budgets, and its required
     * evaluation keys against what this server holds — and any
     * error-level finding throws analysis::VerifyError (with the
     * structured diagnostics) instead of caching a graph whose every
     * job would fail on a worker lane.
     */
    const passes::OptimizeResult*
    register_graph(const Graph& g,
                   const passes::PassOptions& opts = {});

    /**
     * The resource analysis register_graph() cached for an optimized
     * graph (pass the graph jobs are submitted against, i.e.
     * result->graph). Null when @p g was never registered here, or
     * when the analysis was skipped because the serving context's
     * level geometry cannot express it (such graphs are served with
     * no estimate). The summary is computed against a pseudo-instance
     * describing this server's CkksContext, so total_work_s ranks
     * jobs relatively; it is not wall-clock for the software backend.
     */
    const analysis::ResourceSummary* resource_summary(const Graph& g) const;

    /** Block until every admitted job has completed. */
    void drain();

    ServerStats stats() const;
    int lanes() const { return static_cast<int>(lanes_.size()); }

  private:
    using Clock = std::chrono::steady_clock;

    struct Job
    {
        JobRequest req;
        std::promise<JobResult> promise;
        Clock::time_point submitted;
        Clock::time_point deadline{}; //!< absolute; valid iff has_deadline
        bool has_deadline = false;
        /** The graph's cached resource analysis (an entry of
         *  summaries_, which outlives every job); null = no estimate
         *  (ordered as infinitely expensive, charged 0 to the cost
         *  backpressure, node spans tagged with zero cost). */
        const analysis::ResourceSummary* summary = nullptr;

        double
        est_cost_s() const
        {
            return summary != nullptr ? summary->total_work_s : -1.0;
        }
    };

    void lane_loop(int lane_idx);
    /** Index of the job a lane should take next (queue must be
     *  non-empty). FIFO front unless cost_aware. */
    std::size_t pick_job() const BTS_REQUIRES(mutex_);

    EvalResources res_;
    ServerOptions opts_;

    mutable Mutex mutex_;
    CondVar queue_cv_; //!< lanes: work available / stop
    CondVar space_cv_; //!< submitters: capacity freed
    CondVar idle_cv_;  //!< drain(): all work finished
    std::deque<Job> queue_ BTS_GUARDED_BY(mutex_);
    /** Jobs picked up, not yet finished. */
    std::size_t active_ BTS_GUARDED_BY(mutex_) = 0;
    bool stop_ BTS_GUARDED_BY(mutex_) = false;

    /** register_graph() cache: the source graph's (uid, node count,
     *  output count) -> optimized graph + remap. Builder calls keep a
     *  graph's uid, so a graph that grew since its registration gets a
     *  new entry; old entries stay alive, since jobs borrow their
     *  graphs. */
    using RegisterKey = std::tuple<u64, std::size_t, std::size_t>;
    std::map<RegisterKey, std::unique_ptr<const passes::OptimizeResult>>
        registered_ BTS_GUARDED_BY(mutex_);
    /** Cached resource analyses, keyed by the OPTIMIZED graph's uid
     *  (what jobs submit against); the admission cost estimates. */
    std::map<u64, analysis::ResourceSummary> summaries_
        BTS_GUARDED_BY(mutex_);
    /** Estimated cost queued but not yet picked up (backpressure). */
    double queued_cost_s_ BTS_GUARDED_BY(mutex_) = 0;
    double peak_queued_cost_s_ BTS_GUARDED_BY(mutex_) = 0;

    // Stats, under mutex_.
    std::size_t submitted_ BTS_GUARDED_BY(mutex_) = 0;
    std::size_t completed_ BTS_GUARDED_BY(mutex_) = 0;
    std::size_t failed_ BTS_GUARDED_BY(mutex_) = 0;
    std::map<std::string, std::size_t> completed_by_client_
        BTS_GUARDED_BY(mutex_);
    double exec_total_s_ BTS_GUARDED_BY(mutex_) = 0;
    /** Bounded uniform sample of per-job latencies (reservoir
     *  sampling), so a long-lived server's memory and its stats()
     *  percentile cost stay O(capacity), not O(jobs served) —
     *  whole-server and per-client (mixed-workload tail tracking). */
    std::vector<double> latencies_s_ BTS_GUARDED_BY(mutex_);
    /** Total latencies offered to the reservoir. */
    std::size_t latency_seen_ BTS_GUARDED_BY(mutex_) = 0;
    std::map<std::string, std::vector<double>> client_latencies_s_
        BTS_GUARDED_BY(mutex_);
    std::map<std::string, std::size_t> client_latency_seen_
        BTS_GUARDED_BY(mutex_);
    Xoshiro256 latency_rng_ BTS_GUARDED_BY(mutex_){0x5e21};
    Clock::time_point first_submit_ BTS_GUARDED_BY(mutex_){};
    Clock::time_point last_complete_ BTS_GUARDED_BY(mutex_){};

    std::vector<std::unique_ptr<Executor>> executors_; //!< per lane
    std::vector<std::thread> lanes_;
};

} // namespace bts::runtime
