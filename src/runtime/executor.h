/**
 * @file
 * Functional graph backend: a dependency-counting async scheduler that
 * runs ready graph nodes on a bts::ThreadPool.
 *
 * This adds *inter-op* parallelism on top of the library's intra-op
 * limb/coefficient tiling (src/common/parallel.h): independent HMult /
 * HRot / rescale chains of one graph execute concurrently on worker
 * lanes, one node per lane at a time. Every node runs the exact
 * same Evaluator call regardless of schedule, so results are
 * bit-identical at any lane count — run_serial() executes the same
 * per-node code in program order and is the reference the tests pin
 * the scheduler against. With one lane, run() executes that same
 * program-order loop, so a one-lane job's live set follows the resource
 * analyzer's liveness walk exactly.
 *
 * Resource reuse:
 *  - evk handles (mult / per-amount rotation / conjugation keys) are
 *    resolved once per (executor, graph) and cached, so execution
 *    never touches the RotationKeys map;
 *  - CMult constants are encoded once per (node, slot count) and the
 *    plaintexts cached across run() calls — the serving harness's jobs
 *    hit warm handles after the first request;
 *  - intermediate ciphertexts are released the moment their last
 *    consumer finished, returning their buffers to the process-wide
 *    workspace pool (src/common/workspace.h) for the next node.
 *
 * Thread safety: a single Executor may run different jobs from
 * different threads concurrently when lanes == 1 (inline execution).
 * With lanes > 1 concurrent run() calls are safe but serialize on the
 * executor's worker pool.
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "ckks/bootstrapper.h"
#include "ckks/ciphertext.h"
#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/parallel.h"
#include "runtime/graph.h"

namespace bts::runtime {

namespace analysis {
struct ResourceSummary;
} // namespace analysis

/** Borrowed library objects + key material a graph executes against.
 *  Everything is optional except eval/encoder; execution fails loudly
 *  at resolve time if a graph needs a resource that is null. */
struct EvalResources
{
    const Evaluator* eval = nullptr;
    const CkksEncoder* encoder = nullptr;
    const EvalKey* mult_key = nullptr;       //!< kHMult
    const RotationKeys* rot_keys = nullptr;  //!< kHRot
    const EvalKey* conj_key = nullptr;       //!< kConj
    const Bootstrapper* bootstrapper = nullptr; //!< kBootstrap
};

/** Scheduler knobs. */
struct ExecOptions
{
    /** Worker lanes (1 = inline on the calling thread, in program
     *  order); each runs one node at a time, so at most this many nodes
     *  are in flight. */
    int lanes = 1;
};

/** Observability for tests and the serving harness. nodes and the
 *  peak_* fields are per-run; the plain_cache_* fields are CUMULATIVE
 *  over the plan's lifetime (every run of that graph on this executor
 *  since the plan was built) — diff two snapshots for per-run rates. */
struct ExecStats
{
    std::size_t nodes = 0;             //!< nodes executed
    std::size_t peak_in_flight = 0;    //!< max concurrently-running nodes
    std::size_t peak_live_values = 0;  //!< max resident ciphertexts
    /** Peak bytes of the live ciphertext set, weighing each value by
     *  its materialized size (2 (level+1) N 8) for its whole semantic
     *  lifetime — i.e. until its last consumer finishes, whether or
     *  not an in-place op stole the storage early. On serial and
     *  one-lane runs this equals
     *  analysis::ResourceSummary::peak_live_bytes exactly. */
    std::size_t peak_live_bytes = 0;
    std::size_t plain_cache_hits = 0;  //!< CMult plaintext handle reuse
    std::size_t plain_cache_misses = 0;
};

/** Execution-time bindings for a graph's declared inputs. */
struct Binding
{
    std::map<int, Ciphertext> ciphers;
    std::map<int, Plaintext> plains;

    void
    bind(Value v, Ciphertext ct)
    {
        ciphers[v.id] = std::move(ct);
    }
    void
    bind(Value v, Plaintext pt)
    {
        plains[v.id] = std::move(pt);
    }
};

/** Dependency-counting scheduler over one EvalResources bundle. */
class Executor
{
  public:
    explicit Executor(EvalResources res, ExecOptions opts = {});
    ~Executor();

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    const ExecOptions& options() const { return opts_; }

    /**
     * Execute @p g with @p inputs on the configured lanes; returns the
     * marked outputs in mark order. Rethrows the first node failure
     * after in-flight nodes quiesce. Bit-identical to run_serial().
     *
     * @p predicted, when given, is @p g's static resource analysis.
     * Telemetry only: each node's dispatch span is tagged with its
     * predicted cost (ResourceSummary::nodes[i].cost_s), closing the
     * predicted-vs-measured loop in runtime/telemetry/profile.h.
     * GraphServer passes each job's cached summary; without one,
     * spans carry a zero cost tag.
     */
    std::vector<Ciphertext>
    run(const Graph& g, Binding inputs, ExecStats* stats = nullptr,
        const analysis::ResourceSummary* predicted = nullptr) const;

    /** Reference backend: same per-node execution, program order. */
    std::vector<Ciphertext> run_serial(const Graph& g, Binding inputs,
                                       ExecStats* stats = nullptr) const;

  private:
    struct Plan;   // resolved evk handles + plaintext cache, per graph
    struct Sched;  // one run's scheduler state

    std::shared_ptr<const Plan> plan_for(const Graph& g) const;
    /** Bind inputs and build the dependency-count state for one run. */
    void init_sched(const Graph& g, Binding& inputs, Sched& sched) const;
    /** Execute one node against resolved inputs (schedule-independent).
     *  Returns one ciphertext per value the node defines — a single
     *  entry for every kind except kHRotHoisted. */
    std::vector<Ciphertext> exec_node(const Graph& g, const Plan& plan,
                                      std::size_t node_idx,
                                      Sched& sched) const;
    void finish_node(const Graph& g, std::size_t node_idx,
                     std::vector<Ciphertext> outs, Sched& sched) const;
    /** Execute every node in program order on the calling thread
     *  (run_serial, and run() on one lane). */
    void run_in_order(const Graph& g, const Plan& plan, Sched& sched) const;
    /** Copy the run's stats into @p stats (when given) and move the
     *  marked outputs out, in mark order. */
    std::vector<Ciphertext> finish_run(const Graph& g, const Plan& plan,
                                       Sched& sched,
                                       ExecStats* stats) const;

    EvalResources res_;
    ExecOptions opts_;
    std::unique_ptr<ThreadPool> pool_; //!< lanes > 1 only
    mutable std::mutex plans_mutex_;   //!< guards plans_
    mutable std::map<u64, std::shared_ptr<const Plan>> plans_;
};

} // namespace bts::runtime
