#include "runtime/executor.h"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <optional>
#include <tuple>

#include "common/check.h"
#include "runtime/analysis/resource.h"
#include "runtime/telemetry/trace.h"

namespace bts::runtime {

/** Resolved once per (executor, graph): evk handles per node and the
 *  CMult plaintext cache shared across run() calls. */
struct Executor::Plan
{
    /** Per node: the mult or conjugation key; null otherwise. */
    std::vector<const EvalKey*> evk;
    /** Per node: the rotation key of each of node_rotations(node). */
    std::vector<std::vector<const EvalKey*>> rot;

    using PlainKey = std::tuple<std::size_t, std::size_t, int>;
    mutable std::mutex plain_mutex;
    mutable std::map<PlainKey, std::shared_ptr<const Plaintext>> plains;
    mutable std::size_t plain_hits = 0;
    mutable std::size_t plain_misses = 0;
};

/** One run's scheduler state (stack-local to run()). */
struct Executor::Sched
{
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::size_t> ready;
    std::vector<int> missing; //!< unmet producing-operand slots, per node
    std::vector<std::vector<std::size_t>> consumers; //!< per value id
    std::vector<std::optional<Ciphertext>> values;   //!< per value id
    std::vector<const Plaintext*> plains;            //!< per value id
    std::vector<int> uses_left;                      //!< per value id
    /** Bytes each value occupied when it materialized; charged to the
     *  live set for the value's semantic lifetime (see
     *  ExecStats::peak_live_bytes). */
    std::vector<std::size_t> value_bytes;
    std::size_t num_nodes = 0;
    std::size_t done = 0;
    std::size_t in_flight = 0;
    std::size_t live = 0;
    std::size_t live_bytes = 0;
    ExecStats stats;
    std::exception_ptr error;
    /** The run's static resource analysis (telemetry span cost tags);
     *  null when none was passed. Immutable during the run, so read
     *  without sched.m. */
    const analysis::ResourceSummary* predicted = nullptr;

    /** Drop a ciphertext value whose last consumer finished; its
     *  backing buffers return to the workspace pool immediately. */
    void
    release_use(int value_id)
    {
        if (uses_left[value_id] <= 0) return; // plaintext slots stay 0
        if (--uses_left[value_id] == 0) {
            // The storage may already be gone (stolen by an in-place
            // op's take_ct); the live count is released here either
            // way, when the last consumer finishes.
            values[value_id].reset();
            --live;
            live_bytes -= value_bytes[value_id];
        }
    }
};

namespace {

/** Resident footprint of one ciphertext: both components' residue
 *  matrices, 2 (level+1) rows of N 8-byte words. */
std::size_t
ciphertext_bytes(const Ciphertext& ct)
{
    return (ct.b.num_primes() + ct.a.num_primes()) * ct.b.degree() *
           sizeof(u64);
}

} // namespace

Executor::Executor(EvalResources res, ExecOptions opts)
    : res_(res), opts_(opts)
{
    BTS_CHECK(res_.eval != nullptr && res_.encoder != nullptr,
              "executor needs an evaluator and an encoder");
    BTS_CHECK(opts_.lanes >= 1, "executor lanes must be >= 1");
    if (opts_.lanes > 1) {
        pool_ = std::make_unique<ThreadPool>(opts_.lanes);
    }
}

Executor::~Executor() = default;

std::shared_ptr<const Executor::Plan>
Executor::plan_for(const Graph& g) const
{
    std::lock_guard<std::mutex> lock(plans_mutex_);
    // Builder calls keep a graph's uid, so a graph that grew since its
    // plan was built gets a fresh one; runs in flight keep the old.
    auto it = plans_.find(g.uid());
    if (it != plans_.end() && it->second->evk.size() == g.num_nodes()) {
        return it->second;
    }

    // Resolve every evk handle up front: a graph referencing a missing
    // key fails here, before any node has executed.
    auto plan = std::make_unique<Plan>();
    plan->evk.assign(g.num_nodes(), nullptr);
    plan->rot.assign(g.num_nodes(), {});
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        switch (op_info(n.kind).key) {
        case KeyClass::kNone: break;
        case KeyClass::kMult:
            BTS_CHECK(res_.mult_key != nullptr && !res_.mult_key->empty(),
                      g.name() << ": graph needs a mult key");
            plan->evk[i] = res_.mult_key;
            break;
        case KeyClass::kRotation:
            BTS_CHECK(res_.rot_keys != nullptr,
                      g.name() << ": graph needs rotation keys");
            for (const int r : node_rotations(n)) {
                const auto key = res_.rot_keys->find(r);
                BTS_CHECK(key != res_.rot_keys->end(),
                          g.name() << ": missing rotation key " << r);
                plan->rot[i].push_back(&key->second);
            }
            break;
        case KeyClass::kConj:
            BTS_CHECK(res_.conj_key != nullptr && !res_.conj_key->empty(),
                      g.name() << ": graph needs a conjugation key");
            plan->evk[i] = res_.conj_key;
            break;
        case KeyClass::kBootstrap:
            BTS_CHECK(res_.bootstrapper != nullptr,
                      g.name() << ": graph needs a bootstrapper");
            break;
        }
    }
    // Entries for destroyed graphs can never be hit again (uids are
    // never reused), so bound the cache: past the cap, drop everything
    // and rebuild on demand. In-flight runs hold their plan alive.
    constexpr std::size_t kMaxCachedPlans = 64;
    if (plans_.size() >= kMaxCachedPlans) plans_.clear();
    std::shared_ptr<const Plan> shared = std::move(plan);
    plans_.insert_or_assign(g.uid(), shared);
    return shared;
}

namespace {

void
check_executed_metadata(const Graph& g, const Node& n,
                        const ValueInfo& info, const Ciphertext& out)
{
    BTS_CHECK(out.level == info.level,
              g.name() << ": " << op_name(n.kind)
                       << " produced level " << out.level
                       << ", metadata says " << info.level);
    // Scales are approximate bookkeeping (rescale divides by the real
    // top prime, not delta) — a loose check that still catches
    // mismatched-operand graph bugs. A refresh lands on exactly delta.
    BTS_CHECK(std::abs(out.scale / info.scale - 1.0) < 1e-2,
              g.name() << ": " << op_name(n.kind) << " produced scale "
                       << out.scale << ", metadata says " << info.scale);
}

} // namespace

std::vector<Ciphertext>
Executor::exec_node(const Graph& g, const Plan& plan,
                    std::size_t node_idx, Sched& sched) const
{
    const Node& n = g.node(node_idx);
    // One span per dispatched node, tagged with the output value id and
    // the statically predicted cost (when the run has one): the raw
    // material for the predicted-vs-measured closure in
    // telemetry/profile.h.
    BTS_TRACE_SPAN_VAR(node_span, kNode, op_name(n.kind));
    node_span.set_level(g.value(n.output).level);
    node_span.set_arg(n.output);
    if (sched.predicted != nullptr) {
        node_span.set_cost(sched.predicted->nodes[node_idx].cost_s);
    }
    const auto in_ct = [&](std::size_t slot) -> const Ciphertext& {
        const std::optional<Ciphertext>& v = sched.values[n.inputs[slot]];
        BTS_ASSERT(v.has_value(), "operand not resident");
        return *v;
    };
    const auto in_pt = [&](std::size_t slot) -> const Plaintext& {
        const Plaintext* p = sched.plains[n.inputs[slot]];
        BTS_ASSERT(p != nullptr, "plaintext operand not bound");
        return *p;
    };
    // For in-place ops: steal the operand's storage when this node is
    // its last consumer (the common case on Horner/rescale chains),
    // copy otherwise. Identical math either way, one less O(n x limbs)
    // copy per chain link. uses_left needs sched.m; release_use later
    // balances the live count whether or not the storage was taken.
    const auto take_ct = [&](std::size_t slot) -> Ciphertext {
        const int id = n.inputs[slot];
        std::lock_guard<std::mutex> lock(sched.m);
        std::optional<Ciphertext>& v = sched.values[id];
        BTS_ASSERT(v.has_value(), "operand not resident");
        if (sched.uses_left[id] == 1) {
            Ciphertext taken = std::move(*v);
            v.reset();
            return taken;
        }
        return *v;
    };

    // Constant plaintexts are a fixed per-node operand: encode once
    // per (node, slots, level) and reuse across runs and jobs. Shared
    // by kCMult and its fused variants.
    const auto cmult_plain =
        [&](const Ciphertext& a) -> std::shared_ptr<const Plaintext> {
        const Plan::PlainKey key{node_idx, a.slots, a.level};
        std::shared_ptr<const Plaintext> pt;
        {
            std::lock_guard<std::mutex> lock(plan.plain_mutex);
            auto it = plan.plains.find(key);
            if (it != plan.plains.end()) {
                ++plan.plain_hits;
                pt = it->second;
            }
        }
        if (!pt) {
            pt = std::make_shared<const Plaintext>(
                res_.encoder->encode_scalar(n.constant, a.slots,
                                            g.traits().delta, a.level));
            std::lock_guard<std::mutex> lock(plan.plain_mutex);
            ++plan.plain_misses;
            plan.plains.emplace(key, pt); // first writer wins; ties are
                                          // identical encodings anyway
        }
        return pt;
    };

    const Evaluator& eval = *res_.eval;
    Ciphertext out;
    switch (n.kind) {
    case OpKind::kHMult:
        out = eval.mult(in_ct(0), in_ct(1), *plan.evk[node_idx]);
        break;
    case OpKind::kHMultRescale:
        out = eval.mult_rescale(in_ct(0), in_ct(1), *plan.evk[node_idx]);
        break;
    case OpKind::kHRot: {
        // Single rotations go through the hoisted entry point too, so
        // rotation-CSE grouping is bit-exact by construction: a grouped
        // amount produces the identical ciphertext a lone kHRot would
        // have. Both entry points pay the same transforms; they differ
        // only in BConv rounding (rotate permutes before its ModUp,
        // the hoisted path after).
        std::vector<Ciphertext> r = eval.rotate_hoisted(
            in_ct(0), {n.rot_amount}, plan.rot[node_idx]);
        out = std::move(r[0]);
        break;
    }
    case OpKind::kHRotHoisted: {
        std::vector<Ciphertext> outs = eval.rotate_hoisted(
            in_ct(0), n.amounts, plan.rot[node_idx]);
        for (std::size_t k = 0; k < outs.size(); ++k) {
            check_executed_metadata(g, n, g.value(n.outputs[k]), outs[k]);
        }
        return outs;
    }
    case OpKind::kConj:
        out = eval.conjugate(in_ct(0), *plan.evk[node_idx]);
        break;
    case OpKind::kPMult:
        out = eval.mult_plain(in_ct(0), in_pt(1));
        break;
    case OpKind::kPMultRescale:
        out = eval.mult_plain_rescale(in_ct(0), in_pt(1));
        break;
    case OpKind::kPAdd:
        out = eval.add_plain(in_ct(0), in_pt(1));
        break;
    case OpKind::kHAdd:
        out = eval.add(in_ct(0), in_ct(1));
        break;
    case OpKind::kHSub:
        out = eval.sub(in_ct(0), in_ct(1));
        break;
    case OpKind::kHRescale:
        out = take_ct(0);
        eval.rescale_inplace(out);
        break;
    case OpKind::kCMult:
        out = eval.mult_plain(in_ct(0), *cmult_plain(in_ct(0)));
        break;
    case OpKind::kCMultRescale:
        out = eval.mult_plain_rescale(in_ct(0), *cmult_plain(in_ct(0)));
        break;
    case OpKind::kCMultAdd:
        out = eval.mult_plain_add_const(in_ct(0), *cmult_plain(in_ct(0)),
                                        n.constant2);
        break;
    case OpKind::kCAdd:
        out = take_ct(0);
        eval.add_const_inplace(out, n.constant);
        break;
    case OpKind::kModRaise:
        out = eval.mod_raise(in_ct(0));
        break;
    case OpKind::kBootstrap:
        // The refresh discards whatever levels remain: drop to the
        // exhausted state the Bootstrapper expects, stealing the
        // operand's storage when this is its last use.
        out = take_ct(0);
        if (out.level > 0) eval.drop_level_inplace(out, 0);
        out = res_.bootstrapper->bootstrap(out);
        break;
    }

    check_executed_metadata(g, n, g.value(n.output), out);
    std::vector<Ciphertext> outs;
    outs.push_back(std::move(out));
    return outs;
}

void
Executor::finish_node(const Graph& g, std::size_t node_idx,
                      std::vector<Ciphertext> outs, Sched& sched) const
{
    // Caller holds sched.m.
    const Node& n = g.node(node_idx);
    BTS_ASSERT(outs.size() == n.outputs.size(),
               "node produced the wrong number of values");
    for (std::size_t k = 0; k < n.outputs.size(); ++k) {
        sched.value_bytes[n.outputs[k]] = ciphertext_bytes(outs[k]);
        sched.live_bytes += sched.value_bytes[n.outputs[k]];
        sched.values[n.outputs[k]] = std::move(outs[k]);
        ++sched.live;
    }
    sched.stats.peak_live_values =
        std::max(sched.stats.peak_live_values, sched.live);
    sched.stats.peak_live_bytes =
        std::max(sched.stats.peak_live_bytes, sched.live_bytes);
    ++sched.stats.nodes;
    for (const int in : n.inputs) sched.release_use(in);
    for (const int out_id : n.outputs) {
        if (sched.uses_left[out_id] == 0) {
            // Dead code: an output with no consumer and no output mark.
            sched.values[out_id].reset();
            --sched.live;
            sched.live_bytes -= sched.value_bytes[out_id];
        }
        for (const std::size_t consumer : sched.consumers[out_id]) {
            if (--sched.missing[consumer] == 0) {
                sched.ready.push_back(consumer);
            }
        }
    }
    ++sched.done;
}

std::vector<Ciphertext>
Executor::finish_run(const Graph& g, const Plan& plan, Sched& sched,
                     ExecStats* stats) const
{
    if (stats) {
        *stats = sched.stats;
        std::lock_guard<std::mutex> lock(plan.plain_mutex);
        stats->plain_cache_hits = plan.plain_hits;
        stats->plain_cache_misses = plan.plain_misses;
    }
    std::vector<Ciphertext> outs;
    outs.reserve(g.outputs().size());
    for (const int id : g.outputs()) {
        BTS_ASSERT(sched.values[id].has_value(),
                   "graph output was not produced");
        outs.push_back(std::move(*sched.values[id]));
        sched.values[id].reset();
    }
    return outs;
}

void
Executor::init_sched(const Graph& g, Binding& inputs, Sched& sched) const
{
    const std::size_t num_values = g.num_values();
    sched.num_nodes = g.num_nodes();
    sched.values.resize(num_values);
    sched.plains.assign(num_values, nullptr);
    sched.uses_left.assign(num_values, 0);
    sched.value_bytes.assign(num_values, 0);
    sched.consumers.assign(num_values, {});
    sched.missing.assign(g.num_nodes(), 0);

    for (std::size_t id = 0; id < num_values; ++id) {
        sched.uses_left[id] = g.value(static_cast<int>(id)).num_uses;
    }

    // Bind declared inputs. Every input must be bound (an unused one is
    // legal, but a missing binding is a caller bug worth failing on).
    for (const int id : g.input_ids()) {
        const ValueInfo& info = g.value(id);
        if (info.is_plain) {
            auto it = inputs.plains.find(id);
            BTS_CHECK(it != inputs.plains.end(),
                      g.name() << ": missing plaintext binding for input "
                               << id);
            BTS_CHECK(it->second.level >= info.level,
                      g.name() << ": plaintext input " << id
                               << " bound at level " << it->second.level
                               << ", graph needs >= " << info.level);
            sched.plains[id] = &it->second;
            // Plaintexts are borrowed, never refcounted.
            sched.uses_left[id] = 0;
        } else {
            auto it = inputs.ciphers.find(id);
            BTS_CHECK(it != inputs.ciphers.end(),
                      g.name() << ": missing ciphertext binding for input "
                               << id);
            BTS_CHECK(it->second.level == info.level,
                      g.name() << ": input " << id << " bound at level "
                               << it->second.level << ", graph declares "
                               << info.level);
            sched.value_bytes[id] = ciphertext_bytes(it->second);
            sched.live_bytes += sched.value_bytes[id];
            sched.values[id] = std::move(it->second);
            ++sched.live;
            if (sched.uses_left[id] == 0) {
                // Declared but unused: drop immediately.
                sched.values[id].reset();
                --sched.live;
                sched.live_bytes -= sched.value_bytes[id];
            }
        }
    }
    sched.stats.peak_live_values = sched.live;
    sched.stats.peak_live_bytes = sched.live_bytes;

    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        for (const int in : n.inputs) {
            if (g.value(in).producer >= 0) {
                ++sched.missing[i];
                sched.consumers[in].push_back(i);
            }
        }
        if (sched.missing[i] == 0) sched.ready.push_back(i);
    }
}

std::vector<Ciphertext>
Executor::run(const Graph& g, Binding inputs, ExecStats* stats,
              const analysis::ResourceSummary* predicted) const
{
    BTS_CHECK(predicted == nullptr ||
                  predicted->nodes.size() == g.num_nodes(),
              g.name() << ": predicted costs cover "
                       << predicted->nodes.size() << " nodes of "
                       << g.num_nodes());
    const std::shared_ptr<const Plan> plan_owner = plan_for(g);
    const Plan& plan = *plan_owner;
    Sched sched;
    sched.predicted = predicted;
    init_sched(g, inputs, sched);
    if (!pool_) {
        // One lane runs the node list in program order, the order the
        // resource analyzer's liveness walk follows, so a one-lane
        // job's live peak is the predicted one.
        run_in_order(g, plan, sched);
        return finish_run(g, plan, sched, stats);
    }

    const auto worker = [&]() {
        for (;;) {
            std::unique_lock<std::mutex> lock(sched.m);
            sched.cv.wait(lock, [&] {
                return sched.error || sched.done == sched.num_nodes ||
                       !sched.ready.empty();
            });
            if (sched.error || sched.done == sched.num_nodes) return;
            const std::size_t node_idx = sched.ready.front();
            sched.ready.pop_front();
            ++sched.in_flight;
            sched.stats.peak_in_flight =
                std::max(sched.stats.peak_in_flight, sched.in_flight);
            lock.unlock();

            std::vector<Ciphertext> out;
            try {
                out = exec_node(g, plan, node_idx, sched);
            } catch (...) {
                std::lock_guard<std::mutex> guard(sched.m);
                if (!sched.error) sched.error = std::current_exception();
                --sched.in_flight;
                sched.cv.notify_all();
                return;
            }

            lock.lock();
            finish_node(g, node_idx, std::move(out), sched);
            --sched.in_flight;
            sched.cv.notify_all();
        }
    };

    pool_->run(0, static_cast<std::size_t>(opts_.lanes),
               [&](std::size_t) { worker(); });

    if (sched.error) std::rethrow_exception(sched.error);
    BTS_ASSERT(sched.done == sched.num_nodes,
               "scheduler finished with unexecuted nodes");
    return finish_run(g, plan, sched, stats);
}

std::vector<Ciphertext>
Executor::run_serial(const Graph& g, Binding inputs,
                     ExecStats* stats) const
{
    const std::shared_ptr<const Plan> plan_owner = plan_for(g);
    const Plan& plan = *plan_owner;
    Sched sched;
    init_sched(g, inputs, sched);
    run_in_order(g, plan, sched);
    return finish_run(g, plan, sched, stats);
}

void
Executor::run_in_order(const Graph& g, const Plan& plan, Sched& sched) const
{
    // Program order IS a topological order (SSA by construction), so
    // this is a plain loop over the node list.
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        BTS_ASSERT(sched.missing[i] == 0,
                   "node order is not topological");
        std::vector<Ciphertext> out = exec_node(g, plan, i, sched);
        std::lock_guard<std::mutex> lock(sched.m);
        sched.stats.peak_in_flight = 1;
        finish_node(g, i, std::move(out), sched);
    }
}

} // namespace bts::runtime
