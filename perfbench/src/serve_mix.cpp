/**
 * @file
 * serve-mix: open-loop mixed serving against a two-lane GraphServer.
 *
 * Two job classes arrive on a seeded Poisson schedule: cheap encrypted
 * dot products (40/s, a few ms each, no bootstrap) and heavy functional
 * ResNet-20 / 2-iteration HELR jobs (3/s, one bootstrap each, within a
 * few percent of each other in size), about 40% of the lanes' capacity.
 * At 5/s heavy (about 60%), the host's slow phases pushed the lanes
 * past the point where the median cheap job waits, and its median
 * flipped between 8 and 15 ms from run to run.
 * Each class is a Poisson process conditioned on its count in every
 * slot of the window (see schedule()), so every run offers the same
 * number of jobs of each class and the mix cannot drift with the seed.
 *
 * Latency runs from each job's due time to its completion, so a late
 * generator or a queue behind a heavy job both count. The generator
 * thread only submits; a checker thread waits on the futures, decrypts
 * and compares every output with apps::reference_run.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "crypto.h"
#include "common/workspace.h"
#include "layers.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/reference.h"
#include "runtime/apps/resnet.h"
#include "runtime/graph_workloads.h"
#include "runtime/server.h"
#include "runtime/telemetry/trace.h"

namespace perfbench {

namespace {

using namespace bts;
using namespace bts::runtime;
namespace tel = bts::runtime::telemetry;
using apps::SlotVec;

constexpr std::size_t kSlots = 64;
constexpr int kSetupsBefore = 3; //!< fresh set-ups ahead of the loop
constexpr int kSetupsAfter = 2;  //!< and after it (timed runs)
constexpr double kCheapRate = 40; //!< dot-product arrivals per second
constexpr double kHeavyRate = 3;  //!< ResNet + HELR arrivals per second
constexpr double kSlotS = 2;      //!< schedule slot (see schedule())
constexpr int kDotLogDim = 3;     //!< rotation-tree depth (8-slot sums)
constexpr std::size_t kPool = 2;  //!< seeded payloads per job kind
constexpr int kDraws = 8;         //!< redraws per payload at set-up
/** Traced runs: per-thread event capacity for a whole open loop. */
constexpr std::size_t kTraceEvents = std::size_t{1} << 20;

enum Kind { kDot, kResnet, kHelr, kKinds };
const char* const kKindName[kKinds] = {"dot", "resnet", "helr"};

bool
heavy(Kind k)
{
    return k != kDot;
}

/** Output tolerance per kind: docs/APPLICATIONS.md for ResNet (3e-2)
 *  and HELR (5e-2); the dot product has no bootstrap and is exact to
 *  CKKS noise, so 1e-3 (the encrypted_batch_scoring example's bound). */
constexpr double kTolerance[kKinds] = {1e-3, 3e-2, 5e-2};

BootstrapConfig
boot_config()
{
    BootstrapConfig cfg;
    cfg.slots = kSlots;
    cfg.sine_degree = 119;
    cfg.cts_radix = 8;
    cfg.stc_radix = 8;
    return cfg;
}

/** One seeded payload: bound inputs plus the reference outputs. */
struct Payload
{
    Binding binding;
    std::vector<SlotVec> expect;
};

struct Env
{
    explicit Env(u64 seed)
        // The dot tree's and the apps' rotations besides the refresh's.
        : c(ckks_params(std::size_t{1} << 8, seed), seed, boot_config(),
            {-2, -1, 1, 2, 3, 4, 5, 6, 8, 16, 32}),
          rng(seed * 4 + 3)
    {
        traits.max_level = c.ctx.max_level();
        traits.delta = c.ctx.delta();
        traits.bootstrap_out_level =
            c.boot->bootstrap(encrypt(real_vec(-0.3, 0.3), 0)).level;

        const Clock::time_point b0 = Clock::now();
        graphs[kDot] = dot_product_graph(traits, traits.max_level, kDotLogDim);
        resnet = std::make_unique<const apps::ResnetApp>(
            apps::build_resnet(apps::ResnetConfig::functional(), traits));
        apps::HelrConfig helr_cfg = apps::HelrConfig::functional();
        helr_cfg.iterations = 2;
        helr = std::make_unique<const apps::HelrApp>(
            apps::build_helr(helr_cfg, traits));
        graphs[kResnet] = resnet->graph;
        graphs[kHelr] = helr->graph;
        build_ms = 1e3 * since(b0);

        ServerOptions opts;
        opts.lanes = 2;
        opts.lanes_per_job = 1;
        server = std::make_unique<GraphServer>(c.resources(), opts);
        const Clock::time_point r0 = Clock::now();
        for (int k = 0; k < kKinds; ++k) reg[k] = server->register_graph(graphs[k]);
        register_ms = 1e3 * since(r0) / static_cast<double>(kKinds);

        // Warm-up: every payload once through the server, checked. A
        // payload whose mid-circuit refresh garbles (EvalMod range
        // exceeded) fails every time -- evaluation is deterministic --
        // so it is redrawn from the same seeded stream instead.
        for (int kind = 0; kind < kKinds; ++kind) {
            const Kind k = static_cast<Kind>(kind);
            for (std::size_t i = 0; i < kPool; ++i) {
                pool[k].push_back(payload(k));
                for (int d = 0; !check(k, i, submit(k, i).get()); ++d) {
                    if (d == kDraws) {
                        throw std::runtime_error(
                            std::string("no payload passes: ") + kKindName[k]);
                    }
                    pool[k][i] = payload(k);
                }
            }
        }
    }

    SlotVec
    real_vec(double lo, double hi)
    {
        SlotVec v(kSlots);
        for (auto& x : v) x = Complex(lo + (hi - lo) * rng.uniform_real(), 0);
        return v;
    }

    Ciphertext
    encrypt(const SlotVec& z, int level)
    {
        return c.encryptor.encrypt_symmetric(
            c.encoder.encode(z, c.ctx.delta(), level), c.sk);
    }

    /** Fresh seeded slot values for every input of kind @p k. */
    std::map<int, SlotVec>
    inputs(Kind k)
    {
        if (k == kResnet) return resnet_inputs(*resnet);
        if (k == kHelr) return helr_inputs(*helr);
        std::map<int, SlotVec> in;
        for (const int id : graphs[kDot].input_ids()) {
            in[id] = real_vec(-0.5, 0.5);
        }
        return in;
    }

    /** Contractive regime of the functional config (see
     *  tests/runtime/test_apps_functional.cpp): activations in
     *  [0.2, 0.4], convex taps scaled by 0.5, pool weight 1/8. */
    std::map<int, SlotVec>
    resnet_inputs(const apps::ResnetApp& app)
    {
        std::map<int, SlotVec> in;
        in[app.act.id] = real_vec(0.2, 0.4);
        for (const auto& layer : app.taps) {
            std::vector<double> w;
            double total = 0;
            for (std::size_t t = 0; t < layer.size(); ++t) {
                w.push_back(0.1 + rng.uniform_real());
                total += w.back();
            }
            for (std::size_t t = 0; t < layer.size(); ++t) {
                in[layer[t].id] =
                    SlotVec(kSlots, Complex(0.5 * w[t] / total, 0.0));
            }
        }
        in[app.pool_weights.id] = SlotVec(kSlots, Complex(0.125, 0.0));
        return in;
    }

    std::map<int, SlotVec>
    helr_inputs(const apps::HelrApp& app)
    {
        std::map<int, SlotVec> in;
        in[app.weights.id] = real_vec(-0.1, 0.1);
        for (const Value d : app.data) in[d.id] = real_vec(-0.5, 0.5);
        in[app.grad_data.id] = real_vec(0.005, 0.02);
        return in;
    }

    /** Draw inputs, encrypt them for the registered graph (ids
     *  remapped) and run the plaintext reference on the graph as
     *  built. */
    Payload
    payload(Kind k)
    {
        const std::map<int, SlotVec> in = inputs(k);
        const Graph& g = graphs[k];
        Payload p;
        for (const int id : g.input_ids()) {
            const Value v = reg[k]->remap(Value{id});
            if (g.value(id).is_plain) {
                p.binding.bind(v, c.encoder.encode(in.at(id), traits.delta,
                                                   traits.max_level));
            } else {
                p.binding.bind(v, encrypt(in.at(id), g.value(id).level));
            }
        }
        p.expect = apps::reference_run(g, in);
        return p;
    }

    JobRequest
    request(Kind k, std::size_t i) const
    {
        JobRequest req;
        req.graph = &reg[k]->graph;
        req.client = kKindName[k];
        req.inputs = pool[k][i].binding;
        return req;
    }

    std::future<JobResult>
    submit(Kind k, std::size_t i)
    {
        return server->submit(request(k, i));
    }

    bool
    check(Kind k, std::size_t i, const JobResult& r) const
    {
        const std::vector<SlotVec>& expect = pool[k][i].expect;
        if (r.outputs.size() != expect.size()) return false;
        for (std::size_t o = 0; o < expect.size(); ++o) {
            const auto got =
                c.encoder.decode(c.decryptor.decrypt(r.outputs[o], c.sk));
            for (std::size_t s = 0; s < kSlots; ++s) {
                if (!(std::abs(got[s] - expect[o][s]) < kTolerance[k])) {
                    return false;
                }
            }
        }
        return true;
    }

    Crypto c;
    Xoshiro256 rng; //!< payload values
    GraphTraits traits;
    std::unique_ptr<const apps::ResnetApp> resnet; //!< input handles
    std::unique_ptr<const apps::HelrApp> helr;
    Graph graphs[kKinds] = {Graph("dot", {}), Graph("resnet", {}),
                            Graph("helr", {})};
    const passes::OptimizeResult* reg[kKinds] = {};
    std::vector<Payload> pool[kKinds];
    double build_ms = 0;
    double register_ms = 0;
    std::unique_ptr<GraphServer> server; //!< last: borrows the above
};

struct Arrival
{
    double due_s = 0;
    Kind kind = kDot;
    std::size_t payload = 0;
};

/**
 * The seeded schedule: in every slot of kSlotS seconds, each class is a
 * Poisson process conditioned on its expected count (uniform arrival
 * times within the slot). Arrivals clump inside a slot as a Poisson
 * stream does, but no seed can bunch a whole run's heavy jobs into one
 * stretch, which would move every tail by more than any code change.
 */
std::vector<Arrival>
schedule(u64 seed, double window_s)
{
    Xoshiro256 rng(seed * 4 + 4);
    std::vector<Arrival> a;
    std::size_t heavy_seen = 0;
    for (double t0 = 0; t0 < window_s; t0 += kSlotS) {
        const double len = std::min(kSlotS, window_s - t0);
        const auto n_cheap = std::llround(kCheapRate * len);
        const auto n_heavy = std::llround(kHeavyRate * len);
        for (long long i = 0; i < n_cheap; ++i) {
            a.push_back({t0 + len * rng.uniform_real(), kDot, rng.uniform(kPool)});
        }
        for (long long i = 0; i < n_heavy; ++i, ++heavy_seen) {
            a.push_back({t0 + len * rng.uniform_real(),
                         heavy_seen % 2 ? kHelr : kResnet, rng.uniform(kPool)});
        }
    }
    std::sort(a.begin(), a.end(), [](const Arrival& x, const Arrival& y) {
        return x.due_s < y.due_s;
    });
    return a;
}

/** One finished job as the checker saw it. */
struct Done
{
    Kind kind = kDot;
    double latency_ms = 0; //!< due time -> completion
    double queue_ms = 0;
    double exec_ms = 0;
};

/** Waits on submitted jobs in order, off the generator's thread;
 *  decrypts and checks each. */
class Checker
{
  public:
    explicit Checker(const Env& env) : env_(env), thread_([this] { loop(); }) {}

    ~Checker() { finish(); }

    Checker(const Checker&) = delete;
    Checker& operator=(const Checker&) = delete;

    /** @p pre_s: due time -> submit() returned. */
    void
    push(std::future<JobResult> f, const Arrival& a, double pre_s)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            q_.push_back({std::move(f), a, pre_s});
        }
        cv_.notify_one();
    }

    /** Stop after the queued jobs; idempotent. */
    void
    finish()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            closing_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable()) thread_.join();
    }

    // Valid after finish().
    std::vector<Done> done;
    std::size_t failed = 0;

  private:
    struct Item
    {
        std::future<JobResult> f;
        Arrival a;
        double pre_s;
    };

    void
    loop()
    {
        for (;;) {
            Item it;
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_.wait(lock, [&] { return closing_ || !q_.empty(); });
                if (q_.empty()) return;
                it = std::move(q_.front());
                q_.pop_front();
            }
            try {
                const JobResult r = it.f.get();
                // Completion = submit return + queue + execution (the
                // few microseconds submit() spends after stamping the
                // job are counted twice).
                done.push_back({it.a.kind,
                                1e3 * (it.pre_s + r.queue_s + r.exec_s),
                                1e3 * r.queue_s, 1e3 * r.exec_s});
                if (!env_.check(it.a.kind, it.a.payload, r)) ++failed;
            } catch (const std::exception&) {
                ++failed;
            }
        }
    }

    const Env& env_;
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<Item> q_;
    bool closing_ = false;
    std::thread thread_; //!< last: uses the members above
};

std::vector<double>
field(const std::vector<Done>& d, bool heavy_class, double Done::*f)
{
    std::vector<double> v;
    for (const Done& x : d) {
        if (heavy(x.kind) == heavy_class) v.push_back(x.*f);
    }
    return v;
}

/** Traced runs: closed-loop pairs of untraced and traced jobs of every
 *  kind; the ratio of summed execution times, minus one. */
double
tracing_overhead(Env& env)
{
    double plain = 0, traced = 0;
    for (int round = 0; round < 4; ++round) {
        const bool on = round % 2 == 1;
        if (on) tel::set_enabled(traced_categories());
        for (int k = 0; k < kKinds; ++k) {
            const JobResult r = env.submit(static_cast<Kind>(k), 0).get();
            (on ? traced : plain) += r.exec_s;
        }
        tel::set_enabled(0);
    }
    return traced / plain - 1.0;
}

} // namespace

Outcome
run_serve_mix(const Args& args)
{
    const auto make = [&] { return std::make_unique<Env>(args.seed); };
    std::unique_ptr<Env> env;
    std::vector<double> setups_s;
    timed_setups(kSetupsBefore, make, env, setups_s);

    Outcome out;
    const std::vector<Arrival> arrivals = schedule(args.seed, args.seconds);
    for (const Arrival& a : arrivals) {
        out.input_digest = digest_bytes(out.input_digest, &a.due_s, sizeof a.due_s);
        out.input_digest = digest_bytes(out.input_digest, &a.kind, sizeof a.kind);
        out.input_digest = digest_bytes(out.input_digest, &a.payload, sizeof a.payload);
    }
    for (const auto& kind_pool : env->pool) {
        for (const Payload& p : kind_pool) {
            for (const auto& [id, ct] : p.binding.ciphers) {
                const auto row = ct.b.component(0);
                out.input_digest = digest_bytes(out.input_digest, row.data(),
                                                row.size() * sizeof(u64));
            }
        }
    }

    double overhead = 0;
    if (args.trace) {
        overhead = tracing_overhead(*env);
        tel::set_thread_buffer_capacity(kTraceEvents);
        tel::reset_trace();
        tel::set_enabled(traced_categories());
    }
    reset_workspace_stats();

    std::vector<double> lag_ms;
    Checker checker(*env);
    const Clock::time_point t0 = Clock::now();
    for (const Arrival& a : arrivals) {
        JobRequest req = env->request(a.kind, a.payload);
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.due_s));
        std::this_thread::sleep_until(due);
        lag_ms.push_back(1e3 * since(due));
        ++out.attempted;
        std::future<JobResult> f;
        try {
            f = env->server->submit(std::move(req));
        } catch (const std::exception&) {
            ++out.failed; // refused
            continue;
        }
        checker.push(std::move(f), a, since(due));
    }
    checker.finish();
    env->server->drain();
    const double wall_s = since(t0);
    tel::set_enabled(0);
    const WorkspaceStats ws = workspace_stats();
    out.failed += checker.failed;
    const std::vector<Done>& done = checker.done;

    const auto lat_cheap = field(done, false, &Done::latency_ms);
    const auto lat_heavy = field(done, true, &Done::latency_ms);
    if (!args.trace) {
        // The rest of the set-ups after the loop, so their median
        // spans the run (bench.h, closed_loop).
        timed_setups(kSetupsAfter, make, env, setups_s);
        const double setup_s = median(setups_s);
        out.end_to_end["setup_s"] = {setup_s, "s"};
        out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
        out.end_to_end["cheap_p50_ms"] = {percentile(lat_cheap, 0.50), "ms"};
        out.end_to_end["heavy_p50_ms"] = {percentile(lat_heavy, 0.50), "ms"};
        out.end_to_end["heavy_p90_ms"] = {percentile(lat_heavy, 0.90), "ms"};
        // Reported, not gated: no cheap-class tail held its bound from
        // run to run (METHODOLOGY.md, "Which tail").
        out.report.push_back(
            {"cheap_p97_ms", {percentile(lat_cheap, 0.97), "ms"}});
        for (int k = 0; k < kKinds; ++k) {
            std::vector<double> e;
            for (const Done& d : done) {
                if (d.kind == k) e.push_back(d.exec_ms);
            }
            out.report.push_back({std::string(kKindName[k]) + ".exec_p50_ms",
                                  {percentile(e, 0.5), "ms"}});
        }
        out.report.push_back({"cheap_jobs", {double(lat_cheap.size()), "count"}});
        out.report.push_back({"heavy_jobs", {double(lat_heavy.size()), "count"}});
        return out;
    }

    LayerTotals layers;
    add_trace(tel::collect_trace(), layers);
    tel::reset_trace();
    const double jobs = static_cast<double>(done.size());
    const double per = jobs > 0 ? 1.0 / jobs : 0.0;
    double exec = 0, queue = 0, latency = 0;
    for (const Done& d : done) {
        exec += d.exec_ms;
        queue += d.queue_ms;
        latency += d.latency_ms;
    }
    LayerExtras x;
    x.job_latency_ms = latency * per;
    x.executor_unattributed_ms = (exec - layers.node_ms) * per;
    x.queue_mean_ms = queue * per;
    x.bench_unattributed_ms = (latency - exec - queue) * per;
    for (const bool h : {false, true}) {
        const auto q = field(done, h, &Done::queue_ms);
        x.queue_p50_ms[h] = percentile(q, 0.50);
        x.queue_p95_ms[h] = percentile(q, 0.95);
        x.exec_p50_ms[h] = percentile(field(done, h, &Done::exec_ms), 0.50);
    }
    x.lane_busy_share = 1e-3 * exec / (env->server->lanes() * wall_s);
    x.loadgen_lag_p99_ms = percentile(lag_ms, 0.99);
    x.register_ms = env->register_ms;
    x.build_ms = env->build_ms;
    key_sizes(env->c, x);
    x.ws = ws;
    x.overhead_share = overhead;
    put_layers(layers, jobs, x, out);
    out.error = check_accounting(layers, exec);
    out.report.push_back({"trace.events_per_job",
                          {static_cast<double>(layers.events) * per, "count"}});
    return out;
}

} // namespace perfbench
