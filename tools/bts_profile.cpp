/**
 * @file
 * bts_profile: run a builtin workload/app graph through the real
 * serving stack (GraphServer lanes -> Executor -> Evaluator -> RNS
 * kernels) with runtime tracing enabled, then close the loop between
 * the static cost model and what actually ran: a per-op-kind table of
 * node count, measured seconds, statically predicted seconds and the
 * per-kind share of each — the software counterpart of the paper's
 * predicted-vs-measured methodology.
 *
 * Usage:
 *   bts_profile --list
 *   bts_profile --graph=resnet [--lanes=2] [--jobs=3]
 *               [--format=text|json] [--trace=FILE] [--metrics]
 *
 * --trace writes the full capture as Chrome trace-event JSON (load in
 * Perfetto / chrome://tracing; one track per server lane — the
 * measured Fig. 8 timeline). --metrics appends the process metrics
 * registry in Prometheus text format after the run.
 *
 * The instance is the runtime test suite's bootstrap-capable small
 * environment (N=2^8, L=20, dnum=3, 64 slots, radix-8 CtS/StC —
 * mirror of tests/ckks/test_utils.h BootTestEnv; insecure, see
 * DESIGN.md). Graphs that never bootstrap (dot, poly) skip the
 * bootstrapper build and probe entirely, so they smoke-test in
 * seconds. Exit code: 0 on success, 2 on usage errors.
 */
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckks/bootstrapper.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/random.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/server.h"
#include "runtime/telemetry/chrome_trace.h"
#include "runtime/telemetry/metrics.h"
#include "runtime/telemetry/profile.h"
#include "runtime/telemetry/trace.h"

namespace {

using namespace bts;
using namespace bts::runtime;

constexpr std::size_t kSlots = 64;

struct BuiltinSpec
{
    const char* name;
    const char* what;
    bool needs_bootstrap;
};

const std::vector<BuiltinSpec>&
builtins()
{
    static const std::vector<BuiltinSpec> list = {
        {"dot", "encrypted dot product (rotation log-tree)", false},
        {"poly", "degree-3 Horner polynomial evaluation", false},
        {"refresh", "one Bootstrap refresh", true},
        {"helr", "HELR logistic training, functional scale", true},
        {"resnet", "ResNet-20-style inference, functional scale", true},
        {"sort", "bitonic sorting network, functional scale", true},
    };
    return list;
}

/**
 * The serving environment: context, key material and (for graphs that
 * refresh) a bootstrapper whose output level is pinned by one probe
 * refresh, exactly like the runtime test suites do.
 */
struct ProfileEnv
{
    explicit ProfileEnv(bool needs_bootstrap)
        : ctx(params()),
          encoder(ctx),
          evaluator(ctx, encoder),
          keygen(ctx, params().seed + 1),
          encryptor(ctx, params().seed + 2)
    {
        sk = keygen.gen_secret_key();
        mult_key = keygen.gen_mult_key(sk);
        conj_key = keygen.gen_conjugation_key(sk);
        traits.max_level = ctx.max_level();
        traits.delta = ctx.delta();

        // Rotation-key union covering every builtin at functional
        // scale (the test suites' extra list plus the dot tree).
        std::set<int> amounts = {-2, -1, 1, 2, 3, 4, 5, 6, 8, 16, 32};
        if (needs_bootstrap) {
            BootstrapConfig cfg;
            cfg.slots = kSlots;
            cfg.sine_degree = 119;
            cfg.cts_radix = 8;
            cfg.stc_radix = 8;
            boot = std::make_unique<Bootstrapper>(ctx, encoder, evaluator,
                                                  cfg);
            for (const int r : boot->required_rotations()) {
                amounts.insert(r);
            }
        }
        rot_keys = keygen.gen_rotation_keys(
            sk, {amounts.begin(), amounts.end()});
        if (boot) {
            boot->set_keys(&mult_key, &rot_keys, &conj_key);
            // One probe refresh pins the refreshed level the app
            // builders size their iteration budgets against.
            const Ciphertext probe = encrypt(random_vec(0.3, 7), 0);
            traits.bootstrap_out_level = boot->bootstrap(probe).level;
        } else {
            traits.bootstrap_out_level = ctx.max_level();
        }
    }

    static CkksParams
    params()
    {
        CkksParams p;
        p.n = 1 << 8;
        p.max_level = 20;
        p.dnum = 3;
        p.q0_bits = 50;
        p.scale_bits = 40;
        p.special_bits = 50;
        p.hamming_weight = 32;
        p.seed = 7321;
        return p;
    }

    std::vector<Complex>
    random_vec(double magnitude, u64 seed) const
    {
        Xoshiro256 rng(seed);
        std::vector<Complex> z(kSlots);
        for (auto& v : z) {
            v = Complex(magnitude * (2 * rng.uniform_real() - 1), 0.0);
        }
        return z;
    }

    Ciphertext
    encrypt(const std::vector<Complex>& z, int level)
    {
        const Plaintext pt = encoder.encode(z, ctx.delta(), level);
        return encryptor.encrypt_symmetric(pt, sk);
    }

    EvalResources
    resources()
    {
        EvalResources r;
        r.eval = &evaluator;
        r.encoder = &encoder;
        r.mult_key = &mult_key;
        r.rot_keys = &rot_keys;
        r.conj_key = &conj_key;
        r.bootstrapper = boot.get();
        return r;
    }

    /** Bind every declared input of @p g with random slot data at the
     *  declared exact level — valid metadata for any builtin; the
     *  profile cares about timing, not decrypted values. */
    Binding
    make_binding(const Graph& g, u64 seed)
    {
        Binding b;
        for (const int id : g.input_ids()) {
            if (g.value(id).is_plain) {
                b.bind(Value{id},
                       encoder.encode(random_vec(0.3, seed + u64(id)),
                                      traits.delta, traits.max_level));
            } else {
                b.bind(Value{id}, encrypt(random_vec(0.3, seed + u64(id)),
                                          g.value(id).level));
            }
        }
        return b;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    Evaluator evaluator;
    KeyGenerator keygen;
    Encryptor encryptor;
    SecretKey sk;
    EvalKey mult_key;
    EvalKey conj_key;
    std::unique_ptr<Bootstrapper> boot;
    RotationKeys rot_keys;
    GraphTraits traits;
};

Graph
build_builtin(const std::string& name, const GraphTraits& traits)
{
    using namespace bts::runtime::apps;
    if (name == "dot") {
        return dot_product_graph(traits, traits.max_level, 3);
    }
    if (name == "poly") {
        return poly_eval_graph(traits, traits.max_level,
                               {1.0, 0.5, 0.25, 0.125});
    }
    if (name == "refresh") return bootstrap_refresh_graph(traits);
    if (name == "helr") {
        HelrConfig cfg = HelrConfig::functional();
        cfg.iterations = 2;
        return build_helr(cfg, traits).graph;
    }
    if (name == "resnet") {
        return build_resnet(ResnetConfig::functional(), traits).graph;
    }
    if (name == "sort") {
        return build_sort(SortConfig::functional(), traits).graph;
    }
    throw std::invalid_argument("unknown builtin graph: " + name);
}

struct Args
{
    bool list = false;
    bool metrics = false;
    std::string graph;
    std::string format = "text";
    std::string trace_path;
    int lanes = 2;
    int jobs = 3;
};

std::optional<Args>
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) {
            return arg.substr(std::string(prefix).size());
        };
        if (arg == "--list") {
            a.list = true;
        } else if (arg == "--metrics") {
            a.metrics = true;
        } else if (arg.rfind("--graph=", 0) == 0) {
            a.graph = value("--graph=");
        } else if (arg.rfind("--format=", 0) == 0) {
            a.format = value("--format=");
        } else if (arg.rfind("--trace=", 0) == 0) {
            a.trace_path = value("--trace=");
        } else if (arg.rfind("--lanes=", 0) == 0) {
            a.lanes = std::stoi(value("--lanes="));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            a.jobs = std::stoi(value("--jobs="));
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return std::nullopt;
        }
    }
    if (!a.list && a.graph.empty()) {
        std::cerr << "pick a graph: --graph=NAME (or --list)\n";
        return std::nullopt;
    }
    if (a.format != "text" && a.format != "json") {
        std::cerr << "--format must be text or json\n";
        return std::nullopt;
    }
    if (a.lanes < 1 || a.jobs < 1) {
        std::cerr << "--lanes and --jobs must be >= 1\n";
        return std::nullopt;
    }
    return a;
}

int
run(const Args& args)
{
    namespace tel = bts::runtime::telemetry;

    const BuiltinSpec* spec = nullptr;
    for (const BuiltinSpec& b : builtins()) {
        if (args.graph == b.name) spec = &b;
    }
    if (spec == nullptr) {
        std::cerr << "unknown builtin graph: " << args.graph
                  << " (try --list)\n";
        return 2;
    }

    ProfileEnv env(spec->needs_bootstrap);
    const Graph g = build_builtin(args.graph, env.traits);

    ServerOptions opts;
    opts.lanes = args.lanes;
    GraphServer server(env.resources(), opts);
    // register_graph verifies, optimizes and prices the graph; each job
    // submitted against the optimized form carries that summary, whose
    // per-node predicted costs tag the spans.
    const passes::OptimizeResult* reg = server.register_graph(g);
    const analysis::ResourceSummary* summary =
        server.resource_summary(reg->graph);
    if (summary == nullptr) {
        std::cerr << "note: no static cost estimate for this graph on "
                     "the serving instance; predicted column will be 0\n";
    }

    // Trace every layer except the workspace pool (its per-buffer
    // instants dwarf everything else; enable by hand when studying the
    // pool itself).
    tel::set_enabled(tel::kAllCategories &
                     ~static_cast<u32>(tel::Category::kWorkspace));
    tel::reset_trace();

    std::vector<std::future<JobResult>> futures;
    futures.reserve(static_cast<std::size_t>(args.jobs));
    for (int j = 0; j < args.jobs; ++j) {
        JobRequest req;
        req.graph = &reg->graph;
        req.client = "bts_profile";
        req.inputs = env.make_binding(reg->graph, 9000 + u64(j) * 131);
        futures.push_back(server.submit(std::move(req)));
    }
    for (auto& f : futures) f.get();
    server.drain();
    tel::set_enabled(0);

    const tel::Trace trace = tel::collect_trace();
    const tel::ProfileReport report = tel::profile_from_trace(trace);

    if (args.format == "json") {
        std::cout << tel::render_profile_json(report) << "\n";
    } else {
        std::cout << "graph: " << reg->graph.name() << "  lanes: "
                  << args.lanes << "  jobs: " << args.jobs << "\n"
                  << tel::render_profile_text(report);
    }

    if (!args.trace_path.empty()) {
        std::ofstream out(args.trace_path);
        if (!out) {
            std::cerr << "cannot open " << args.trace_path << "\n";
            return 2;
        }
        tel::write_chrome_trace(trace, out);
        std::cerr << "wrote " << trace.total_events() << " events to "
                  << args.trace_path << "\n";
    }
    if (args.metrics) {
        std::cout << tel::MetricsRegistry::instance().render_prometheus();
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) return 2;
    if (args->list) {
        for (const BuiltinSpec& b : builtins()) {
            std::cout << b.name << "\t" << b.what
                      << (b.needs_bootstrap ? "\t[bootstrap]" : "")
                      << "\n";
        }
        return 0;
    }
    try {
        return run(*args);
    } catch (const std::exception& e) {
        std::cerr << "bts_profile: " << e.what() << "\n";
        return 2;
    }
}
