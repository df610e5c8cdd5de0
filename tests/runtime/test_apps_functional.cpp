/**
 * Functional end-to-end runs of the three application workloads
 * (HELR, ResNet-20-style inference, encrypted sorting) on the real
 * CKKS library via the runtime Executor, checked against the
 * slot-level plaintext reference interpreter (runtime/apps/reference.h).
 *
 * Shared instance: the bootstrap-capable BootTestEnv at L=20 (8 usable
 * levels after the 12-level bootstrap budget), so every app performs
 * genuine mid-circuit Bootstrap refreshes. Accuracy bounds asserted
 * here are the ones documented in docs/APPLICATIONS.md:
 *   - HELR: final-weight max delta and logistic-loss delta vs the
 *     plaintext reference of the same circuit;
 *   - ResNet: per-layer max |HE - plain| on the marked layer outputs;
 *   - sorting: round-to-grid exactness (the decrypted output rounds to
 *     the exactly sorted block) plus raw slot error vs the reference.
 *
 * Each suite also pins 1-lane vs 8-lane ciphertext bit-exactness (the
 * Executor's determinism contract) and the edge cases from the issue:
 * a 1-feature HELR batch and a 2-element sort block.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <vector>

#include "ckks/test_utils.h"
#include "common/random.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/reference.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/executor.h"
#include "runtime/graph_workloads.h"
#include "runtime/server.h"

namespace bts::runtime::apps {
namespace {

using testing::BootTestEnv;
using testing::ct_equal;
using testing::TestEnv;

constexpr std::size_t kSlots = 64; // BootTestEnv's sparse slot count

/**
 * One cached L=20 bootstrap-capable environment for every app suite.
 * The rotation-key list is the union of the functional apps' graph
 * required_rotations(): HELR's log-tree {1..32 powers of two},
 * ResNet's conv taps {1..6} + pool tree, sorting's +-d partners.
 *
 * Input seeds below are pinned: the instance's EvalMod range is
 * marginal (see the BootTestEnv caveat in ckks/test_utils.h), and
 * since every test runs standalone under ctest, each one's encrypt
 * sequence starts from the same fresh env — a seed either always
 * works or always fails. Re-check standalone runs when changing a
 * seed or adding an encrypt call before an existing test.
 */
struct AppEnv
{
    AppEnv()
        : be(7321, {-2, -1, 1, 2, 3, 4, 5, 6, 8, 16, 32}, 20),
          traits(traits_for(be.env.ctx, be.boot.get()))
    {}

    EvalResources
    resources()
    {
        EvalResources r;
        r.eval = &be.env.evaluator;
        r.encoder = &be.env.encoder;
        r.mult_key = &be.env.mult_key;
        r.rot_keys = &be.rot_keys;
        r.conj_key = &be.env.conj_key;
        r.bootstrapper = be.boot.get();
        return r;
    }

    /** Real-valued slot vector, uniform in [lo, hi]. */
    SlotVec
    real_vec(double lo, double hi, u64 seed) const
    {
        Xoshiro256 rng(seed);
        SlotVec v(kSlots);
        for (auto& x : v) {
            x = Complex(lo + (hi - lo) * rng.uniform_real(), 0.0);
        }
        return v;
    }

    BootTestEnv be;
    GraphTraits traits;
};

AppEnv&
aenv()
{
    static AppEnv* e = new AppEnv();
    return *e;
}

/** Encode/encrypt the reference input map into an Executor Binding
 *  (ciphertext inputs at their declared exact level, plaintexts at the
 *  graph's max level so every consumer is covered). */
Binding
make_binding(const Graph& g, const std::map<int, SlotVec>& inputs)
{
    auto& e = aenv();
    Binding b;
    for (const int id : g.input_ids()) {
        const SlotVec& vec = inputs.at(id);
        if (g.value(id).is_plain) {
            b.bind(Value{id}, e.be.env.encoder.encode(
                                  vec, e.traits.delta, e.traits.max_level));
        } else {
            b.bind(Value{id}, e.be.env.encrypt(vec, g.value(id).level));
        }
    }
    return b;
}

/** Run on the Executor and decrypt every marked output. */
std::vector<SlotVec>
run_decrypted(const Graph& g, const std::map<int, SlotVec>& inputs)
{
    auto& e = aenv();
    const Executor exec(e.resources());
    const auto outs = exec.run(g, make_binding(g, inputs));
    std::vector<SlotVec> dec;
    dec.reserve(outs.size());
    for (const auto& ct : outs) dec.push_back(e.be.env.decrypt(ct));
    return dec;
}

/** The Executor determinism contract, per app: a 1-lane serial run and
 *  an 8-lane scheduled run produce bit-identical output ciphertexts. */
void
expect_lane_bit_exact(const Graph& g, const std::map<int, SlotVec>& inputs)
{
    auto& e = aenv();
    const Executor serial(e.resources());
    ExecOptions opts;
    opts.lanes = 8;
    const Executor parallel(e.resources(), opts);
    // One shared binding (encryption is randomized, so encrypting
    // twice would make the runs diverge at the inputs already).
    const Binding base = make_binding(g, inputs);
    const auto a = serial.run_serial(g, Binding(base));
    const auto b = parallel.run(g, Binding(base));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(ct_equal(a[i], b[i])) << "output " << i;
    }
}

// ---------------------------------------------------------------- HELR

std::map<int, SlotVec>
helr_inputs(const HelrApp& app, u64 seed)
{
    auto& e = aenv();
    std::map<int, SlotVec> in;
    in[app.weights.id] = e.real_vec(-0.1, 0.1, seed);
    for (std::size_t c = 0; c < app.data.size(); ++c) {
        in[app.data[c].id] = e.real_vec(-0.5, 0.5, seed + 10 + c);
    }
    // Gradient plaintext: lr * batch-mean features, all positive so
    // the weights move measurably in a known direction.
    in[app.grad_data.id] = e.real_vec(0.005, 0.02, seed + 50);
    return in;
}

/** Sum over every data plaintext of <w, X_c> — the circuit's logit. */
double
helr_logit(const HelrApp& app, const std::map<int, SlotVec>& in,
           const SlotVec& w)
{
    double u = 0;
    for (const Value d : app.data) {
        const SlotVec& x = in.at(d.id);
        for (std::size_t j = 0; j < kSlots; ++j) {
            u += w[j].real() * x[j].real();
        }
    }
    return u;
}

TEST(HelrFunctional, TrainsCloseToPlainReference)
{
    auto& e = aenv();
    const HelrConfig cfg = HelrConfig::functional();
    const HelrApp app = build_helr(cfg, e.traits);
    const auto in = helr_inputs(app, 2001);

    const auto ref = reference_run(app.graph, in);
    const auto he = run_decrypted(app.graph, in);
    ASSERT_EQ(ref.size(), 1u);
    ASSERT_EQ(he.size(), 1u);

    // Training moved the weights (the run was not a no-op) ...
    EXPECT_GT(TestEnv::max_err(ref[0], in.at(app.weights.id)), 1e-3);
    // ... and the encrypted run tracks the plaintext reference through
    // 3 iterations including mid-training bootstrap refreshes.
    printf("[measured] helr weight max-delta = %.3e\n", TestEnv::max_err(he[0], ref[0]));
    EXPECT_LT(TestEnv::max_err(he[0], ref[0]), 5e-2);

    // Loss methodology (docs/APPLICATIONS.md): logistic loss of the
    // final weights on the batch, label +1, true sigmoid.
    const auto loss = [&](const SlotVec& w) {
        const double u = helr_logit(app, in, w);
        const double s = 1.0 / (1.0 + std::exp(-u));
        return -std::log(std::clamp(s, 1e-9, 1.0));
    };
    printf("[measured] helr loss delta = %.3e\n", std::abs(loss(he[0]) - loss(ref[0])));
    EXPECT_LT(std::abs(loss(he[0]) - loss(ref[0])), 1e-2);
}

TEST(HelrFunctional, SingleFeatureBatchMatchesReference)
{
    // Edge case: log_features == 0 degenerates the rotation log-tree
    // to a pure slot-wise logistic update (64 independent models);
    // 2 iterations force one mid-training refresh.
    auto& e = aenv();
    HelrConfig cfg = HelrConfig::functional();
    cfg.iterations = 2;
    cfg.data_cts = 1;
    cfg.log_features = 0;
    const HelrApp app = build_helr(cfg, e.traits);
    ASSERT_TRUE(app.graph.required_rotations().empty());
    ASSERT_TRUE(app.graph.uses_bootstrap());

    const auto in = helr_inputs(app, 2101);
    const auto ref = reference_run(app.graph, in);
    const auto he = run_decrypted(app.graph, in);
    EXPECT_LT(TestEnv::max_err(he[0], ref[0]), 3e-2);
}

TEST(HelrFunctional, LaneCountIsBitExact)
{
    auto& e = aenv();
    HelrConfig cfg = HelrConfig::functional();
    cfg.iterations = 2; // keeps one bootstrap in the schedule
    const HelrApp app = build_helr(cfg, e.traits);
    expect_lane_bit_exact(app.graph, helr_inputs(app, 2201));
}

// -------------------------------------------------------------- ResNet

std::map<int, SlotVec>
resnet_inputs(const ResnetApp& app, u64 seed)
{
    auto& e = aenv();
    std::map<int, SlotVec> in;
    // Activations in [0.2, 0.4]: the contractive regime the functional
    // config's dynamics (squarings + folded BN) keep inside [0, 0.5].
    in[app.act.id] = e.real_vec(0.2, 0.4, seed);
    u64 s = seed;
    for (const auto& layer : app.taps) {
        // Convex tap weights scaled by 0.5, so a conv burst contracts.
        std::vector<double> w;
        double total = 0;
        Xoshiro256 rng(++s);
        for (std::size_t t = 0; t < layer.size(); ++t) {
            w.push_back(0.1 + rng.uniform_real());
            total += w.back();
        }
        for (std::size_t t = 0; t < layer.size(); ++t) {
            in[layer[t].id] =
                SlotVec(kSlots, Complex(0.5 * w[t] / total, 0.0));
        }
    }
    // Final FC / pool normalization: 1 / 2^pool_rots per slot.
    in[app.pool_weights.id] = SlotVec(kSlots, Complex(0.125, 0.0));
    return in;
}

TEST(ResnetFunctional, LayersTrackPlainReference)
{
    auto& e = aenv();
    const ResnetApp app = build_resnet(ResnetConfig::functional(), e.traits);
    const auto in = resnet_inputs(app, 3001);

    const auto ref = reference_run(app.graph, in);
    const auto he = run_decrypted(app.graph, in);
    // layer_outputs then the final logits, in mark order.
    ASSERT_EQ(ref.size(), app.layer_outputs.size() + 1);
    ASSERT_EQ(he.size(), ref.size());

    for (std::size_t layer = 0; layer < app.layer_outputs.size(); ++layer) {
        printf("[measured] resnet layer %zu max-err = %.3e\n", layer, TestEnv::max_err(he[layer], ref[layer]));
        EXPECT_LT(TestEnv::max_err(he[layer], ref[layer]), 3e-2)
            << "layer " << layer;
    }
    printf("[measured] resnet logits max-err = %.3e\n", TestEnv::max_err(he.back(), ref.back()));
    EXPECT_LT(TestEnv::max_err(he.back(), ref.back()), 3e-2) << "logits";
    // Sanity on the plain side: the contractive dynamics held.
    for (const auto& v : ref.back()) {
        EXPECT_LT(std::abs(v), 1.0);
    }
}

TEST(ResnetFunctional, ServesThroughGraphServer)
{
    // The serving scenario from the issue: encrypted inference jobs
    // for several clients multiplexed onto GraphServer lanes, each
    // result checked against the plaintext reference.
    auto& e = aenv();
    const ResnetApp app = build_resnet(ResnetConfig::functional(), e.traits);

    ServerOptions opts;
    opts.lanes = 2;
    GraphServer server(e.resources(), opts);

    std::vector<std::map<int, SlotVec>> ins;
    std::vector<std::future<JobResult>> futures;
    for (u64 job = 0; job < 3; ++job) {
        ins.push_back(resnet_inputs(app, 3100 + job));
        JobRequest req;
        req.graph = &app.graph;
        req.client = "clinic-" + std::to_string(job);
        req.inputs = make_binding(app.graph, ins.back());
        futures.push_back(server.submit(std::move(req)));
    }
    for (u64 job = 0; job < futures.size(); ++job) {
        const JobResult r = futures[job].get();
        const auto ref = reference_run(app.graph, ins[job]);
        ASSERT_EQ(r.outputs.size(), ref.size());
        EXPECT_LT(TestEnv::max_err(e.be.env.decrypt(r.outputs.back()),
                                   ref.back()),
                  3e-2)
            << "job " << job;
    }
    server.drain();
    EXPECT_EQ(server.stats().failed, 0u);
}

TEST(ResnetFunctional, LaneCountIsBitExact)
{
    auto& e = aenv();
    const ResnetApp app = build_resnet(ResnetConfig::functional(), e.traits);
    expect_lane_bit_exact(app.graph, resnet_inputs(app, 3201));
}

// ------------------------------------------------------------- Sorting

constexpr double kGrid[4] = {-0.75, -0.25, 0.25, 0.75};

double
round_to_grid(double x)
{
    double best = kGrid[0];
    for (const double g : kGrid) {
        if (std::abs(x - g) < std::abs(x - best)) best = g;
    }
    return best;
}

std::map<int, SlotVec>
sort_inputs(const SortApp& app, int log_elements, u64 seed)
{
    std::map<int, SlotVec> in;
    Xoshiro256 rng(seed);
    SlotVec v(kSlots);
    for (auto& x : v) {
        x = Complex(kGrid[rng.next() & 3], 0.0);
    }
    in[app.values.id] = v;
    for (const auto& st : app.stages) {
        in[st.mask_lo.id] = sort_mask_lo(log_elements, st.distance, kSlots);
        in[st.mask_hi.id] = sort_mask_hi(log_elements, st.distance, kSlots);
        in[st.select.id] =
            sort_select_mask(log_elements, st.phase, st.distance, kSlots);
    }
    return in;
}

/** Every block of 2^k slots, rounded back to the value grid, must be
 *  the exact ascending sort of its input block. */
void
expect_sorted_blocks(const SlotVec& got, const SlotVec& input, int k)
{
    const std::size_t block = std::size_t{1} << k;
    for (std::size_t base = 0; base < kSlots; base += block) {
        std::vector<double> want;
        for (std::size_t i = 0; i < block; ++i) {
            want.push_back(input[base + i].real());
        }
        std::sort(want.begin(), want.end());
        for (std::size_t i = 0; i < block; ++i) {
            EXPECT_DOUBLE_EQ(round_to_grid(got[base + i].real()), want[i])
                << "block " << base / block << " slot " << i;
        }
    }
}

TEST(SortFunctional, SortsGridBlocksExactly)
{
    auto& e = aenv();
    const SortConfig cfg = SortConfig::functional();
    const SortApp app = build_sort(cfg, e.traits);
    const auto in = sort_inputs(app, cfg.log_elements, 4001);

    const auto ref = reference_run(app.graph, in);
    const auto he = run_decrypted(app.graph, in);
    ASSERT_EQ(he.size(), 1u);

    // The circuit itself sorts (reference interpreter, no CKKS noise),
    // and the encrypted run stays within rounding distance of it.
    expect_sorted_blocks(ref[0], in.at(app.values.id), cfg.log_elements);
    expect_sorted_blocks(he[0], in.at(app.values.id), cfg.log_elements);
    printf("[measured] sort slot max-err vs ref = %.3e\n", TestEnv::max_err(he[0], ref[0]));
    EXPECT_LT(TestEnv::max_err(he[0], ref[0]), 0.1);
}

TEST(SortFunctional, TwoElementBlocksSortExactly)
{
    // Edge case: log_elements == 1 is a single compare-exchange stage
    // over 32 independent pairs.
    auto& e = aenv();
    SortConfig cfg = SortConfig::functional();
    cfg.log_elements = 1;
    const SortApp app = build_sort(cfg, e.traits);
    ASSERT_EQ(app.stages.size(), 1u);
    const auto in = sort_inputs(app, cfg.log_elements, 4102);

    const auto he = run_decrypted(app.graph, in);
    expect_sorted_blocks(he[0], in.at(app.values.id), cfg.log_elements);
}

TEST(SortFunctional, LaneCountIsBitExact)
{
    auto& e = aenv();
    SortConfig cfg = SortConfig::functional();
    cfg.log_elements = 1; // one stage keeps the double run affordable
    const SortApp app = build_sort(cfg, e.traits);
    expect_lane_bit_exact(app.graph,
                          sort_inputs(app, cfg.log_elements, 4201));
}

} // namespace
} // namespace bts::runtime::apps
