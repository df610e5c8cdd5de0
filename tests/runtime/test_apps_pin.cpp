/**
 * Golden trace fixtures for the circuits the simulated figures price,
 * and the paper-shape assertions made over them.
 *
 * Each paper graph (runtime/apps/paper.h: tmult, HELR, ResNet,
 * sorting, bootstrap refresh) lowers on each Table 4 instance, and
 * tmult also on INS-Lattigo, to the trace pinned in kGolden: op-kind
 * histogram, bootstrap count, op count, the simulated total (bit
 * exact) and a digest of the whole op stream (kind, level, rotation,
 * inputs, output, bootstrap tag). The tmult rows are op for op the
 * traces of the hand-written microbenchmark generator these graphs
 * replaced. kMetaGolden pins, per bts_lint builtin, instance and form
 * (raw or optimized), a digest of every stored value's metadata and
 * every node's fields — the builder's and the pass pipeline's output
 * before any lowering. A change that moves a row must say why; the
 * failure message prints the observed row.
 */
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/published.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/paper.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"
#include "sim/engine.h"

namespace bts::runtime::apps {
namespace {

using sim::HeOpKind;

struct Golden
{
    const char* pair; //!< "<paper graph>/<instance name>"
    std::array<int, sim::kHeOpKindCount> hist; //!< per HeOpKind, in order
    int boots;
    std::size_t ops;
    double total_s; //!< BtsSimulator total under the default BtsConfig
    u64 digest;     //!< trace_digest() of the whole op stream
};

// Row: pair, {HMult, HRot, Conj, PMult, PAdd, HAdd, HRescale, CMult,
// CAdd, ModRaise}, boots, ops, total_s, digest.
// clang-format off
const Golden kGolden[] = {
    {"tmult/INS-1", {38, 74, 1, 256, 0, 289, 44, 10, 10, 1}, 1, 723, 0x1.6e37c207cb5acp-6, 0xed393baff14e6fdfull},
    {"helr/INS-1", {930, 2866, 29, 7544, 0, 9191, 1194, 320, 350, 29}, 29, 22453, 0x1.6578c901ee90bp-1, 0x5ce3aff0a26192a3ull},
    {"resnet/INS-1", {1900, 4362, 54, 14185, 0, 15912, 2324, 580, 720, 54}, 54, 40091, 0x1.3a219e51b149cp+0, 0x004411a71cfbb68dull},
    {"sort/INS-1", {17505, 38986, 524, 134459, 0, 151856, 21909, 6290, 6080, 524}, 524, 378133, 0x1.71ebe4d8f23bep+3, 0x1536c1daca968f40ull},
    {"bootstrap_refresh/INS-1", {30, 74, 1, 256, 0, 289, 36, 10, 10, 1}, 1, 707, 0x1.63ac8e77e2812p-6, 0x6effbbdd03347228ull},
    {"tmult/INS-2", {50, 74, 1, 256, 0, 289, 56, 10, 10, 1}, 1, 747, 0x1.04837dd85709fp-4, 0xee4a43a270762e87ull},
    {"helr/INS-2", {330, 1386, 9, 2424, 0, 3411, 474, 120, 150, 9}, 9, 8313, 0x1.4d3b6f51dd16p-1, 0x019dac340d0913f7ull},
    {"resnet/INS-2", {880, 1846, 20, 5481, 0, 6086, 1100, 240, 380, 20}, 20, 16053, 0x1.5773f4bf3833cp+0, 0x6aec57ab7000deeaull},
    {"sort/INS-2", {8055, 15676, 209, 53819, 0, 60821, 10569, 3140, 2930, 209}, 209, 155428, 0x1.a53e5b22c7ccap+3, 0x355e914dc24adc2bull},
    {"bootstrap_refresh/INS-2", {30, 74, 1, 256, 0, 289, 36, 10, 10, 1}, 1, 707, 0x1.faf70e1ef83a3p-5, 0x3d93b92bc5866084ull},
    {"tmult/INS-3", {55, 74, 1, 256, 0, 289, 61, 10, 10, 1}, 1, 757, 0x1.d9ef2d504cb5bp-4, 0xb8017cc05a2ad4a5ull},
    {"helr/INS-3", {270, 1238, 7, 1912, 0, 2833, 402, 100, 130, 7}, 7, 6899, 0x1.e7e4729daaeccp-1, 0xddc17050a7e86222ull},
    {"resnet/INS-3", {730, 1476, 15, 4201, 0, 4641, 920, 190, 330, 15}, 15, 12518, 0x1.caa3bb3bdc455p+0, 0x47a0458298d930fbull},
    {"sort/INS-3", {5715, 9904, 131, 33851, 0, 38279, 7761, 2360, 2150, 131}, 131, 100282, 0x1.e158a455741b4p+3, 0x58c4d7bab3e5490cull},
    {"bootstrap_refresh/INS-3", {30, 74, 1, 256, 0, 289, 36, 10, 10, 1}, 1, 707, 0x1.cbfcbaece07c5p-4, 0x9ee9014a8b0922d3ull},
    {"tmult/INS-Lattigo", {32, 66, 1, 192, 0, 225, 38, 10, 10, 1}, 1, 575, 0x1.a779029d57607p-8, 0x05846c1b8b71af6bull},
};
// clang-format on

/** FNV-1a over every field of every op, one integer at a time. */
u64
trace_digest(const sim::Trace& t)
{
    u64 h = 0xcbf29ce484222325ull;
    const auto mix = [&h](long long v) {
        h = (h ^ static_cast<u64>(v)) * 0x100000001b3ull;
    };
    for (const sim::HeOp& op : t.ops) {
        mix(static_cast<int>(op.kind));
        mix(op.level);
        mix(op.rot_amount);
        mix(static_cast<long long>(op.inputs.size()));
        for (const int in : op.inputs) mix(in);
        mix(op.output);
        mix(op.in_bootstrap ? 1 : 0);
    }
    return h;
}

hw::CkksInstance
instance_named(const std::string& name)
{
    for (const hw::CkksInstance& i : hw::table4_instances()) {
        if (i.name == name) return i;
    }
    const hw::CkksInstance lattigo = hw::ins_lattigo();
    EXPECT_EQ(lattigo.name, name) << "unknown instance";
    return lattigo;
}

/** Names each case after its pair in test listings. */
void
PrintTo(const Golden& g, std::ostream* os)
{
    *os << g.pair;
}

class TraceGolden : public ::testing::TestWithParam<Golden>
{};

TEST_P(TraceGolden, LoweringMatchesFixture)
{
    const Golden& want = GetParam();
    const std::string pair = want.pair;
    const std::size_t slash = pair.find('/');
    const hw::CkksInstance inst = instance_named(pair.substr(slash + 1));
    const sim::Trace t = paper_trace(pair.substr(0, slash), inst);
    const sim::SimResult r = sim::BtsSimulator(sim::BtsConfig{}, inst).run(t);

    std::array<int, sim::kHeOpKindCount> hist{};
    for (const sim::HeOp& op : t.ops) ++hist[static_cast<int>(op.kind)];
    std::string row = "{\"" + pair + "\", {";
    for (int k = 0; k < sim::kHeOpKindCount; ++k) {
        row += (k ? ", " : "") + std::to_string(hist[k]);
    }
    char tail[128];
    std::snprintf(tail, sizeof tail, "}, %d, %zu, %a, 0x%016llxull},",
                  t.bootstrap_count, t.ops.size(), r.total_s,
                  static_cast<unsigned long long>(trace_digest(t)));
    SCOPED_TRACE("observed row: " + row + tail);

    EXPECT_EQ(hist, want.hist);
    EXPECT_EQ(t.bootstrap_count, want.boots);
    EXPECT_EQ(t.ops.size(), want.ops);
    EXPECT_EQ(r.total_s, want.total_s);
    EXPECT_EQ(trace_digest(t), want.digest);
}

INSTANTIATE_TEST_SUITE_P(Paper, TraceGolden, ::testing::ValuesIn(kGolden));

struct MetaGolden
{
    const char* triple; //!< "<bts_lint builtin>/<instance name>/raw|opt"
    u64 digest;         //!< graph_digest() of the built graph
};

// One row per bts_lint builtin, Table 4 instance and form: the
// builder's and the pass pipeline's stored metadata, value for value.
// clang-format off
const MetaGolden kMetaGolden[] = {
    {"tmult/INS-1/raw", 0xe4871680d27f9701ull},
    {"dot_product/INS-1/raw", 0x8e53d89668788936ull},
    {"poly_eval/INS-1/raw", 0x4e4cde1e6d3d4526ull},
    {"bootstrap_refresh/INS-1/raw", 0xe9323e0d66801e8full},
    {"helr/INS-1/raw", 0xbc34f66115beacdaull},
    {"resnet/INS-1/raw", 0x1c363585d974f2e1ull},
    {"sort/INS-1/raw", 0xc7c3868dd3122bdaull},
    {"tmult/INS-1/opt", 0xdd3617cd778642c9ull},
    {"dot_product/INS-1/opt", 0xd2583d71f3f23ef6ull},
    {"poly_eval/INS-1/opt", 0x9fe54f6f8c824cfbull},
    {"bootstrap_refresh/INS-1/opt", 0xe9323e0d66801e8full},
    {"helr/INS-1/opt", 0xb04f41d92e99836aull},
    {"resnet/INS-1/opt", 0xd08e1b699c07bd53ull},
    {"sort/INS-1/opt", 0x7343c883308d6000ull},
    {"tmult/INS-2/raw", 0xa8221424cddb5171ull},
    {"dot_product/INS-2/raw", 0x77b85ce9381fb876ull},
    {"poly_eval/INS-2/raw", 0x7f8fab4e72aa082aull},
    {"bootstrap_refresh/INS-2/raw", 0xadd52e2bb31f44c3ull},
    {"helr/INS-2/raw", 0xd3cd4ef4a3cb1706ull},
    {"resnet/INS-2/raw", 0x9faeacde045b47beull},
    {"sort/INS-2/raw", 0xa19e13bca4c8c129ull},
    {"tmult/INS-2/opt", 0x5d196346f378a2d1ull},
    {"dot_product/INS-2/opt", 0xeb044ad5b1de2fe2ull},
    {"poly_eval/INS-2/opt", 0x011fdecefa566c37ull},
    {"bootstrap_refresh/INS-2/opt", 0xadd52e2bb31f44c3ull},
    {"helr/INS-2/opt", 0x131adb75c651bcb6ull},
    {"resnet/INS-2/opt", 0xdd9256207b8b96adull},
    {"sort/INS-2/opt", 0xf6b54f6c68ea1551ull},
    {"tmult/INS-3/raw", 0xdd1b2b8478e63104ull},
    {"dot_product/INS-3/raw", 0x9424cfed6150a85cull},
    {"poly_eval/INS-3/raw", 0xc0dede4869378867ull},
    {"bootstrap_refresh/INS-3/raw", 0x878a4fdf1521329cull},
    {"helr/INS-3/raw", 0x7ee08d797f47b099ull},
    {"resnet/INS-3/raw", 0xd7bf8b4c07db948aull},
    {"sort/INS-3/raw", 0x630d9ccbf071cc60ull},
    {"tmult/INS-3/opt", 0x4aec243a18ddfe86ull},
    {"dot_product/INS-3/opt", 0xa429b8fca19cb5f5ull},
    {"poly_eval/INS-3/opt", 0x40e154e22ebe03feull},
    {"bootstrap_refresh/INS-3/opt", 0x878a4fdf1521329cull},
    {"helr/INS-3/opt", 0xfae6669525ba2e8dull},
    {"resnet/INS-3/opt", 0x127d5443ae322789ull},
    {"sort/INS-3/opt", 0x40da829d33d540d5ull},
};
// clang-format on

/** FNV-1a over every value's metadata and every node's fields. */
u64
graph_digest(const Graph& g)
{
    u64 h = 0xcbf29ce484222325ull;
    const auto mix = [&h](u64 v) { h = (h ^ v) * 0x100000001b3ull; };
    const auto mix_int = [&mix](long long v) { mix(static_cast<u64>(v)); };
    const auto mix_list = [&mix_int](const std::vector<int>& list) {
        mix_int(static_cast<long long>(list.size()));
        for (const int x : list) mix_int(x);
    };
    for (std::size_t id = 0; id < g.num_values(); ++id) {
        const ValueInfo& v = g.value(static_cast<int>(id));
        mix_int(v.is_plain ? 1 : 0);
        mix_int(v.is_input ? 1 : 0);
        mix_int(v.level);
        mix(std::bit_cast<u64>(v.scale));
        mix_int(v.producer);
        mix_int(v.num_uses);
    }
    for (const Node& n : g.nodes()) {
        mix_int(static_cast<int>(n.kind));
        mix_list(n.inputs);
        mix_list(n.outputs);
        mix_int(n.rot_amount);
        mix_list(n.amounts);
        mix(std::bit_cast<u64>(n.constant.real()));
        mix(std::bit_cast<u64>(n.constant.imag()));
        mix(std::bit_cast<u64>(n.constant2.real()));
        mix(std::bit_cast<u64>(n.constant2.imag()));
    }
    mix_list(g.outputs());
    return h;
}

void
PrintTo(const MetaGolden& g, std::ostream* os)
{
    *os << g.triple;
}

class MetadataGolden : public ::testing::TestWithParam<MetaGolden>
{};

TEST_P(MetadataGolden, GraphMatchesFixture)
{
    const MetaGolden& want = GetParam();
    const std::string triple = want.triple;
    const std::size_t a = triple.find('/');
    const std::size_t b = triple.rfind('/');
    const hw::CkksInstance inst =
        instance_named(triple.substr(a + 1, b - a - 1));
    const Graph g = paper_graph(triple.substr(0, a), inst,
                                triple.substr(b + 1) != "raw");
    char row[160];
    std::snprintf(row, sizeof row, "{\"%s\", 0x%016llxull},", want.triple,
                  static_cast<unsigned long long>(graph_digest(g)));
    SCOPED_TRACE(std::string("observed row: ") + row);
    EXPECT_EQ(graph_digest(g), want.digest);
}

INSTANTIATE_TEST_SUITE_P(Builtin, MetadataGolden,
                         ::testing::ValuesIn(kMetaGolden));

class AppPin : public ::testing::TestWithParam<int>
{
  protected:
    hw::CkksInstance
    inst() const
    {
        return hw::table4_instances()[GetParam()];
    }

    static void
    expect_same_mix(const sim::Trace& lowered, const sim::Trace& raw)
    {
        EXPECT_EQ(sim::kind_histogram(lowered), sim::kind_histogram(raw));
        EXPECT_EQ(lowered.bootstrap_count, raw.bootstrap_count);
        EXPECT_EQ(lowered.ops.size(), raw.ops.size());
    }
};

TEST_P(AppPin, OptimizedGraphsLowerToSameHistogram)
{
    // The pass pipeline regroups and fuses but must not change the op
    // mix the simulator prices: rotation CSE only merges rotations
    // with DISTINCT amounts of one value (the apps have no duplicate
    // amounts to dedupe), and lowering expands every composite, so the
    // optimized graphs lower to the raw (golden-pinned) form's exact
    // histogram.
    const auto i = inst();
    const GraphTraits t = traits_for(i);
    expect_same_mix(
        lower_to_trace(build_helr(HelrConfig::paper(), t).graph, i),
        paper_trace("helr", i));
    expect_same_mix(
        lower_to_trace(build_resnet(ResnetConfig::paper(), t).graph, i),
        paper_trace("resnet", i));
    expect_same_mix(
        lower_to_trace(build_sort(SortConfig::paper(), t).graph, i),
        paper_trace("sort", i));
}

TEST_P(AppPin, LoweredTracesRespectLevelBounds)
{
    // Every op of the raw and the optimized app graphs executes inside
    // the instance's chain, never at level 0.
    const auto i = inst();
    const GraphTraits t = traits_for(i);
    std::vector<Graph> graphs;
    graphs.push_back(std::move(build_helr(HelrConfig::paper(), t).graph));
    graphs.push_back(
        std::move(build_resnet(ResnetConfig::paper(), t).graph));
    graphs.push_back(std::move(build_sort(SortConfig::paper(), t).graph));
    for (const char* name : {"helr", "resnet", "sort"}) {
        graphs.push_back(paper_graph(name, i));
    }
    for (const Graph& g : graphs) {
        const sim::Trace trace = lower_to_trace(g, i);
        for (const auto& op : trace.ops) {
            EXPECT_GE(op.level, 1) << g.name();
            EXPECT_LE(op.level, i.max_level) << g.name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Table4, AppPin, ::testing::Values(0, 1, 2));

TEST(AppBuild, ResnetBootstrapCountsMatchTable6)
{
    // The graph reproduces the paper's Table 6 bootstrap counts
    // (53 / 22 / 19 for INS-1/2/3) within these tolerances.
    const auto boots = [](const hw::CkksInstance& i) {
        return lower_to_trace(
                   build_resnet(ResnetConfig::paper(), traits_for(i))
                       .graph,
                   i)
            .bootstrap_count;
    };
    EXPECT_NEAR(boots(hw::ins1()), 53, 4);
    EXPECT_NEAR(boots(hw::ins2()), 22, 4);
    EXPECT_NEAR(boots(hw::ins3()), 19, 5);
}

TEST(AppBuild, SortingBootstrapOrdering)
{
    // Paper: 521 / 306 / 229 — monotone decreasing in usable levels.
    const int b1 = paper_trace("sort", hw::ins1()).bootstrap_count;
    const int b2 = paper_trace("sort", hw::ins2()).bootstrap_count;
    const int b3 = paper_trace("sort", hw::ins3()).bootstrap_count;
    EXPECT_GT(b1, b2);
    EXPECT_GT(b2, b3);
    EXPECT_NEAR(b1, 521, 521 * 0.15);
}

TEST(AppBuild, HelrBootstrapsScaleWithUsableLevels)
{
    const int b1 = paper_trace("helr", hw::ins1()).bootstrap_count;
    const int b2 = paper_trace("helr", hw::ins2()).bootstrap_count;
    const int b3 = paper_trace("helr", hw::ins3()).bootstrap_count;
    EXPECT_GT(b1, b2);
    EXPECT_GE(b2, b3);
}

TEST(AppBuild, LevelBudgetExhaustionFailsAtBuildTime)
{
    // An instance whose refreshed budget cannot fit one iteration /
    // stage must fail when the graph is BUILT — a clear error instead
    // of a bad decrypt half way through execution.
    GraphTraits tiny;
    tiny.max_level = 14;
    tiny.bootstrap_out_level = 2;
    tiny.delta = 1099511627776.0;
    EXPECT_THROW(build_helr(HelrConfig::functional(), tiny),
                 std::invalid_argument);
    EXPECT_THROW(build_sort(SortConfig::functional(), tiny),
                 std::invalid_argument);
    GraphTraits dead = tiny;
    dead.bootstrap_out_level = 1;
    EXPECT_THROW(build_resnet(ResnetConfig::functional(), dead),
                 std::invalid_argument);
}

TEST(AppBuild, SortMasksPartitionSlots)
{
    const std::size_t slots = 16;
    for (int d : {1, 2}) {
        const auto lo = sort_mask_lo(2, d, slots);
        const auto hi = sort_mask_hi(2, d, slots);
        for (std::size_t i = 0; i < slots; ++i) {
            EXPECT_DOUBLE_EQ(lo[i].real() + hi[i].real(), 1.0);
        }
    }
    // Final phase sorts every block ascending: the lower partner keeps
    // the minimum (select = -0.5) everywhere.
    const auto sel = sort_select_mask(2, 2, 2, slots);
    for (std::size_t i = 0; i < slots; ++i) {
        const bool lower = (i & 2) == 0;
        EXPECT_DOUBLE_EQ(sel[i].real(), lower ? -0.5 : 0.5);
    }
}

TEST(EndToEnd, HeadlineSpeedupsHold)
{
    // The reproduction's headline shape: BTS beats the CPU by 3+ orders
    // of magnitude on every workload (paper: 1,306x HELR, 5,556x
    // ResNet-20, 1,482x sorting, 2,237x Tmult).
    const sim::BtsConfig hwcfg;
    const auto cpu = baselines::lattigo_cpu();

    const auto i2 = hw::ins2();
    const auto r_tmult =
        sim::BtsSimulator(hwcfg, i2).run(paper_trace("tmult", i2));
    EXPECT_GT(cpu.tmult_a_slot_ns / r_tmult.tmult_a_slot_ns, 1000);
    EXPECT_LT(cpu.tmult_a_slot_ns / r_tmult.tmult_a_slot_ns, 5000);

    const auto r_helr =
        sim::BtsSimulator(hwcfg, i2).run(paper_trace("helr", i2));
    const double helr_ms = r_helr.total_s * 1e3 / 30;
    EXPECT_GT(cpu.helr_iter_ms / helr_ms, 800);

    const auto i1 = hw::ins1();
    const auto r_rn =
        sim::BtsSimulator(hwcfg, i1).run(paper_trace("resnet", i1));
    EXPECT_GT(cpu.resnet20_s / r_rn.total_s, 2000);
    EXPECT_LT(cpu.resnet20_s / r_rn.total_s, 20000);

    const auto r_sort =
        sim::BtsSimulator(hwcfg, i1).run(paper_trace("sort", i1));
    EXPECT_GT(cpu.sorting_s / r_sort.total_s, 700);
}

TEST(EndToEnd, ResnetPrefersSmallDnum)
{
    // Section 6.3 "parameter selection in retrospect": when the
    // bootstrap share is small, HE-op complexity dominates and the
    // smaller-dnum INS-1 wins ResNet-20.
    const sim::BtsConfig hwcfg;
    double times[3];
    for (int i = 0; i < 3; ++i) {
        const auto inst = hw::table4_instances()[i];
        times[i] = sim::BtsSimulator(hwcfg, inst)
                       .run(paper_trace("resnet", inst))
                       .total_s;
    }
    EXPECT_LT(times[0], times[1]);
    EXPECT_LT(times[1], times[2]);
}

TEST(EndToEnd, BootstrapShareShape)
{
    // Fig. 7b: bootstrap dominates the microbench, and ResNet-20's
    // share is below the microbench's. The paper also has ResNet-20
    // with the smallest share of the four workloads; this model does
    // not reproduce that (HELR's is smaller on INS-1, see
    // docs/APPLICATIONS.md), so it is not asserted.
    const sim::BtsConfig hwcfg;
    const auto inst = hw::ins1();
    const sim::BtsSimulator s(hwcfg, inst);
    const auto micro = s.run(paper_trace("tmult", inst));
    const auto rn = s.run(paper_trace("resnet", inst));
    const double micro_share = micro.boot_s / micro.total_s;
    const double rn_share = rn.boot_s / rn.total_s;
    EXPECT_GT(micro_share, 0.5);
    EXPECT_LT(rn_share, micro_share);
}

} // namespace
} // namespace bts::runtime::apps
