#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/published.h"
#include "sim/bootstrap_plan.h"
#include "sim/engine.h"
#include "sim/timeline.h"

namespace bts::sim {
namespace {

TEST(HwConfig, Table3Totals)
{
    EXPECT_NEAR(BtsConfig::total_area_mm2(), 373.6, 0.2);
    EXPECT_NEAR(BtsConfig::total_peak_power_w(), 163.2, 0.2);
}

TEST(HwConfig, EpochLength)
{
    // N log N / (2 n_PE): 2^17 * 17 / 4096 = 544 cycles (Section 5.1).
    const BtsConfig hw;
    EXPECT_DOUBLE_EQ(hw.epoch_cycles(1ULL << 17), 544);
    EXPECT_NEAR(hw.epoch_seconds(1ULL << 17) * 1e9, 453.3, 0.2);
}

TEST(OpTrace, EvkOpsClassified)
{
    EXPECT_TRUE(needs_evk(HeOpKind::kHMult));
    EXPECT_TRUE(needs_evk(HeOpKind::kHRot));
    EXPECT_TRUE(needs_evk(HeOpKind::kConj));
    EXPECT_FALSE(needs_evk(HeOpKind::kPMult));
    EXPECT_FALSE(needs_evk(HeOpKind::kHRescale));
    EXPECT_FALSE(needs_evk(HeOpKind::kModRaise));
}

TEST(OpTrace, KindFunctionsExhaustive)
{
    // Walk every enumerator: kind_name must hand back a distinct
    // non-empty name and needs_evk must classify exactly the three
    // key-switching ops. A kind beyond the enumerator range (what a
    // newly added op looks like to stale tables) fails loudly instead
    // of falling through to a default.
    std::set<std::string> names;
    int evk_count = 0;
    for (int i = 0; i < kHeOpKindCount; ++i) {
        const auto kind = static_cast<HeOpKind>(i);
        const char* name = kind_name(kind);
        ASSERT_NE(name, nullptr);
        ASSERT_GT(std::string(name).size(), 0u);
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate kind name " << name;
        evk_count += needs_evk(kind);
    }
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kHeOpKindCount));
    EXPECT_EQ(evk_count, 3);
    EXPECT_THROW(kind_name(static_cast<HeOpKind>(kHeOpKindCount)),
                 std::logic_error);
    EXPECT_THROW(needs_evk(static_cast<HeOpKind>(kHeOpKindCount)),
                 std::logic_error);
}

TEST(OpTrace, BuilderTracksIds)
{
    TraceBuilder b("t");
    const int x = b.fresh_id();
    const int y = b.add(HeOpKind::kHMult, 5, {x, x});
    EXPECT_NE(x, y);
    const int z = b.add_into(y, HeOpKind::kHRescale, 5, {y});
    EXPECT_EQ(z, y);
    EXPECT_EQ(b.trace().ops.size(), 2u);
    EXPECT_THROW(b.add(HeOpKind::kHAdd, -1, {x}), std::invalid_argument);
}

TEST(OpTrace, LevelUnderflowRejectedOnEveryBuilderPath)
{
    // Regression: a level < 0 op (a workload generator mis-counting its
    // rescales) must fail at build time — it would otherwise feed
    // nonsense levels to the cost model. Both entry points guard.
    TraceBuilder b("t");
    const int x = b.fresh_id();
    const int y = b.add(HeOpKind::kHMult, 1, {x, x});
    EXPECT_THROW(b.add(HeOpKind::kHRescale, -1, {y}),
                 std::invalid_argument);
    EXPECT_THROW(b.add_into(y, HeOpKind::kHRescale, -1, {y}),
                 std::invalid_argument);
    EXPECT_THROW(b.add(HeOpKind::kModRaise, -7, {y}),
                 std::invalid_argument);
    // The trace is untouched by the rejected ops.
    EXPECT_EQ(b.trace().ops.size(), 1u);
    // Level 0 itself is legal (the exhausted-ciphertext state), and the
    // rejected adds must not have consumed object ids: a generator that
    // recovers from the throw keeps an unshifted id stream.
    EXPECT_EQ(b.add(HeOpKind::kHAdd, 0, {y, y}), y + 1);
    EXPECT_EQ(b.trace().ops.size(), 2u);
}

TEST(OpTrace, OperandListHoldsAtMostTwo)
{
    OpInputs two{3, 4};
    EXPECT_EQ(two.size(), 2u);
    EXPECT_EQ(std::vector<int>(two.begin(), two.end()),
              (std::vector<int>{3, 4}));
    EXPECT_EQ(two, (OpInputs{3, 4}));
    EXPECT_NE(two, (OpInputs{4, 3}));
    EXPECT_NE(two, (OpInputs{3}));
    EXPECT_NE((OpInputs{0}), (OpInputs{0, 0}));
    EXPECT_TRUE(OpInputs{}.empty());
    EXPECT_THROW(two.push_back(5), std::invalid_argument);
    EXPECT_EQ(two, (OpInputs{3, 4}));
    EXPECT_THROW((OpInputs{1, 2, 3}), std::invalid_argument);

    // A three-operand op is rejected before the builder sees it: no op
    // is appended and no object id is consumed.
    TraceBuilder b("t");
    const int x = b.fresh_id();
    EXPECT_THROW(b.add(HeOpKind::kHAdd, 1, {x, x, x}),
                 std::invalid_argument);
    EXPECT_TRUE(b.trace().ops.empty());
    EXPECT_EQ(b.add(HeOpKind::kHAdd, 1, {x, x}), x + 1);
}

TEST(OpTrace, KindHistogram)
{
    TraceBuilder b("t");
    const int x = b.fresh_id();
    const int y = b.add(HeOpKind::kHMult, 5, {x, x});
    b.add(HeOpKind::kHRescale, 5, {y});
    b.add(HeOpKind::kHMult, 4, {y, y});
    const auto hist = kind_histogram(b.trace());
    EXPECT_EQ(hist.at(HeOpKind::kHMult), 2);
    EXPECT_EQ(hist.at(HeOpKind::kHRescale), 1);
    EXPECT_EQ(hist.count(HeOpKind::kHRot), 0u);
}

TEST(SoftwareCache, HitMissAndLru)
{
    SoftwareCache cache(100.0);
    EXPECT_EQ(cache.access(1, 40), 40); // miss
    EXPECT_EQ(cache.access(1, 40), 0);  // hit
    EXPECT_EQ(cache.access(2, 40), 40); // miss
    EXPECT_EQ(cache.access(3, 40), 40); // miss, evicts 1 (LRU)
    EXPECT_EQ(cache.access(2, 40), 0);  // 2 still resident
    EXPECT_EQ(cache.access(1, 40), 40); // 1 was evicted
    EXPECT_NEAR(cache.hit_rate(), 2.0 / 6.0, 1e-12);
}

TEST(SoftwareCache, OversizedObjectStreamsThrough)
{
    SoftwareCache cache(100.0);
    EXPECT_EQ(cache.access(1, 500), 500);
    EXPECT_EQ(cache.access(1, 500), 500); // never cached
    EXPECT_EQ(cache.used_bytes(), 0);
}

TEST(SoftwareCache, InsertReplaces)
{
    SoftwareCache cache(100.0);
    cache.insert(7, 60);
    cache.insert(7, 30); // replaces, does not double-count
    EXPECT_EQ(cache.used_bytes(), 30);
    EXPECT_EQ(cache.access(7, 30), 0);
}

/**
 * Reference model of SoftwareCache: the same LRU policy kept with one
 * std::list node and one hash node per resident object. SoftwareCache
 * must behave exactly like it.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(double capacity_bytes)
        : capacity_(std::max(0.0, capacity_bytes))
    {}

    double
    access(int id, double bytes)
    {
        const auto it = entries_.find(id);
        if (it != entries_.end()) {
            ++hits_;
            touch(id);
            return 0.0;
        }
        ++misses_;
        if (bytes > capacity_) return bytes;
        evict_for(bytes);
        lru_.push_front(id);
        entries_[id] = {bytes, lru_.begin()};
        used_ += bytes;
        return bytes;
    }

    void
    insert(int id, double bytes)
    {
        const auto it = entries_.find(id);
        if (it != entries_.end()) {
            used_ -= it->second.bytes;
            lru_.erase(it->second.pos);
            entries_.erase(it);
        }
        if (bytes > capacity_) return;
        evict_for(bytes);
        lru_.push_front(id);
        entries_[id] = {bytes, lru_.begin()};
        used_ += bytes;
    }

    std::size_t hits() const { return hits_; }
    std::size_t misses() const { return misses_; }
    double used_bytes() const { return used_; }

  private:
    void
    touch(int id)
    {
        auto& e = entries_.at(id);
        lru_.erase(e.pos);
        lru_.push_front(id);
        e.pos = lru_.begin();
    }

    void
    evict_for(double bytes)
    {
        while (used_ + bytes > capacity_ && !lru_.empty()) {
            const int victim = lru_.back();
            lru_.pop_back();
            used_ -= entries_.at(victim).bytes;
            entries_.erase(victim);
        }
    }

    double capacity_;
    double used_ = 0;
    std::list<int> lru_; // front = most recent
    struct Entry
    {
        double bytes;
        std::list<int>::iterator pos;
    };
    std::unordered_map<int, Entry> entries_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

/**
 * Drive SoftwareCache and ReferenceCache with the same seeded stream of
 * @p calls access/insert calls over @p ids, with sizes drawn from
 * @p sizes or uniformly from [0, 1.2 capacity); every return value and
 * every statistic must match after every call.
 */
void
expect_matches_reference(double capacity, const std::vector<int>& ids,
                         const std::vector<double>& sizes,
                         std::uint32_t seed, int calls)
{
    SoftwareCache flat(capacity);
    ReferenceCache ref(capacity);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> any_size(
        0.0, 1.2 * std::max(capacity, 1.0));
    for (int call = 0; call < calls; ++call) {
        const int id = ids[rng() % ids.size()];
        const double bytes =
            rng() % 4 == 0 ? any_size(rng) : sizes[rng() % sizes.size()];
        const bool insert = rng() % 3 == 0;
        const auto where = [&] {
            return ::testing::Message()
                   << "seed " << seed << " call " << call << ": "
                   << (insert ? "insert(" : "access(") << id << ", "
                   << bytes << ")";
        };
        if (insert) {
            flat.insert(id, bytes);
            ref.insert(id, bytes);
        } else {
            ASSERT_EQ(flat.access(id, bytes), ref.access(id, bytes))
                << where();
        }
        ASSERT_EQ(flat.hits(), ref.hits()) << where();
        ASSERT_EQ(flat.misses(), ref.misses()) << where();
        ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << where();
    }
}

TEST(SoftwareCache, MatchesListAndMapReference)
{
    const double cap = 100.0;
    // Sizes at, around and above capacity, tiny and zero ones, and
    // fractions whose running sums round.
    const std::vector<double> sizes = {0.0,  0.1,   1.0 / 3,   7.25,
                                       33.3, 49.99, 50.0,      99.999,
                                       cap,  100.5, 2.0 * cap, 1e-300};
    std::vector<int> dense;
    for (int id = 0; id < 24; ++id) dense.push_back(id);
    // Ids far apart, on both sides of zero, out of order.
    const std::vector<int> sparse = {0,      1,       7,      4093,
                                     65536,  1 << 20, 999983, -1,
                                     -2,     -77,     -40000, 123457};
    // The simulator's mix: ciphertext ids and the plaintext keys
    // -1000000 - output of the same outputs.
    std::vector<int> engine;
    for (int out = 0; out < 16; ++out) {
        engine.push_back(out);
        engine.push_back(-1000000 - out);
    }
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
        expect_matches_reference(cap, dense, sizes, seed, 20000);
        expect_matches_reference(cap, sparse, sizes, seed, 20000);
        expect_matches_reference(cap, engine, sizes, seed, 20000);
        expect_matches_reference(0.0, dense, sizes, seed, 2000);
        expect_matches_reference(-5.0, engine, sizes, seed, 2000);
        expect_matches_reference(1e9, engine, sizes, seed, 2000);
    }
}

TEST(SoftwareCache, MatchesReferenceOnAGrowingIdStream)
{
    // Ids arriving in trace order: each op reads recent outputs and a
    // plaintext and writes a fresh id, so both id windows keep growing.
    SoftwareCache flat(1000.0);
    ReferenceCache ref(1000.0);
    std::mt19937 rng(7);
    for (int out = 41; out < 50000; ++out) {
        for (int k = 0; k < 2; ++k) {
            const int in = out - 1 - static_cast<int>(rng() % 40);
            ASSERT_EQ(flat.access(in, 60.0), ref.access(in, 60.0));
        }
        if (rng() % 2 == 0) {
            ASSERT_EQ(flat.access(-1000000 - out, 30.0),
                      ref.access(-1000000 - out, 30.0));
        }
        flat.insert(out, 120.0);
        ref.insert(out, 120.0);
        ASSERT_EQ(flat.hits(), ref.hits());
        ASSERT_EQ(flat.misses(), ref.misses());
        ASSERT_EQ(flat.used_bytes(), ref.used_bytes());
    }
}

class CostModelTest : public ::testing::Test
{
  protected:
    BtsConfig hw_;
    hw::CkksInstance inst_ = hw::ins1();
    CostModel model_{hw_, inst_};
};

TEST_F(CostModelTest, HMultEvkBytesMatchEq10Denominator)
{
    HeOp op;
    op.kind = HeOpKind::kHMult;
    op.level = inst_.max_level;
    const OpCost c = model_.op_cost(op);
    EXPECT_DOUBLE_EQ(c.evk_bytes, inst_.evk_bytes(inst_.max_level));
    EXPECT_NEAR(c.evk_bytes / (1 << 20), 112.0, 0.1);
}

TEST_F(CostModelTest, MaxLevelHMultIsHbmBound)
{
    // Fig. 8: the op is bound by evk streaming (~120us), with compute
    // comfortably underneath.
    HeOp op;
    op.kind = HeOpKind::kHMult;
    op.level = inst_.max_level;
    const OpCost c = model_.op_cost(op);
    const double evk_s = c.evk_bytes / hw_.hbm_effective();
    EXPECT_GT(evk_s, c.compute_s);
    EXPECT_NEAR(evk_s * 1e6, 120.0, 3.0);
}

TEST_F(CostModelTest, CostsShrinkWithLevel)
{
    for (auto kind : {HeOpKind::kHMult, HeOpKind::kHRot,
                      HeOpKind::kPMult}) {
        HeOp high, low;
        high.kind = low.kind = kind;
        high.level = inst_.max_level;
        low.level = 5;
        EXPECT_LT(model_.op_cost(low).compute_s,
                  model_.op_cost(high).compute_s);
    }
}

TEST_F(CostModelTest, OverlapReducesCriticalPath)
{
    BtsConfig no_overlap = hw_;
    no_overlap.overlap_bconv_intt = false;
    const CostModel serial(no_overlap, inst_);
    HeOp op;
    op.kind = HeOpKind::kHMult;
    op.level = inst_.max_level;
    EXPECT_LT(model_.op_cost(op).compute_s,
              serial.op_cost(op).compute_s);
}

TEST_F(CostModelTest, RotationHasNocTraffic)
{
    HeOp rot;
    rot.kind = HeOpKind::kHRot;
    rot.level = 20;
    EXPECT_GT(model_.op_cost(rot).noc_bytes, 0);
    HeOp mult;
    mult.kind = HeOpKind::kHMult;
    mult.level = 20;
    EXPECT_EQ(model_.op_cost(mult).noc_bytes, 0);
}

TEST_F(CostModelTest, RejectsBadLevel)
{
    HeOp op;
    op.kind = HeOpKind::kHMult;
    op.level = inst_.max_level + 1;
    EXPECT_THROW(model_.op_cost(op), std::invalid_argument);
}

TEST(Engine, SingleHMultLatency)
{
    const BtsConfig hw;
    const auto inst = hw::ins1();
    const BtsSimulator sim(hw, inst);
    TraceBuilder b("one-mult");
    const int x = b.fresh_id();
    b.add(HeOpKind::kHMult, inst.max_level, {x, x});
    const auto r = sim.run(b.trace());
    // First-touch miss on the operand + evk stream.
    EXPECT_NEAR(r.total_s * 1e6, 120.0, 60.0);
    EXPECT_EQ(r.op_count, 1);
}

TEST(Engine, CacheCapacityPartitioning)
{
    const BtsConfig hw;
    for (const auto& inst : hw::table4_instances()) {
        const BtsSimulator sim(hw, inst);
        const double cap = sim.cache_capacity_bytes();
        EXPECT_LT(cap, hw.scratchpad_bytes);
        EXPECT_GT(cap, 0);
        // Bigger temp data -> smaller ct cache (INS-3 worst).
    }
    const double c1 =
        BtsSimulator(hw, hw::ins1()).cache_capacity_bytes();
    const double c3 =
        BtsSimulator(hw, hw::ins3()).cache_capacity_bytes();
    EXPECT_GT(c1, c3);
}

TEST(Engine, MoreScratchpadNeverHurts)
{
    const auto inst = hw::ins2();
    TraceBuilder b("loop");
    int ct = b.fresh_id();
    for (int i = 0; i < 40; ++i) {
        ct = b.add(HeOpKind::kHMult, 20, {ct, ct});
        b.add_into(ct, HeOpKind::kHRescale, 20, {ct});
    }
    double prev = 1e18;
    for (double mb : {256.0, 512.0, 1024.0, 2048.0}) {
        BtsConfig hw;
        hw.scratchpad_bytes = mb * (1 << 20);
        const auto r = BtsSimulator(hw, inst).run(b.trace());
        EXPECT_LE(r.total_s, prev * 1.0001);
        prev = r.total_s;
    }
}

TEST(Engine, DoublingHbmHelpsSublinearly)
{
    // Fig. 9's last step: 2TB/s gives only ~1.26x because compute
    // starts to bind.
    const auto inst = hw::ins1();
    TraceBuilder b("mults");
    const int x = b.fresh_id();
    for (int i = 0; i < 10; ++i) {
        b.add(HeOpKind::kHMult, inst.max_level, {x, x});
    }
    BtsConfig hw1tb;
    BtsConfig hw2tb;
    hw2tb.hbm_bytes_per_s = 2e12;
    const double t1 = BtsSimulator(hw1tb, inst).run(b.trace()).total_s;
    const double t2 = BtsSimulator(hw2tb, inst).run(b.trace()).total_s;
    EXPECT_GT(t1 / t2, 1.1);
    EXPECT_LT(t1 / t2, 2.0);
}

TEST(Engine, EnergyWithinPowerEnvelope)
{
    const BtsConfig hw;
    const auto inst = hw::ins1();
    TraceBuilder b("mults");
    const int x = b.fresh_id();
    for (int i = 0; i < 20; ++i) {
        b.add(HeOpKind::kHMult, inst.max_level, {x, x});
    }
    const auto r = BtsSimulator(hw, inst).run(b.trace());
    EXPECT_GT(r.energy_j, 0);
    // Average power must not exceed the Table 3 peak.
    EXPECT_LT(r.energy_j / r.total_s, BtsConfig::total_peak_power_w());
    EXPECT_GT(r.edap, 0);
}

TEST(Timeline, MatchesFig8Shape)
{
    const BtsConfig hw;
    const auto tl = hmult_timeline(hw, hw::ins1());
    EXPECT_NEAR(tl.total_ns / 1e3, 120.0, 5.0); // ~120us
    EXPECT_GT(tl.hbm_util, 0.9);
    EXPECT_GT(tl.nttu_busy_frac, 0.5);
    EXPECT_LT(tl.nttu_busy_frac, 0.95);
    EXPECT_GT(tl.bconv_busy_frac, 0.15);
    EXPECT_LT(tl.bconv_busy_frac, 0.5);
    EXPECT_FALSE(tl.segments.empty());
    for (const auto& seg : tl.segments) {
        EXPECT_LE(seg.start_ns, seg.end_ns);
        EXPECT_LE(seg.end_ns, tl.total_ns * 1.01);
    }
    // Peak scratchpad usage near the instance's temp working set.
    double peak = 0;
    for (const auto& u : tl.usage) {
        peak = std::max(peak, u.scratchpad_mb);
    }
    EXPECT_NEAR(peak, hw::ins1().temp_bytes() / 1e6, 20);
}

int
count_kind(const Trace& t, HeOpKind kind)
{
    int n = 0;
    for (const auto& op : t.ops) n += (op.kind == kind);
    return n;
}

TEST(BootstrapPlan, OpMixAndLevels)
{
    TraceBuilder b("boot");
    const int out = append_bootstrap(b, hw::ins1(), b.fresh_id());
    EXPECT_GE(out, 0);
    const auto& t = b.trace();
    EXPECT_EQ(t.bootstrap_count, 1);
    EXPECT_EQ(count_kind(t, HeOpKind::kModRaise), 1);
    EXPECT_EQ(count_kind(t, HeOpKind::kConj), 1);
    // ">40 evks" worth of rotations plus the EvalMod HMults.
    EXPECT_GT(count_kind(t, HeOpKind::kHRot), 40);
    EXPECT_EQ(count_kind(t, HeOpKind::kHMult), 30); // 15 per component
    for (const auto& op : t.ops) {
        EXPECT_TRUE(op.in_bootstrap);
        EXPECT_GE(op.level, 1);
        EXPECT_LE(op.level, hw::ins1().max_level);
    }
}

TEST(BootstrapPlan, LevelsDescendThroughStages)
{
    TraceBuilder b("boot");
    append_bootstrap(b, hw::ins2(), b.fresh_id());
    const auto& ops = b.trace().ops;
    EXPECT_EQ(ops.front().level, hw::ins2().max_level);
    // The last StC stage sits at the bottom of the L_boot budget.
    const int bottom = hw::ins2().max_level - hw::ins2().boot_levels + 1;
    EXPECT_EQ(ops.back().level, bottom);
}

TEST(Baselines, PublishedNumbersConsistent)
{
    const auto all = baselines::all_baselines();
    ASSERT_EQ(all.size(), 4u);
    // Fig. 6 relations: Lattigo = 2237 x 45.5ns; F1 2.5x slower than
    // Lattigo; F1+ = 824 x 45.5ns.
    EXPECT_NEAR(baselines::lattigo_cpu().tmult_a_slot_ns / 1e3, 101.8,
                0.1);
    EXPECT_NEAR(baselines::f1().tmult_a_slot_ns /
                    baselines::lattigo_cpu().tmult_a_slot_ns,
                2.5, 0.01);
    EXPECT_GT(baselines::f1().tmult_a_slot_ns,
              baselines::lattigo_cpu().tmult_a_slot_ns);
    // Only F1/F1+ are single-slot bootstrappers.
    EXPECT_EQ(baselines::f1().refreshed_slots, 1);
    EXPECT_EQ(baselines::lattigo_cpu().refreshed_slots, 32768);
    EXPECT_EQ(baselines::gpu_100x().refreshed_slots, 65536);
}

} // namespace
} // namespace bts::sim
