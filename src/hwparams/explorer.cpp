#include "hwparams/explorer.h"

#include <algorithm>

#include "common/bit_ops.h"
#include "common/check.h"
#include "hwparams/security.h"
#include "sim/bootstrap_plan.h"

namespace bts::hw {

int
max_level_for(std::size_t n, int dnum, double lambda_target, int q0_bits,
              int scale_bits, int special_bits)
{
    const double budget = max_log_pq(n, lambda_target);
    int best = -1;
    for (int level = 1; level <= 200; ++level) {
        const int k = static_cast<int>(ceil_div(
            static_cast<u64>(level + 1), static_cast<u64>(dnum)));
        const double bits = q0_bits +
                            static_cast<double>(level) * scale_bits +
                            static_cast<double>(k) * special_bits;
        if (bits <= budget) best = level;
    }
    return best;
}

int
max_dnum_for(std::size_t n, double lambda_target)
{
    // Max dnum means k == 1 (one special prime): dnum == L + 1. Find the
    // largest L with dnum = L+1 still meeting the target.
    int best = 1;
    for (int level = 1; level <= 200; ++level) {
        if (max_level_for(n, level + 1, lambda_target) >= level) {
            best = level + 1;
        }
    }
    return best;
}

namespace {

/** Levels of the evk-bearing ops (HMult, HRot, Conj) of the one
 *  bootstrap plan, sim::append_bootstrap, in plan order. */
std::vector<int>
bootstrap_keyswitch_levels(const CkksInstance& inst)
{
    sim::TraceBuilder b("bootstrap-plan");
    sim::append_bootstrap(b, inst, b.fresh_id());
    std::vector<int> levels;
    for (const sim::HeOp& op : b.trace().ops) {
        if (sim::needs_evk(op.kind)) levels.push_back(op.level);
    }
    return levels;
}

} // namespace

int
bootstrap_keyswitch_count(const CkksInstance& inst)
{
    return static_cast<int>(bootstrap_keyswitch_levels(inst).size());
}

double
bootstrap_evk_bytes(const CkksInstance& inst)
{
    double bytes = 0;
    for (int lvl : bootstrap_keyswitch_levels(inst)) {
        bytes += inst.evk_bytes(std::max(lvl, 1));
    }
    return bytes;
}

double
min_bound_tmult_ns(const CkksInstance& inst, double hbm_bytes_per_s)
{
    BTS_CHECK(inst.usable_levels() >= 1,
              "instance cannot bootstrap (L <= L_boot)");
    // Eq. 8 with every op lower-bounded by its evk streaming time
    // (Section 3.3's two simplifying assumptions).
    const double t_boot_s = bootstrap_evk_bytes(inst) / hbm_bytes_per_s;
    double t_mults_s = 0;
    for (int l = 1; l <= inst.usable_levels(); ++l) {
        t_mults_s += inst.evk_bytes(l) / hbm_bytes_per_s;
    }
    const double per_level_s =
        (t_boot_s + t_mults_s) / inst.usable_levels();
    return per_level_s * 2.0 / static_cast<double>(inst.n) * 1e9;
}

std::vector<SweepPoint>
fig2_sweep(double hbm_bytes_per_s)
{
    // Like the paper's Fig. 2, sweep the whole security range (~70-250
    // bits): for each (N, dnum), take the largest bootstrappable L at a
    // grid of lambda targets and report the achieved lambda.
    std::vector<SweepPoint> points;
    for (int log_n = 15; log_n <= 18; ++log_n) {
        const std::size_t n = 1ULL << log_n;
        const int max_dnum = max_dnum_for(n, 70.0);
        for (int dnum = 1; dnum <= max_dnum; ++dnum) {
            int last_level = -1;
            for (double target : {70.0, 80.0, 90.0, 100.0, 115.0, 128.0,
                                  145.0, 160.0, 190.0, 220.0, 250.0}) {
                const int level = max_level_for(n, dnum, target);
                if (level < 0 || level == last_level) continue;
                last_level = level;
                CkksInstance inst;
                inst.name = "N=2^" + std::to_string(log_n) +
                            " dnum=" + std::to_string(dnum);
                inst.n = n;
                inst.max_level = level;
                inst.dnum = dnum;
                if (inst.usable_levels() < 1) continue; // cannot bootstrap
                SweepPoint p;
                p.instance = inst;
                p.lambda = inst.lambda();
                p.tmult_a_slot_ns =
                    min_bound_tmult_ns(inst, hbm_bytes_per_s);
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

ComplexityBreakdown
hmult_complexity(const CkksInstance& inst)
{
    // Multiply counts of the Fig. 3a dataflow at the maximum level,
    // following the analysis of [48] as cited by the paper.
    const double n = static_cast<double>(inst.n);
    const double log_n = log2_exact(inst.n);
    const double l1 = inst.max_level + 1; // l + 1
    const double k = inst.num_special();
    const double dnum = inst.dnum;
    const double ext = k + l1; // k + l + 1

    const double butterfly = n / 2 * log_n; // mults per (i)NTT pass

    // iNTT: d2 decomposition (l+1 passes) + ModDown (2k passes).
    const double intt = (l1 + 2 * k) * butterfly;
    // NTT: ModUp extensions + ModDown recombination (2(l+1) passes).
    const double ntt = (dnum * ext - l1 + 2 * l1) * butterfly;
    // BConv: ModUp (l+1)(ext - alpha) + ModDown 2k(l+1) MAC-mults, plus
    // the per-source-prime scaling (part 1).
    const double alpha = k;
    const double bconv = (l1 * (ext - alpha) + 2 * k * l1 + l1 + 2 * k) * n;
    // Others: tensor product (4(l+1)), evk inner product
    // (2 dnum ext), SSA and rescale-type element-wise work.
    const double others = (4 * l1 + 2 * dnum * ext + 4 * ext) * n;

    const double total = intt + ntt + bconv + others;
    ComplexityBreakdown b;
    b.intt = intt / total;
    b.ntt = ntt / total;
    b.bconv = bconv / total;
    b.others = others / total;
    return b;
}

std::vector<ParallelismPoint>
parallelism_comparison(const CkksInstance& inst, int n_pe)
{
    std::vector<ParallelismPoint> out;
    for (int level = 0; level <= inst.max_level; ++level) {
        ParallelismPoint p;
        p.level = level;
        // rPLP: the key-switching working set holds (k + l + 1) residue
        // polynomials; PEs are statically grouped for the maximum-level
        // case (k + L + 1 groups), so at level l only (k + l + 1)
        // groups have work.
        const int groups_total = inst.num_special() + inst.max_level + 1;
        const int groups_busy = inst.num_special() + level + 1;
        p.rplp_utilization =
            static_cast<double>(groups_busy) / groups_total;
        // CLP: all N coefficients are always live; every PE holds
        // N / n_pe of them regardless of level.
        p.clp_utilization =
            inst.n >= static_cast<std::size_t>(n_pe) ? 1.0 : 0.0;
        out.push_back(p);
    }
    return out;
}

double
rplp_average_utilization(const CkksInstance& inst, int n_pe)
{
    const auto points = parallelism_comparison(inst, n_pe);
    double sum = 0;
    for (const auto& p : points) sum += p.rplp_utilization;
    return sum / static_cast<double>(points.size());
}

double
min_nttu(const CkksInstance& inst, double freq_hz, double hbm_bytes_per_s)
{
    // Eq. 10.
    const double n = static_cast<double>(inst.n);
    const double log_n = log2_exact(inst.n);
    const double ext = inst.num_special() + inst.max_level + 1;
    const double butterflies =
        (inst.dnum + 2) * ext * 0.5 * n * log_n / freq_hz;
    const double evk_time =
        2.0 * inst.dnum * ext * n * 8.0 / hbm_bytes_per_s;
    return butterflies / evk_time;
}

} // namespace bts::hw
