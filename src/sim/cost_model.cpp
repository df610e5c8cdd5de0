#include "sim/cost_model.h"

#include <algorithm>

#include "common/check.h"

namespace bts::sim {

CostModel::CostModel(const BtsConfig& hw, const hw::CkksInstance& inst)
    : hw_(hw), inst_(inst),
      levels_(static_cast<std::size_t>(std::max(0, inst.max_level + 1)))
{
    table_.reserve(kHeOpKindCount * levels_);
    for (int kind = 0; kind < kHeOpKindCount; ++kind) {
        for (std::size_t level = 0; level < levels_; ++level) {
            table_.push_back(price(static_cast<HeOpKind>(kind),
                                   static_cast<int>(level)));
        }
    }
}

double
CostModel::ntt_time(double passes) const
{
    return passes * hw_.epoch_seconds(inst_.n);
}

double
CostModel::bconv_time(double macs) const
{
    return macs / (static_cast<double>(hw_.n_pe) * hw_.l_sub * hw_.freq_hz);
}

double
CostModel::elem_time(double mults) const
{
    return mults / (static_cast<double>(hw_.n_pe) * hw_.elem_freq_hz);
}

double
CostModel::keyswitch_ntt_passes(int level) const
{
    const double l1 = level + 1;
    const double k = inst_.num_special();
    const double dnum_l = inst_.num_slices(level);
    const double ext = k + l1;
    // Fig. 3a: iNTT the d2 slices (l+1), NTT the ModUp extensions
    // (dnum_l * ext - (l+1)), iNTT the two P-parts for ModDown (2k),
    // NTT the two lifted corrections (2(l+1)).
    return l1 + (dnum_l * ext - l1) + 2 * k + 2 * l1;
}

double
CostModel::keyswitch_bconv_macs(int level) const
{
    const double n = static_cast<double>(inst_.n);
    const double l1 = level + 1;
    const double k = inst_.num_special();
    const double alpha = inst_.num_special(); // slice width == k
    const double ext = k + l1;
    // ModUp: each source prime contributes to (ext - alpha) targets;
    // ModDown: k source primes to (l+1) targets, twice (b and a).
    return (l1 * (ext - alpha) + 2 * k * l1) * n;
}

void
CostModel::finalize(OpCost& c) const
{
    // Pipelined execution: the op's compute latency is bounded by its
    // busiest resource; BConv overlaps the producing iNTT (Eq. 11) when
    // the feature is on, otherwise it serializes.
    const double bconv_exposed =
        hw_.overlap_bconv_intt ? std::max(0.0, c.bconv_s - c.ntt_s * 0.75)
                               : c.bconv_s;
    const double pipeline_fill = 3.0 * hw_.epoch_seconds(inst_.n);
    c.compute_s = std::max({c.ntt_s + bconv_exposed, c.elem_s}) +
                  pipeline_fill;
    // PE-PE NoC time for explicit permutations (automorphism).
    const double noc_s = c.noc_bytes / hw_.noc_bisection_bytes_per_s;
    c.compute_s += noc_s;
}

OpCost
CostModel::price(HeOpKind kind, int level) const
{
    const double n = static_cast<double>(inst_.n);
    const double l1 = level + 1;
    const double k = inst_.num_special();
    const double dnum_l = inst_.num_slices(level);
    const double ext = k + l1;
    const double ct = inst_.ct_bytes(level);

    OpCost c;
    switch (kind) {
    case HeOpKind::kHMult:
        c.ntt_s = ntt_time(keyswitch_ntt_passes(level));
        c.bconv_s = bconv_time(keyswitch_bconv_macs(level));
        // Tensor (4(l+1)N), evk inner product (2 dnum_l ext N), SSA-adds.
        c.elem_s = elem_time((4 * l1 + 2 * dnum_l * ext + 2 * ext) * n);
        c.evk_bytes = inst_.evk_bytes(level);
        c.ct_bytes = 2 * ct; // two ciphertext operands
        break;
    case HeOpKind::kHRot:
    case HeOpKind::kConj:
        c.ntt_s = ntt_time(keyswitch_ntt_passes(level));
        c.bconv_s = bconv_time(keyswitch_bconv_macs(level));
        c.elem_s = elem_time((2 * dnum_l * ext + 2 * ext) * n);
        c.evk_bytes = inst_.evk_bytes(level);
        c.ct_bytes = ct;
        // Automorphism permutation: both polynomials cross the PE-PE
        // NoC once (Section 5.5).
        c.noc_bytes = ct;
        break;
    case HeOpKind::kPMult:
        c.elem_s = elem_time(2 * l1 * n);
        c.ct_bytes = ct;
        c.pt_bytes = ct / 2; // one plaintext polynomial
        break;
    case HeOpKind::kPAdd:
        c.elem_s = elem_time(l1 * n) * 0.5; // adds are cheaper
        c.ct_bytes = ct;
        c.pt_bytes = ct / 2;
        break;
    case HeOpKind::kHAdd:
        c.elem_s = elem_time(2 * l1 * n) * 0.5;
        c.ct_bytes = 2 * ct;
        break;
    case HeOpKind::kHRescale:
        // iNTT of the top residue, per-prime lift + NTT back, then the
        // element-wise subtract/scale — for both polynomials.
        c.ntt_s = ntt_time(2.0 * (1.0 + level));
        c.elem_s = elem_time(2.0 * level * n);
        c.ct_bytes = ct;
        break;
    case HeOpKind::kCMult:
        c.elem_s = elem_time(2 * l1 * n);
        c.ct_bytes = ct;
        break;
    case HeOpKind::kCAdd:
        c.elem_s = elem_time(l1 * n) * 0.5;
        c.ct_bytes = ct;
        break;
    case HeOpKind::kModRaise:
        // Lift the level-0 pair onto the full base: 2 iNTT passes at
        // level 0 + 2(L+1) NTT passes + the element-wise remapping.
        c.ntt_s = ntt_time(2.0 + 2.0 * (inst_.max_level + 1));
        c.elem_s = elem_time(2.0 * (inst_.max_level + 1) * n);
        c.ct_bytes = inst_.ct_bytes(0);
        break;
    }
    finalize(c);
    return c;
}

} // namespace bts::sim
