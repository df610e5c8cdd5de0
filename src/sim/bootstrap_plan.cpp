#include "sim/bootstrap_plan.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/bit_ops.h"

namespace bts::sim {

using hw::CkksInstance;

namespace {

/** Radix bit-split of the 3-stage FFT decomposition. */
void
radix_bits(const CkksInstance& inst, int out[3])
{
    const int log_slots = log2_exact(inst.slots());
    out[0] = (log_slots + 2) / 3;
    out[1] = (log_slots + 1) / 3;
    out[2] = log_slots / 3;
}

/** One decomposed linear-transform stage (CtS or StC). */
int
append_lt_stage(TraceBuilder& b, const CkksInstance& /*inst*/, int ct,
                int level, int radix, int rot_seed)
{
    // BSGS over the stage's `radix` diagonals: ~sqrt(radix) baby
    // rotations stay LIVE throughout the stage (this is the ct working
    // set that pressures the scratchpad in Fig. 7a/Fig. 10), diagonal
    // products and partial sums accumulate in place, and each giant
    // step adds one more rotation.
    const int babies = static_cast<int>(std::ceil(std::sqrt(radix)));
    const int giants = (radix + babies - 1) / babies;
    std::vector<int> baby_ids;
    baby_ids.reserve(static_cast<std::size_t>(babies));
    for (int r = 0; r < babies; ++r) {
        baby_ids.push_back(
            b.add(HeOpKind::kHRot, level, {ct}, rot_seed + r + 1, true));
    }
    const int prod = b.fresh_id();
    int acc = -1;
    for (int g = 0; g < giants; ++g) {
        for (int d = 0; d < babies && g * babies + d < radix; ++d) {
            b.add_into(prod, HeOpKind::kPMult, level, {baby_ids[d]}, 0,
                       true);
            if (acc < 0) {
                acc = b.add(HeOpKind::kHAdd, level, {prod, prod}, 0, true);
            } else {
                b.add_into(acc, HeOpKind::kHAdd, level, {acc, prod}, 0,
                           true);
            }
        }
        if (g > 0) {
            b.add_into(acc, HeOpKind::kHRot, level, {acc},
                       rot_seed + 50 + g, true);
        }
    }
    return b.add_into(acc, HeOpKind::kHRescale, level, {acc}, 0, true);
}

/** EvalMod: PS-BSGS Chebyshev evaluation spread over its level span. */
int
append_eval_mod(TraceBuilder& b, const CkksInstance& inst, int ct,
                int top_level, int levels)
{
    constexpr int kHMults = 15; // babies + giants + recombination
    // The Chebyshev power basis keeps ~8 T_j ciphertexts live.
    std::array<int, 8> basis{};
    for (int& t : basis) t = b.fresh_id();
    for (int m = 0; m < kHMults; ++m) {
        const int lvl =
            std::max(1, top_level - (m * levels) / kHMults);
        const int lhs = basis[m % basis.size()];
        const int rhs = basis[(m + 1) % basis.size()];
        b.add_into(ct, HeOpKind::kHMult, lvl, {lhs, rhs}, 0, true);
        b.add_into(ct, HeOpKind::kHRescale, lvl, {ct}, 0, true);
        if (m % 3 == 0) {
            b.add_into(ct, HeOpKind::kCMult, lvl, {ct}, 0, true);
            b.add_into(ct, HeOpKind::kCAdd, lvl, {ct}, 0, true);
        }
        b.add_into(basis[m % basis.size()], HeOpKind::kHAdd, lvl,
                   {ct, ct}, 0, true);
    }
    (void)inst;
    return ct;
}

} // namespace

int
append_bootstrap(TraceBuilder& b, const CkksInstance& inst, int ct_id)
{
    const int l_top = inst.max_level;
    int bits[3];
    radix_bits(inst, bits);

    // 1. ModRaise.
    int ct = b.add(HeOpKind::kModRaise, l_top, {ct_id}, 0, true);

    // 2. CoeffToSlot: three decomposed stages.
    for (int s = 0; s < 3; ++s) {
        ct = append_lt_stage(b, inst, ct, l_top - s, 1 << bits[s],
                             s * 100);
    }

    // 3. Real/imaginary split.
    const int conj = b.add(HeOpKind::kConj, l_top - 3, {ct}, 0, true);
    const int u_re = b.add(HeOpKind::kHAdd, l_top - 3, {ct, conj}, 0, true);
    const int u_im = b.add(HeOpKind::kHAdd, l_top - 3, {ct, conj}, 0, true);

    // 4. EvalMod on both components.
    const int em_levels = inst.boot_levels - 6;
    const int em_top = l_top - 3;
    const int v_re = append_eval_mod(b, inst, u_re, em_top, em_levels);
    const int v_im = append_eval_mod(b, inst, u_im, em_top, em_levels);
    int merged = b.add(HeOpKind::kHAdd, em_top - em_levels,
                       {v_re, v_im}, 0, true);

    // 5. SlotToCoeff: three stages at the bottom of the budget.
    const int stc_top = l_top - inst.boot_levels + 3;
    for (int s = 0; s < 3; ++s) {
        merged = append_lt_stage(b, inst, merged, stc_top - s,
                                 1 << bits[s], 300 + s * 100);
    }
    b.trace().bootstrap_count += 1;
    return merged;
}

} // namespace bts::sim
