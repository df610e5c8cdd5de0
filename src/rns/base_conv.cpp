#include "rns/base_conv.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "math/mod_arith.h"
#include "runtime/telemetry/trace.h"

namespace bts {

namespace {

/**
 * The MMAU for W adjacent coefficients: out[w] = [sum_j y_j[w] *
 * hat[j]]_p over @p count source rows @p n words apart, accumulated
 * unreduced in 128 bits and reduced once (mid-sum only past the term
 * budget @p terms). @p out may hold a running partial sum (below p)
 * to continue; with W = 2 the two add chains run side by side.
 */
template <std::size_t W>
inline void
mmau(const u64* y, std::size_t n, const u64* hat, std::size_t count,
     std::size_t terms, const Barrett& barrett, u64* out, bool accumulate)
{
    u128 acc[W];
    for (std::size_t w = 0; w < W; ++w) acc[w] = accumulate ? out[w] : 0;
    std::size_t room = terms;
    for (std::size_t j = 0; j < count; ++j, y += n) {
        if (room == 0) {
            for (std::size_t w = 0; w < W; ++w) acc[w] = barrett.reduce(acc[w]);
            room = terms;
        }
        for (std::size_t w = 0; w < W; ++w) {
            acc[w] += static_cast<u128>(y[w]) * hat[j];
        }
        --room;
    }
    for (std::size_t w = 0; w < W; ++w) out[w] = barrett.reduce(acc[w]);
}

} // namespace

BaseConverter::BaseConverter(const RnsBase& source, const RnsBase& target)
    : source_(source), target_(target)
{
    for (u64 p : target.primes()) {
        for (u64 q : source.primes()) {
            BTS_CHECK(p != q, "source/target bases must be disjoint");
        }
    }
    hat_inv_shoup_.resize(source.size());
    for (std::size_t j = 0; j < source.size(); ++j) {
        hat_inv_shoup_[j] = ShoupMul(source.hat_inv(j), source.prime(j));
    }
    // Every Part-2 product is y_j * [q_hat_j]_{p_i} with y_j < q_j:
    // below max_j q_j * p_i.
    terms_ = lazy_sum_terms(
        *std::max_element(source.primes().begin(), source.primes().end()));
    hat_mod_.assign(target.size(), std::vector<u64>(source.size()));
    target_barrett_.resize(target.size());
    for (std::size_t i = 0; i < target.size(); ++i) {
        target_barrett_[i] = Barrett(target.prime(i));
        for (std::size_t j = 0; j < source.size(); ++j) {
            hat_mod_[i][j] = source.hat_mod(j, target.prime(i));
        }
    }
}

void
BaseConverter::scale_input(const RnsPoly& input, u64* scaled) const
{
    BTS_CHECK(input.domain() == Domain::kCoeff,
              "BConv operates in the coefficient domain");
    BTS_CHECK(input.num_primes() == source_.size(),
              "input must live exactly on the source base");
    for (std::size_t j = 0; j < source_.size(); ++j) {
        BTS_CHECK(input.prime(j) == source_.prime(j), "prime mismatch");
    }
    const std::size_t n = input.degree();
    parallel_for_2d(
        source_.size(), n,
        [&](std::size_t j, std::size_t c0, std::size_t c1) {
            const u64 q = source_.prime(j);
            const ShoupMul& s = hat_inv_shoup_[j];
            const u64* src = input.component(j).data();
            u64* dst = scaled + j * n;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = s.mul(src[c], q);
            }
        });
}

RnsPoly
BaseConverter::convert(const RnsPoly& input) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kKernel, "bconv");
    trace_span.set_arg(static_cast<i64>(source_.size()));
    const std::size_t n = input.degree();
    const std::size_t src_count = source_.size();
    Workspace scaled(src_count * n);
    scale_input(input, scaled.data());
    const u64* const scaled_base = scaled.data();

    // Part 2 (MMAU): out_i = [ sum_j y_j * q_hat_j ]_{p_i}, accumulated
    // in 128 bits and reduced once per output residue, two coefficients
    // at a time. Each coefficient's sum is self-contained, so the 2-D
    // tiling cannot change the result. Part 2 writes every coefficient
    // of every target limb: the output can skip the zero-fill.
    RnsPoly out(n, target_.primes(), Domain::kCoeff, RnsPoly::Uninit{});
    parallel_for_2d(
        target_.size(), n,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const Barrett& barrett = target_barrett_[i];
            const u64* hat = hat_mod_[i].data();
            u64* dst = out.component(i).data();
            std::size_t c = c0;
            for (; c + 2 <= c1; c += 2) {
                mmau<2>(scaled_base + c, n, hat, src_count, terms_,
                        barrett, dst + c, false);
            }
            if (c < c1) {
                mmau<1>(scaled_base + c, n, hat, src_count, terms_,
                        barrett, dst + c, false);
            }
        });
    return out;
}

RnsPoly
BaseConverter::convert_grouped(const RnsPoly& input, int l_sub) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kKernel, "bconv.grouped");
    trace_span.set_arg(static_cast<i64>(source_.size()));
    BTS_CHECK(l_sub >= 1, "l_sub must be positive");
    const std::size_t n = input.degree();
    const std::size_t src_count = source_.size();
    Workspace scaled(src_count * n);
    scale_input(input, scaled.data());
    const u64* const scaled_base = scaled.data();

    RnsPoly out(n, target_.primes(), Domain::kCoeff);
    // Outer sum of Eq. 11: process l_sub source primes at a time,
    // accumulating into the running partial sums (the scratchpad-resident
    // partial sums of the MMAU).
    for (std::size_t j0 = 0; j0 < src_count;
         j0 += static_cast<std::size_t>(l_sub)) {
        const std::size_t j1 =
            std::min(src_count, j0 + static_cast<std::size_t>(l_sub));
        // Target limbs and coefficients are independent within a group;
        // the group loop itself stays sequential (partial sums
        // accumulate in order).
        parallel_for_2d(
            target_.size(), n,
            [&](std::size_t i, std::size_t c0, std::size_t c1) {
                u64* dst = out.component(i).data();
                for (std::size_t c = c0; c < c1; ++c) {
                    mmau<1>(scaled_base + j0 * n + c, n,
                            hat_mod_[i].data() + j0, j1 - j0, terms_,
                            target_barrett_[i], dst + c, true);
                }
            });
    }
    return out;
}

} // namespace bts
