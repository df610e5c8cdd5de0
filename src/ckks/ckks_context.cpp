#include "ckks/ckks_context.h"

#include <cmath>

#include "common/bit_ops.h"
#include "common/check.h"
#include "math/mod_arith.h"
#include "math/prime_gen.h"

namespace bts {

CkksContext::CkksContext(const CkksParams& params)
    : params_(params),
      alpha_(static_cast<int>(
          ceil_div(static_cast<u64>(params.max_level + 1),
                   static_cast<u64>(params.dnum)))),
      delta_(std::ldexp(1.0, params.scale_bits))
{
    BTS_CHECK(is_power_of_two(params.n), "N must be a power of two");
    BTS_CHECK(params.n >= 8, "N too small");
    BTS_CHECK(params.max_level >= 0, "L must be nonnegative");
    BTS_CHECK(params.dnum >= 1 && params.dnum <= params.max_level + 1,
              "dnum must lie in [1, L+1]");

    const u64 two_n = 2 * static_cast<u64>(params.n);

    // Base prime q_0, then L scale primes, then alpha special primes.
    // All must be distinct and == 1 mod 2N.
    q_primes_ = generate_ntt_primes(params.q0_bits, two_n, 1);
    if (params.max_level > 0) {
        auto scale = generate_ntt_primes(params.scale_bits, two_n,
                                         params.max_level, q_primes_);
        q_primes_.insert(q_primes_.end(), scale.begin(), scale.end());
    }
    p_primes_ = generate_ntt_primes(params.special_bits, two_n, alpha_,
                                    q_primes_);

    full_primes_ = q_primes_;
    full_primes_.insert(full_primes_.end(), p_primes_.begin(),
                        p_primes_.end());

    // NTT tables for every prime.
    for (u64 p : full_primes_) {
        ntt_tables_.emplace(p, std::make_unique<NttTables>(params.n, p));
    }

    // Per-level NTT-table pointer chains (prefixes of the q chain).
    level_tables_.resize(params.max_level + 1);
    for (int l = 0; l <= params.max_level; ++l) {
        for (int i = 0; i <= l; ++i) {
            level_tables_[l].push_back(ntt_tables_.at(q_primes_[i]).get());
        }
    }

    // Level bases (prefixes of the q chain).
    q_bases_.reserve(params.max_level + 1);
    for (int l = 0; l <= params.max_level; ++l) {
        q_bases_.emplace_back(std::vector<u64>(q_primes_.begin(),
                                               q_primes_.begin() + l + 1));
    }
    // Rescale constants: dropping the prime at chain index `top` needs
    // [q_top]_{q_i} and a Shoup context for its inverse on every
    // remaining limb i < top.
    rescale_q_mod_.resize(params.max_level + 1);
    rescale_inv_.resize(params.max_level + 1);
    for (int top = 1; top <= params.max_level; ++top) {
        rescale_q_mod_[top].resize(top);
        rescale_inv_[top].resize(top);
        for (int i = 0; i < top; ++i) {
            const u64 qi = q_primes_[i];
            const u64 q_top_mod = q_primes_[top] % qi;
            rescale_q_mod_[top][i] = q_top_mod;
            rescale_inv_[top][i] = ShoupMul(inv_mod(q_top_mod, qi), qi);
        }
    }

    p_base_ = RnsBase(p_primes_);
    p_inv_shoup_.reserve(q_primes_.size());
    p_shoup_.reserve(q_primes_.size());
    q_barrett_.reserve(q_primes_.size());
    for (const u64 qi : q_primes_) {
        p_inv_shoup_.push_back(ShoupMul::from_reduced(p_inv_mod(qi), qi));
        p_shoup_.push_back(ShoupMul::from_reduced(p_mod(qi), qi));
        q_barrett_.emplace_back(qi);
    }

    log_pq_bits_ = q_bases_.back().product().bit_length() +
                   p_base_.product().bit_length();

    // P >= Q_j for every modulus factor is required by generalized
    // key-switching (Section 2.5); with equal widths and k = alpha primes
    // this holds by construction, but verify.
    for (int j = 0; j < params.dnum; ++j) {
        auto [b, e] = slice_range(j, params.max_level);
        if (b >= e) continue;
        const BigUInt qj = BigUInt::product(std::vector<u64>(
            q_primes_.begin() + b, q_primes_.begin() + e));
        BTS_CHECK(p_base_.product() >= qj,
                  "special-prime product P must dominate every Q_j");
    }
}

std::vector<u64>
CkksContext::level_primes(int level) const
{
    BTS_CHECK(level >= 0 && level <= params_.max_level, "level out of range");
    return std::vector<u64>(q_primes_.begin(),
                            q_primes_.begin() + level + 1);
}

std::vector<u64>
CkksContext::extended_primes(int level) const
{
    auto out = level_primes(level);
    out.insert(out.end(), p_primes_.begin(), p_primes_.end());
    return out;
}

const RnsBase&
CkksContext::q_base(int level) const
{
    BTS_CHECK(level >= 0 && level <= params_.max_level, "level out of range");
    return q_bases_[level];
}

const NttTables&
CkksContext::tables(u64 prime) const
{
    const auto it = ntt_tables_.find(prime);
    BTS_CHECK(it != ntt_tables_.end(), "unknown prime");
    return *it->second;
}

std::vector<const NttTables*>
CkksContext::tables_for(const std::vector<u64>& primes) const
{
    std::vector<const NttTables*> out;
    out.reserve(primes.size());
    for (u64 p : primes) out.push_back(&tables(p));
    return out;
}

std::vector<const NttTables*>
CkksContext::tables_for(const RnsPoly& poly) const
{
    return tables_for(poly.primes());
}

const std::vector<const NttTables*>&
CkksContext::level_tables(int level) const
{
    BTS_CHECK(level >= 0 && level <= params_.max_level, "level out of range");
    return level_tables_[level];
}

std::pair<int, int>
CkksContext::slice_range(int slice, int level) const
{
    const int begin = slice * alpha_;
    const int end = std::min(level + 1, (slice + 1) * alpha_);
    return {begin, std::max(begin, end)};
}

int
CkksContext::num_slices(int level) const
{
    return static_cast<int>(ceil_div(static_cast<u64>(level + 1),
                                     static_cast<u64>(alpha_)));
}

u64
CkksContext::galois_exp_for_rotation(int r) const
{
    const u64 two_n = 2 * static_cast<u64>(n());
    const u64 order = n() / 2; // order of 5 in Z_2N^* / {+-1}
    const u64 amount =
        ((static_cast<i64>(r) % static_cast<i64>(order)) + order) % order;
    return pow_mod(5, amount, two_n);
}

u64
CkksContext::galois_exp_conjugation() const
{
    return 2 * static_cast<u64>(n()) - 1;
}

u64
CkksContext::rescale_q_mod(int top, int i) const
{
    BTS_CHECK(top >= 1 && top <= params_.max_level && i >= 0 && i < top,
              "rescale constant index out of range");
    return rescale_q_mod_[top][i];
}

const ShoupMul&
CkksContext::rescale_inv(int top, int i) const
{
    BTS_CHECK(top >= 1 && top <= params_.max_level && i >= 0 && i < top,
              "rescale constant index out of range");
    return rescale_inv_[top][i];
}

u64
CkksContext::p_mod(u64 q) const
{
    return p_base_.product_mod(q);
}

u64
CkksContext::p_inv_mod(u64 q) const
{
    return inv_mod(p_mod(q), q);
}

const BaseConverter&
CkksContext::converter(const std::vector<u64>& source,
                       const std::vector<u64>& target) const
{
    const auto key = std::make_pair(source, target);
    // Map entries are pointer-stable, so the reference stays valid
    // after the lock drops; the lock only serializes lazy insertion.
    std::lock_guard<std::mutex> lock(converters_mutex_);
    auto it = converters_.find(key);
    if (it == converters_.end()) {
        it = converters_
                 .emplace(key, std::make_unique<BaseConverter>(
                                   RnsBase(source), RnsBase(target)))
                 .first;
    }
    return *it->second;
}

} // namespace bts
