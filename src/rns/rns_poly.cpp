#include "rns/rns_poly.h"

#include <algorithm>
#include <array>

#include "common/bit_ops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "math/mod_arith.h"
#include "runtime/telemetry/trace.h"

namespace bts {

RnsPoly::RnsPoly(std::size_t n, std::vector<u64> primes, Domain domain)
    : RnsPoly(n, std::move(primes), domain, Uninit{})
{
    std::fill(data_.begin(), data_.end(), 0);
}

RnsPoly::RnsPoly(std::size_t n, std::vector<u64> primes, Domain domain,
                 Uninit)
    : n_(n),
      domain_(domain),
      primes_(std::move(primes)),
      data_(acquire_buffer(primes_.size() * n))
{
    BTS_CHECK(is_power_of_two(n), "polynomial degree must be a power of two");
    data_.resize(primes_.size() * n_); // no zero-fill (UninitAllocator)
}

RnsPoly::~RnsPoly()
{
    if (data_.capacity() != 0) release_buffer(std::move(data_));
}

RnsPoly::RnsPoly(const RnsPoly& other)
    : n_(other.n_),
      domain_(other.domain_),
      primes_(other.primes_),
      data_(acquire_buffer(other.data_.size()))
{
    data_.assign(other.data_.begin(), other.data_.end());
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& other)
{
    if (this == &other) return *this;
    n_ = other.n_;
    domain_ = other.domain_;
    primes_ = other.primes_;
    if (data_.capacity() < other.data_.size()) {
        release_buffer(std::move(data_));
        data_ = acquire_buffer(other.data_.size());
    }
    data_.assign(other.data_.begin(), other.data_.end());
    return *this;
}

RnsPoly&
RnsPoly::operator=(RnsPoly&& other) noexcept
{
    if (this == &other) return *this;
    if (data_.capacity() != 0) release_buffer(std::move(data_));
    n_ = other.n_;
    domain_ = other.domain_;
    primes_ = std::move(other.primes_);
    data_ = std::move(other.data_);
    return *this;
}

void
RnsPoly::push_component(u64 prime, ConstSpan values)
{
    BTS_CHECK(values.size() == n_, "component size mismatch");
    // Growing may reallocate; inserting from our own rows would read
    // freed memory mid-copy. The old by-value API made self-aliasing
    // impossible — keep that safety as an explicit check.
    BTS_CHECK(values.data() + values.size() <= data_.data() ||
                  values.data() >= data_.data() + data_.size(),
              "push_component source must not alias this polynomial");
    primes_.push_back(prime);
    data_.insert(data_.end(), values.begin(), values.end());
}

void
RnsPoly::pop_component()
{
    BTS_CHECK(!primes_.empty(), "pop on empty polynomial");
    primes_.pop_back();
    data_.resize(primes_.size() * n_);
}

void
RnsPoly::truncate(std::size_t count)
{
    BTS_CHECK(count <= primes_.size(), "truncate beyond size");
    primes_.resize(count);
    data_.resize(count * n_);
}

RnsPoly
RnsPoly::prefix(std::size_t count) const
{
    BTS_CHECK(count <= primes_.size(), "prefix beyond size");
    RnsPoly out(n_, {primes_.begin(), primes_.begin() + count}, domain_,
                Uninit{});
    std::copy(data_.begin(), data_.begin() + count * n_, out.data_.begin());
    return out;
}

namespace {

void
check_compatible(const RnsPoly& a, const RnsPoly& b)
{
    BTS_CHECK(a.degree() == b.degree(), "degree mismatch");
    BTS_CHECK(a.domain() == b.domain(), "domain mismatch");
    BTS_CHECK(a.num_primes() <= b.num_primes(), "operand has fewer primes");
    for (std::size_t i = 0; i < a.num_primes(); ++i) {
        BTS_CHECK(a.prime(i) == b.prime(i), "prime chain mismatch");
    }
}

/**
 * Per-limb reducer staging for the element-wise hot paths: inline
 * storage for every realistic chain length (evk chains top out well
 * below 64 limbs), heap fallback beyond it — constant setup stays off
 * both the tile bodies and, normally, the allocator.
 */
template <typename Reducer>
class ReducerArray
{
  public:
    explicit ReducerArray(std::size_t count)
    {
        if (count > inline_.size()) {
            heap_.resize(count);
            ptr_ = heap_.data();
        } else {
            ptr_ = inline_.data();
        }
    }

    Reducer& operator[](std::size_t i) { return ptr_[i]; }
    const Reducer& operator[](std::size_t i) const { return ptr_[i]; }

  private:
    std::array<Reducer, 64> inline_;
    std::vector<Reducer> heap_;
    Reducer* ptr_;
};

} // namespace

void
RnsPoly::add_inplace(const RnsPoly& other)
{
    check_compatible(*this, other);
    parallel_for_2d(
        num_primes(), n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const u64 q = primes_[i];
            const u64* src = other.component(i).data();
            u64* dst = data_.data() + i * n_;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = add_mod(dst[c], src[c], q);
            }
        });
}

void
RnsPoly::sub_inplace(const RnsPoly& other)
{
    check_compatible(*this, other);
    parallel_for_2d(
        num_primes(), n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const u64 q = primes_[i];
            const u64* src = other.component(i).data();
            u64* dst = data_.data() + i * n_;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = sub_mod(dst[c], src[c], q);
            }
        });
}

void
RnsPoly::negate_inplace()
{
    parallel_for_2d(
        num_primes(), n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const u64 q = primes_[i];
            u64* dst = data_.data() + i * n_;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = dst[c] == 0 ? 0 : q - dst[c];
            }
        });
}

void
RnsPoly::mul_inplace(const RnsPoly& other)
{
    check_compatible(*this, other);
    BTS_CHECK(domain_ == Domain::kNtt,
              "element-wise polynomial product requires NTT domain");
    // One Barrett reducer per limb, shared by all that limb's blocks
    // (the per-block constant setup must stay off the inner loop).
    const std::size_t count = num_primes();
    ReducerArray<Barrett> barrett(count);
    for (std::size_t i = 0; i < count; ++i) barrett[i] = Barrett(primes_[i]);
    parallel_for_2d(
        count, n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const Barrett& b = barrett[i];
            const u64* src = other.component(i).data();
            u64* dst = data_.data() + i * n_;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = b.mul(dst[c], src[c]);
            }
        });
}

void
RnsPoly::mul_scalar_inplace(const std::vector<u64>& scalars)
{
    BTS_CHECK(scalars.size() >= num_primes(), "scalar count mismatch");
    const std::size_t count = num_primes();
    ReducerArray<ShoupMul> shoup(count);
    for (std::size_t i = 0; i < count; ++i) {
        shoup[i] = ShoupMul(scalars[i], primes_[i]);
    }
    parallel_for_2d(
        count, n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const ShoupMul& s = shoup[i];
            const u64 q = primes_[i];
            u64* dst = data_.data() + i * n_;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = s.mul(dst[c], q);
            }
        });
}

void
RnsPoly::sub_mul_scalar_inplace(const RnsPoly& other,
                                const std::vector<u64>& scalars,
                                Residues form)
{
    BTS_CHECK(scalars.size() >= num_primes(), "scalar count mismatch");
    const std::size_t count = num_primes();
    ReducerArray<ShoupMul> shoup(count);
    for (std::size_t i = 0; i < count; ++i) {
        shoup[i] = ShoupMul(scalars[i], primes_[i]);
    }
    sub_mul_scalar_inplace(other, &shoup[0], form);
}

void
RnsPoly::sub_mul_scalar_inplace(const RnsPoly& other,
                                const ShoupMul* scalars, Residues form)
{
    check_compatible(*this, other);
    const bool lazy = form == Residues::kLazy2q;
    parallel_for_2d(
        num_primes(), n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const ShoupMul& s = scalars[i];
            const u64 q = primes_[i];
            const u64 two_q = 2 * q;
            const u64* src = other.component(i).data();
            u64* dst = data_.data() + i * n_;
            if (lazy) {
                // dst - src + 2q is in (0, 3q) for canonical dst and a
                // [0, 2q) source; the full Shoup product is exact for
                // any 64-bit input, so one fused op subtracts,
                // canonicalizes, and scales.
                for (std::size_t c = c0; c < c1; ++c) {
                    dst[c] = s.mul(sub_lazy_2q(dst[c], src[c], two_q), q);
                }
            } else {
                for (std::size_t c = c0; c < c1; ++c) {
                    dst[c] = s.mul(sub_mod(dst[c], src[c], q), q);
                }
            }
        });
}

void
RnsPoly::add_mul_scalar_inplace(const RnsPoly& other,
                                const std::vector<u64>& scalars)
{
    check_compatible(*this, other);
    BTS_CHECK(scalars.size() >= num_primes(), "scalar count mismatch");
    const std::size_t count = num_primes();
    ReducerArray<ShoupMul> shoup(count);
    for (std::size_t i = 0; i < count; ++i) {
        shoup[i] = ShoupMul(scalars[i], primes_[i]);
    }
    parallel_for_2d(
        count, n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const ShoupMul& s = shoup[i];
            const u64 q = primes_[i];
            const u64* src = other.component(i).data();
            u64* dst = data_.data() + i * n_;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = add_mod(dst[c], s.mul(src[c], q), q);
            }
        });
}

void
RnsPoly::to_ntt(const std::vector<const NttTables*>& tables)
{
    BTS_TRACE_SPAN_VAR(trace_span, kKernel, "ntt.fwd");
    trace_span.set_arg(static_cast<i64>(num_primes()));
    BTS_CHECK(domain_ == Domain::kCoeff, "already in NTT domain");
    BTS_CHECK(tables.size() >= num_primes(), "NTT table count mismatch");
    for (std::size_t i = 0; i < num_primes(); ++i) {
        BTS_ASSERT(tables[i]->modulus() == primes_[i],
                   "table prime mismatch");
    }
    ntt_forward_batch(tables, data_.data(), num_primes(), n_);
    domain_ = Domain::kNtt;
}

void
RnsPoly::to_ntt_lazy(const std::vector<const NttTables*>& tables)
{
    BTS_TRACE_SPAN_VAR(trace_span, kKernel, "ntt.fwd_lazy");
    trace_span.set_arg(static_cast<i64>(num_primes()));
    BTS_CHECK(domain_ == Domain::kCoeff, "already in NTT domain");
    BTS_CHECK(tables.size() >= num_primes(), "NTT table count mismatch");
    for (std::size_t i = 0; i < num_primes(); ++i) {
        BTS_ASSERT(tables[i]->modulus() == primes_[i],
                   "table prime mismatch");
    }
    ntt_forward_batch_lazy(tables, data_.data(), num_primes(), n_);
    domain_ = Domain::kNtt;
}

void
RnsPoly::to_coeff(const std::vector<const NttTables*>& tables)
{
    BTS_TRACE_SPAN_VAR(trace_span, kKernel, "ntt.inv");
    trace_span.set_arg(static_cast<i64>(num_primes()));
    BTS_CHECK(domain_ == Domain::kNtt, "already in coefficient domain");
    BTS_CHECK(tables.size() >= num_primes(), "NTT table count mismatch");
    for (std::size_t i = 0; i < num_primes(); ++i) {
        BTS_ASSERT(tables[i]->modulus() == primes_[i],
                   "table prime mismatch");
    }
    ntt_inverse_batch(tables, data_.data(), num_primes(), n_);
    domain_ = Domain::kCoeff;
}

RnsPoly
RnsPoly::automorphism(u64 galois_exp) const
{
    BTS_CHECK(domain_ == Domain::kCoeff,
              "automorphism implemented in coefficient domain");
    BTS_CHECK((galois_exp & 1) == 1, "Galois exponent must be odd");
    const u64 two_n = 2 * static_cast<u64>(n_);
    RnsPoly out(n_, primes_, Domain::kCoeff, Uninit{});
    // The index map j -> j*galois_exp mod 2N is a bijection on odd
    // exponents, so source blocks write disjoint target sets and the
    // 2-D tiling stays race-free.
    parallel_for_2d(
        num_primes(), n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const u64 q = primes_[i];
            const u64* src = data_.data() + i * n_;
            u64* dst = out.data_.data() + i * n_;
            for (std::size_t j = c0; j < c1; ++j) {
                const u64 target =
                    (static_cast<u128>(j) * galois_exp) % two_n;
                if (target < n_) {
                    dst[target] = src[j];
                } else {
                    const u64 v = src[j];
                    dst[target - n_] = v == 0 ? 0 : q - v;
                }
            }
        });
    return out;
}

RnsPoly
RnsPoly::automorphism_ntt(const std::vector<u32>& index) const
{
    BTS_CHECK(domain_ == Domain::kNtt, "automorphism_ntt expects NTT domain");
    BTS_CHECK(index.size() == n_, "automorphism index map size mismatch");
    RnsPoly out(n_, primes_, Domain::kNtt, Uninit{});
    parallel_for_2d(
        num_primes(), n_,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const u64* src = data_.data() + i * n_;
            u64* dst = out.data_.data() + i * n_;
            for (std::size_t c = c0; c < c1; ++c) dst[c] = src[index[c]];
        });
    return out;
}

bool
RnsPoly::equals(const RnsPoly& other) const
{
    if (n_ != other.n_ || domain_ != other.domain_ ||
        primes_ != other.primes_) {
        return false;
    }
    return data_ == other.data_;
}

} // namespace bts
