#include "math/ntt.h"

#include <algorithm>

#include "common/bit_ops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "math/prime_gen.h"

#if defined(BTS_USE_AVX2) && defined(__AVX2__)
#define BTS_HAS_AVX2 1
#include <immintrin.h>
#else
#define BTS_HAS_AVX2 0
#endif

namespace bts {

namespace {

/**
 * Output form of a butterfly run. Intermediate forward stages stay in
 * the full lazy domain [0, 4q); the final stage reduces to [0, 2q)
 * (lazy entry points) or [0, q) (canonical entry points). Inverse
 * stages maintain [0, 2q) throughout.
 */
enum class FwdOut
{
    kLazy4q,
    kLazy2q,
    kCanonical,
};

#if BTS_HAS_AVX2

// 4-wide u64 helpers. All lazy values are < 2^63 (q < 2^62), so the
// signed 64-bit compares AVX2 provides are exact for our domain.

inline __m256i
mul_lo64(__m256i x, __m256i y)
{
    const __m256i lo = _mm256_mul_epu32(x, y);
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i yh = _mm256_srli_epi64(y, 32);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(xh, y),
                                           _mm256_mul_epu32(x, yh));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i
mul_hi64(__m256i x, __m256i y)
{
    const __m256i mask = _mm256_set1_epi64x(0xffffffffLL);
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i yh = _mm256_srli_epi64(y, 32);
    const __m256i ll = _mm256_mul_epu32(x, y);
    const __m256i hl = _mm256_mul_epu32(xh, y);
    const __m256i lh = _mm256_mul_epu32(x, yh);
    const __m256i hh = _mm256_mul_epu32(xh, yh);
    __m256i mid = _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                                   _mm256_and_si256(hl, mask));
    mid = _mm256_add_epi64(mid, _mm256_and_si256(lh, mask));
    __m256i hi = _mm256_add_epi64(hh, _mm256_srli_epi64(hl, 32));
    hi = _mm256_add_epi64(hi, _mm256_srli_epi64(lh, 32));
    return _mm256_add_epi64(hi, _mm256_srli_epi64(mid, 32));
}

/** x - (x >= b ? b : 0), element-wise; requires x, b < 2^63. */
inline __m256i
csub64(__m256i x, __m256i b)
{
    const __m256i lt = _mm256_cmpgt_epi64(b, x); // lanes where x < b
    return _mm256_sub_epi64(x, _mm256_andnot_si256(lt, b));
}

/** Lazy Shoup product in [0, 2q): x*w - floor(x*w_shoup / 2^64)*q. */
inline __m256i
shoup_lazy64(__m256i x, __m256i w, __m256i w_shoup, __m256i q)
{
    const __m256i quot = mul_hi64(x, w_shoup);
    return _mm256_sub_epi64(mul_lo64(x, w), mul_lo64(quot, q));
}

template <FwdOut Out>
inline std::size_t
fwd_run_avx2(u64* x, u64* y, std::size_t count, const ShoupMul s, u64 q,
             u64 two_q)
{
    const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(s.w));
    const __m256i vws =
        _mm256_set1_epi64x(static_cast<long long>(s.w_shoup));
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i v2q = _mm256_set1_epi64x(static_cast<long long>(two_q));
    std::size_t j = 0;
    for (; j + 4 <= count; j += 4) {
        __m256i vx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j));
        const __m256i vy =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + j));
        vx = csub64(vx, v2q);
        const __m256i t = shoup_lazy64(vy, vw, vws, vq);
        __m256i xo = _mm256_add_epi64(vx, t);
        __m256i yo = _mm256_sub_epi64(_mm256_add_epi64(vx, v2q), t);
        if constexpr (Out != FwdOut::kLazy4q) {
            xo = csub64(xo, v2q);
            yo = csub64(yo, v2q);
        }
        if constexpr (Out == FwdOut::kCanonical) {
            xo = csub64(xo, vq);
            yo = csub64(yo, vq);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + j), xo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j), yo);
    }
    return j;
}

inline std::size_t
inv_run_avx2(u64* x, u64* y, std::size_t count, const ShoupMul s, u64 q,
             u64 two_q)
{
    const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(s.w));
    const __m256i vws =
        _mm256_set1_epi64x(static_cast<long long>(s.w_shoup));
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i v2q = _mm256_set1_epi64x(static_cast<long long>(two_q));
    std::size_t j = 0;
    for (; j + 4 <= count; j += 4) {
        const __m256i vx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j));
        const __m256i vy =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + j));
        const __m256i xo = csub64(_mm256_add_epi64(vx, vy), v2q);
        const __m256i diff =
            _mm256_sub_epi64(_mm256_add_epi64(vx, v2q), vy);
        const __m256i yo = shoup_lazy64(diff, vw, vws, vq);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + j), xo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j), yo);
    }
    return j;
}

inline std::size_t
inv_last_run_avx2(u64* x, u64* y, std::size_t count, const ShoupMul inv_n,
                  const ShoupMul inv_n_w, u64 q, u64 two_q)
{
    const __m256i vnw = _mm256_set1_epi64x(static_cast<long long>(inv_n.w));
    const __m256i vnws =
        _mm256_set1_epi64x(static_cast<long long>(inv_n.w_shoup));
    const __m256i vww =
        _mm256_set1_epi64x(static_cast<long long>(inv_n_w.w));
    const __m256i vwws =
        _mm256_set1_epi64x(static_cast<long long>(inv_n_w.w_shoup));
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i v2q = _mm256_set1_epi64x(static_cast<long long>(two_q));
    std::size_t j = 0;
    for (; j + 4 <= count; j += 4) {
        const __m256i vx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j));
        const __m256i vy =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + j));
        const __m256i sum = _mm256_add_epi64(vx, vy);
        const __m256i diff =
            _mm256_sub_epi64(_mm256_add_epi64(vx, v2q), vy);
        // Full Shoup product: lazy form + one conditional subtraction.
        const __m256i xo = csub64(shoup_lazy64(sum, vnw, vnws, vq), vq);
        const __m256i yo = csub64(shoup_lazy64(diff, vww, vwws, vq), vq);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + j), xo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j), yo);
    }
    return j;
}

#endif // BTS_HAS_AVX2

/**
 * One forward (DIT) Harvey butterfly run over @p count unit-stride
 * pairs sharing one twiddle: x' = x mod 2q; t = lazy Shoup y*w in
 * [0, 2q); outputs x'+t and x'-t+2q in [0, 4q), reduced per @p Out.
 * The twiddle, moduli, and output form are loop-invariant, and the body
 * is branch-free, so compilers can unroll/vectorize it directly.
 */
template <FwdOut Out>
inline void
fwd_run(u64* x, u64* y, std::size_t count, const ShoupMul s, u64 q,
        u64 two_q)
{
    std::size_t j = 0;
#if BTS_HAS_AVX2
    j = fwd_run_avx2<Out>(x, y, count, s, q, two_q);
#endif
    for (; j < count; ++j) {
        const u64 u = reduce_2q(x[j], two_q);
        const u64 t = s.mul_lazy(y[j], q);
        u64 xo = add_lazy(u, t);
        u64 yo = sub_lazy_2q(u, t, two_q);
        if constexpr (Out != FwdOut::kLazy4q) {
            xo = reduce_2q(xo, two_q);
            yo = reduce_2q(yo, two_q);
        }
        if constexpr (Out == FwdOut::kCanonical) {
            xo = xo >= q ? xo - q : xo;
            yo = yo >= q ? yo - q : yo;
        }
        x[j] = xo;
        y[j] = yo;
    }
}

/**
 * One inverse (GS) butterfly run in the [0, 2q) domain: x' = x+y mod 2q
 * (one conditional subtraction), y' = lazy Shoup (x-y+2q)*w in [0, 2q).
 */
inline void
inv_run(u64* x, u64* y, std::size_t count, const ShoupMul s, u64 q,
        u64 two_q)
{
    std::size_t j = 0;
#if BTS_HAS_AVX2
    j = inv_run_avx2(x, y, count, s, q, two_q);
#endif
    for (; j < count; ++j) {
        const u64 u = x[j];
        const u64 v = y[j];
        x[j] = reduce_2q(add_lazy(u, v), two_q);
        y[j] = s.mul_lazy(sub_lazy_2q(u, v, two_q), q);
    }
}

/**
 * The final inverse stage with N^{-1} folded into its constants:
 * x' = (x+y) * n^{-1} and y' = (x-y) * (w * n^{-1}), both via full
 * Shoup products (exact for any 64-bit input), so the output is
 * canonical and the transform needs no scaling tail loop.
 */
inline void
inv_last_run(u64* x, u64* y, std::size_t count, const ShoupMul inv_n,
             const ShoupMul inv_n_w, u64 q, u64 two_q)
{
    std::size_t j = 0;
#if BTS_HAS_AVX2
    j = inv_last_run_avx2(x, y, count, inv_n, inv_n_w, q, two_q);
#endif
    for (; j < count; ++j) {
        const u64 u = x[j];
        const u64 v = y[j];
        x[j] = inv_n.mul(add_lazy(u, v), q);
        y[j] = inv_n_w.mul(sub_lazy_2q(u, v, two_q), q);
    }
}

} // namespace

NttTables::NttTables(std::size_t n, u64 prime)
    : n_(n), log_n_(log2_exact(n)), prime_(prime)
{
    BTS_CHECK(is_power_of_two(n), "NTT size must be a power of two");
    BTS_CHECK(prime % (2 * n) == 1, "prime must be 1 mod 2N");
    BTS_CHECK((prime >> kMaxModulusBits) == 0,
              "modulus exceeds kMaxModulusBits — the Harvey lazy domain "
              "[0, 4q) requires q < 2^62");

    psi_ = find_primitive_root(prime, 2 * static_cast<u64>(n));
    const u64 psi_inv = inv_mod(psi_, prime);
    n_inv_ = inv_mod(static_cast<u64>(n) % prime, prime);

    // Power chains stay reduced throughout: one Barrett product per
    // step (no 128-bit remainder), and the twiddles enter ShoupMul via
    // from_reduced (no per-entry 64-bit remainder either).
    const Barrett br(prime);
    psi_br_.resize(n);
    psi_inv_br_.resize(n);
    u64 power = 1;
    u64 power_inv = 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t rev = bit_reverse(i, log_n_);
        psi_br_[rev] = ShoupMul::from_reduced(power, prime);
        psi_inv_br_[rev] = ShoupMul::from_reduced(power_inv, prime);
        power = br.mul(power, psi_);
        power_inv = br.mul(power_inv, psi_inv);
    }

    // Fused last-stage inverse constants (N^{-1} absorbed).
    inv_n_ = ShoupMul::from_reduced(n_inv_, prime);
    inv_n_w_ = n > 1 ? ShoupMul::from_reduced(br.mul(psi_inv_br_[1].w,
                                                     n_inv_),
                                              prime)
                     : inv_n_;
}

namespace {

template <FwdOut Out>
void
forward_impl(u64* a, std::size_t n, const ShoupMul* psi_br, u64 q)
{
    const u64 two_q = 2 * q;
    std::size_t t = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        const bool last = (m << 1) == n;
        for (std::size_t i = 0; i < m; ++i) {
            u64* x = a + 2 * i * t;
            const ShoupMul& s = psi_br[m + i];
            if (last) {
                fwd_run<Out>(x, x + t, t, s, q, two_q);
            } else {
                fwd_run<FwdOut::kLazy4q>(x, x + t, t, s, q, two_q);
            }
        }
    }
}

} // namespace

void
NttTables::forward(u64* a) const
{
    forward_impl<FwdOut::kCanonical>(a, n_, psi_br_.data(), prime_);
}

void
NttTables::forward_lazy(u64* a) const
{
    forward_impl<FwdOut::kLazy2q>(a, n_, psi_br_.data(), prime_);
}

void
NttTables::inverse(u64* a) const
{
    const u64 q = prime_;
    const u64 two_q = 2 * q;
    std::size_t t = 1;
    for (std::size_t m = n_; m > 2; m >>= 1) {
        const std::size_t h = m >> 1;
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
            u64* x = a + j1;
            inv_run(x, x + t, t, psi_inv_br_[h + i], q, two_q);
            j1 += 2 * t;
        }
        t <<= 1;
    }
    if (n_ >= 2) {
        inv_last_run(a, a + n_ / 2, n_ / 2, inv_n_, inv_n_w_, q, two_q);
    }
}

void
NttTables::forward_stage(u64* a, std::size_t m, std::size_t b_begin,
                         std::size_t b_end, bool lazy_2q) const
{
    // Stage m has m groups of t butterflies; butterfly b lives in group
    // g = b / t at offset k, pairing a[2gt + k] with a[2gt + k + t].
    const u64 q = prime_;
    const u64 two_q = 2 * q;
    const std::size_t t = n_ / (2 * m);
    const bool last = (m << 1) == n_;
    std::size_t b = b_begin;
    while (b < b_end) {
        const std::size_t g = b / t;
        const std::size_t k = b - g * t;
        const std::size_t run = std::min(t - k, b_end - b);
        const ShoupMul& s = psi_br_[m + g];
        u64* x = a + 2 * g * t + k;
        u64* y = x + t;
        if (!last) {
            fwd_run<FwdOut::kLazy4q>(x, y, run, s, q, two_q);
        } else if (lazy_2q) {
            fwd_run<FwdOut::kLazy2q>(x, y, run, s, q, two_q);
        } else {
            fwd_run<FwdOut::kCanonical>(x, y, run, s, q, two_q);
        }
        b += run;
    }
}

void
NttTables::inverse_stage(u64* a, std::size_t m, std::size_t b_begin,
                         std::size_t b_end) const
{
    const u64 q = prime_;
    const u64 two_q = 2 * q;
    const std::size_t t = n_ / m;
    const std::size_t h = m >> 1;
    const bool last = m == 2;
    std::size_t b = b_begin;
    while (b < b_end) {
        const std::size_t g = b / t;
        const std::size_t k = b - g * t;
        const std::size_t run = std::min(t - k, b_end - b);
        u64* x = a + 2 * g * t + k;
        u64* y = x + t;
        if (last) {
            inv_last_run(x, y, run, inv_n_, inv_n_w_, q, two_q);
        } else {
            inv_run(x, y, run, psi_inv_br_[h + g], q, two_q);
        }
        b += run;
    }
}

void
NttTables::forward_oracle(u64* a) const
{
    const u64 q = prime_;
    std::size_t t = n_;
    for (std::size_t m = 1; m < n_; m <<= 1) {
        t >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const ShoupMul& s = psi_br_[m + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = s.mul(a[j + t], q);
                a[j] = add_mod(u, v, q);
                a[j + t] = sub_mod(u, v, q);
            }
        }
    }
}

void
NttTables::inverse_oracle(u64* a) const
{
    const u64 q = prime_;
    std::size_t t = 1;
    for (std::size_t m = n_; m > 1; m >>= 1) {
        std::size_t j1 = 0;
        const std::size_t h = m >> 1;
        for (std::size_t i = 0; i < h; ++i) {
            const ShoupMul& s = psi_inv_br_[h + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = a[j + t];
                a[j] = add_mod(u, v, q);
                a[j + t] = s.mul(sub_mod(u, v, q), q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (std::size_t j = 0; j < n_; ++j) {
        a[j] = inv_n_.mul(a[j], q);
    }
}

namespace {

/**
 * Below this N a stage split costs more in barriers than it buys:
 * parallel_for_2d's >=1024-coefficient blocks mean the N/2 butterflies
 * of a stage only split into multiple tiles once N >= 4096.
 */
constexpr std::size_t kStageParallelMinN = 4096;

bool
use_whole_limb_schedule(std::size_t count, std::size_t n)
{
    // Whole-limb transforms are one cache-friendly pass per limb; only
    // trade them for log2(N) barrier-separated stage sweeps when they
    // would leave at least half the lanes idle (the 1-3 limb regime the
    // split exists for), not at count = lanes-1 where utilization is
    // already near full.
    const auto lanes = static_cast<std::size_t>(num_threads());
    return lanes <= 1 || 2 * count > lanes || n < kStageParallelMinN;
}

void
check_batch(const NttTables* const* tables, std::size_t count,
            std::size_t stride, std::size_t n)
{
    BTS_ASSERT(stride >= n, "batch stride smaller than transform size");
    for (std::size_t i = 1; i < count; ++i) {
        BTS_ASSERT(tables[i]->n() == n, "mixed transform sizes in batch");
    }
}

void
forward_batch_impl(const NttTables* const* tables, u64* data,
                   std::size_t count, std::size_t stride, bool lazy)
{
    if (count == 0) return;
    const std::size_t n = tables[0]->n();
    check_batch(tables, count, stride, n);
    if (use_whole_limb_schedule(count, n)) {
        parallel_for(0, count, [&](std::size_t i) {
            if (lazy) {
                tables[i]->forward_lazy(data + i * stride);
            } else {
                tables[i]->forward(data + i * stride);
            }
        });
        return;
    }
    // Fewer limbs than lanes: run stage by stage, each stage a 2-D
    // (limb x butterfly-block) sweep. Stages are barriers — butterflies
    // of stage m read results of stage m/2.
    const std::size_t half = n / 2;
    for (std::size_t m = 1; m < n; m <<= 1) {
        parallel_for_2d(count, half,
                        [&](std::size_t i, std::size_t b0, std::size_t b1) {
                            tables[i]->forward_stage(data + i * stride, m,
                                                     b0, b1, lazy);
                        });
    }
}

} // namespace

void
ntt_forward_batch(const NttTables* const* tables, u64* data,
                  std::size_t count, std::size_t stride)
{
    forward_batch_impl(tables, data, count, stride, /*lazy=*/false);
}

void
ntt_forward_batch_lazy(const NttTables* const* tables, u64* data,
                       std::size_t count, std::size_t stride)
{
    forward_batch_impl(tables, data, count, stride, /*lazy=*/true);
}

void
ntt_inverse_batch(const NttTables* const* tables, u64* data,
                  std::size_t count, std::size_t stride)
{
    if (count == 0) return;
    const std::size_t n = tables[0]->n();
    check_batch(tables, count, stride, n);
    if (use_whole_limb_schedule(count, n)) {
        parallel_for(0, count, [&](std::size_t i) {
            tables[i]->inverse(data + i * stride);
        });
        return;
    }
    // N^{-1} rides in the final stage's fused twiddles, so the stage
    // sweep IS the whole transform — no trailing scale pass.
    const std::size_t half = n / 2;
    for (std::size_t m = n; m > 1; m >>= 1) {
        parallel_for_2d(count, half,
                        [&](std::size_t i, std::size_t b0, std::size_t b1) {
                            tables[i]->inverse_stage(data + i * stride, m,
                                                     b0, b1);
                        });
    }
}

std::vector<u32>
ntt_galois_index(std::size_t n, u64 galois_exp)
{
    BTS_CHECK(is_power_of_two(n), "degree must be a power of two");
    BTS_CHECK((galois_exp & 1) == 1, "Galois exponent must be odd");
    const int bits = log2_exact(n);
    // 2N divides 2^64, so masking the wrapped 64-bit product is exact.
    const u64 mask = 2 * static_cast<u64>(n) - 1;
    std::vector<u32> index(n);
    for (std::size_t i = 0; i < n; ++i) {
        const u64 root = ((2 * bit_reverse(i, bits) + 1) * galois_exp) & mask;
        index[i] = static_cast<u32>(bit_reverse(root >> 1, bits));
    }
    return index;
}

std::vector<u64>
negacyclic_mul_reference(const std::vector<u64>& a, const std::vector<u64>& b,
                         u64 q)
{
    BTS_CHECK(a.size() == b.size(), "size mismatch");
    const std::size_t n = a.size();
    std::vector<u64> out(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] == 0) continue;
        for (std::size_t j = 0; j < n; ++j) {
            const u64 prod = mul_mod(a[i], b[j], q);
            const std::size_t k = i + j;
            if (k < n) {
                out[k] = add_mod(out[k], prod, q);
            } else {
                out[k - n] = sub_mod(out[k - n], prod, q);
            }
        }
    }
    return out;
}

} // namespace bts
