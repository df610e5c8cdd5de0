/**
 * @file
 * 64-bit modular arithmetic.
 *
 * BTS's word size is 64 bits; modular-reduction units in the hardware use
 * Barrett reduction to bring 128-bit products back to the word size
 * (Section 5). This module provides the software equivalents: plain
 * 128-bit reduction, a Barrett reducer with precomputed constant, and
 * Shoup multiplication for the hot NTT path where one operand (the
 * twiddle factor) is fixed.
 *
 * Lazy (Harvey-style) domain: the NTT hot path keeps residues in
 * [0, 2q) or [0, 4q) between butterflies and defers the conditional
 * subtractions to one correction at the end of the chain. The *_lazy
 * primitives below implement that domain; they require q < 2^62 so that
 * 4q (and every intermediate sum) fits in a 64-bit word — enforced
 * globally by kMaxModulusBits.
 */
#pragma once

#include "common/check.h"
#include "common/types.h"

namespace bts {

/** @return (a + b) mod m; inputs must already be reduced (enforced in
 *  Debug builds — unreduced inputs are a caller bug, not a supported
 *  overflow mode). */
inline u64
add_mod(u64 a, u64 b, u64 m)
{
    BTS_DEBUG_ASSERT(a < m && b < m, "add_mod: unreduced input");
    const u64 s = a + b; // cannot wrap: a, b < m < 2^62
    return s >= m ? s - m : s;
}

/** @return (a - b) mod m; inputs must already be reduced (Debug-checked
 *  like add_mod). */
inline u64
sub_mod(u64 a, u64 b, u64 m)
{
    BTS_DEBUG_ASSERT(a < m && b < m, "sub_mod: unreduced input");
    return a >= b ? a - b : a + m - b;
}

// ----- lazy-domain primitives (Harvey butterflies) ----------------------

/** Unreduced sum: [0, 2q) + [0, 2q) -> [0, 4q). Caller tracks the
 *  domain; no reduction, no overflow for q < 2^62. */
inline u64
add_lazy(u64 a, u64 b)
{
    return a + b;
}

/** Shifted difference: a - b + 2q for a, b in [0, 2q) -> result in
 *  (0, 4q), never negative. */
inline u64
sub_lazy_2q(u64 a, u64 b, u64 two_q)
{
    return a + two_q - b;
}

/** One branchless conditional subtraction: [0, 4q) -> [0, 2q)
 *  (compiles to cmov / SIMD select, no data-dependent branch). */
inline u64
reduce_2q(u64 x, u64 two_q)
{
    return x - (x >= two_q ? two_q : 0);
}

/** Canonicalize a lazy residue: [0, 4q) -> [0, q) in two conditional
 *  subtractions. */
inline u64
reduce_4q_to_q(u64 x, u64 q)
{
    x = reduce_2q(x, 2 * q);
    return x >= q ? x - q : x;
}

/** @return (a * b) mod m via 128-bit intermediate. */
inline u64
mul_mod(u64 a, u64 b, u64 m)
{
    return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

/** @return a^e mod m (binary exponentiation). */
u64 pow_mod(u64 a, u64 e, u64 m);

/** @return a^{-1} mod m; requires gcd(a, m) == 1. */
u64 inv_mod(u64 a, u64 m);

/** @return gcd(a, b). */
u64 gcd_u64(u64 a, u64 b);

/** Map a signed value into [0, m). */
inline u64
signed_to_mod(i64 v, u64 m)
{
    const i64 r = v % static_cast<i64>(m);
    return r < 0 ? static_cast<u64>(r + static_cast<i64>(m))
                 : static_cast<u64>(r);
}

/** Map a residue in [0, m) to its centered representative in (-m/2, m/2]. */
inline i64
mod_to_signed(u64 v, u64 m)
{
    return v > m / 2 ? static_cast<i64>(v) - static_cast<i64>(m)
                     : static_cast<i64>(v);
}

/**
 * Barrett reducer for a fixed modulus m (1 < m < 2^61).
 *
 * Precomputes mu = floor(2^128 / m) as two 64-bit halves. reduce()
 * takes any 128-bit v < m * 2^64 -- one product, or a lazy sum of
 * products within lazy_sum_terms() -- and returns v mod m after one
 * branchless correction.
 */
class Barrett
{
  public:
    Barrett() = default;

    explicit Barrett(u64 modulus);

    u64 modulus() const { return m_; }

    /**
     * v mod m, for v < m * 2^64.
     *
     * The quotient estimate is exactly qh = floor(v * mu / 2^128).
     * Since 2^128/m - 1 < mu <= 2^128/m,
     *   v/m - v/2^128 < v * mu / 2^128 <= v/m,
     * and v < m * 2^64 < 2^128 makes v/2^128 < 1: qh is floor(v/m) or
     * one short, so r = v - qh * m lies in [0, 2m) and one conditional
     * subtraction (a cmov) canonicalizes it. floor(v/m) < 2^64 and
     * r < 2^62 both fit a word, so the remainder is taken in 64-bit
     * arithmetic.
     */
    u64
    reduce(u128 v) const
    {
        BTS_DEBUG_ASSERT((v >> 64) < m_, "Barrett: input above m * 2^64");
        const u64 v_lo = static_cast<u64>(v);
        const u64 v_hi = static_cast<u64>(v >> 64);
        // v * mu >> 128 = v_hi*mu_hi + hi64(middle column), where the
        // middle column v_hi*mu_lo + v_lo*mu_hi + hi64(v_lo*mu_lo) is
        // below m * 2^64 + 2^128/m + 2^64 < 2^128 because v_hi < m.
        const u128 mid = static_cast<u128>(v_hi) * mu_lo_ +
                         static_cast<u128>(v_lo) * mu_hi_ +
                         ((static_cast<u128>(v_lo) * mu_lo_) >> 64);
        const u64 qh = v_hi * mu_hi_ + static_cast<u64>(mid >> 64);
        const u64 r = v_lo - qh * m_;
        return r >= m_ ? r - m_ : r;
    }

    /** (a * b) mod m using the precomputed constant (a * b < m * 2^64,
     *  e.g. both operands in [0, 2m)). */
    u64 mul(u64 a, u64 b) const { return reduce(static_cast<u128>(a) * b); }

  private:
    u64 m_ = 0;
    u64 mu_hi_ = 0; // floor(2^128 / m) high limb
    u64 mu_lo_ = 0; // floor(2^128 / m) low limb
};

/**
 * Term budget of a lazy 128-bit sum: how many products, each below
 * @p factor_bound * m, may accumulate before one Barrett::reduce mod
 * m. T such products sum below T * A * m, which stays below
 * reduce()'s bound m * 2^64 while T * A < 2^64; a reduced partial sum
 * (below m) plus T more products stays below it too, so a long sum
 * reduces once every T terms. A = 2m for a [0, 2m) lazy NTT output
 * times a canonical residue; at the 61-bit width cap T >= 4.
 */
inline std::size_t
lazy_sum_terms(u64 factor_bound)
{
    BTS_DEBUG_ASSERT(factor_bound != 0, "lazy_sum_terms: zero bound");
    return static_cast<std::size_t>(~u64{0} / factor_bound);
}

/**
 * Shoup multiplication context: multiply by a fixed constant w modulo m
 * with a single 64x64 multiply-high and one correction, the standard
 * trick for NTT butterflies.
 */
struct ShoupMul
{
    u64 w = 0;       //!< the constant operand, reduced mod m
    u64 w_shoup = 0; //!< floor(w * 2^64 / m)

    ShoupMul() = default;

    /**
     * @p operand may be unreduced; it is reduced mod @p modulus here.
     * (An unreduced w would silently produce a wrong w_shoup: the
     * quotient estimate in mul() assumes w < m.)
     */
    ShoupMul(u64 operand, u64 modulus)
        : w(operand % modulus),
          w_shoup(static_cast<u64>((static_cast<u128>(w) << 64) / modulus))
    {}

    /** Build from an operand already reduced mod @p modulus, skipping
     *  the constructor's 64-bit remainder (the table-construction hot
     *  path derives every twiddle from a reduced power chain). */
    static ShoupMul
    from_reduced(u64 w, u64 modulus)
    {
        BTS_DEBUG_ASSERT(w < modulus, "from_reduced: unreduced operand");
        ShoupMul s;
        s.w = w;
        s.w_shoup =
            static_cast<u64>((static_cast<u128>(w) << 64) / modulus);
        return s;
    }

    /** @return (x * w) mod m, canonical in [0, m) for ANY 64-bit x (the
     *  quotient estimate only assumes w < m), so lazy-domain inputs are
     *  accepted. */
    u64
    mul(u64 x, u64 m) const
    {
        const u64 q = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
        const u64 r = x * w - q * m;
        return r >= m ? r - m : r;
    }

    /** Lazy Shoup product: @return a value congruent to x * w mod m in
     *  [0, 2m), skipping the final conditional subtraction. Valid for
     *  any 64-bit x (in particular the [0, 4q) butterfly domain). */
    u64
    mul_lazy(u64 x, u64 m) const
    {
        const u64 q = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
        return x * w - q * m;
    }
};

} // namespace bts
