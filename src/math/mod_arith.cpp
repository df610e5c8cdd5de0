#include "math/mod_arith.h"

namespace bts {

u64
pow_mod(u64 a, u64 e, u64 m)
{
    BTS_CHECK(m != 0, "pow_mod: zero modulus");
    u64 base = a % m;
    u64 result = 1 % m;
    while (e) {
        if (e & 1) result = mul_mod(result, base, m);
        base = mul_mod(base, base, m);
        e >>= 1;
    }
    return result;
}

u64
gcd_u64(u64 a, u64 b)
{
    while (b) {
        const u64 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

u64
inv_mod(u64 a, u64 m)
{
    // Extended Euclid on signed 128-bit accumulators.
    BTS_CHECK(m > 1, "inv_mod: modulus must exceed 1");
    i128 t = 0, new_t = 1;
    i128 r = m, new_r = a % m;
    while (new_r != 0) {
        const i128 q = r / new_r;
        i128 tmp = t - q * new_t;
        t = new_t;
        new_t = tmp;
        tmp = r - q * new_r;
        r = new_r;
        new_r = tmp;
    }
    BTS_CHECK(r == 1, "inv_mod: operand not invertible");
    if (t < 0) t += m;
    return static_cast<u64>(t);
}

Barrett::Barrett(u64 modulus) : m_(modulus)
{
    BTS_CHECK(modulus > 1, "Barrett: modulus must exceed 1");
    BTS_CHECK((modulus >> kMaxModulusBits) == 0,
              "Barrett: modulus exceeds supported width");
    // Compute floor(2^128 / m) by long division of 2^128.
    // 2^128 = m * mu + rem. Do it limb by limb.
    // High limb: floor(2^128 / m) = (floor(2^64/m) << 64 + ...) — easier:
    // divide the 2-limb value {1, 0, 0} base 2^64 step by step.
    u128 rem = 0;
    u64 digits[2] = {0, 0};
    // Numerator limbs of 2^128, most-significant first: [1, 0, 0].
    u64 num[3] = {1, 0, 0};
    // First step consumes num[0] into rem without producing a kept digit
    // (the quotient's implicit third limb is zero for m > 1... actually
    // for m > 1 the quotient has at most 2 limbs + overflow bit; with
    // m >= 2^3 in practice it fits in 2 limbs plus a top bit only when
    // m < 2. Safe for our >= 2^20 moduli.)
    rem = num[0];
    for (int i = 0; i < 2; ++i) {
        const u128 cur = (rem << 64) | num[i + 1];
        digits[i] = static_cast<u64>(cur / m_);
        rem = cur % m_;
    }
    mu_hi_ = digits[0];
    mu_lo_ = digits[1];
}

} // namespace bts
