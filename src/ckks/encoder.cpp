#include "ckks/encoder.h"

#include <cmath>

#include "common/bit_ops.h"
#include "common/check.h"
#include "math/mod_arith.h"

namespace bts {

CkksEncoder::CkksEncoder(const CkksContext& ctx) : ctx_(ctx) {}

namespace {

/** ksi[j] = exp(2*pi*i * j / m). */
std::vector<Complex>
root_powers(std::size_t m)
{
    std::vector<Complex> out(m);
    for (std::size_t j = 0; j < m; ++j) {
        const double angle = 2.0 * M_PI * static_cast<double>(j) /
                             static_cast<double>(m);
        out[j] = Complex(std::cos(angle), std::sin(angle));
    }
    return out;
}

/** rot[i] = 5^i mod m (the rotation group generator powers). */
std::vector<u64>
rotation_group(std::size_t n, u64 m)
{
    std::vector<u64> out(n);
    u64 p = 1;
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = p;
        p = (p * 5) % m;
    }
    return out;
}

} // namespace

void
CkksEncoder::fft_special(std::vector<Complex>& v) const
{
    const std::size_t n = v.size();
    BTS_CHECK(is_power_of_two(n), "slot count must be a power of two");
    const u64 m = 4 * static_cast<u64>(n);
    const auto ksi = root_powers(m);
    const auto rot = rotation_group(n, m);

    bit_reverse_permute(v.data(), n);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t lenh = len >> 1;
        const u64 lenq = static_cast<u64>(len) << 2;
        for (std::size_t i = 0; i < n; i += len) {
            for (std::size_t j = 0; j < lenh; ++j) {
                const u64 idx = (rot[j] % lenq) * (m / lenq);
                const Complex u = v[i + j];
                const Complex w = v[i + j + lenh] * ksi[idx];
                v[i + j] = u + w;
                v[i + j + lenh] = u - w;
            }
        }
    }
}

void
CkksEncoder::fft_special_inv(std::vector<Complex>& v) const
{
    const std::size_t n = v.size();
    BTS_CHECK(is_power_of_two(n), "slot count must be a power of two");
    const u64 m = 4 * static_cast<u64>(n);
    const auto ksi = root_powers(m);
    const auto rot = rotation_group(n, m);

    for (std::size_t len = n; len >= 2; len >>= 1) {
        const std::size_t lenh = len >> 1;
        const u64 lenq = static_cast<u64>(len) << 2;
        for (std::size_t i = 0; i < n; i += len) {
            for (std::size_t j = 0; j < lenh; ++j) {
                const u64 idx =
                    ((lenq - (rot[j] % lenq)) % lenq) * (m / lenq);
                const Complex u = v[i + j] + v[i + j + lenh];
                const Complex w = (v[i + j] - v[i + j + lenh]) * ksi[idx];
                v[i + j] = u;
                v[i + j + lenh] = w;
            }
        }
    }
    bit_reverse_permute(v.data(), n);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : v) x *= inv_n;
}

Plaintext
CkksEncoder::encode(const std::vector<Complex>& values, double scale,
                    int level) const
{
    return encode_on(values, scale, level, ctx_.level_primes(level));
}

Plaintext
CkksEncoder::encode_extended(const std::vector<Complex>& values,
                             double scale, int level) const
{
    return encode_on(values, scale, level, ctx_.extended_primes(level));
}

Plaintext
CkksEncoder::encode_on(const std::vector<Complex>& values, double scale,
                       int level, const std::vector<u64>& primes) const
{
    const std::size_t n_slots = values.size();
    BTS_CHECK(is_power_of_two(n_slots) && n_slots <= max_slots(),
              "slot count must be a power of two <= N/2");
    BTS_CHECK(scale > 0, "scale must be positive");

    std::vector<Complex> w = values;
    fft_special_inv(w);

    const std::size_t n = ctx_.n();
    const std::size_t half = n / 2;
    const std::size_t gap = half / n_slots;

    // Spread the size-n_slots embedding across the ring at stride `gap`:
    // real parts to the low half, imaginary parts to the high half.
    RnsPoly poly(n, primes, Domain::kCoeff);
    for (std::size_t j = 0; j < n_slots; ++j) {
        const double re = w[j].real() * scale;
        const double im = w[j].imag() * scale;
        BTS_CHECK(std::abs(re) < 0x1.0p62 && std::abs(im) < 0x1.0p62,
                  "encoded coefficient exceeds 62 bits; lower the scale");
        const i64 cre = static_cast<i64>(std::llround(re));
        const i64 cim = static_cast<i64>(std::llround(im));
        for (std::size_t i = 0; i < primes.size(); ++i) {
            poly.component(i)[j * gap] = signed_to_mod(cre, primes[i]);
            poly.component(i)[half + j * gap] = signed_to_mod(cim, primes[i]);
        }
    }
    poly.to_ntt(ctx_.tables_for(primes));

    Plaintext pt;
    pt.poly = std::move(poly);
    pt.scale = scale;
    pt.level = level;
    pt.slots = n_slots;
    return pt;
}

Plaintext
CkksEncoder::encode_real(const std::vector<double>& values, double scale,
                         int level) const
{
    std::vector<Complex> z(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) z[i] = Complex(values[i]);
    return encode(z, scale, level);
}

Plaintext
CkksEncoder::encode_scalar(Complex value, std::size_t slots, double scale,
                           int level) const
{
    return encode(std::vector<Complex>(slots, value), scale, level);
}

std::vector<double>
CkksEncoder::coeffs_to_double(const Plaintext& pt) const
{
    RnsPoly poly = pt.poly;
    if (poly.domain() == Domain::kNtt) {
        poly.to_coeff(ctx_.tables_for(poly));
    }
    const std::size_t n = ctx_.n();
    const std::size_t count = poly.num_primes();

    std::vector<double> out(n);
    if (count == 1) {
        const u64 q = poly.prime(0);
        for (std::size_t c = 0; c < n; ++c) {
            out[c] = static_cast<double>(mod_to_signed(
                         poly.component(0)[c], q)) / pt.scale;
        }
        return out;
    }
    const RnsBase base(std::vector<u64>(poly.primes().begin(),
                                        poly.primes().end()));
    const BigUInt& q_prod = base.product();
    const BigUInt half_q = q_prod.half();
    std::vector<u64> residues(count);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t i = 0; i < count; ++i) {
            residues[i] = poly.component(i)[c];
        }
        const BigUInt v = base.compose(residues);
        const double centered = v > half_q ? -q_prod.sub(v).to_double()
                                           : v.to_double();
        out[c] = centered / pt.scale;
    }
    return out;
}

std::vector<Complex>
CkksEncoder::decode(const Plaintext& pt) const
{
    BTS_CHECK(pt.slots > 0, "plaintext has no slot metadata");
    const auto coeffs = coeffs_to_double(pt);
    const std::size_t half = ctx_.n() / 2;
    const std::size_t gap = half / pt.slots;

    std::vector<Complex> w(pt.slots);
    for (std::size_t j = 0; j < pt.slots; ++j) {
        w[j] = Complex(coeffs[j * gap], coeffs[half + j * gap]);
    }
    fft_special(w);
    return w;
}

std::vector<Complex>
CkksEncoder::decode_direct(const Plaintext& pt) const
{
    BTS_CHECK(pt.slots > 0, "plaintext has no slot metadata");
    const auto coeffs = coeffs_to_double(pt);
    const std::size_t half = ctx_.n() / 2;
    const std::size_t gap = half / pt.slots;
    const std::size_t n_slots = pt.slots;
    const u64 m = 4 * static_cast<u64>(n_slots);
    const auto ksi = root_powers(m);
    const auto rot = rotation_group(n_slots, m);

    std::vector<Complex> out(n_slots, Complex(0, 0));
    for (std::size_t t = 0; t < n_slots; ++t) {
        for (std::size_t k = 0; k < n_slots; ++k) {
            const Complex w(coeffs[k * gap], coeffs[half + k * gap]);
            out[t] += w * ksi[(rot[t] * k) % m];
        }
    }
    return out;
}

Plaintext
CkksEncoder::encode_coeffs(const std::vector<double>& coeffs, double scale,
                           int level, std::size_t slots) const
{
    BTS_CHECK(coeffs.size() == ctx_.n(), "coefficient vector must have size N");
    const auto primes = ctx_.level_primes(level);
    RnsPoly poly(ctx_.n(), primes, Domain::kCoeff);
    for (std::size_t c = 0; c < coeffs.size(); ++c) {
        const double v = coeffs[c] * scale;
        BTS_CHECK(std::abs(v) < 0x1.0p62, "coefficient exceeds 62 bits");
        const i64 iv = static_cast<i64>(std::llround(v));
        for (std::size_t i = 0; i < primes.size(); ++i) {
            poly.component(i)[c] = signed_to_mod(iv, primes[i]);
        }
    }
    poly.to_ntt(ctx_.tables_for(primes));

    Plaintext pt;
    pt.poly = std::move(poly);
    pt.scale = scale;
    pt.level = level;
    pt.slots = slots;
    return pt;
}

std::vector<double>
CkksEncoder::decode_coeffs(const Plaintext& pt) const
{
    return coeffs_to_double(pt);
}

} // namespace bts
