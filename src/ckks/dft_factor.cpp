#include "ckks/dft_factor.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bit_ops.h"
#include "common/check.h"

namespace bts {

std::vector<std::vector<Complex>>
special_fourier_matrix(std::size_t n)
{
    const u64 m = 4 * static_cast<u64>(n);
    std::vector<std::vector<Complex>> a(n, std::vector<Complex>(n));
    u64 rot = 1;
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t k = 0; k < n; ++k) {
            const u64 idx = (rot * k) % m;
            const double angle = 2.0 * M_PI * static_cast<double>(idx) /
                                 static_cast<double>(m);
            a[t][k] = Complex(std::cos(angle), std::sin(angle));
        }
        rot = (rot * 5) % m;
    }
    return a;
}

std::vector<Complex>
apply_diagonals(const DiagonalMap& m, const std::vector<Complex>& v)
{
    const std::size_t n = v.size();
    std::vector<Complex> out(n, Complex(0, 0));
    for (const auto& [d, diag] : m) {
        for (std::size_t j = 0; j < n; ++j) {
            out[j] += diag[j] * v[(j + d) % n];
        }
    }
    return out;
}

DiagonalMap
lift_cts_tail(const DiagonalMap& m)
{
    DiagonalMap out;
    for (const auto& [d, diag] : m) {
        const std::size_t n = diag.size();
        auto& lifted = out[d];
        lifted.resize(2 * n);
        for (std::size_t j = 0; j < n; ++j) {
            lifted[j] = diag[j];
            lifted[j + n] = Complex(0, -1) * diag[j];
        }
    }
    return out;
}

DiagonalMap
lift_stc_head(const DiagonalMap& m)
{
    DiagonalMap out;
    for (const auto& [d, diag] : m) {
        const std::size_t n = diag.size();
        for (const std::size_t shift : {static_cast<std::size_t>(d),
                                         static_cast<std::size_t>(d) + n}) {
            auto& lifted = out[static_cast<int>(shift)];
            lifted.resize(2 * n);
            for (std::size_t j = 0; j < 2 * n; ++j) {
                // Row j reads column k; the right block column is iM.
                const std::size_t k = (j + shift) % (2 * n);
                lifted[j] = k < n ? diag[j % n] : Complex(0, 1) * diag[j % n];
            }
        }
    }
    return out;
}

namespace {

/** Accumulate value into row @p j of cyclic diagonal @p shift. */
void
add_entry(DiagonalMap& m, std::size_t n, std::size_t j, std::size_t shift,
          Complex value)
{
    auto& diag = m[static_cast<int>(shift % n)];
    if (diag.empty()) diag.assign(n, Complex(0, 0));
    diag[j] += value;
}

/** Drop diagonals whose every entry is numerically zero. */
void
prune(DiagonalMap& m)
{
    for (auto it = m.begin(); it != m.end();) {
        bool nonzero = false;
        for (const Complex& v : it->second) {
            if (std::abs(v) > 1e-14) {
                nonzero = true;
                break;
            }
        }
        it = nonzero ? std::next(it) : m.erase(it);
    }
}

/**
 * Butterfly stage S_i of the decode-direction special FFT, in diagonal
 * form: the linear map one `len`-span pass of CkksEncoder::fft_special
 * performs. With lenh = len/2, s = j mod len and w_s = zeta_{4len}^{5^s}:
 *
 *   out_j = in_j + w_s * in_{j+lenh}              (s <  lenh)
 *   out_j = in_{j-lenh} - w_{s-lenh} * in_j       (s >= lenh)
 *
 * i.e. diagonals at {0, +lenh, -lenh} (two diagonals when len == n,
 * where +lenh and -lenh coincide at n/2).
 */
DiagonalMap
butterfly_stage(std::size_t n, std::size_t len)
{
    const std::size_t lenh = len / 2;
    const u64 m4 = 4 * static_cast<u64>(len);
    std::vector<Complex> w(lenh);
    u64 rot = 1;
    for (std::size_t s = 0; s < lenh; ++s) {
        const double angle = 2.0 * M_PI * static_cast<double>(rot) /
                             static_cast<double>(m4);
        w[s] = Complex(std::cos(angle), std::sin(angle));
        rot = (rot * 5) % m4;
    }

    DiagonalMap stage;
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t s = j % len;
        if (s < lenh) {
            add_entry(stage, n, j, 0, Complex(1, 0));
            add_entry(stage, n, j, lenh, w[s]);
        } else {
            add_entry(stage, n, j, 0, -w[s - lenh]);
            add_entry(stage, n, j, n - lenh, Complex(1, 0));
        }
    }
    return stage;
}

/** Matrix product second * first (apply @p first, then @p second). */
DiagonalMap
compose(const DiagonalMap& second, const DiagonalMap& first, std::size_t n)
{
    DiagonalMap out;
    for (const auto& [d2, v2] : second) {
        for (const auto& [d1, v1] : first) {
            const std::size_t e =
                (static_cast<std::size_t>(d2) + static_cast<std::size_t>(d1)) %
                n;
            auto& dst = out[static_cast<int>(e)];
            if (dst.empty()) dst.assign(n, Complex(0, 0));
            for (std::size_t j = 0; j < n; ++j) {
                dst[j] += v2[j] * v1[(j + d2) % n];
            }
        }
    }
    prune(out);
    return out;
}

/** Conjugate transpose: M^dagger_e[j] = conj(M_{n-e}[(j+e) mod n]). */
DiagonalMap
dagger(const DiagonalMap& m, std::size_t n)
{
    DiagonalMap out;
    for (const auto& [d, v] : m) {
        const std::size_t e = (n - static_cast<std::size_t>(d)) % n;
        auto& dst = out[static_cast<int>(e)];
        dst.resize(n);
        for (std::size_t j = 0; j < n; ++j) {
            dst[j] = std::conj(v[(j + e) % n]);
        }
    }
    return out;
}

} // namespace

int
FactoredDft::num_stages_for(std::size_t slots, int radix)
{
    BTS_CHECK(is_power_of_two(slots) && slots >= 2,
              "slot count must be a power of two >= 2");
    BTS_CHECK(radix >= 2 && is_power_of_two(static_cast<u64>(radix)),
              "radix must be a power of two >= 2 (0 selects the dense "
              "oracle in BootstrapConfig, not here)");
    const int k = static_cast<int>(log2_exact(slots));
    const int r = static_cast<int>(log2_exact(static_cast<u64>(radix)));
    return (k + r - 1) / r;
}

std::vector<DiagonalMap>
FactoredDft::stage_diagonals(std::size_t n, DftDirection direction,
                             int radix)
{
    (void)num_stages_for(n, radix); // shared argument validation
    const int k = static_cast<int>(log2_exact(n));
    const int r = static_cast<int>(log2_exact(static_cast<u64>(radix)));

    // Merge consecutive butterfly stages into radix-2^r factors. The
    // product telescopes regardless of chunk boundaries, so each
    // direction chunks from its own first-applied end (any ragged
    // remainder lands on the last-applied factor).
    std::vector<DiagonalMap> out;
    if (direction == DftDirection::kSlotToCoeff) {
        // A * P = S_k ... S_1 : stage S_1 (len = 2) is applied first.
        for (int lo = 1; lo <= k; lo += r) {
            const int hi = std::min(lo + r - 1, k);
            DiagonalMap m = butterfly_stage(n, std::size_t{1} << lo);
            for (int i = lo + 1; i <= hi; ++i) {
                m = compose(butterfly_stage(n, std::size_t{1} << i), m, n);
            }
            out.push_back(std::move(m));
        }
    } else {
        // (1/2n) P A^dagger... dropped P: S_1^d ... S_k^d with S_k^d
        // applied first; each chunk (S_lo ... S_hi)^dagger.
        for (int hi = k; hi >= 1; hi -= r) {
            const int lo = std::max(hi - r + 1, 1);
            DiagonalMap m = butterfly_stage(n, std::size_t{1} << lo);
            for (int i = lo + 1; i <= hi; ++i) {
                m = compose(butterfly_stage(n, std::size_t{1} << i), m, n);
            }
            out.push_back(dagger(m, n));
        }
        // Fold the 1/(2n) CtS normalization evenly across the factors
        // (an even split keeps every diagonal's magnitude — and thus
        // its encoding precision at the fixed plaintext scale — alike).
        const double c = std::pow(
            1.0 / (2.0 * static_cast<double>(n)),
            1.0 / static_cast<double>(out.size()));
        for (auto& m : out) {
            for (auto& [d, v] : m) {
                for (Complex& x : v) x *= c;
            }
        }
    }
    return out;
}

FactoredDft::FactoredDft(const CkksContext& ctx, const CkksEncoder& encoder,
                         std::size_t slots, DftDirection direction,
                         int radix, int input_level, bool packed,
                         double bsgs_ratio)
    : FactoredDft(ctx, encoder, slots, direction,
                  stage_diagonals(slots, direction, radix), input_level,
                  packed, bsgs_ratio)
{}

FactoredDft
FactoredDft::dense(const CkksContext& ctx, const CkksEncoder& encoder,
                   std::size_t slots, DftDirection direction,
                   int input_level, bool packed)
{
    auto matrix = special_fourier_matrix(slots);
    if (direction == DftDirection::kCoeffToSlot) {
        // (1/(2n)) * A^dagger. The 1/2 folds the later real/imag split.
        const auto a = matrix;
        const double scale = 1.0 / (2.0 * static_cast<double>(slots));
        for (std::size_t t = 0; t < slots; ++t) {
            for (std::size_t k = 0; k < slots; ++k) {
                matrix[t][k] = std::conj(a[k][t]) * scale;
            }
        }
    }
    return FactoredDft(ctx, encoder, slots, direction,
                       {diagonals_of(matrix)}, input_level, packed, 1.0);
}

FactoredDft::FactoredDft(const CkksContext& ctx, const CkksEncoder& encoder,
                         std::size_t slots, DftDirection direction,
                         std::vector<DiagonalMap> maps, int input_level,
                         bool packed, double bsgs_ratio)
    : in_slots_(slots), out_slots_(slots), direction_(direction)
{
    const int stages = static_cast<int>(maps.size());
    BTS_CHECK(input_level >= stages,
              "factored DFT needs " << stages << " levels but input is at "
                                    << input_level
                                    << "; raise the level budget or the "
                                       "radix");
    const bool cts = direction == DftDirection::kCoeffToSlot;
    if (packed) {
        if (cts) {
            maps.back() = lift_cts_tail(maps.back());
            out_slots_ = 2 * slots;
        } else {
            maps.front() = lift_stc_head(maps.front());
            in_slots_ = 2 * slots;
        }
    }
    for (int s = 0; s < stages; ++s) {
        const std::size_t dim = maps[s].begin()->second.size();
        const bool head = packed && !cts && s == 0;
        stages_.push_back(std::make_unique<LinearTransform>(
            ctx, encoder, dim, maps[s], input_level - s, bsgs_ratio, head));
    }
}

int
FactoredDft::total_diagonals() const
{
    int total = 0;
    for (const auto& lt : stages_) total += lt->num_diagonals();
    return total;
}

std::vector<int>
FactoredDft::required_rotations() const
{
    std::set<int> amounts;
    for (const auto& lt : stages_) {
        for (int r : lt->required_rotations()) amounts.insert(r);
    }
    return {amounts.begin(), amounts.end()};
}

Ciphertext
FactoredDft::apply(const Evaluator& eval, const Ciphertext& ct,
                   const RotationKeys& rot_keys) const
{
    BTS_CHECK(ct.slots == in_slots_,
              "slot count does not match the transform");
    Ciphertext acc = ct;
    for (const auto& lt : stages_) {
        // Exact relabels: an n-slot ciphertext is the 2n-slot (x, x)
        // the CtS tail reads, and the StC head's (y, y) is the n-slot y.
        acc.slots = lt->dimension();
        acc = lt->apply(eval, acc, rot_keys);
    }
    acc.slots = out_slots_;
    return acc;
}

} // namespace bts
