#include "ckks/linear_transform.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bit_ops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "math/mod_arith.h"

namespace bts {

DiagonalMap
diagonals_of(const std::vector<std::vector<Complex>>& matrix)
{
    const std::size_t n = matrix.size();
    for (const auto& row : matrix) {
        BTS_CHECK(row.size() == n, "matrix must be square");
    }
    DiagonalMap diagonals;
    for (std::size_t d = 0; d < n; ++d) {
        std::vector<Complex> diag(n);
        for (std::size_t j = 0; j < n; ++j) {
            diag[j] = matrix[j][(j + d) % n];
        }
        diagonals.emplace(static_cast<int>(d), std::move(diag));
    }
    return diagonals;
}

LinearTransform::LinearTransform(
    const CkksContext& ctx, const CkksEncoder& encoder,
    const std::vector<std::vector<Complex>>& matrix, int level,
    double bsgs_ratio)
    : LinearTransform(ctx, encoder, matrix.size(), diagonals_of(matrix),
                      level, bsgs_ratio)
{}

LinearTransform::LinearTransform(const CkksContext& ctx,
                                 const CkksEncoder& encoder, std::size_t n,
                                 const DiagonalMap& diagonals, int level,
                                 double bsgs_ratio, bool half_turn)
    : ctx_(ctx), encoder_(encoder), n_(n), level_(level)
{
    BTS_CHECK(is_power_of_two(n_), "matrix dimension must be a power of two");
    BTS_CHECK(level >= 1, "transform needs one level headroom");
    BTS_CHECK(!half_turn || n_ >= 2, "a half turn needs two halves");
    // Shifts reduce into the grid's span: [0, n), or [0, n/2) with the
    // turned half read from rot_{n/2}(input).
    const int span = static_cast<int>(half_turn ? n_ / 2 : n_);

    std::vector<int> shifts;
    std::vector<const std::vector<Complex>*> diags;
    for (const auto& [d, values] : diagonals) {
        BTS_CHECK(d >= 0 && d < static_cast<int>(n_),
                  "diagonal shift out of range");
        BTS_CHECK(values.size() == n_, "diagonal length must equal n");
        bool nonzero = false;
        for (const Complex& v : values) {
            if (std::abs(v) > 1e-14) {
                nonzero = true;
                break;
            }
        }
        if (!nonzero) continue;
        shifts.push_back(d);
        diags.push_back(&values);
    }
    BTS_CHECK(!shifts.empty(), "matrix is identically zero");

    // Giant-step width: ~stride * sqrt(#diagonals * ratio), a power of
    // two. `stride` is the gcd of the shifts — radix DFT stages have
    // shifts that are all multiples of the butterfly span, and a
    // stride-blind sqrt(#diags) width would leave every baby step empty
    // while each diagonal occupies its own giant step. A turned pair
    // (d, d + n/2) shares one grid cell, so it counts once.
    std::set<int> cells;
    for (int d : shifts) cells.insert(d % span);
    u64 stride = 0;
    for (int d : cells) {
        if (d != 0) stride = gcd_u64(stride, static_cast<u64>(d));
    }
    if (stride == 0) stride = 1;
    const double target =
        std::sqrt(static_cast<double>(cells.size()) * bsgs_ratio);
    g_ = static_cast<int>(stride);
    while (g_ * 2 <= static_cast<double>(stride) * target &&
           g_ * 2 < span) {
        g_ *= 2;
    }

    // Diagonal plaintexts are encoded once, at the level's top prime, so
    // the final rescale of apply() restores the input scale exactly.
    const double pt_scale = static_cast<double>(ctx_.q_primes()[level_]);

    std::set<int> rotations;
    for (std::size_t idx = 0; idx < shifts.size(); ++idx) {
        Diag entry;
        entry.shift = shifts[idx] % span;
        entry.turned = shifts[idx] >= span;
        entry.baby = entry.shift % g_;
        entry.giant = entry.shift / g_;
        // Pre-rotate by -g*i so the giant-step rotation distributes over
        // the inner sum.
        const int gi = entry.giant * g_;
        std::vector<Complex> rotated(n_);
        for (std::size_t j = 0; j < n_; ++j) {
            rotated[j] = (*diags[idx])[(j + n_ - gi % n_) % n_];
        }
        entry.plaintext = encoder_.encode_extended(rotated, pt_scale, level_);
        if (entry.baby != 0) rotations.insert(entry.baby);
        if (gi != 0) rotations.insert(gi % static_cast<int>(n_));
        if (entry.turned) turn_ = span;
        diag_values_.push_back(std::move(entry));
    }
    if (turn_ != 0) rotations.insert(turn_);
    required_rotations_.assign(rotations.begin(), rotations.end());
}

Ciphertext
LinearTransform::apply(const Evaluator& eval, const Ciphertext& ct,
                       const RotationKeys& rot_keys) const
{
    BTS_CHECK(ct.slots == n_, "slot count does not match the transform");
    BTS_CHECK(ct.level >= level_,
              "ciphertext level below the transform's compiled level");
    // Read in place at the compiled level; above it, a copy of the
    // limbs the transform keeps.
    const std::size_t limbs = static_cast<std::size_t>(level_) + 1;
    const Ciphertext dropped =
        ct.level == level_
            ? Ciphertext{}
            : Ciphertext{ct.b.prefix(limbs), ct.a.prefix(limbs), ct.scale,
                         level_, ct.slots};
    const Ciphertext& input = ct.level == level_ ? ct : dropped;

    const auto key_for = [&rot_keys](int r) {
        const auto it = rot_keys.find(r);
        BTS_CHECK(it != rot_keys.end(), "missing rotation key " << r);
        return &it->second;
    };

    // Baby steps of each input the diagonals read, as Q*P pairs (P
    // times the rotation): baby 0 is the input's own pair, and the
    // amounts share one ModUp of its mask and pay one inner product
    // each, with no ModDown.
    const auto baby_front = [&](const Ciphertext& src, bool turned) {
        std::vector<ExtPair> baby(static_cast<std::size_t>(g_));
        std::vector<int> amounts;
        std::vector<const EvalKey*> keys;
        bool base = false;
        for (const auto& d : diag_values_) {
            if (d.turned != turned) continue;
            if (d.baby == 0) {
                base = true;
            } else if (std::find(amounts.begin(), amounts.end(), d.baby) ==
                       amounts.end()) {
                amounts.push_back(d.baby);
                keys.push_back(key_for(d.baby));
            }
        }
        if (base) baby[0] = eval.to_ext(src);
        if (!keys.empty()) {
            auto rotated = eval.rotate_hoisted_ext(src, keys);
            for (std::size_t i = 0; i < amounts.size(); ++i) {
                baby[amounts[i]] = std::move(rotated[i]);
            }
        }
        return baby;
    };
    const std::vector<ExtPair> baby = baby_front(input, false);
    std::vector<ExtPair> turned_baby;
    if (turn_ != 0) {
        turned_baby =
            baby_front(eval.rotate(input, turn_, *key_for(turn_)), true);
    }

    // Giant steps: each inner sum over Q*P, rotated (mask ModDown,
    // key-switch, body permuted) and accumulated over Q*P.
    int max_giant = 0;
    for (const auto& d : diag_values_) max_giant = std::max(max_giant, d.giant);
    ExtPair acc;
    bool acc_set = false;
    std::vector<std::pair<const ExtPair*, const Plaintext*>> terms;
    for (int i = 0; i <= max_giant; ++i) {
        terms.clear();
        for (const auto& d : diag_values_) {
            if (d.giant != i) continue;
            terms.emplace_back(&(d.turned ? turned_baby : baby)[d.baby],
                               &d.plaintext);
        }
        if (terms.empty()) continue;
        ExtPair inner = inner_sum(terms);
        const int gi = (i * g_) % static_cast<int>(n_);
        if (gi != 0) {
            inner = eval.rotate_ext(std::move(inner), gi, *key_for(gi),
                                    level_);
        }
        if (!acc_set) {
            acc = std::move(inner);
            acc_set = true;
        } else {
            acc.first.add_inplace(inner.first);
            acc.second.add_inplace(inner.second);
        }
    }
    BTS_ASSERT(acc_set, "linear transform accumulated nothing");

    // One ModDown per polynomial, then the rescale by the level's top
    // prime, which restores the input's scale exactly (the diagonals
    // were encoded at that prime).
    eval.mod_down_inplace(acc.first, level_);
    eval.mod_down_inplace(acc.second, level_);
    const double pt_scale = static_cast<double>(ctx_.q_primes()[level_]);
    Ciphertext out{std::move(acc.first), std::move(acc.second),
                   input.scale * pt_scale, level_, n_};
    eval.rescale_inplace(out);
    out.scale = ct.scale;
    return out;
}

LinearTransform::ExtPair
LinearTransform::inner_sum(
    const std::vector<std::pair<const ExtPair*, const Plaintext*>>& terms)
    const
{
    // One pass over every limb and coefficient of Q*P: each residue of
    // b and of a is the sum of its terms' products, accumulated in 128
    // bits and reduced once (mid-sum only past lazy_sum_terms(2q)
    // terms, the budget for a [0, 2q) residue times a canonical one;
    // baby steps and diagonals are both canonical, so it holds with
    // room). The pairs and the diagonals' limbs are read in place.
    const std::size_t n = ctx_.n();
    const auto primes = ctx_.extended_primes(level_);
    const std::size_t limbs = primes.size();
    const std::size_t count = terms.size();
    std::vector<const u64*> xb(count), xa(count), pt(count);
    for (std::size_t t = 0; t < count; ++t) {
        const auto& [pair, plain] = terms[t];
        BTS_ASSERT(pair->first.num_primes() == limbs &&
                       plain->num_primes() == static_cast<int>(limbs),
                   "BSGS term off the transform's extended base");
        xb[t] = pair->first.data();
        xa[t] = pair->second.data();
        pt[t] = plain->poly.data();
    }
    std::vector<Barrett> barrett(limbs);
    std::vector<std::size_t> budget(limbs);
    for (std::size_t l = 0; l < limbs; ++l) {
        barrett[l] = Barrett(primes[l]);
        budget[l] = lazy_sum_terms(2 * primes[l]);
    }
    ExtPair out{RnsPoly(n, primes, Domain::kNtt, RnsPoly::Uninit{}),
                RnsPoly(n, primes, Domain::kNtt, RnsPoly::Uninit{})};
    parallel_for_2d(
        limbs, n, [&](std::size_t l, std::size_t c0, std::size_t c1) {
            const Barrett& br = barrett[l];
            const std::size_t row = l * n;
            u64* ob = out.first.component(l).data();
            u64* oa = out.second.component(l).data();
            for (std::size_t c = c0; c < c1; ++c) {
                u128 sb = 0, sa = 0;
                std::size_t room = budget[l];
                for (std::size_t t = 0; t < count; ++t) {
                    if (room == 0) {
                        sb = br.reduce(sb);
                        sa = br.reduce(sa);
                        room = budget[l];
                    }
                    const u64 p = pt[t][row + c];
                    sb += static_cast<u128>(xb[t][row + c]) * p;
                    sa += static_cast<u128>(xa[t][row + c]) * p;
                    --room;
                }
                ob[c] = br.reduce(sb);
                oa[c] = br.reduce(sa);
            }
        });
    return out;
}

std::vector<std::vector<Complex>>
scaled_identity_matrix(std::size_t n, Complex s)
{
    std::vector<std::vector<Complex>> m(n, std::vector<Complex>(n, 0));
    for (std::size_t i = 0; i < n; ++i) m[i][i] = s;
    return m;
}

} // namespace bts
