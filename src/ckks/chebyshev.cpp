#include "ckks/chebyshev.h"

#include <algorithm>
#include <cmath>

#include "common/bit_ops.h"
#include "common/check.h"
#include "math/mod_arith.h"

namespace bts {

ChebyshevSeries::ChebyshevSeries(std::vector<double> coeffs, double a,
                                 double b)
    : coeffs_(std::move(coeffs)), a_(a), b_(b)
{
    BTS_CHECK(!coeffs_.empty(), "empty series");
    BTS_CHECK(a < b, "invalid interval");
}

ChebyshevSeries
ChebyshevSeries::interpolate(const std::function<double(double)>& f, double a,
                             double b, int degree)
{
    BTS_CHECK(degree >= 0, "degree must be nonnegative");
    const int nodes = degree + 1;
    const int pairs = nodes / 2;
    const double mid = 0.5 * (a + b);
    const double half = 0.5 * (b - a);
    // Node k sits at x_k = cos(pi (k + 1/2) / n) and node n-1-k at -x_k.
    // Each mirror pair is sampled at exactly mid +- half x_k, and the DCT
    // folds over the pairs with cos(pi j (n-1-k+1/2)/n) =
    // (-1)^j cos(pi j (k+1/2)/n): even j reads the pair sums, odd j the
    // differences. A function with parity on a symmetric interval thus
    // gets exactly 0.0 in the coefficients of the other parity.
    std::vector<double> sums(pairs), diffs(pairs);
    for (int k = 0; k < pairs; ++k) {
        const double x = std::cos(M_PI * (k + 0.5) / nodes);
        const double hi = f(mid + half * x);
        const double lo = f(mid - half * x);
        sums[k] = hi + lo;
        diffs[k] = hi - lo;
    }
    // An odd node count adds the middle node x = 0, whose factor
    // cos(pi j / 2) is exactly 0 for odd j and (-1)^(j/2) for even j.
    const double center = nodes % 2 == 1 ? f(mid) : 0.0;
    std::vector<double> coeffs(nodes);
    for (int j = 0; j < nodes; ++j) {
        const std::vector<double>& folded = j % 2 == 0 ? sums : diffs;
        double acc = 0.0;
        for (int k = 0; k < pairs; ++k) {
            acc += folded[k] * std::cos(M_PI * j * (k + 0.5) / nodes);
        }
        if (j % 2 == 0) acc += j % 4 == 0 ? center : -center;
        coeffs[j] = 2.0 * acc / nodes;
    }
    coeffs[0] *= 0.5;
    return ChebyshevSeries(std::move(coeffs), a, b);
}

double
ChebyshevSeries::evaluate(double x) const
{
    // Clenshaw recurrence on the normalized argument.
    const double y = (2.0 * x - (a_ + b_)) / (b_ - a_);
    double b1 = 0.0, b2 = 0.0;
    for (int j = degree(); j >= 1; --j) {
        const double tmp = 2.0 * y * b1 - b2 + coeffs_[j];
        b2 = b1;
        b1 = tmp;
    }
    return y * b1 - b2 + coeffs_[0];
}

double
ChebyshevSeries::max_error(const std::function<double(double)>& f,
                           int samples) const
{
    double worst = 0.0;
    for (int i = 0; i <= samples; ++i) {
        const double x = a_ + (b_ - a_) * i / samples;
        worst = std::max(worst, std::abs(f(x) - evaluate(x)));
    }
    return worst;
}

void
chebyshev_divmod(const std::vector<double>& f, int g,
                 std::vector<double>& quotient, std::vector<double>& remainder)
{
    const int deg = static_cast<int>(f.size()) - 1;
    BTS_CHECK(g >= 1 && g <= deg, "divisor degree out of range");
    quotient.assign(deg - g + 1, 0.0);
    remainder = f;
    for (int j = deg; j > g; --j) {
        const double cj = remainder[j];
        if (cj == 0.0) continue;
        // T_g * (2 c_j T_{j-g}) = c_j T_j + c_j T_{|2g-j|}
        quotient[j - g] = 2.0 * cj;
        remainder[j] = 0.0;
        remainder[std::abs(2 * g - j)] -= cj;
    }
    quotient[0] = remainder[g];
    remainder[g] = 0.0;
    remainder.resize(g);
    if (remainder.empty()) remainder.assign(1, 0.0);
}

int
ChebyshevEvaluator::baby_step_count(int degree)
{
    // Power of two near sqrt(degree + 1).
    int m = 1;
    while (m * m < degree + 1) m <<= 1;
    return std::max(2, m);
}

namespace {

/** The giant step a node of degree @p deg >= m divides by: the largest
 *  T_{2^k m} <= deg. */
int
giant_for(int deg, int m)
{
    int g = m;
    while (2 * g <= deg) g *= 2;
    return g;
}

/** Walk eval_recurse's divmod tree without ciphertexts and mark the
 *  powers it reads: each leaf's T_j with c_j != 0 and each giant T_g. */
void
mark_powers(const std::vector<double>& coeffs, int m, std::vector<bool>& need)
{
    const int deg = static_cast<int>(coeffs.size()) - 1;
    if (deg < m) {
        for (int j = 1; j <= deg; ++j) {
            if (coeffs[j] != 0.0) need[j] = true;
        }
        return;
    }
    const int g = giant_for(deg, m);
    need[g] = true;
    std::vector<double> quotient, remainder;
    chebyshev_divmod(coeffs, g, quotient, remainder);
    mark_powers(quotient, m, need);
    mark_powers(remainder, m, need);
}

/** Levels T_j sits below T_1: build_power_basis makes it from
 *  T_{floor(j/2)} and T_{ceil(j/2)} with one rescale. */
int
power_depth(int j)
{
    return log2_ceil(static_cast<u64>(j));
}

/** Walk eval_recurse's divmod tree without ciphertexts: the levels its
 *  result lands below T_1. A leaf rescales once below the deepest T_j
 *  it reads; a node's product rescales once below its quotient and its
 *  giant, and the sum sits at the lower of the product and the
 *  remainder. */
int
tree_depth(const std::vector<double>& coeffs, int m)
{
    const int deg = static_cast<int>(coeffs.size()) - 1;
    if (deg < m) {
        int d = 0;
        for (int j = 1; j <= deg; ++j) {
            if (coeffs[j] != 0.0) d = std::max(d, power_depth(j));
        }
        return d + 1;
    }
    const int g = giant_for(deg, m);
    std::vector<double> quotient, remainder;
    chebyshev_divmod(coeffs, g, quotient, remainder);
    const int product =
        std::max(tree_depth(quotient, m), power_depth(g)) + 1;
    return std::max(product, tree_depth(remainder, m));
}

} // namespace

int
ChebyshevEvaluator::levels(const ChebyshevSeries& series)
{
    return 1 + tree_depth(series.coeffs(), baby_step_count(series.degree()));
}

ChebyshevEvaluator::PowerBasis
ChebyshevEvaluator::build_power_basis(const Ciphertext& y,
                                      const std::vector<double>& coeffs,
                                      const EvalKey& mult_key) const
{
    const int degree = static_cast<int>(coeffs.size()) - 1;
    const int m = baby_step_count(degree);
    const int top = giant_for(degree, m);

    PowerBasis basis;
    basis.m = m;
    basis.t.resize(top + 1);
    basis.have.assign(top + 1, false);
    basis.t[1] = y;
    basis.have[1] = true;

    // T_{2k} = 2 T_k^2 - 1 ; T_{2k+1} = 2 T_k T_{k+1} - T_1.
    // Scales are tracked exactly: the T_1 subtraction happens BEFORE the
    // rescale, on a copy of T_1 brought to the product's exact scale by
    // a free (rescale-less) constant multiplication.
    std::function<const Ciphertext&(int)> get =
        [&](int j) -> const Ciphertext& {
        BTS_ASSERT(j >= 1 && j <= top, "power index out of range");
        if (basis.have[j]) return basis.t[j];
        const int lo = j / 2;
        const int hi = j - lo;
        const Ciphertext& a = get(lo);
        const Ciphertext& b = get(hi);
        Ciphertext prod = eval_.mult(a, b, mult_key);
        // Double the VALUE without a level: ct + ct at unchanged scale.
        prod.b.add_inplace(prod.b);
        prod.a.add_inplace(prod.a);
        if (lo == hi) {
            // 2 T_k^2 - 1: the constant is subtracted after the rescale
            // (the raw double-width scale would overflow the 62-bit
            // constant encoder); add_const at the ciphertext's own scale
            // is exact up to one rounding of the constant.
            eval_.rescale_inplace(prod);
            eval_.add_const_inplace(prod, Complex(-1.0, 0.0));
            basis.t[j] = std::move(prod);
            basis.have[j] = true;
            return basis.t[j];
        } else {
            Ciphertext t1 = basis.t[1];
            eval_.drop_level_inplace(t1, prod.level);
            // Bring T_1 to the product's exact raw scale (free CMult).
            t1 = eval_.mult_const(t1, 1.0, prod.scale / t1.scale);
            t1.scale = prod.scale;
            prod.b.sub_inplace(t1.b);
            prod.a.sub_inplace(t1.a);
        }
        eval_.rescale_inplace(prod);
        basis.t[j] = std::move(prod);
        basis.have[j] = true;
        return basis.t[j];
    };

    // Only the powers the evaluation reads; get() builds their
    // T_{floor(j/2)} and T_{ceil(j/2)} dependencies on the way.
    std::vector<bool> need(top + 1, false);
    mark_powers(coeffs, m, need);
    for (int j = 2; j <= top; ++j) {
        if (need[j]) get(j);
        BTS_ASSERT(!basis.have[j] ||
                       basis.t[j].level == y.level - power_depth(j),
                   "power T_" << j << " off its planned level");
    }
    return basis;
}

int
ChebyshevEvaluator::level_of(const std::vector<double>& coeffs,
                             const PowerBasis& basis) const
{
    return basis.t[1].level - tree_depth(coeffs, basis.m);
}

Ciphertext
ChebyshevEvaluator::eval_recurse(const std::vector<double>& coeffs,
                                 const PowerBasis& basis,
                                 const EvalKey& mult_key,
                                 double target_scale) const
{
    const int deg = static_cast<int>(coeffs.size()) - 1;

    if (deg < basis.m) {
        // Leaf: sum_j c_j T_j with ONE rescale. Term j is multiplied by
        // the integer iv_j = round(c_j * target * q / scale(T_j)), q the
        // prime just above the leaf's level, so every iv_j T_j sits at
        // the raw scale target * q; the terms accumulate at level
        // lvl + 1, reading each T_j's limbs in place, and the rescale
        // lands the sum on target. A term whose iv_j rounds to 0
        // contributes exactly nothing and is skipped.
        const int lvl = level_of(coeffs, basis);
        BTS_CHECK(lvl >= 0, "ran out of levels in Chebyshev leaf");
        const CkksContext& ctx = eval_.context();
        const std::vector<u64> primes = ctx.level_primes(lvl + 1);
        const double q_top = static_cast<double>(primes.back());

        Ciphertext acc;
        acc.b = RnsPoly(ctx.n(), primes, Domain::kNtt);
        acc.a = RnsPoly(ctx.n(), primes, Domain::kNtt);
        acc.level = lvl + 1;
        acc.scale = target_scale * q_top;
        acc.slots = basis.t[1].slots;
        std::vector<u64> scalars(primes.size());
        for (int j = 1; j <= deg; ++j) {
            if (coeffs[j] == 0.0) continue; // T_j was not built
            const Ciphertext& t = basis.t[j];
            const double scaled =
                coeffs[j] * (target_scale * q_top / t.scale);
            BTS_CHECK(std::abs(scaled) < 0x1.0p62,
                      "constant overflows 62 bits");
            const i64 iv = static_cast<i64>(std::llround(scaled));
            if (iv == 0) continue;
            for (std::size_t i = 0; i < primes.size(); ++i) {
                scalars[i] = signed_to_mod(iv, primes[i]);
            }
            acc.b.add_mul_scalar_inplace(t.b, scalars);
            acc.a.add_mul_scalar_inplace(t.a, scalars);
        }
        eval_.rescale_inplace(acc);
        acc.scale = target_scale; // exact by construction
        eval_.add_const_inplace(acc, Complex(coeffs[0], 0.0));
        return acc;
    }

    const int g = giant_for(deg, basis.m);
    std::vector<double> quotient, remainder;
    chebyshev_divmod(coeffs, g, quotient, remainder);

    // Choose the quotient's target so that (q * T_g) rescaled lands
    // exactly on target_scale: s_q = target * q_dropped / s_g.
    const int lq = level_of(quotient, basis);
    const int prod_level = std::min(lq, basis.t[g].level);
    const u64 q_dropped = eval_.context().q_primes()[prod_level];
    const double s_g = basis.t[g].scale;
    const double s_q =
        target_scale * static_cast<double>(q_dropped) / s_g;

    Ciphertext q_ct = eval_recurse(quotient, basis, mult_key, s_q);
    Ciphertext prod = eval_.mult(q_ct, basis.t[g], mult_key);
    BTS_ASSERT(prod.level == prod_level, "level prediction mismatch");
    eval_.rescale_inplace(prod);
    prod.scale = target_scale; // exact by construction (up to 1 ulp)

    Ciphertext r_ct =
        eval_recurse(remainder, basis, mult_key, target_scale);
    eval_.drop_level_inplace(r_ct, std::min(r_ct.level, prod.level));
    eval_.drop_level_inplace(prod, r_ct.level);
    prod.b.add_inplace(r_ct.b);
    prod.a.add_inplace(r_ct.a);
    return prod;
}

Ciphertext
ChebyshevEvaluator::evaluate(const Ciphertext& ct,
                             const ChebyshevSeries& series,
                             const EvalKey& mult_key) const
{
    return evaluate(ct, series, mult_key, eval_.context().delta());
}

Ciphertext
ChebyshevEvaluator::evaluate(const Ciphertext& ct,
                             const ChebyshevSeries& series,
                             const EvalKey& mult_key,
                             double target_scale) const
{
    BTS_CHECK(series.degree() >= 1, "series must have degree >= 1");
    const double a = series.lower();
    const double b = series.upper();
    const double delta = eval_.context().delta();

    // Affine normalization y = (2x - (a+b)) / (b-a), one level. The
    // slope is applied as the integer k that lands the rescale near
    // Delta; from a high-scale input (the bootstrap's, at q0 = 2^50)
    // k has only about 30 bits. y's scale is derived from k itself, so
    // the slots read y without k's rounding (up to 5e-9 relative, which
    // on EvalMod's [-12.25, 12.25] would be the refresh's largest
    // error) and the scale sits within that rounding of Delta.
    BTS_CHECK(ct.level >= 1, "needs one level for the normalization");
    const double slope = 2.0 / (b - a);
    const double q_top = static_cast<double>(ct.b.prime(ct.level));
    const double k = std::round(slope * delta * q_top / ct.scale);
    BTS_CHECK(k != 0.0, "normalization constant rounds to 0");
    Ciphertext y = eval_.mult_const(ct, k, 1.0);
    y.scale = ct.scale * k / slope;
    eval_.rescale_inplace(y);
    if (a + b != 0.0) {
        eval_.add_const_inplace(y, Complex(-(a + b) / (b - a), 0.0));
    }

    const PowerBasis basis =
        build_power_basis(y, series.coeffs(), mult_key);
    Ciphertext out =
        eval_recurse(series.coeffs(), basis, mult_key, target_scale);
    BTS_ASSERT(out.level == ct.level - levels(series),
               "Chebyshev evaluation landed off its planned level");
    return out;
}

} // namespace bts
