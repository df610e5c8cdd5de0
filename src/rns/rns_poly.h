/**
 * @file
 * RNS residue-matrix polynomial over flat contiguous storage.
 *
 * A level-l polynomial in R_Q is an N x (l+1) matrix of residues
 * (Section 2.2 of the paper): row i holds the residue polynomial modulo
 * q_i. The whole matrix lives in ONE contiguous limb-major buffer of
 * num_primes x N words — the same layout the accelerator streams
 * through its coefficient-level PEs — so hot loops tile over 2-D
 * (limb x coefficient-block) work items via parallel_for_2d and thread
 * utilization does not collapse as the modulus chain shrinks. Backing
 * buffers recycle through the common workspace pool, so temporary
 * polynomials on the key-switch/rescale paths stop hitting the heap.
 *
 * Each polynomial tracks whether it currently lives in the coefficient
 * ("RNS") domain or the NTT domain; BTS keeps polynomials in the NTT
 * domain by default and drops back only for BConv (Section 4.1); the
 * Galois automorphism has a form for each domain.
 */
#pragma once

#include <vector>

#include "common/span.h"
#include "common/types.h"
#include "common/workspace.h"
#include "math/mod_arith.h"
#include "math/ntt.h"
#include "rns/rns_base.h"

namespace bts {

/** Which representation a residue polynomial is currently in. */
enum class Domain { kCoeff, kNtt };

/**
 * A polynomial with one residue row per prime of an RNS base.
 *
 * The object does not own NTT tables; callers pass per-prime tables
 * (matching its primes, in order) for domain changes. The CKKS context
 * provides them.
 */
class RnsPoly
{
  public:
    /** Tag requesting uninitialized residues (see the tagged ctor). */
    struct Uninit
    {};

    RnsPoly() = default;

    /** Zero polynomial of degree @p n over @p primes. */
    RnsPoly(std::size_t n, std::vector<u64> primes, Domain domain);

    /**
     * Polynomial with UNINITIALIZED residues — for temporaries whose
     * every word is provably overwritten before being read (row-copy
     * reassembly, bijective scatters, full-tile kernels). Skips the
     * O(num_primes x N) zero-fill the default constructor pays.
     * Accumulators and sparse writers must use the zeroing constructor.
     */
    RnsPoly(std::size_t n, std::vector<u64> primes, Domain domain, Uninit);

    ~RnsPoly();
    RnsPoly(const RnsPoly& other);
    RnsPoly& operator=(const RnsPoly& other);
    RnsPoly(RnsPoly&& other) noexcept = default;
    RnsPoly& operator=(RnsPoly&& other) noexcept;

    std::size_t degree() const { return n_; }
    std::size_t num_primes() const { return primes_.size(); }
    const std::vector<u64>& primes() const { return primes_; }
    u64 prime(std::size_t i) const { return primes_[i]; }
    Domain domain() const { return domain_; }
    void set_domain(Domain d) { domain_ = d; }

    /**
     * View of the residue row for prime index @p i (length N). Rows are
     * contiguous: component(i).data() == data() + i * degree(). Views
     * are invalidated by push_component (may reallocate) and by
     * destruction; truncate/pop keep surviving rows valid.
     */
    Span component(std::size_t i)
    {
        return {data_.data() + i * n_, n_};
    }
    ConstSpan component(std::size_t i) const
    {
        return {data_.data() + i * n_, n_};
    }

    /** The flat limb-major buffer (num_primes() * degree() words). */
    u64* data() { return data_.data(); }
    const u64* data() const { return data_.data(); }

    /**
     * Append a row for an extra prime (used by ModUp). @p values must
     * not alias this polynomial's own storage.
     */
    void push_component(u64 prime, ConstSpan values);

    /** Drop the last row (used by rescaling). */
    void pop_component();

    /** Keep only the first @p count rows (level drop). */
    void truncate(std::size_t count);

    /** A copy of the first @p count rows: a level-dropped copy that
     *  never copies the rows it drops. */
    RnsPoly prefix(std::size_t count) const;

    /** How sub_mul_scalar_inplace should interpret its SOURCE operand's
     *  residues: canonical in [0, q) (the storage invariant) or lazy in
     *  [0, 2q) (fresh out of to_ntt_lazy). The destination polynomial is
     *  always canonical before and after. */
    enum class Residues
    {
        kCanonical,
        kLazy2q,
    };

    // ----- element-wise arithmetic (both operands in the same domain and
    //       over compatible prime prefixes); all 2-D tiled -----
    /** this += other, reading @p other's first num_primes() rows in
     *  place; both operands canonical. */
    void add_inplace(const RnsPoly& other);
    /** this -= other, the same way. */
    void sub_inplace(const RnsPoly& other);
    void negate_inplace();
    /** this *= other, element-wise Barrett products, reading @p other's
     *  first num_primes() rows in place. Tolerates residues in [0, 2q)
     *  on BOTH operands (2q * 2q < q * 2^64, Barrett::reduce's input
     *  bound); output is canonical either way. */
    void mul_inplace(const RnsPoly& other);
    /** Multiply every row by per-prime scalars. */
    void mul_scalar_inplace(const std::vector<u64>& scalars);
    /** this = (this - other) * scalars[i] per limb, one fused pass.
     *  @p form kLazy2q accepts a [0, 2q) source; the full Shoup product
     *  canonicalizes, so the reduction is paid once per chain. */
    void sub_mul_scalar_inplace(const RnsPoly& other,
                                const std::vector<u64>& scalars,
                                Residues form = Residues::kCanonical);
    /** The same with one precomputed Shoup context per row (constants
     *  a caller keeps across calls, e.g. ModDown's P^{-1}). */
    void sub_mul_scalar_inplace(const RnsPoly& other,
                                const ShoupMul* scalars,
                                Residues form = Residues::kCanonical);
    /** this += other * scalars[i] per limb, one fused pass that reads
     *  @p other's first num_primes() rows in place (a multiply-
     *  accumulate of constant-scaled terms needs no per-term copy). */
    void add_mul_scalar_inplace(const RnsPoly& other,
                                const std::vector<u64>& scalars);

    // ----- domain changes (batch NTT over the flat buffer) -----
    /** Forward NTT on all rows using matching @p tables. */
    void to_ntt(const std::vector<const NttTables*>& tables);
    /**
     * Forward NTT leaving residues LAZY in [0, 2q) (Harvey domain; same
     * values mod q as to_ntt, one correction pass cheaper). The result
     * violates the canonical-storage invariant, so it is for transient
     * polynomials that are immediately consumed by a lazy-tolerant op
     * (mul_inplace, the evaluator's key-switch inner product, or the
     * Residues::kLazy2q form above) — never for ciphertext storage.
     */
    void to_ntt_lazy(const std::vector<const NttTables*>& tables);
    /** Inverse NTT on all rows (accepts lazy input; canonical output). */
    void to_coeff(const std::vector<const NttTables*>& tables);

    /**
     * Apply the Galois automorphism X -> X^galois_exp (odd exponent) in
     * the coefficient domain: coefficient i moves to i*galois_exp mod 2N
     * with sign flip past N (Eq. 5 of the paper generates exponents
     * 5^r mod 2N; conjugation uses 2N-1).
     */
    RnsPoly automorphism(u64 galois_exp) const;

    /** The same automorphism on NTT-domain residues: a gather through
     *  @p index = ntt_galois_index(N, galois_exp), one pass per limb.
     *  Equals to_ntt(automorphism(to_coeff(x))) with no transform;
     *  [0, 2q) residues stay lazy and congruent mod q. */
    RnsPoly automorphism_ntt(const std::vector<u32>& index) const;

    /** Deep equality (same primes, domain, and residues). */
    bool equals(const RnsPoly& other) const;

  private:
    std::size_t n_ = 0;
    Domain domain_ = Domain::kCoeff;
    std::vector<u64> primes_;
    U64Buffer data_; //!< limb-major, primes_.size() * n_ words
};

} // namespace bts
