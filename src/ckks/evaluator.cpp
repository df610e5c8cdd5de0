#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "math/mod_arith.h"
#include "runtime/telemetry/trace.h"

namespace bts {

Evaluator::Evaluator(const CkksContext& ctx, const CkksEncoder& encoder)
    : ctx_(ctx), encoder_(encoder)
{}

namespace {

void
check_plain_chain(const Ciphertext& ct, const Plaintext& pt)
{
    // Counting primes is not enough: the plaintext's chain must be a
    // prefix match of the ciphertext's (mirroring rescale_poly's chain
    // assertion). A re-based plaintext with the right *count* but the
    // wrong primes would silently produce garbage residues.
    BTS_CHECK(pt.num_primes() >= ct.level + 1,
              "plaintext level too low for the ciphertext");
    for (int i = 0; i <= ct.level; ++i) {
        BTS_CHECK(pt.poly.prime(i) == ct.b.prime(i),
                  "plaintext prime chain is not a prefix match of the "
                  "ciphertext's (re-based plaintext?) at limb "
                      << i);
    }
}

void
check_scale_match(double s1, double s2)
{
    // Guard before dividing: a zero / negative / NaN scale would turn
    // the ratio test into a meaningless (or division-by-zero) check.
    BTS_CHECK(s1 > 0.0 && s2 > 0.0,
              "operand scales must be positive: " << s1 << " vs " << s2);
    BTS_CHECK(std::abs(s1 / s2 - 1.0) < Evaluator::kScaleTolerance,
              "operand scales differ beyond tolerance: " << s1 << " vs "
                                                         << s2);
}

} // namespace

void
Evaluator::drop_level_inplace(Ciphertext& ct, int target_level) const
{
    BTS_CHECK(target_level >= 0 && target_level <= ct.level,
              "cannot raise level by dropping");
    ct.b.truncate(target_level + 1);
    ct.a.truncate(target_level + 1);
    ct.level = target_level;
}

namespace {

/** @p a's limbs up to @p level, copied without the ones above it. */
Ciphertext
prefix_copy(const Ciphertext& a, int level)
{
    const std::size_t limbs = static_cast<std::size_t>(level) + 1;
    return Ciphertext{a.b.prefix(limbs), a.a.prefix(limbs), a.scale, level,
                      a.slots};
}

} // namespace

Ciphertext
Evaluator::add(const Ciphertext& a, const Ciphertext& b) const
{
    // x holds a's limbs up to the common level; add_inplace reads only
    // that many rows of b, so b needs no level-dropped copy.
    check_scale_match(a.scale, b.scale);
    Ciphertext x = prefix_copy(a, std::min(a.level, b.level));
    x.b.add_inplace(b.b);
    x.a.add_inplace(b.a);
    return x;
}

Ciphertext
Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const
{
    check_scale_match(a.scale, b.scale);
    Ciphertext x = prefix_copy(a, std::min(a.level, b.level));
    x.b.sub_inplace(b.b);
    x.a.sub_inplace(b.a);
    return x;
}

Ciphertext
Evaluator::negate(const Ciphertext& a) const
{
    Ciphertext out = a;
    out.b.negate_inplace();
    out.a.negate_inplace();
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::evk_inner_product(const RnsPoly& d,
                             const std::vector<RnsPoly>& raised,
                             const EvalKey& evk, int level,
                             const std::vector<u32>* index) const
{
    // evk polynomials live over {q_0..q_L, p_0..p_{k-1}}; the slices
    // and the result over {q_0..q_l, p_0..p_{k-1}}. Ext limb i reads key
    // limb i (q part) or L+1+(i-level-1) (special part) in place, and
    // slice j's limb i in place too: d's own row when q_i is one of the
    // slice's primes, else the next row of raised[j]. With an @p index
    // map, each slice is read through it: the product is that of its
    // automorphism image, which is never built.
    //
    // The converted rows are LAZY residues in [0, 2q) (from
    // to_ntt_lazy) against canonical key residues: every product is
    // below 2q * q, so a residue's sum over the slices accumulates in
    // 128 bits and is reduced once (mid-sum only past
    // lazy_sum_terms(2q) slices).
    const int L = ctx_.max_level();
    const std::size_t n = ctx_.n();
    const std::size_t dnum = raised.size();
    const auto ext = ctx_.extended_primes(level);
    const std::size_t count = ext.size();
    BTS_ASSERT(dnum <= evk.slices.size(), "evaluation key has too few slices");
    BTS_ASSERT(index == nullptr || index->size() == n,
               "evk inner product index map size mismatch");
    BTS_ASSERT(d.domain() == Domain::kNtt &&
                   d.num_primes() == static_cast<std::size_t>(level) + 1,
               "evk inner product operand mismatch");

    // Per limb: its reducer and term budget, and row pointers
    // [limb][slice] into the slices and both key polynomials.
    std::vector<Barrett> barrett(count);
    std::vector<std::size_t> terms(count);
    std::vector<const u64*> fr(count * dnum), kb(count * dnum),
        ka(count * dnum);
    for (std::size_t j = 0; j < dnum; ++j) {
        const auto [begin, end] =
            ctx_.slice_range(static_cast<int>(j), level);
        const std::size_t own = static_cast<std::size_t>(end - begin);
        BTS_ASSERT(raised[j].domain() == Domain::kNtt &&
                       raised[j].num_primes() == count - own,
                   "evk inner product operand mismatch");
        for (std::size_t i = 0; i < count; ++i) {
            const int ii = static_cast<int>(i);
            fr[i * dnum + j] =
                ii >= begin && ii < end
                    ? d.component(i).data()
                    : raised[j].component(ii < begin ? i : i - own).data();
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        barrett[i] = Barrett(ext[i]);
        terms[i] = lazy_sum_terms(2 * ext[i]);
        const std::size_t ki =
            static_cast<int>(i) <= level
                ? i
                : static_cast<std::size_t>(L + 1) - (level + 1) + i;
        for (std::size_t j = 0; j < dnum; ++j) {
            kb[i * dnum + j] = evk.slices[j].first.component(ki).data();
            ka[i * dnum + j] = evk.slices[j].second.component(ki).data();
        }
    }
    RnsPoly out_b(n, ext, Domain::kNtt, RnsPoly::Uninit{});
    RnsPoly out_a(n, ext, Domain::kNtt, RnsPoly::Uninit{});
    const u32* const ix = index == nullptr ? nullptr : index->data();
    parallel_for_2d(
        count, n,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const Barrett& br = barrett[i];
            const std::size_t budget = terms[i];
            const u64* const* f = fr.data() + i * dnum;
            const u64* const* kbi = kb.data() + i * dnum;
            const u64* const* kai = ka.data() + i * dnum;
            u64* ob = out_b.component(i).data();
            u64* oa = out_a.component(i).data();
            for (std::size_t c = c0; c < c1; ++c) {
                const std::size_t src = ix == nullptr ? c : ix[c];
                u128 sb = 0, sa = 0;
                std::size_t room = budget;
                for (std::size_t j = 0; j < dnum; ++j) {
                    if (room == 0) {
                        sb = br.reduce(sb);
                        sa = br.reduce(sa);
                        room = budget;
                    }
                    const u64 fv = f[j][src];
                    sb += static_cast<u128>(fv) * kbi[j][c];
                    sa += static_cast<u128>(fv) * kai[j][c];
                    --room;
                }
                ob[c] = br.reduce(sb);
                oa[c] = br.reduce(sa);
            }
        });
    return {std::move(out_b), std::move(out_a)};
}

RnsPoly
Evaluator::mod_up(const RnsPoly& d, int slice, int level) const
{
    BTS_CHECK(d.domain() == Domain::kNtt, "ModUp expects NTT domain");
    const auto q_primes = ctx_.level_primes(level);
    const auto [begin, end] = ctx_.slice_range(slice, level);

    // ModUp: iNTT the slice, base-convert to the complement + P, NTT.
    std::vector<u64> src(q_primes.begin() + begin, q_primes.begin() + end);
    std::vector<u64> tgt;
    for (int i = 0; i <= level; ++i) {
        if (i < begin || i >= end) tgt.push_back(q_primes[i]);
    }
    tgt.insert(tgt.end(), ctx_.p_primes().begin(), ctx_.p_primes().end());

    RnsPoly d_slice(ctx_.n(), src, Domain::kNtt, RnsPoly::Uninit{});
    for (int i = begin; i < end; ++i) {
        d_slice.component(i - begin).copy_from(d.component(i));
    }
    d_slice.to_coeff(ctx_.tables_for(src));

    // Lazy forward transform: the only reader is the evk inner
    // product, which tolerates [0, 2q) inputs.
    RnsPoly converted = ctx_.converter(src, tgt).convert(d_slice);
    converted.to_ntt_lazy(ctx_.tables_for(tgt));
    return converted;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::key_switch(const RnsPoly& d, const EvalKey& evk, int level) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kEvaluator, "keyswitch");
    trace_span.set_level(level);
    BTS_CHECK(static_cast<int>(d.num_primes()) == level + 1,
              "polynomial does not match the stated level");
    BTS_CHECK(!evk.empty(), "evaluation key is empty");
    const int slices = ctx_.num_slices(level);
    BTS_CHECK(slices <= static_cast<int>(evk.slices.size()),
              "evaluation key has too few slices");

    // Every slice's ModUp is held at once, so each residue's inner
    // product over the slices is reduced once.
    std::vector<RnsPoly> raised;
    raised.reserve(static_cast<std::size_t>(slices));
    for (int j = 0; j < slices; ++j) raised.push_back(mod_up(d, j, level));
    auto [acc_b, acc_a] = evk_inner_product(d, raised, evk, level);
    mod_down_inplace(acc_b, level);
    mod_down_inplace(acc_a, level);
    return {std::move(acc_b), std::move(acc_a)};
}

void
Evaluator::mod_down_inplace(RnsPoly& acc, int level) const
{
    // ModDown: divide the accumulated polynomial by P (subtract the
    // P-residue lift, then multiply by P^{-1} mod q_i) — the SSA step
    // of Fig. 3a.
    const auto q_primes = ctx_.level_primes(level);
    const int k = ctx_.num_special();
    RnsPoly p_part(ctx_.n(), ctx_.p_primes(), Domain::kNtt,
                   RnsPoly::Uninit{});
    for (int t = 0; t < k; ++t) {
        p_part.component(t).copy_from(acc.component(level + 1 + t));
    }
    p_part.to_coeff(ctx_.tables_for(ctx_.p_primes()));
    RnsPoly lifted =
        ctx_.converter(ctx_.p_primes(), q_primes).convert(p_part);
    lifted.to_ntt_lazy(ctx_.tables_for(q_primes));

    acc.truncate(level + 1);
    // One fused subtract-multiply pass with the cached P^{-1}
    // constants; the lazy NTT output above is canonicalized by the full
    // Shoup product inside it.
    acc.sub_mul_scalar_inplace(lifted, ctx_.p_inv_shoup().data(),
                               RnsPoly::Residues::kLazy2q);
}

std::vector<Ciphertext>
Evaluator::rotate_hoisted(const Ciphertext& ct,
                          const std::vector<int>& amounts,
                          const RotationKeys& keys) const
{
    std::vector<const EvalKey*> resolved;
    resolved.reserve(amounts.size());
    for (const int r : amounts) {
        if (r == 0) {
            resolved.push_back(nullptr);
            continue;
        }
        const auto it = keys.find(r);
        BTS_CHECK(it != keys.end(), "missing rotation key " << r);
        resolved.push_back(&it->second);
    }
    return rotate_hoisted(ct, amounts, resolved);
}

std::vector<std::pair<RnsPoly, RnsPoly>>
Evaluator::hoisted_products(const RnsPoly& d, int level,
                            const std::vector<const EvalKey*>& keys,
                            const std::vector<std::vector<u32>>& indices) const
{
    BTS_ASSERT(keys.size() == indices.size(), "one index map per key");
    if (keys.empty()) return {};
    // Shared prefix: one decompose + ModUp of d. The automorphism
    // commutes with BConv (base conversion is coefficient-wise), so
    // every key reads these slices through its own NTT index map.
    std::vector<RnsPoly> raised;
    for (int j = 0; j < ctx_.num_slices(level); ++j) {
        raised.push_back(mod_up(d, j, level));
    }
    std::vector<std::pair<RnsPoly, RnsPoly>> out;
    out.reserve(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
        BTS_CHECK(raised.size() <= keys[k]->slices.size(),
                  "rotation key has too few slices");
        out.push_back(
            evk_inner_product(d, raised, *keys[k], level, &indices[k]));
    }
    return out;
}

void
Evaluator::add_p_times(RnsPoly& acc, const RnsPoly& src,
                       const std::vector<u32>* index) const
{
    // P*src is 0 mod every special prime: only acc's Q limbs change.
    const std::size_t n = ctx_.n();
    const std::size_t limbs = src.num_primes();
    BTS_ASSERT(acc.num_primes() > limbs && acc.domain() == Domain::kNtt &&
                   src.domain() == Domain::kNtt,
               "P*src goes onto the Q limbs of an extended polynomial");
    const std::vector<ShoupMul>& p_mod = ctx_.p_shoup();
    const u32* const ix = index == nullptr ? nullptr : index->data();
    parallel_for_2d(
        limbs, n, [&](std::size_t l, std::size_t c0, std::size_t c1) {
            const u64 q = acc.prime(l);
            const ShoupMul& pm = p_mod[l];
            const u64* from = src.component(l).data();
            u64* to = acc.component(l).data();
            if (ix == nullptr) {
                for (std::size_t c = c0; c < c1; ++c) {
                    to[c] = add_mod(to[c], pm.mul(from[c], q), q);
                }
            } else {
                for (std::size_t c = c0; c < c1; ++c) {
                    to[c] = add_mod(to[c], pm.mul(from[ix[c]], q), q);
                }
            }
        });
}

std::vector<Ciphertext>
Evaluator::rotate_hoisted(const Ciphertext& ct,
                          const std::vector<int>& amounts,
                          const std::vector<const EvalKey*>& keys) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kEvaluator, "rotate.hoisted");
    trace_span.set_level(ct.level);
    trace_span.set_arg(static_cast<i64>(amounts.size()));
    BTS_CHECK(keys.size() == amounts.size(),
              "one key per rotation amount expected");
    const int level = ct.level;

    std::vector<const EvalKey*> rotating;
    std::vector<std::vector<u32>> indices;
    for (std::size_t k = 0; k < amounts.size(); ++k) {
        const int r = amounts[k];
        if (r == 0) continue;
        const u64 exp = ctx_.galois_exp_for_rotation(r);
        BTS_CHECK(keys[k] != nullptr, "missing rotation key " << r);
        BTS_CHECK(keys[k]->galois_exp == exp, "rotation key mismatch");
        rotating.push_back(keys[k]);
        indices.push_back(ntt_galois_index(ctx_.n(), exp));
    }
    auto products = hoisted_products(ct.a, level, rotating, indices);

    std::vector<Ciphertext> out;
    out.reserve(amounts.size());
    std::size_t next = 0;
    for (const int r : amounts) {
        if (r == 0) {
            out.push_back(ct);
            continue;
        }
        auto& [acc_b, acc_a] = products[next];
        mod_down_inplace(acc_b, level);
        mod_down_inplace(acc_a, level);
        acc_b.add_inplace(ct.b.automorphism_ntt(indices[next]));
        out.push_back(Ciphertext{std::move(acc_b), std::move(acc_a),
                                 ct.scale, ct.level, ct.slots});
        ++next;
    }
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::to_ext(const Ciphertext& ct) const
{
    const auto ext = ctx_.extended_primes(ct.level);
    std::pair<RnsPoly, RnsPoly> out{RnsPoly(ctx_.n(), ext, Domain::kNtt),
                                    RnsPoly(ctx_.n(), ext, Domain::kNtt)};
    add_p_times(out.first, ct.b, nullptr);
    add_p_times(out.second, ct.a, nullptr);
    return out;
}

std::vector<std::pair<RnsPoly, RnsPoly>>
Evaluator::rotate_hoisted_ext(const Ciphertext& ct,
                              const std::vector<const EvalKey*>& keys) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kEvaluator, "rotate.hoisted");
    trace_span.set_level(ct.level);
    trace_span.set_arg(static_cast<i64>(keys.size()));
    std::vector<std::vector<u32>> indices;
    indices.reserve(keys.size());
    for (const EvalKey* key : keys) {
        BTS_CHECK(key != nullptr, "missing rotation key");
        indices.push_back(ntt_galois_index(ctx_.n(), key->galois_exp));
    }
    // (u, v) + P*sigma(b) on u's Q limbs: ModDown(u + P*sigma(b)) =
    // ModDown(u) + sigma(b) residue for residue, since P*sigma(b) leaves
    // the special-prime limbs ModDown lifts from untouched and P^{-1}
    // cancels it exactly.
    auto pairs = hoisted_products(ct.a, ct.level, keys, indices);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        add_p_times(pairs[k].first, ct.b, &indices[k]);
    }
    return pairs;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::rotate_ext(std::pair<RnsPoly, RnsPoly> ext, int r,
                      const EvalKey& rot_key, int level) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kEvaluator, "keyswitch");
    trace_span.set_level(level);
    auto& [body, mask] = ext;
    const std::size_t count = ctx_.extended_primes(level).size();
    BTS_CHECK(body.num_primes() == count && mask.num_primes() == count,
              "a Q*P pair must span the level's extended base");
    const u64 exp = ctx_.galois_exp_for_rotation(r);
    BTS_CHECK(rot_key.galois_exp == exp, "rotation key mismatch");

    // Only the mask needs the level-l base: it is what the key
    // switches. sigma(body) + sigma(mask)*sigma(s) = sigma(P*m), and
    // the key-switch of sigma(ModDown(mask)) stands for
    // P*sigma(ModDown(mask))*sigma(s), within ModDown's rounding.
    mod_down_inplace(mask, level);
    const std::vector<std::vector<u32>> index = {
        ntt_galois_index(ctx_.n(), exp)};
    auto products = hoisted_products(mask, level, {&rot_key}, index);
    auto& [switched_b, switched_a] = products.front();
    switched_b.add_inplace(body.automorphism_ntt(index.front()));
    return {std::move(switched_b), std::move(switched_a)};
}

Ciphertext
Evaluator::mult(const Ciphertext& a, const Ciphertext& b,
                const EvalKey& mult_key) const
{
    BTS_CHECK(a.slots == b.slots, "slot count mismatch");
    const int level = std::min(a.level, b.level);
    const std::size_t limbs = static_cast<std::size_t>(level) + 1;
    const std::size_t n = ctx_.n();
    for (const RnsPoly* p : {&a.b, &a.a, &b.b, &b.a}) {
        BTS_CHECK(p->domain() == Domain::kNtt && p->degree() == n &&
                      p->num_primes() >= limbs,
                  "HMult operands must be NTT-domain ciphertexts");
    }
    std::vector<Barrett> barrett(limbs);
    for (std::size_t i = 0; i < limbs; ++i) {
        BTS_CHECK(a.b.prime(i) == b.b.prime(i), "prime chain mismatch");
        barrett[i] = Barrett(a.b.prime(i));
    }

    // Tensor product (Eq. 3) in one pass over both operands' first
    // level+1 limbs, read in place: d0 = b1*b2, d1 = a1*b2 + b1*a2,
    // d2 = a1*a2. d1's two canonical products sum below 2q^2 <
    // q * 2^64, Barrett::reduce's bound, so they are reduced once.
    const std::vector<u64> primes(a.b.primes().begin(),
                                  a.b.primes().begin() + limbs);
    RnsPoly d0(n, primes, Domain::kNtt, RnsPoly::Uninit{});
    RnsPoly d1(n, primes, Domain::kNtt, RnsPoly::Uninit{});
    RnsPoly d2(n, primes, Domain::kNtt, RnsPoly::Uninit{});
    parallel_for_2d(
        limbs, n, [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const Barrett& br = barrett[i];
            const u64* b1 = a.b.component(i).data();
            const u64* a1 = a.a.component(i).data();
            const u64* b2 = b.b.component(i).data();
            const u64* a2 = b.a.component(i).data();
            u64* o0 = d0.component(i).data();
            u64* o1 = d1.component(i).data();
            u64* o2 = d2.component(i).data();
            for (std::size_t c = c0; c < c1; ++c) {
                o0[c] = br.mul(b1[c], b2[c]);
                o1[c] = br.reduce(static_cast<u128>(a1[c]) * b2[c] +
                                  static_cast<u128>(b1[c]) * a2[c]);
                o2[c] = br.mul(a1[c], a2[c]);
            }
        });

    // Key-switching (Eq. 4).
    auto [kb, ka] = key_switch(d2, mult_key, level);

    d0.add_inplace(kb);
    d1.add_inplace(ka);
    return Ciphertext{std::move(d0), std::move(d1), a.scale * b.scale, level,
                      a.slots};
}

Ciphertext
Evaluator::square(const Ciphertext& a, const EvalKey& mult_key) const
{
    return mult(a, a, mult_key);
}

Ciphertext
Evaluator::mult_rescale(const Ciphertext& a, const Ciphertext& b,
                        const EvalKey& mult_key) const
{
    Ciphertext out = mult(a, b, mult_key);
    rescale_inplace(out);
    return out;
}

Ciphertext
Evaluator::mult_plain_rescale(const Ciphertext& ct,
                              const Plaintext& pt) const
{
    Ciphertext out = mult_plain(ct, pt);
    rescale_inplace(out);
    return out;
}

Ciphertext
Evaluator::mult_plain_add_const(const Ciphertext& ct, const Plaintext& pt,
                                Complex c) const
{
    Ciphertext out = mult_plain(ct, pt);
    add_const_inplace(out, c);
    return out;
}

void
Evaluator::rescale_poly(RnsPoly& poly) const
{
    const std::size_t count = poly.num_primes();
    BTS_CHECK(count >= 2, "cannot rescale a level-0 polynomial");
    const std::size_t n = poly.degree();
    const int top = static_cast<int>(count) - 1;
    const u64 q_last = poly.prime(count - 1);
    // The cached constants are indexed by position in the q chain; the
    // whole chain must be a prefix of it, not just the top prime (a
    // re-based polynomial would otherwise pick up wrong constants).
    for (std::size_t i = 0; i < count; ++i) {
        BTS_ASSERT(poly.prime(i) == ctx_.q_primes()[i],
                   "rescale expects a q-chain-prefix polynomial");
    }

    // Bring the top component to the coefficient domain in place — the
    // row is discarded by pop_component below, so no copy is needed
    // (a single-limb transform stage-parallelizes across lanes). The
    // cached per-level table chain keeps this path allocation-free.
    const auto& q_tables = ctx_.level_tables(top);
    u64* const last_base = poly.component(count - 1).data();
    {
        BTS_TRACE_SPAN_VAR(trace_span, kKernel, "ntt.inv");
        trace_span.set_arg(1);
        ntt_inverse_batch(q_tables.data() + top, last_base, 1, n);
    }

    // HRescale over (limb x coefficient block): the per-limb axis alone
    // collapses at low level (2 of 8 lanes busy at level 2 — exactly
    // the parallelism cliff of PAPER.md Section 3), so every phase
    // below tiles the coefficient axis too.
    const u64 half = q_last >> 1;
    Workspace lifted((count - 1) * n);
    u64* const lifted_base = lifted.data();
    parallel_for_2d(
        count - 1, n,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            // Centered lift of the top residue into Z_qi.
            const u64 qi = poly.prime(i);
            const Barrett& br = ctx_.q_barrett()[i];
            const u64 q_last_mod_qi =
                ctx_.rescale_q_mod(top, static_cast<int>(i));
            u64* dst = lifted_base + i * n;
            for (std::size_t c = c0; c < c1; ++c) {
                u64 v = br.reduce(last_base[c]);
                if (last_base[c] > half) v = sub_mod(v, q_last_mod_qi, qi);
                dst[c] = v;
            }
        });

    // Lazy forward transform: the fused pass below reduces anyway.
    {
        BTS_TRACE_SPAN_VAR(trace_span, kKernel, "ntt.fwd_lazy");
        trace_span.set_arg(static_cast<i64>(count - 1));
        ntt_forward_batch_lazy(q_tables.data(), lifted_base, count - 1, n);
    }

    // Fused subtract-multiply with the cached Shoup inverse constants.
    // The lifted residues are lazy in [0, 2q); dst - src + 2q stays in
    // (0, 3q) and the full Shoup product canonicalizes it, so the lazy
    // NTT's skipped correction pass is absorbed here for free.
    parallel_for_2d(
        count - 1, n,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const u64 qi = poly.prime(i);
            const u64 two_qi = 2 * qi;
            const ShoupMul& inv = ctx_.rescale_inv(top, static_cast<int>(i));
            const u64* src = lifted_base + i * n;
            u64* dst = poly.component(i).data();
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = inv.mul(sub_lazy_2q(dst[c], src[c], two_qi), qi);
            }
        });
    poly.pop_component();
}

void
Evaluator::rescale_inplace(Ciphertext& ct) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kEvaluator, "rescale");
    trace_span.set_level(ct.level);
    BTS_CHECK(ct.level >= 1, "no level left to rescale");
    const u64 q_last = ct.b.prime(ct.level);
    rescale_poly(ct.b);
    rescale_poly(ct.a);
    ct.level -= 1;
    ct.scale /= static_cast<double>(q_last);
}

Ciphertext
Evaluator::switch_key(const Ciphertext& ct, const EvalKey& rekey_key) const
{
    // ct = (b, a) with b + a*s_from = m; key-switch the mask so the
    // result satisfies b' + a'*s_to = m.
    auto [kb, ka] = key_switch(ct.a, rekey_key, ct.level);
    kb.add_inplace(ct.b);
    return Ciphertext{std::move(kb), std::move(ka), ct.scale, ct.level,
                      ct.slots};
}

Ciphertext
Evaluator::switch_galois(const Ciphertext& ct, u64 galois_exp,
                         const EvalKey& key) const
{
    // sigma before ModUp: switch_key on the NTT-slot permutation of
    // the ciphertext. (rotate_hoisted applies sigma after its shared
    // ModUp; the two orders differ by BConv's approximation.)
    BTS_CHECK(key.galois_exp == galois_exp,
              "evaluation key does not match the automorphism");
    const std::vector<u32> index = ntt_galois_index(ctx_.n(), galois_exp);
    return switch_key(Ciphertext{ct.b.automorphism_ntt(index),
                                 ct.a.automorphism_ntt(index), ct.scale,
                                 ct.level, ct.slots},
                      key);
}

Ciphertext
Evaluator::rotate(const Ciphertext& ct, int r, const EvalKey& rot_key) const
{
    if (r == 0) return ct;
    return switch_galois(ct, ctx_.galois_exp_for_rotation(r), rot_key);
}

Ciphertext
Evaluator::conjugate(const Ciphertext& ct, const EvalKey& conj_key) const
{
    return switch_galois(ct, ctx_.galois_exp_conjugation(), conj_key);
}

Ciphertext
Evaluator::mult_plain(const Ciphertext& ct, const Plaintext& pt) const
{
    check_plain_chain(ct, pt);
    // The products read the plaintext's first level+1 limbs in place.
    Ciphertext out = ct;
    out.b.mul_inplace(pt.poly);
    out.a.mul_inplace(pt.poly);
    out.scale = ct.scale * pt.scale;
    return out;
}

Ciphertext
Evaluator::add_plain(const Ciphertext& ct, const Plaintext& pt) const
{
    check_scale_match(ct.scale, pt.scale);
    check_plain_chain(ct, pt);
    // The add reads the plaintext's first level+1 limbs in place.
    Ciphertext out = ct;
    out.b.add_inplace(pt.poly);
    return out;
}

Ciphertext
Evaluator::sub_plain(const Ciphertext& ct, const Plaintext& pt) const
{
    check_scale_match(ct.scale, pt.scale);
    check_plain_chain(ct, pt);
    Ciphertext out = ct;
    out.b.sub_inplace(pt.poly);
    return out;
}

Ciphertext
Evaluator::mult_const(const Ciphertext& ct, double c,
                      double const_scale) const
{
    const double scaled = c * const_scale;
    BTS_CHECK(std::abs(scaled) < 0x1.0p62, "constant overflows 62 bits");
    const i64 iv = static_cast<i64>(std::llround(scaled));

    Ciphertext out = ct;
    std::vector<u64> scalars(ct.level + 1);
    for (int i = 0; i <= ct.level; ++i) {
        scalars[i] = signed_to_mod(iv, ct.b.prime(i));
    }
    out.b.mul_scalar_inplace(scalars);
    out.a.mul_scalar_inplace(scalars);
    out.scale = ct.scale * const_scale;
    return out;
}

Ciphertext
Evaluator::mult_const_complex(const Ciphertext& ct, Complex c,
                              double const_scale) const
{
    if (c.imag() == 0.0) return mult_const(ct, c.real(), const_scale);
    // ct*(x + iy) = x*ct + y*(i*ct); the i factor is the exact monomial
    // X^{N/2}, so only real CMults are needed.
    Ciphertext re = mult_const(ct, c.real(), const_scale);
    Ciphertext im = mult_const(mult_by_i(ct), c.imag(), const_scale);
    re.b.add_inplace(im.b);
    re.a.add_inplace(im.a);
    return re;
}

Ciphertext
Evaluator::mult_const_to_scale(const Ciphertext& ct, double c,
                               double target_scale_after_rescale) const
{
    BTS_CHECK(ct.level >= 1, "needs one level for the rescale");
    const double q_top = static_cast<double>(ct.b.prime(ct.level));
    const double const_scale = target_scale_after_rescale * q_top / ct.scale;
    Ciphertext out = mult_const(ct, c, const_scale);
    rescale_inplace(out);
    out.scale = target_scale_after_rescale; // kill double rounding drift
    return out;
}

const std::vector<ShoupMul>&
Evaluator::monomial_shoup(u64 prime, std::size_t power) const
{
    const auto key = std::make_pair(prime, power);
    // Entries are never erased and map references are stable, so the
    // returned reference outlives the lock safely.
    std::lock_guard<std::mutex> lock(monomial_mutex_);
    auto it = monomial_cache_.find(key);
    if (it == monomial_cache_.end()) {
        std::vector<u64> mono(ctx_.n(), 0);
        mono[power] = 1;
        ctx_.tables(prime).forward(mono.data());
        std::vector<ShoupMul> shoup(ctx_.n());
        for (std::size_t c = 0; c < ctx_.n(); ++c) {
            shoup[c] = ShoupMul(mono[c], prime);
        }
        it = monomial_cache_.emplace(key, std::move(shoup)).first;
    }
    return it->second;
}

Ciphertext
Evaluator::mult_by_i(const Ciphertext& ct) const
{
    // Hot in bootstrapping (twice per bootstrap, on full-width
    // ciphertexts): the monomial is a fixed operand, so use its cached
    // Shoup constants and tile over (poly x limb) x coefficient-block.
    Ciphertext out = ct;
    const std::size_t n = ctx_.n();
    const std::size_t power = n / 2;
    const std::size_t limbs = static_cast<std::size_t>(ct.level) + 1;
    std::vector<const ShoupMul*> mono(limbs);
    for (std::size_t i = 0; i < limbs; ++i) {
        mono[i] = monomial_shoup(ct.b.prime(i), power).data();
    }
    u64* const base_b = out.b.data();
    u64* const base_a = out.a.data();
    parallel_for_2d(
        2 * limbs, n,
        [&](std::size_t idx, std::size_t c0, std::size_t c1) {
            const std::size_t i = idx % limbs;
            const u64 q = ct.b.prime(i);
            const ShoupMul* m = mono[i];
            u64* dst = (idx < limbs ? base_b : base_a) + i * n;
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = m[c].mul(dst[c], q);
            }
        });
    return out;
}

void
Evaluator::add_const_inplace(Ciphertext& ct, Complex c) const
{
    const double re = c.real() * ct.scale;
    const double im = c.imag() * ct.scale;
    BTS_CHECK(std::abs(re) < 0x1.0p62 && std::abs(im) < 0x1.0p62,
              "constant overflows 62 bits");
    const i64 ire = static_cast<i64>(std::llround(re));
    const i64 iim = static_cast<i64>(std::llround(im));

    if (iim == 0) {
        // A real constant polynomial is constant across NTT points.
        for (int i = 0; i <= ct.level; ++i) {
            const u64 q = ct.b.prime(i);
            const u64 v = signed_to_mod(ire, q);
            for (auto& x : ct.b.component(i)) x = add_mod(x, v, q);
        }
        return;
    }
    // Complex constant: re + im * X^{N/2}, built in coeff domain.
    RnsPoly delta(ctx_.n(), ct.b.primes(), Domain::kCoeff);
    for (int i = 0; i <= ct.level; ++i) {
        const u64 q = ct.b.prime(i);
        delta.component(i)[0] = signed_to_mod(ire, q);
        delta.component(i)[ctx_.n() / 2] = signed_to_mod(iim, q);
    }
    delta.to_ntt(ctx_.tables_for(delta));
    ct.b.add_inplace(delta);
}

Ciphertext
Evaluator::mod_raise(const Ciphertext& ct) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kEvaluator, "modraise");
    trace_span.set_level(ct.level);
    BTS_CHECK(ct.level == 0, "mod_raise expects a level-0 ciphertext");
    const u64 q0 = ctx_.q_primes()[0];
    const u64 half = q0 >> 1;
    const auto primes = ctx_.level_primes(ctx_.max_level());

    auto raise_poly = [&](const RnsPoly& src_ntt) {
        RnsPoly src = src_ntt;
        src.to_coeff(ctx_.tables_for(src));
        RnsPoly out(ctx_.n(), primes, Domain::kCoeff, RnsPoly::Uninit{});
        const u64* base = src.component(0).data();
        parallel_for_2d(
            primes.size(), ctx_.n(),
            [&](std::size_t i, std::size_t c0, std::size_t c1) {
                const u64 qi = primes[i];
                const Barrett& br = ctx_.q_barrett()[i];
                const u64 q0_mod_qi = q0 % qi;
                u64* comp = out.component(i).data();
                for (std::size_t c = c0; c < c1; ++c) {
                    // Centered lift of the mod-q0 residue into Z_qi.
                    u64 v = br.reduce(base[c]);
                    if (base[c] > half) v = sub_mod(v, q0_mod_qi, qi);
                    comp[c] = v;
                }
            });
        out.to_ntt(ctx_.tables_for(primes));
        return out;
    };

    Ciphertext out;
    out.b = raise_poly(ct.b);
    out.a = raise_poly(ct.a);
    out.scale = ct.scale;
    out.level = ctx_.max_level();
    out.slots = ct.slots;
    return out;
}

} // namespace bts
