/**
 * @file
 * The CKKS material both ciphertext workloads set up: context, keys,
 * encryptor and bootstrapper, all seeded from the workload's seed.
 */
#pragma once

#include <memory>
#include <vector>

#include "ckks/bootstrapper.h"
#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "runtime/executor.h"

namespace perfbench {

/** The L=20, dnum=3 parameter set of the repository's bootstrap tests,
 *  at ring degree @p n. */
bts::CkksParams ckks_params(std::size_t n, bts::u64 seed);

struct Crypto
{
    /** Generates keys for @p cfg's bootstrapper plus rotations by
     *  @p extra_rotations, and installs them in the bootstrapper. */
    Crypto(const bts::CkksParams& params, bts::u64 seed,
           const bts::BootstrapConfig& cfg,
           std::vector<int> extra_rotations = {});

    Crypto(const Crypto&) = delete;
    Crypto& operator=(const Crypto&) = delete;

    /** Everything an Executor needs to evaluate with these keys. */
    bts::runtime::EvalResources resources() const;

    /** Size of every evaluation key (mult, conjugation, rotations). */
    double evk_mb() const;

    bts::CkksContext ctx;
    bts::CkksEncoder encoder;
    bts::Evaluator evaluator;
    bts::KeyGenerator keygen;
    bts::Encryptor encryptor;
    bts::Decryptor decryptor;
    bts::SecretKey sk;
    bts::EvalKey mult_key;
    bts::EvalKey conj_key;
    std::unique_ptr<bts::Bootstrapper> boot;
    bts::RotationKeys rot_keys;
};

} // namespace perfbench
