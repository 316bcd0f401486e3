//! Generic vs. Montgomery vs. fixed-base modular exponentiation comparison.
//!
//! Measures the `scalar_mul`-shaped workload of Protocol 1 step 2.(b) — one fixed base
//! raised to many half-width exponents over one odd modulus — on the three available
//! paths and appends the result as the `modpow` section of `BENCH_protocol.json`
//! (CI fails the smoke job if the section is missing). The three paths must agree
//! bit for bit; [`modpow_comparison`] asserts it while measuring. Two companion
//! comparisons cover the other Paillier hot paths: [`rerand_comparison`] (fresh
//! encryption vs one-shot re-randomisation, the oblivious-transfer offer shape) and
//! [`multi_exp_comparison`] (unfused pow-then-multiply chains vs the interleaved
//! `ModulusCtx::multi_exp`, the fused step 2.(b) cell shape).

use crate::millis;
use crate::report::{BenchEntry, BenchSection};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use uldp_bigint::modular::{mod_mul, mod_pow};
use uldp_bigint::montgomery::{FixedBaseCtx, ModulusCtx};
use uldp_bigint::BigUint;
use uldp_crypto::paillier::PaillierPublicKey;

/// Wall-clock of one batch of exponentiations on each path, plus the derived speedups.
#[derive(Clone, Debug)]
pub struct ModpowComparison {
    /// Modulus bit length (the ciphertext-modulus size of the shaped workload).
    pub modulus_bits: usize,
    /// Exponent bit length (half the modulus: a `scalar mod n` over `n²`).
    pub exp_bits: usize,
    /// Number of exponentiations in the batch.
    pub num_exps: usize,
    /// Schoolbook square-and-multiply (`uldp_bigint::modular::mod_pow`).
    pub generic_ms: f64,
    /// Montgomery sliding window over one shared `ModulusCtx` (`mod_pow_batch`).
    pub montgomery_ms: f64,
    /// `FixedBaseCtx` table, construction included (the amortised protocol shape).
    pub fixed_base_ms: f64,
}

impl ModpowComparison {
    /// Speedup of the shared-context Montgomery path over the generic path.
    pub fn montgomery_speedup(&self) -> f64 {
        self.generic_ms / self.montgomery_ms.max(1e-9)
    }

    /// Speedup of the fixed-base path (table construction included) over generic.
    pub fn fixed_base_speedup(&self) -> f64 {
        self.generic_ms / self.fixed_base_ms.max(1e-9)
    }
}

/// Runs the three paths over an identical `(modulus, base, exponents)` workload and
/// asserts their outputs are bitwise-identical.
///
/// The workload mirrors Paillier `scalar_mul`: an odd `modulus_bits`-bit modulus (the
/// `n²` role), one fixed base below it (the ciphertext), and `num_exps` exponents of
/// `modulus_bits / 2` bits (scalars reduced mod `n`).
pub fn modpow_comparison(modulus_bits: usize, num_exps: usize, seed: u64) -> ModpowComparison {
    assert!(modulus_bits >= 16, "modulus too small to be representative");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut modulus = BigUint::random_with_bits(&mut rng, modulus_bits);
    if modulus.is_even() {
        modulus = modulus.add(&BigUint::one());
    }
    let exp_bits = modulus_bits / 2;
    let base = BigUint::random_below(&mut rng, &modulus);
    let exps: Vec<BigUint> =
        (0..num_exps).map(|_| BigUint::random_with_bits(&mut rng, exp_bits)).collect();

    let start = Instant::now();
    let generic: Vec<BigUint> = exps.iter().map(|e| mod_pow(&base, e, &modulus)).collect();
    let generic_ms = millis(start.elapsed());

    // Shared per-modulus context (construction included, amortised over the batch).
    let start = Instant::now();
    let ctx = Arc::new(ModulusCtx::new(&modulus));
    let pairs: Vec<(BigUint, BigUint)> = exps.iter().map(|e| (base.clone(), e.clone())).collect();
    let montgomery = ctx.mod_pow_batch(&pairs);
    let montgomery_ms = millis(start.elapsed());

    // Per-base table on top of the shared context (construction included).
    let start = Instant::now();
    let fixed = FixedBaseCtx::new(Arc::clone(&ctx), &base, exp_bits);
    let fixed_base: Vec<BigUint> = exps.iter().map(|e| fixed.pow(e)).collect();
    let fixed_base_ms = millis(start.elapsed());

    assert_eq!(generic, montgomery, "Montgomery path diverged from the generic path");
    assert_eq!(generic, fixed_base, "fixed-base path diverged from the generic path");

    ModpowComparison { modulus_bits, exp_bits, num_exps, generic_ms, montgomery_ms, fixed_base_ms }
}

/// Wall-clock of refreshing one ciphertext `num_ops` times, by fresh encryption and by
/// one-shot re-randomisation (`c · r^n`, the oblivious-transfer offer's real slots).
/// Both pay one full-width `r^n`, so the two rows should read alike.
#[derive(Clone, Debug)]
pub struct RerandComparison {
    /// Bit length of the Paillier plaintext modulus `n` (ciphertexts live mod `n²`).
    pub modulus_bits: usize,
    /// Number of refresh operations measured per path.
    pub num_ops: usize,
    /// Fresh `Enc(m)` per operation (the uncached baseline).
    pub encrypt_ms: f64,
    /// One-shot [`PaillierPublicKey::rerandomise`] (`c · r^n`, full-width `r^n`).
    pub rerandomise_ms: f64,
}

/// Measures fresh encryption vs one-shot re-randomisation over one key.
///
/// The key is a bare `n` of `modulus_bits` random odd bits — encryption and
/// re-randomisation only need the public-key arithmetic, so no slow prime generation is
/// paid. The documented `rerandomise(c; r) = add(c, Enc(0; r))` equivalence is asserted
/// on the way.
pub fn rerand_comparison(modulus_bits: usize, num_ops: usize, seed: u64) -> RerandComparison {
    assert!(modulus_bits >= 16, "modulus too small to be representative");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = BigUint::random_with_bits(&mut rng, modulus_bits);
    if n.is_even() {
        n = n.add(&BigUint::one());
    }
    let pk = PaillierPublicKey::new(n.clone());
    let m = BigUint::random_below(&mut rng, &n);
    let c = pk.encrypt(&mut rng, &m);
    // Pin the equivalence the one-shot path relies on: Enc(0; r) = r^n, so
    // re-randomising is exactly adding an encryption of zero.
    let r = loop {
        let r = BigUint::random_below(&mut rng, &n);
        if uldp_bigint::gcd(&r, &n).is_one() {
            break r;
        }
    };
    assert_eq!(
        pk.rerandomise_with_randomness(&c, &r),
        pk.add(&c, &pk.encrypt_with_randomness(&BigUint::zero(), &r)),
        "rerandomise must equal homomorphic addition of Enc(0)"
    );

    let start = Instant::now();
    for _ in 0..num_ops {
        let _ = pk.encrypt(&mut rng, &m);
    }
    let encrypt_ms = millis(start.elapsed());

    let start = Instant::now();
    for _ in 0..num_ops {
        let _ = pk.rerandomise(&mut rng, &c);
    }
    let rerandomise_ms = millis(start.elapsed());

    RerandComparison { modulus_bits, num_ops, encrypt_ms, rerandomise_ms }
}

/// Wall-clock of evaluating `num_products` products `Π base_i^exp_i` (k terms each)
/// unfused (one sliding-window pow per term, multiplied together) vs fused through the
/// interleaved [`ModulusCtx::multi_exp`] ladder, which shares one squaring chain across
/// the k terms — the step 2.(b) cell shape for bases too lightly used to earn a
/// fixed-base table.
#[derive(Clone, Debug)]
pub struct MultiExpComparison {
    /// Modulus bit length.
    pub modulus_bits: usize,
    /// Terms per product.
    pub k: usize,
    /// Products evaluated per path.
    pub num_products: usize,
    /// Unfused pow-then-`mod_mul` chain.
    pub unfused_ms: f64,
    /// Interleaved shared-ladder evaluation.
    pub fused_ms: f64,
}

impl MultiExpComparison {
    /// Speedup of the fused ladder over the unfused chain.
    pub fn fused_speedup(&self) -> f64 {
        self.unfused_ms / self.fused_ms.max(1e-9)
    }
}

/// Runs both evaluation orders over identical `(modulus, pairs)` workloads and asserts
/// the products agree bit for bit.
pub fn multi_exp_comparison(
    modulus_bits: usize,
    k: usize,
    num_products: usize,
    seed: u64,
) -> MultiExpComparison {
    assert!(modulus_bits >= 16, "modulus too small to be representative");
    assert!(k >= 1, "a product needs at least one term");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut modulus = BigUint::random_with_bits(&mut rng, modulus_bits);
    if modulus.is_even() {
        modulus = modulus.add(&BigUint::one());
    }
    let exp_bits = modulus_bits / 2;
    let products: Vec<Vec<(BigUint, BigUint)>> = (0..num_products)
        .map(|_| {
            (0..k)
                .map(|_| {
                    (
                        BigUint::random_below(&mut rng, &modulus),
                        BigUint::random_with_bits(&mut rng, exp_bits),
                    )
                })
                .collect()
        })
        .collect();
    let ctx = ModulusCtx::new(&modulus);

    let start = Instant::now();
    let unfused: Vec<BigUint> = products
        .iter()
        .map(|pairs| {
            let mut acc = BigUint::one().rem(&modulus);
            for (base, exp) in pairs {
                acc = mod_mul(&acc, &ctx.pow(base, exp), &modulus);
            }
            acc
        })
        .collect();
    let unfused_ms = millis(start.elapsed());

    let start = Instant::now();
    let fused: Vec<BigUint> = products.iter().map(|pairs| ctx.multi_exp(pairs)).collect();
    let fused_ms = millis(start.elapsed());

    assert_eq!(unfused, fused, "fused multi_exp diverged from the unfused chain");
    MultiExpComparison { modulus_bits, k, num_products, unfused_ms, fused_ms }
}

/// Wall-clock of a chain of `num_muls` modular multiplications at a modulus wide
/// enough (≥ 2048 bits) that [`ModulusCtx`] takes its separated Karatsuba-product
/// tier, vs the generic `div_rem`-reducing [`mod_mul`]. The chain shape (each product
/// feeds the next) mirrors the exponentiation ladders that dominate Protocol 1.
#[derive(Clone, Debug)]
pub struct KaratsubaComparison {
    /// Modulus bit length (must put the context at or above the Karatsuba threshold).
    pub modulus_bits: usize,
    /// Multiplications per chain.
    pub num_muls: usize,
    /// Generic schoolbook product + `div_rem` reduction per step.
    pub generic_ms: f64,
    /// Montgomery chain through the Karatsuba tier (conversions included once).
    pub karatsuba_ms: f64,
}

impl KaratsubaComparison {
    /// Speedup of the Karatsuba-tier Montgomery chain over the generic chain.
    pub fn karatsuba_speedup(&self) -> f64 {
        self.generic_ms / self.karatsuba_ms.max(1e-9)
    }
}

/// Runs both multiplication chains over an identical `(modulus, start, factor)`
/// workload and asserts the final values are bitwise-identical.
pub fn karatsuba_comparison(
    modulus_bits: usize,
    num_muls: usize,
    seed: u64,
) -> KaratsubaComparison {
    assert!(modulus_bits >= 2048, "below the Montgomery engine's Karatsuba tier");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut modulus = BigUint::random_with_bits(&mut rng, modulus_bits);
    if modulus.is_even() {
        modulus = modulus.add(&BigUint::one());
    }
    let start_value = BigUint::random_below(&mut rng, &modulus);
    let factor = BigUint::random_below(&mut rng, &modulus);

    let start = Instant::now();
    let mut generic = start_value.clone();
    for _ in 0..num_muls {
        generic = mod_mul(&generic, &factor, &modulus);
    }
    let generic_ms = millis(start.elapsed());

    // Context construction and domain conversions included once, amortised over the
    // chain — the same shape the exponentiation ladders pay.
    let start = Instant::now();
    let ctx = ModulusCtx::new(&modulus);
    let factor_m = ctx.to_mont(&factor);
    let mut acc = ctx.to_mont(&start_value);
    for _ in 0..num_muls {
        acc = ctx.mont_mul(&acc, &factor_m);
    }
    let karatsuba = ctx.from_mont(&acc);
    let karatsuba_ms = millis(start.elapsed());

    assert_eq!(generic, karatsuba, "Karatsuba-tier chain diverged from the generic chain");
    KaratsubaComparison { modulus_bits, num_muls, generic_ms, karatsuba_ms }
}

/// Writes the comparisons as the `modpow` section of `BENCH_protocol.json` and returns
/// the report path. Single-core by construction (every batch runs on the calling
/// thread).
pub fn write_modpow_section(
    cmp: &ModpowComparison,
    rerand: &RerandComparison,
    fused: &MultiExpComparison,
    karatsuba: &KaratsubaComparison,
) -> std::io::Result<PathBuf> {
    let mut section = BenchSection::new("modpow", 1, cmp.modulus_bits);
    let label_suffix =
        format!("bits={} exp_bits={} exps={}", cmp.modulus_bits, cmp.exp_bits, cmp.num_exps);
    let mut generic = BenchEntry::new(format!("generic {label_suffix}"));
    generic.phase("total", cmp.generic_ms);
    section.entries.push(generic);
    let mut montgomery = BenchEntry::new(format!("montgomery {label_suffix}"));
    montgomery.phase("total", cmp.montgomery_ms);
    montgomery.speedup_vs_sequential = Some(cmp.montgomery_speedup());
    section.entries.push(montgomery);
    let mut fixed = BenchEntry::new(format!("fixed_base {label_suffix}"));
    fixed.phase("total", cmp.fixed_base_ms);
    fixed.speedup_vs_sequential = Some(cmp.fixed_base_speedup());
    section.entries.push(fixed);

    let rerand_suffix = format!("bits={} ops={}", rerand.modulus_bits, rerand.num_ops);
    let mut encrypt = BenchEntry::new(format!("encrypt {rerand_suffix}"));
    encrypt.phase("total", rerand.encrypt_ms);
    section.entries.push(encrypt);
    let mut oneshot = BenchEntry::new(format!("rerandomise {rerand_suffix}"));
    oneshot.phase("total", rerand.rerandomise_ms);
    oneshot.speedup_vs_sequential = Some(rerand.encrypt_ms / rerand.rerandomise_ms.max(1e-9));
    section.entries.push(oneshot);

    let fused_suffix =
        format!("bits={} k={} products={}", fused.modulus_bits, fused.k, fused.num_products);
    let mut unfused_entry = BenchEntry::new(format!("multi_exp_unfused {fused_suffix}"));
    unfused_entry.phase("total", fused.unfused_ms);
    section.entries.push(unfused_entry);
    let mut fused_entry = BenchEntry::new(format!("multi_exp_fused {fused_suffix}"));
    fused_entry.phase("total", fused.fused_ms);
    fused_entry.speedup_vs_sequential = Some(fused.fused_speedup());
    section.entries.push(fused_entry);

    let kara_suffix = format!("bits={} muls={}", karatsuba.modulus_bits, karatsuba.num_muls);
    let mut kara_generic = BenchEntry::new(format!("mod_mul_generic {kara_suffix}"));
    kara_generic.phase("total", karatsuba.generic_ms);
    section.entries.push(kara_generic);
    let mut kara_entry = BenchEntry::new(format!("karatsuba {kara_suffix}"));
    kara_entry.phase("total", karatsuba.karatsuba_ms);
    kara_entry.speedup_vs_sequential = Some(karatsuba.karatsuba_speedup());
    section.entries.push(kara_entry);
    section.write()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_agrees_at_small_sizes() {
        // The agreement asserts live inside modpow_comparison; this exercises them.
        let cmp = modpow_comparison(256, 4, 7);
        assert_eq!(cmp.modulus_bits, 256);
        assert_eq!(cmp.exp_bits, 128);
        assert_eq!(cmp.num_exps, 4);
        assert!(cmp.generic_ms >= 0.0 && cmp.montgomery_ms >= 0.0 && cmp.fixed_base_ms >= 0.0);
    }

    #[test]
    fn rerand_comparison_runs_and_pins_equivalence() {
        // The Enc(0)-addition equivalence assert lives inside rerand_comparison.
        let cmp = rerand_comparison(256, 3, 11);
        assert_eq!(cmp.modulus_bits, 256);
        assert_eq!(cmp.num_ops, 3);
        assert!(cmp.encrypt_ms >= 0.0 && cmp.rerandomise_ms >= 0.0);
    }

    #[test]
    fn karatsuba_comparison_runs_and_agrees() {
        // Bitwise agreement of the tiers lives inside karatsuba_comparison; 2048 bits
        // is the smallest modulus that engages the separated-product tier.
        let cmp = karatsuba_comparison(2048, 8, 17);
        assert_eq!(cmp.modulus_bits, 2048);
        assert_eq!(cmp.num_muls, 8);
        assert!(cmp.generic_ms >= 0.0 && cmp.karatsuba_ms >= 0.0);
    }

    #[test]
    fn multi_exp_comparison_runs_and_agrees() {
        // Bitwise agreement of fused vs unfused lives inside multi_exp_comparison;
        // k = 1 degenerates to a plain pow and must also agree.
        for k in [1usize, 4] {
            let cmp = multi_exp_comparison(256, k, 3, 13);
            assert_eq!(cmp.k, k);
            assert!(cmp.unfused_ms >= 0.0 && cmp.fused_ms >= 0.0);
        }
    }
}
