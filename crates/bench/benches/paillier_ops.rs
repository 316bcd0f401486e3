//! Criterion micro-benchmarks of the Paillier cryptosystem and the big-integer modular
//! arithmetic underlying the private weighting protocol (supporting Figures 10 and 11:
//! the per-coordinate cost of the protocol is one Paillier scalar multiplication plus one
//! homomorphic addition).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use uldp_bigint::modular::mod_pow;
use uldp_bigint::montgomery::{FixedBaseCtx, ModulusCtx};
use uldp_bigint::BigUint;
use uldp_crypto::paillier::{Ciphertext, PaillierKeyPair};
use uldp_runtime::Runtime;

fn bench_paillier(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier");
    group.sample_size(10);
    for &bits in &[512usize, 1024] {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = PaillierKeyPair::generate(&mut rng, bits);
        let m = BigUint::from_u64(123_456_789);
        let ciphertext = kp.public.encrypt(&mut rng, &m);
        let scalar = BigUint::from_u64(987_654_321);

        group.bench_with_input(BenchmarkId::new("encrypt", bits), &bits, |b, _| {
            b.iter(|| kp.public.encrypt(&mut rng, &m))
        });
        group.bench_with_input(BenchmarkId::new("decrypt", bits), &bits, |b, _| {
            b.iter(|| kp.secret.decrypt(&ciphertext))
        });
        group.bench_with_input(BenchmarkId::new("scalar_mul", bits), &bits, |b, _| {
            b.iter(|| kp.public.scalar_mul(&ciphertext, &scalar))
        });
        group.bench_with_input(BenchmarkId::new("homomorphic_add", bits), &bits, |b, _| {
            b.iter(|| kp.public.add(&ciphertext, &ciphertext))
        });
        // The oblivious-transfer offer's refresh of the real ciphertext (`c · r^n`).
        group.bench_with_input(BenchmarkId::new("rerandomise", bits), &bits, |b, _| {
            b.iter(|| kp.public.rerandomise(&mut rng, &ciphertext))
        });
    }
    group.finish();
}

/// The Paillier batch APIs on a 1-thread and on the global runtime. `encrypt_batch` is
/// Protocol 1's step 2.(a) path; `scalar_mul_batch`/`sum_par` are the standalone batch
/// forms of the primitives the protocol fuses into its 2.(b)/2.(c) loops — this measures
/// the primitives' per-item cost and pooled scaling, not the protocol's fused loops (the
/// figure binaries time those).
fn bench_paillier_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_batch");
    group.sample_size(10);
    let bits = 512usize;
    let mut rng = StdRng::seed_from_u64(5);
    let kp = PaillierKeyPair::generate(&mut rng, bits);
    let plaintexts: Vec<BigUint> = (0..64u64).map(BigUint::from_u64).collect();
    let ciphertexts: Vec<Ciphertext> =
        plaintexts.iter().map(|m| kp.public.encrypt(&mut rng, m)).collect();
    let pairs: Vec<(&Ciphertext, BigUint)> = ciphertexts
        .iter()
        .enumerate()
        .map(|(i, ct)| (ct, BigUint::from_u64(1000 + i as u64)))
        .collect();
    for (name, rt) in [("seq", Runtime::handle(1)), ("pooled", Runtime::global())] {
        group.bench_with_input(BenchmarkId::new("encrypt_batch_64", name), &name, |b, _| {
            b.iter(|| kp.public.encrypt_batch(&rt, [7, 8, 9, 10], &plaintexts))
        });
        group.bench_with_input(BenchmarkId::new("scalar_mul_batch_64", name), &name, |b, _| {
            b.iter(|| kp.public.scalar_mul_batch(&rt, &pairs))
        });
        group.bench_with_input(BenchmarkId::new("sum_par_64", name), &name, |b, _| {
            b.iter(|| kp.public.sum_par(&rt, &ciphertexts))
        });
    }
    group.finish();
}

/// The three exponentiation paths on a `scalar_mul`-shaped batch: one odd modulus (the
/// `n²` role), one fixed base (the ciphertext), many half-width exponents (scalars
/// reduced mod `n`). Generic pays a division per multiply; Montgomery shares one
/// `ModulusCtx` across the batch; fixed-base additionally precomputes a radix-2ʷ table
/// for the base (table construction is included in the measured iteration, mirroring
/// how Protocol 1 amortises it within one round).
fn bench_modpow(c: &mut Criterion) {
    let mut group = c.benchmark_group("modpow");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    const BATCH: usize = 16;
    for &bits in &[512usize, 1024, 2048] {
        let mut modulus = BigUint::random_with_bits(&mut rng, bits);
        if modulus.is_even() {
            modulus = modulus.add(&BigUint::one());
        }
        let base = BigUint::random_below(&mut rng, &modulus);
        let exps: Vec<BigUint> =
            (0..BATCH).map(|_| BigUint::random_with_bits(&mut rng, bits / 2)).collect();
        group.bench_with_input(BenchmarkId::new("generic_batch16", bits), &bits, |b, _| {
            b.iter(|| exps.iter().map(|e| mod_pow(&base, e, &modulus)).collect::<Vec<_>>())
        });
        group.bench_with_input(BenchmarkId::new("montgomery_batch16", bits), &bits, |b, _| {
            b.iter(|| {
                let ctx = ModulusCtx::new(&modulus);
                exps.iter().map(|e| ctx.pow(&base, e)).collect::<Vec<_>>()
            })
        });
        group.bench_with_input(BenchmarkId::new("fixed_base_batch16", bits), &bits, |b, _| {
            b.iter(|| {
                let ctx = Arc::new(ModulusCtx::new(&modulus));
                let fixed = FixedBaseCtx::new(ctx, &base, bits / 2);
                exps.iter().map(|e| fixed.pow(e)).collect::<Vec<_>>()
            })
        });
        // The fused cell shape of step 2.(b): Π baseᵢ^expᵢ for a 4-term product, as one
        // interleaved ladder vs four independent pows multiplied together.
        let fused_pairs: Vec<(BigUint, BigUint)> = (0..4)
            .map(|i| {
                (mod_pow(&base, &BigUint::from_u64(i + 2), &modulus), exps[i as usize].clone())
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("multi_exp_unfused4", bits), &bits, |b, _| {
            b.iter(|| {
                let ctx = ModulusCtx::new(&modulus);
                fused_pairs.iter().fold(BigUint::one().rem(&modulus), |acc, (bs, e)| {
                    uldp_bigint::modular::mod_mul(&acc, &ctx.pow(bs, e), &modulus)
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("multi_exp_fused4", bits), &bits, |b, _| {
            b.iter(|| {
                let ctx = ModulusCtx::new(&modulus);
                ctx.multi_exp(&fused_pairs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_paillier, bench_paillier_batch, bench_modpow);
criterion_main!(benches);
