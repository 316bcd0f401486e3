//! Sparse-sampling determinism smoke: a multi-round sparse-mask weighting run at a
//! large population whose output must be bitwise-identical to a dense-mask re-run.
//!
//! Each round draws a Poisson sample (rate `ULDP_POP_Q`, default 0.01) over
//! `ULDP_POP_USERS` (default 100 000) users and runs the private weighting round with
//! the resulting [`SampleMask`], printing an `MRD <round> <fnv-hex>` fingerprint per
//! round and `AGG <index> <f64-bits-hex>` lines for the final round's aggregate.
//!
//! Setting `ULDP_DENSE_MASK=1` forces every mask into the dense representation — the
//! legacy all-users path that encrypts an `Enc(0)` slot for every unsampled user.
//! Selection, the caller RNG stream and the decrypted aggregates are all
//! representation-independent, so CI runs this binary twice (sparse, then dense) and
//! diffs the output; any divergence is a determinism bug in the sparse path.
//!
//! Every round is also checked against the masked plaintext reference, so the smoke
//! catches correctness drift as well as nondeterminism. The exit code is non-zero on
//! any mismatch.
//!
//! ```bash
//! cargo run --release -p uldp-bench --bin population_smoke
//! ULDP_DENSE_MASK=1 cargo run --release -p uldp-bench --bin population_smoke
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use uldp_bench::millis;
use uldp_core::{PrivateWeightingProtocol, ProtocolConfig, RoundInput, SampleMask};
use uldp_runtime::Runtime;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&v| v > 0.0 && v <= 1.0)
        .unwrap_or(default)
}

fn main() {
    let population = env_usize("ULDP_POP_USERS", 100_000);
    let q = env_f64("ULDP_POP_Q", 0.01);
    let rounds = env_usize("ULDP_POP_ROUNDS", 3);
    let paillier_bits = env_usize("ULDP_SMOKE_BITS", 128);
    let num_silos = 2usize;
    let dim = 2usize;
    let dense = uldp_core::sampling::dense_mask_forced();
    let threads = Runtime::global().threads();
    println!(
        "population_smoke: {population} users x {num_silos} silos, q={q}, {rounds} rounds, \
         {paillier_bits}-bit Paillier, {threads} threads, dense_mask={dense}"
    );

    // Everything below is seeded, so the sparse and dense processes must print
    // identical MRD/AGG lines: the mask representation changes which users get a
    // ciphertext, never which users are sampled or what they sum to.
    let mut rng = StdRng::seed_from_u64(0x504f_5055); // "POPU"
    let histogram: Vec<Vec<usize>> = (0..num_silos)
        .map(|_| (0..population).map(|_| rng.gen_range(0..4usize)).collect())
        .collect();
    let config = ProtocolConfig {
        paillier_bits,
        dh_bits: 0,
        use_rfc_group: true,
        n_max: 8,
        ..Default::default()
    };
    let setup_start = Instant::now();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    println!("setup {:9.1} ms", millis(setup_start.elapsed()));

    for round in 1..=rounds {
        let mask = SampleMask::poisson(&mut rng, population, q);
        // Deltas are drawn by ascending sampled index, so the draw order — and hence
        // the whole RNG stream — is identical under both mask representations.
        let mut deltas: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); population]; num_silos];
        for u in mask.iter() {
            for (silo_row, hist_row) in deltas.iter_mut().zip(histogram.iter()) {
                if hist_row[u] > 0 {
                    silo_row[u] = (0..dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
                }
            }
        }
        let noises: Vec<Vec<f64>> = (0..num_silos)
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
            .collect();
        let input = RoundInput { sampled: Some(&mask), ..RoundInput::new(&deltas, &noises) };
        let output = protocol.run_rounds(&[input], &mut rng).remove(0);
        let (aggregate, timings) = (output.aggregate, output.timings);

        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
        let max_err = aggregate
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 1e-6,
            "round {round}: secure aggregate diverges from plaintext (max err {max_err:.3e})"
        );

        let mut fp = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the decrypted aggregate bits
        for v in &aggregate {
            for byte in v.to_bits().to_le_bytes() {
                fp ^= byte as u64;
                fp = fp.wrapping_mul(0x1000_0000_01b3);
            }
        }
        println!("MRD {round} {fp:016x}");
        println!(
            "pop round={round} sampled={} srv_enc {:9.1} ms | silo_enc {:9.1} ms | \
             agg {:9.1} ms",
            mask.sampled_count(),
            millis(timings.server_encryption),
            millis(timings.silo_weighting),
            millis(timings.aggregation),
        );
        if round == rounds {
            for (j, v) in aggregate.iter().enumerate() {
                println!("AGG {j} {:016x}", v.to_bits());
            }
        }
    }
    println!("POPULATION_SMOKE ok ({} mask)", if dense { "dense" } else { "sparse" });
}
