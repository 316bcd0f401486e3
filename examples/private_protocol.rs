//! The private weighting protocol (Protocol 1) end to end: setup (Paillier + DH key
//! exchange, blinded histogram aggregation) followed by one encrypted weighting round,
//! with a correctness check against the plaintext aggregation and a timing breakdown.
//!
//! ```bash
//! cargo run --release --example private_protocol
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::{PrivateWeightingProtocol, ProtocolConfig, RoundInput};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);

    // 3 silos, 20 users, a 16-parameter model: the small default scenario of Figure 11.
    let num_silos = 3;
    let num_users = 20;
    let dim = 16;

    // Per-silo user histograms n_{s,u} (each user at most N_max records in total).
    let histogram: Vec<Vec<usize>> = (0..num_silos)
        .map(|_| (0..num_users).map(|_| rng.gen_range(0..8usize)).collect())
        .collect();

    let config =
        ProtocolConfig { paillier_bits: 1024, dh_bits: 512, n_max: 64, ..Default::default() };
    println!(
        "setup: {} silos, {} users, {}-bit Paillier modulus requested",
        num_silos, num_users, config.paillier_bits
    );
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    let setup = protocol.setup_timings();
    println!(
        "  key exchange          {:>10.2?}\n  histogram blinding     {:>10.2?}\n  inverse computation    {:>10.2?}\n  total setup            {:>10.2?}",
        setup.key_exchange,
        setup.histogram_blinding,
        setup.inverse_computation,
        setup.total()
    );

    // Clipped per-(silo, user) model deltas and per-silo noise, as ULDP-AVG-w would
    // produce them in one round.
    let clipped_deltas: Vec<Vec<Vec<f64>>> = histogram
        .iter()
        .map(|row| {
            row.iter()
                .map(|&n_su| {
                    if n_su == 0 {
                        Vec::new()
                    } else {
                        (0..dim).map(|_| rng.gen_range(-0.1..0.1)).collect()
                    }
                })
                .collect()
        })
        .collect();
    let noises: Vec<Vec<f64>> =
        (0..num_silos).map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();

    let round = protocol.run_rounds(&[RoundInput::new(&clipped_deltas, &noises)], &mut rng);
    let (secure, timings) = (&round[0].aggregate, round[0].timings);
    let reference = protocol.plaintext_reference(&clipped_deltas, &noises, None);

    println!("\nweighting round ({} parameters):", dim);
    println!(
        "  server encryption      {:>10.2?}\n  silo weighted encryption {:>9.2?}\n  aggregation + decrypt  {:>10.2?}\n  total round            {:>10.2?}",
        timings.server_encryption,
        timings.silo_weighting,
        timings.aggregation,
        timings.total()
    );

    let max_err =
        secure.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("\nmax |secure - plaintext| = {max_err:.3e} (precision P = {})", config.precision);
    assert!(max_err < 1e-6, "protocol output diverged from the plaintext aggregation");
    println!(
        "correctness check passed: the encrypted aggregate matches the plaintext weighted sum."
    );
}
