//! Integration tests of the private weighting protocol against the rest of the framework:
//! Protocol 1 must compute exactly the aggregate that the plaintext ULDP-AVG-w path
//! computes, for realistic histograms produced by the dataset generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::WeightMatrix;
use uldp_fl::core::{
    PrivateWeightingProtocol, ProtocolConfig, RoundInput, SampleMask, WeightingStrategy,
};
use uldp_fl::datasets::heart_disease::{self, HeartDiseaseConfig};
use uldp_fl::datasets::Allocation;

fn protocol_config() -> ProtocolConfig {
    ProtocolConfig { paillier_bits: 384, dh_bits: 128, n_max: 128, ..Default::default() }
}

fn random_deltas(
    histogram: &[Vec<usize>],
    dim: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
    let deltas = histogram
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| {
                    if c == 0 {
                        Vec::new()
                    } else {
                        (0..dim).map(|_| rng.gen_range(-0.5..0.5)).collect()
                    }
                })
                .collect()
        })
        .collect();
    let noises =
        histogram.iter().map(|_| (0..dim).map(|_| rng.gen_range(-0.05..0.05)).collect()).collect();
    (deltas, noises)
}

/// One round run alone through the protocol's round engine.
fn run_round(
    protocol: &PrivateWeightingProtocol,
    input: RoundInput<'_>,
    rng: &mut StdRng,
) -> uldp_fl::core::RoundOutput {
    protocol.run_rounds(&[input], rng).remove(0)
}

#[test]
fn protocol_agrees_with_plaintext_on_a_real_histogram() {
    // Use the HeartDisease generator's histogram (zipf allocation) so the protocol is
    // exercised with a realistic skewed user distribution.
    let mut rng = StdRng::seed_from_u64(21);
    let dataset = heart_disease::generate(
        &mut rng,
        &HeartDiseaseConfig {
            num_users: 12,
            silo_sizes: vec![40, 35, 10, 20],
            allocation: Allocation::zipf_default(),
            ..Default::default()
        },
    );
    let histogram = dataset.histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let (deltas, noises) = random_deltas(&histogram, 6, &mut rng);
    let secure = run_round(&protocol, RoundInput::new(&deltas, &noises), &mut rng).aggregate;
    let plaintext = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in secure.iter().zip(plaintext.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }
}

#[test]
fn protocol_weights_match_record_proportional_weight_matrix() {
    let mut rng = StdRng::seed_from_u64(22);
    let histogram = vec![vec![3usize, 1, 0, 5], vec![1, 0, 2, 5], vec![0, 4, 2, 0]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let expected = WeightMatrix::from_histogram(WeightingStrategy::RecordProportional, &histogram);
    let actual = protocol.reference_weights();
    for s in 0..histogram.len() {
        for u in 0..histogram[0].len() {
            assert!((expected.get(s, u) - actual.get(s, u)).abs() < 1e-12);
        }
    }
}

#[test]
fn protocol_rounds_are_repeatable_across_rounds() {
    // The same setup must serve multiple rounds and still agree with the plaintext
    // reference each time.
    let mut rng = StdRng::seed_from_u64(23);
    let histogram = vec![vec![2usize, 3, 1], vec![1, 0, 4]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    for round in 0..3 {
        let (deltas, noises) = random_deltas(&histogram, 4, &mut rng);
        let out = run_round(&protocol, RoundInput::new(&deltas, &noises), &mut rng);
        let (secure, timings) = (out.aggregate, out.timings);
        let plaintext = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in secure.iter().zip(plaintext.iter()) {
            assert!((a - b).abs() < 1e-6, "round {round}: {a} vs {b}");
        }
        assert!(timings.silo_weighting >= std::time::Duration::ZERO);
    }
}

#[test]
fn protocol_handles_users_with_no_records() {
    // A user with zero records everywhere has no blinded inverse; their slot must simply
    // contribute nothing rather than corrupting the aggregate.
    let mut rng = StdRng::seed_from_u64(24);
    let histogram = vec![vec![2usize, 0, 3], vec![1, 0, 1]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let (deltas, noises) = random_deltas(&histogram, 3, &mut rng);
    let secure = run_round(&protocol, RoundInput::new(&deltas, &noises), &mut rng).aggregate;
    let plaintext = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in secure.iter().zip(plaintext.iter()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn subsampled_protocol_round_matches_masked_plaintext() {
    let mut rng = StdRng::seed_from_u64(25);
    let histogram = vec![vec![2usize, 3, 1, 2], vec![1, 2, 4, 0]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let (deltas, noises) = random_deltas(&histogram, 5, &mut rng);
    let sampled = SampleMask::from_dense(vec![true, false, false, true]);
    let input = RoundInput { sampled: Some(&sampled), ..RoundInput::new(&deltas, &noises) };
    let secure = run_round(&protocol, input, &mut rng).aggregate;
    let plaintext = protocol.plaintext_reference(&deltas, &noises, Some(&sampled));
    for (a, b) in secure.iter().zip(plaintext.iter()) {
        assert!((a - b).abs() < 1e-6);
    }
}
