//! Determinism guarantees of the pooled runtime, end to end: training through
//! [`Trainer::run`] and a full Protocol 1 weighting round must produce **bitwise
//! identical** results at 1, 2 and N worker threads — and, since the streaming sharded
//! round engine, across every `(shards, chunk_size)` setting as well.
//!
//! These are the acceptance tests of the `uldp-runtime` refactors: any scheduling
//! dependence — a shared RNG handed across tasks, a reduction whose shape follows the
//! thread count, a racy accumulation order, a float sum whose bracketing follows the
//! shard or chunk grid — shows up here as a bit difference.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::{
    FlConfig, Method, PrivateWeightingProtocol, ProtocolConfig, RoundInput, SampleMask, Trainer,
    TrainingHistory, WeightingStrategy,
};
use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
use uldp_fl::ml::LinearClassifier;
use uldp_fl::runtime::Runtime;

/// Runs one protocol round alone and returns its aggregate as raw bits.
fn round_bits(
    protocol: &PrivateWeightingProtocol,
    input: RoundInput<'_>,
    rng: &mut StdRng,
) -> Vec<u64> {
    protocol.run_rounds(&[input], rng)[0].aggregate.iter().map(|v| v.to_bits()).collect()
}

/// Collapses a history into a bit-exact fingerprint (parameters and metrics as raw bits).
fn history_bits(h: &TrainingHistory) -> Vec<u64> {
    let mut bits: Vec<u64> = h.final_parameters.iter().map(|p| p.to_bits()).collect();
    for r in &h.rounds {
        bits.push(r.round);
        bits.push(r.epsilon.to_bits());
        bits.push(r.test_accuracy.map(|v| v.to_bits()).unwrap_or(u64::MAX));
        bits.push(r.test_loss.map(|v| v.to_bits()).unwrap_or(u64::MAX));
        bits.push(r.c_index.map(|v| v.to_bits()).unwrap_or(u64::MAX));
    }
    bits
}

fn train_with_structure(
    method: Method,
    threads: usize,
    shards: usize,
    chunk_size: usize,
    seed: u64,
    rounds: u64,
) -> TrainingHistory {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = creditcard::generate(
        &mut rng,
        &CreditcardConfig { train_records: 300, test_records: 60, ..Default::default() },
    );
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = rounds;
    config.local_epochs = 2;
    config.sigma = if method.is_private() { 1.0 } else { 0.0 };
    config.user_sampling = if matches!(method, Method::UldpAvg { .. }) { 0.7 } else { 1.0 };
    config.threads = threads;
    config.shards = shards;
    config.chunk_size = chunk_size;
    let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    Trainer::new(config, dataset, model).run()
}

fn train_with_threads(method: Method, threads: usize) -> TrainingHistory {
    train_with_structure(method, threads, 0, 0, 7, 3)
}

#[test]
fn training_history_is_bitwise_identical_at_any_thread_count() {
    for method in [
        Method::Default,
        Method::UldpNaive,
        Method::UldpAvg { weighting: WeightingStrategy::RecordProportional },
        Method::UldpSgd { weighting: WeightingStrategy::Uniform },
    ] {
        let sequential = history_bits(&train_with_threads(method, 1));
        assert_eq!(
            sequential,
            history_bits(&train_with_threads(method, 2)),
            "{}: 2 threads diverged from sequential",
            method.label()
        );
        assert_eq!(
            sequential,
            history_bits(&train_with_threads(method, 5)),
            "{}: 5 threads diverged from sequential",
            method.label()
        );
    }
}

#[test]
fn group_training_is_bitwise_identical_at_any_thread_count() {
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(8);
        let dataset = creditcard::generate(
            &mut rng,
            &CreditcardConfig { train_records: 200, test_records: 40, ..Default::default() },
        );
        let method = Method::UldpGroup {
            group_size: uldp_fl::core::GroupSize::Fixed(4),
            sampling_rate: 0.5,
        };
        let mut config = FlConfig::recommended(method, dataset.num_silos);
        config.rounds = 2;
        config.sigma = 1.0;
        config.threads = threads;
        let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
        history_bits(&Trainer::new(config, dataset, model).run())
    };
    let sequential = run(1);
    assert_eq!(sequential, run(2));
    assert_eq!(sequential, run(4));
}

#[test]
fn training_history_is_bitwise_identical_across_the_structure_grid() {
    // The streaming sharded round engine's acceptance grid: every combination of
    // (threads, shards, chunk_size) must reproduce the (1 thread, 1 shard, one-chunk)
    // reference bit for bit. The exact fixed-point accumulation makes the per-silo sums
    // independent of the span grid; the per-task RNG streams are already independent of
    // it. chunk_size = usize::MAX means "whole shard in one chunk".
    let method = Method::UldpAvg { weighting: WeightingStrategy::RecordProportional };
    let reference = history_bits(&train_with_structure(method, 1, 1, usize::MAX, 7, 2));
    for threads in [1usize, 2, 4] {
        for shards in [1usize, 2, 3] {
            for chunk in [1usize, 7, usize::MAX] {
                let run = history_bits(&train_with_structure(method, threads, shards, chunk, 7, 2));
                assert_eq!(
                    run, reference,
                    "threads={threads} shards={shards} chunk={chunk} diverged"
                );
            }
        }
    }
    // ULDP-SGD rides the same engine: spot-check the grid corners.
    let method = Method::UldpSgd { weighting: WeightingStrategy::Uniform };
    let reference = history_bits(&train_with_structure(method, 1, 1, usize::MAX, 8, 2));
    for (threads, shards, chunk) in [(2, 3, 1), (4, 2, 7)] {
        let run = history_bits(&train_with_structure(method, threads, shards, chunk, 8, 2));
        assert_eq!(run, reference, "threads={threads} shards={shards} chunk={chunk} diverged");
    }
}

#[test]
fn protocol_round_is_bitwise_identical_across_threads_and_chunks() {
    let histogram = vec![vec![3usize, 1, 0, 5, 2], vec![1, 0, 2, 5, 1], vec![0, 4, 2, 0, 3]];
    let run = |threads: usize, chunk_size: usize| {
        let mut rng = StdRng::seed_from_u64(91);
        let config = ProtocolConfig {
            paillier_bits: 256,
            dh_bits: 128,
            n_max: 16,
            threads,
            chunk_size,
            ..Default::default()
        };
        let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
        let dim = 6;
        let deltas: Vec<Vec<Vec<f64>>> = histogram
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| {
                        if c == 0 {
                            Vec::new()
                        } else {
                            (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
                        }
                    })
                    .collect()
            })
            .collect();
        let noises: Vec<Vec<f64>> = histogram
            .iter()
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
            .collect();
        round_bits(&protocol, RoundInput::new(&deltas, &noises), &mut rng)
    };
    // Ciphertext accumulation is exact modular arithmetic, so the streamed cell fold
    // must reproduce the (1 thread, one-chunk) reference at every grid point.
    let sequential = run(1, usize::MAX);
    for threads in [1usize, 2, 6] {
        for chunk in [1usize, 7, usize::MAX] {
            assert_eq!(sequential, run(threads, chunk), "threads={threads} chunk={chunk}");
        }
    }
}

#[test]
fn sparse_and_dense_masks_agree_bitwise_across_threads_and_chunks() {
    // The dense-vs-sparse determinism oracle on the structure grid: 3 of 13 users
    // sampled keeps the mask below the ¼ density threshold (sparse index-list
    // layout), and `densified()` forces the dense flag layout of the same selection.
    // Every (threads, chunk) grid point must produce ONE bit pattern for both
    // representations, across two rounds.
    let histogram: Vec<Vec<usize>> = vec![
        vec![1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1],
        vec![2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1],
    ];
    let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
    let run = |threads: usize, chunk_size: usize, mask: &SampleMask| {
        let mut rng = StdRng::seed_from_u64(93);
        let config = ProtocolConfig {
            paillier_bits: 256,
            dh_bits: 128,
            n_max: 16,
            threads,
            chunk_size,
            ..Default::default()
        };
        let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
        let dim = 4;
        let mut out = Vec::new();
        for _ in 0..2 {
            let deltas: Vec<Vec<Vec<f64>>> = histogram
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&c| {
                            if c == 0 {
                                Vec::new()
                            } else {
                                (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
                            }
                        })
                        .collect()
                })
                .collect();
            let noises: Vec<Vec<f64>> = histogram
                .iter()
                .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
                .collect();
            let input = RoundInput { sampled: Some(mask), ..RoundInput::new(&deltas, &noises) };
            out.extend(round_bits(&protocol, input, &mut rng));
        }
        out
    };
    let reference = run(1, usize::MAX, &mask);
    for threads in [1usize, 2, 4] {
        for chunk in [1usize, 3, usize::MAX] {
            assert_eq!(
                run(threads, chunk, &mask),
                reference,
                "sparse mask diverged at threads={threads} chunk={chunk}"
            );
            assert_eq!(
                run(threads, chunk, &mask.densified()),
                reference,
                "dense mask diverged at threads={threads} chunk={chunk}"
            );
        }
    }
}

#[test]
fn swapping_the_runtime_after_setup_preserves_bits() {
    // The same protocol instance must produce identical rounds before and after a
    // with_runtime swap (what the figure binaries rely on for their speedup measurement).
    let histogram = vec![vec![2usize, 1, 3], vec![1, 2, 0]];
    let mut rng = StdRng::seed_from_u64(17);
    let config =
        ProtocolConfig { paillier_bits: 256, dh_bits: 128, n_max: 8, ..Default::default() };
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    let deltas: Vec<Vec<Vec<f64>>> =
        histogram.iter().map(|row| row.iter().map(|_| vec![0.25, -0.5, 0.125]).collect()).collect();
    let noises = vec![vec![0.001, -0.002, 0.0005]; 2];
    let a = round_bits(&protocol, RoundInput::new(&deltas, &noises), &mut rng.clone());
    let protocol = protocol.with_runtime(Runtime::handle(3));
    let b = round_bits(&protocol, RoundInput::new(&deltas, &noises), &mut rng.clone());
    assert_eq!(a, b);
}

// Property test: random (threads, shards, chunk) grid points must reproduce the
// sequential single-shard single-chunk training reference bit for bit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_structure_grid_points_reproduce_training_bitwise(
        seed in any::<u64>(),
        threads in 1usize..5,
        shards in 1usize..4,
        chunk_pick in 0usize..3,
    ) {
        let chunk = [1usize, 7, usize::MAX][chunk_pick];
        let method = Method::UldpAvg { weighting: WeightingStrategy::RecordProportional };
        let reference = history_bits(&train_with_structure(method, 1, 1, usize::MAX, seed, 2));
        let run = history_bits(&train_with_structure(method, threads, shards, chunk, seed, 2));
        prop_assert_eq!(run, reference);
    }
}

// Property test: the inversion-based Poisson sampler is a pure function of its seeded
// RNG stream — same seed, same mask — and consumes exactly `sampled_count() + 1`
// uniform draws for 0 < q < 1, so everything drawn after the mask is independent of
// how many users exist (the property the O(q·|U|) round path relies on to keep sparse
// and dense runs on one RNG stream).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn poisson_sampler_stream_is_deterministic_and_exactly_counted(
        seed in any::<u64>(),
        num_users in 1usize..5000,
        q_mil in 1u32..1000,
    ) {
        let q = q_mil as f64 / 1000.0;
        let mask_a = SampleMask::poisson(&mut StdRng::seed_from_u64(seed), num_users, q);
        let mask_b = SampleMask::poisson(&mut StdRng::seed_from_u64(seed), num_users, q);
        prop_assert_eq!(&mask_a, &mask_b);

        let mut rng = StdRng::seed_from_u64(seed);
        let mask = SampleMask::poisson(&mut rng, num_users, q);
        let after_sampling = rng.gen::<u64>();
        let mut reference = StdRng::seed_from_u64(seed);
        for _ in 0..mask.sampled_count() + 1 {
            let _: f64 = reference.gen();
        }
        prop_assert_eq!(after_sampling, reference.gen::<u64>());

        // The selection itself is strictly sorted and in range.
        let indices: Vec<usize> = mask.iter().collect();
        prop_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(indices.iter().all(|&u| u < num_users));
    }
}

// Property test: random histograms and deltas, sequential vs pooled protocol rounds.
// Key generation dominates, so the key size is small and the case count modest.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_protocol_rounds_match_bitwise_across_thread_counts(
        seed in any::<u64>(),
        histogram in prop::collection::vec(prop::collection::vec(0usize..5, 4), 2..4),
        dim in 1usize..4,
        chunk in 1usize..9,
    ) {
        // Guard: the protocol requires at least one record overall to be interesting;
        // all-zero histograms are still valid (every inverse is None) and must agree too.
        let run = |threads: usize, chunk_size: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = ProtocolConfig {
                paillier_bits: 128,
                dh_bits: 64,
                n_max: 32,
                threads,
                chunk_size,
                ..Default::default()
            };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
            let deltas: Vec<Vec<Vec<f64>>> = histogram
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&c| {
                            if c == 0 {
                                Vec::new()
                            } else {
                                (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
                            }
                        })
                        .collect()
                })
                .collect();
            let noises: Vec<Vec<f64>> = histogram
                .iter()
                .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
                .collect();
            round_bits(&protocol, RoundInput::new(&deltas, &noises), &mut rng)
        };
        prop_assert_eq!(run(1, usize::MAX), run(3, chunk));
    }
}
