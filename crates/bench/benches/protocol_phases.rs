//! Criterion benchmarks of the private weighting protocol phases (Figures 10 and 11):
//! setup (key exchange + blinded histogram + inversion) and a full weighting round, as a
//! function of the number of users and model parameters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_core::{PrivateWeightingProtocol, ProtocolConfig, RoundInput};

fn config() -> ProtocolConfig {
    ProtocolConfig { paillier_bits: 384, dh_bits: 128, n_max: 32, ..Default::default() }
}

fn histogram(rng: &mut StdRng, silos: usize, users: usize) -> Vec<Vec<usize>> {
    (0..silos).map(|_| (0..users).map(|_| rng.gen_range(1..6usize)).collect()).collect()
}

fn bench_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_setup");
    group.sample_size(10);
    for &users in &[10usize, 20, 40] {
        group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, &users| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                let h = histogram(&mut rng, 3, users);
                PrivateWeightingProtocol::setup(&h, &config(), &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_weighting_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_round");
    group.sample_size(10);
    for &params in &[16usize, 64] {
        let mut rng = StdRng::seed_from_u64(4);
        let h = histogram(&mut rng, 3, 10);
        let protocol = PrivateWeightingProtocol::setup(&h, &config(), &mut rng);
        let deltas: Vec<Vec<Vec<f64>>> = h
            .iter()
            .map(|row| {
                row.iter()
                    .map(|_| (0..params).map(|_| rng.gen_range(-0.1..0.1)).collect())
                    .collect()
            })
            .collect();
        let noises: Vec<Vec<f64>> =
            (0..3).map(|_| (0..params).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(params), &params, |b, _| {
            b.iter(|| protocol.run_rounds(&[RoundInput::new(&deltas, &noises)], &mut rng))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_setup, bench_weighting_round);
criterion_main!(benches);
