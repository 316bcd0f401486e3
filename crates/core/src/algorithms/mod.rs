//! Round implementations of the five training algorithms evaluated in the paper.
//!
//! Each sub-module exposes a `run_round` function that performs one complete federated
//! round: silo-local computation (possibly per user), clipping, DP noise, aggregation and
//! the global model update. The [`crate::trainer::Trainer`] dispatches to the right module
//! based on [`crate::config::Method`] and handles privacy accounting, user-level
//! sub-sampling masks and evaluation.

pub mod default;
pub mod group;
pub mod naive;
pub(crate) mod stream;
pub mod uldp_avg;
pub mod uldp_sgd;

use crate::sampling::SampleMask;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use uldp_datasets::FederatedDataset;
use uldp_ml::{Model, Sample};
use uldp_runtime::{seeding, Runtime};

/// Stream tag separating per-task training RNGs from per-silo noise RNGs within a round.
pub(crate) const STREAM_TRAIN: u64 = 1;
/// Stream tag for per-silo Gaussian-noise RNGs.
pub(crate) const STREAM_NOISE: u64 = 2;

/// Runs `per_silo` for every silo on the shared worker pool and returns the per-silo
/// results in silo order.
///
/// Every silo receives its own deterministic RNG derived from `(base_seed, silo)` via
/// [`seeding::index_seed`], so results are bitwise-identical at any thread count.
pub(crate) fn map_silos<F>(
    rt: &Runtime,
    num_silos: usize,
    base_seed: u64,
    per_silo: F,
) -> Vec<Vec<f64>>
where
    F: Fn(usize, &mut StdRng) -> Vec<f64> + Sync,
{
    rt.par_map_seeded(num_silos, base_seed, per_silo)
}

/// The deterministic RNG for one `(silo, user)` training task of a round.
///
/// Seeded from the round's training stream and the user's global task index, so the
/// stream is a pure function of `(round_seed, silo, user)` — independent of both thread
/// count and of which other users participate in the round.
pub(crate) fn task_rng(round_seed: u64, num_users: usize, silo: usize, user: usize) -> StdRng {
    let task_index = (silo * num_users + user) as u64;
    StdRng::seed_from_u64(seeding::index_seed(seeding::mix(round_seed, STREAM_TRAIN), task_index))
}

/// The deterministic RNG for silo-level Gaussian noise of a round.
pub(crate) fn noise_rng(round_seed: u64, silo: usize) -> StdRng {
    StdRng::seed_from_u64(seeding::index_seed(seeding::mix(round_seed, STREAM_NOISE), silo as u64))
}

/// The participating `(silo, user)` pairs of a round — users present in a silo whose
/// weight is non-zero and who are in the round's sampling mask — in flattened
/// silo-major order. Shared by `uldp_avg` and `uldp_sgd`, whose parallel regions run
/// one task per pair.
///
/// The mask is probed per candidate task rather than materialised into a zeroed weight
/// matrix, so an unsampled user costs one [`SampleMask::contains`] probe and no
/// per-user allocation; the resulting task list is identical to filtering on a
/// [`WeightMatrix::masked_by_sampling`] copy of `weights`.
pub(crate) fn participating_tasks(
    dataset: &FederatedDataset,
    weights: &WeightMatrix,
    mask: Option<&SampleMask>,
) -> Vec<(usize, usize)> {
    (0..dataset.num_silos)
        .flat_map(|silo_id| {
            dataset
                .users_in_silo(silo_id)
                .into_iter()
                .filter(move |&user| {
                    mask.is_none_or(|m| m.contains(user)) && weights.get(silo_id, user) != 0.0
                })
                .map(move |user| (silo_id, user))
        })
        .collect()
}

/// Each task's records `D_{s,u}`, in dataset order, gathered in one pass over the
/// dataset. Looking them up per task with [`FederatedDataset::silo_user_records`] scans
/// every record once per task, and that scan was most of a plaintext round's time.
pub(crate) fn records_by_task<'a>(
    dataset: &'a FederatedDataset,
    tasks: &[(usize, usize)],
) -> HashMap<(usize, usize), Vec<&'a Sample>> {
    let mut by_task: HashMap<(usize, usize), Vec<&Sample>> =
        tasks.iter().map(|&task| (task, Vec::new())).collect();
    for r in &dataset.records {
        if let Some(records) = by_task.get_mut(&(r.silo, r.user)) {
            records.push(&r.sample);
        }
    }
    by_task
}

/// Applies the aggregated update to the global model:
/// `x ← x + global_lr · scale · aggregate`.
pub(crate) fn apply_update(model: &mut dyn Model, aggregate: &[f64], global_lr: f64, scale: f64) {
    let params = model.parameters_mut();
    assert_eq!(params.len(), aggregate.len(), "aggregate dimensionality mismatch");
    for (p, a) in params.iter_mut().zip(aggregate.iter()) {
        *p += global_lr * scale * a;
    }
}

/// Derives a fresh per-round seed from the configured seed and round index.
///
/// A SplitMix64-style hash ([`seeding::index_seed`]) rather than a full `StdRng`
/// construction per call: the derivation is a pure 64-bit mix, an order of magnitude
/// cheaper and just as well distributed.
pub(crate) fn round_seed(seed: u64, round: u64) -> u64 {
    seeding::index_seed(seed, round)
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared helpers for algorithm unit tests: a tiny linearly separable federation.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use uldp_datasets::{FederatedDataset, FederatedRecord};
    use uldp_ml::{LinearClassifier, Model, Sample};

    /// A tiny 2-feature, 2-class, linearly separable federation.
    pub fn tiny_federation(num_silos: usize, num_users: usize, records: usize) -> FederatedDataset {
        let mut rng = StdRng::seed_from_u64(99);
        let mut recs = Vec::with_capacity(records);
        for i in 0..records {
            let label = i % 2;
            let sign = if label == 1 { 1.0 } else { -1.0 };
            let features =
                vec![sign * 2.0 + rng.gen_range(-0.3..0.3), sign * 1.0 + rng.gen_range(-0.3..0.3)];
            recs.push(FederatedRecord {
                sample: Sample::classification(features, label),
                user: rng.gen_range(0..num_users),
                silo: rng.gen_range(0..num_silos),
            });
        }
        let test: Vec<Sample> = (0..40)
            .map(|i| {
                let label = i % 2;
                let sign = if label == 1 { 1.0 } else { -1.0 };
                Sample::classification(vec![sign * 2.0, sign * 1.0], label)
            })
            .collect();
        FederatedDataset::new("tiny", num_silos, num_users, recs, test)
    }

    /// A fresh linear model matching the tiny federation.
    pub fn tiny_model() -> Box<dyn Model> {
        Box::new(LinearClassifier::new(2, 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use uldp_ml::LinearClassifier;

    #[test]
    fn map_silos_is_deterministic_and_ordered() {
        let rt = Runtime::new(3);
        let f = |s: usize, rng: &mut StdRng| vec![s as f64, rng.gen::<f64>()];
        let a = map_silos(&rt, 4, 7, f);
        let b = map_silos(&rt, 4, 7, f);
        assert_eq!(a, b);
        // thread count does not change the results
        assert_eq!(a, map_silos(&Runtime::new(1), 4, 7, f));
        for (s, v) in a.iter().enumerate() {
            assert_eq!(v[0], s as f64);
        }
        // different seeds give different randomness
        let c = map_silos(&rt, 4, 8, f);
        assert_ne!(a, c);
    }

    #[test]
    fn map_silos_single_silo() {
        let out = map_silos(&Runtime::new(2), 1, 0, |_, _| vec![42.0]);
        assert_eq!(out, vec![vec![42.0]]);
    }

    #[test]
    fn task_and_noise_rngs_are_stream_separated() {
        let a: u64 = task_rng(5, 10, 0, 0).gen();
        let b: u64 = task_rng(5, 10, 0, 1).gen();
        let c: u64 = task_rng(5, 10, 1, 0).gen();
        let z: u64 = noise_rng(5, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, z);
        let a2: u64 = task_rng(5, 10, 0, 0).gen();
        assert_eq!(a, a2);
    }

    #[test]
    fn apply_update_moves_parameters() {
        let mut model: Box<dyn uldp_ml::Model> = Box::new(LinearClassifier::new(1, 2));
        let dim = model.num_parameters();
        apply_update(model.as_mut(), &vec![1.0; dim], 0.5, 2.0);
        assert!(model.parameters().iter().all(|&p| (p - 1.0).abs() < 1e-12));
    }

    #[test]
    fn round_seed_varies_by_round() {
        assert_ne!(round_seed(1, 0), round_seed(1, 1));
        assert_eq!(round_seed(1, 5), round_seed(1, 5));
    }
}
