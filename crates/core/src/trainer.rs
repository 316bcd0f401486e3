//! Training orchestration: rounds, user-level sub-sampling, privacy accounting and
//! evaluation.
//!
//! [`Trainer`] owns a federated dataset, a model, an [`Accountant`] matched to the chosen
//! [`Method`], and the clipping-weight matrix. [`Trainer::run`] executes the configured
//! number of rounds and produces a [`TrainingHistory`] whose per-round entries are exactly
//! the series plotted in Figures 4–9 of the paper: a utility metric (accuracy, test loss
//! or C-index) and the accumulated ULDP ε.

use crate::algorithms::{self, group, round_seed};
use crate::config::{FlConfig, Method, WeightingStrategy};
use crate::sampling::SampleMask;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use uldp_accounting::{Accountant, AlgorithmPrivacy};
use uldp_datasets::FederatedDataset;
use uldp_ml::{metrics, Model, ModelKind, Sample};
use uldp_runtime::{CloseOnDrop, Handoff, Runtime};
use uldp_telemetry::trace;

/// Utility and privacy measurements recorded after a round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// 1-based round index.
    pub round: u64,
    /// Test accuracy (classification tasks).
    pub test_accuracy: Option<f64>,
    /// Average test loss.
    pub test_loss: Option<f64>,
    /// Concordance index (survival tasks).
    pub c_index: Option<f64>,
    /// Accumulated `(ε, δ)`-ULDP ε (infinite for the non-private baseline).
    pub epsilon: f64,
}

/// The complete record of a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Method label (matches the paper's legends, e.g. "ULDP-AVG-w").
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Per-evaluation-point metrics.
    pub rounds: Vec<RoundMetrics>,
    /// Final flat model parameters.
    pub final_parameters: Vec<f64>,
}

impl TrainingHistory {
    /// The last recorded test accuracy, if any.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.test_accuracy)
    }

    /// The last recorded test loss, if any.
    pub fn final_loss(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.test_loss)
    }

    /// The last recorded concordance index, if any.
    pub fn final_c_index(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.c_index)
    }

    /// The final accumulated ε.
    pub fn final_epsilon(&self) -> f64 {
        self.rounds.last().map(|r| r.epsilon).unwrap_or(0.0)
    }

    /// Renders the history as CSV rows (`round,accuracy,loss,c_index,epsilon`), the format
    /// consumed by the figure-regeneration binaries.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,accuracy,loss,c_index,epsilon\n");
        for r in &self.rounds {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                r.round,
                r.test_accuracy.map(|v| v.to_string()).unwrap_or_default(),
                r.test_loss.map(|v| v.to_string()).unwrap_or_default(),
                r.c_index.map(|v| v.to_string()).unwrap_or_default(),
                r.epsilon
            ));
        }
        out
    }
}

/// Orchestrates a full federated training run for one method on one dataset.
pub struct Trainer {
    config: FlConfig,
    dataset: FederatedDataset,
    model: Box<dyn Model>,
    accountant: Accountant,
    weights: WeightMatrix,
    contribution_flags: Option<Vec<bool>>,
    rng: StdRng,
    runtime: Arc<Runtime>,
}

impl Trainer {
    /// Creates a trainer, deriving the weight matrix, contribution flags and privacy
    /// accountant implied by the configured method.
    pub fn new(config: FlConfig, dataset: FederatedDataset, model: Box<dyn Model>) -> Self {
        config.validate();
        let histogram = dataset.histogram();
        let weights = match config.method {
            Method::UldpAvg { weighting } | Method::UldpSgd { weighting } => {
                WeightMatrix::from_histogram(weighting, &histogram)
            }
            _ => WeightMatrix::from_histogram(WeightingStrategy::Uniform, &histogram),
        };
        let contribution_flags = match config.method {
            Method::UldpGroup { group_size, .. } => {
                let k = group::resolve_group_size(&dataset, group_size);
                Some(group::build_contribution_flags(&dataset, k))
            }
            _ => None,
        };
        let privacy = match config.method {
            Method::Default => AlgorithmPrivacy::NonPrivate,
            Method::UldpNaive => {
                AlgorithmPrivacy::UserLevelGaussian { sigma: config.sigma, q: 1.0 }
            }
            Method::UldpAvg { .. } | Method::UldpSgd { .. } => {
                AlgorithmPrivacy::UserLevelGaussian { sigma: config.sigma, q: config.user_sampling }
            }
            Method::UldpGroup { group_size, sampling_rate } => {
                let k = group::resolve_group_size(&dataset, group_size);
                AlgorithmPrivacy::GroupDpSgd {
                    sigma: config.sigma,
                    sampling_rate,
                    steps_per_round: config.local_epochs,
                    group_size: group::accounting_group_size(k),
                }
            }
        };
        let accountant = Accountant::new(privacy);
        let rng = StdRng::seed_from_u64(config.seed);
        let runtime = Runtime::handle(config.threads);
        Trainer { config, dataset, model, accountant, weights, contribution_flags, rng, runtime }
    }

    /// The configuration used by this trainer.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The dataset being trained on.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.dataset
    }

    /// The current global model.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The privacy accountant (read access, e.g. for inspecting the RDP curve).
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// The clipping weight matrix in use.
    pub fn weights(&self) -> &WeightMatrix {
        &self.weights
    }

    /// The worker pool rounds run on (sized by [`FlConfig::threads`]).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Executes a single round (without evaluation) and updates the privacy accountant.
    pub fn step(&mut self, round: u64) {
        let seed = round_seed(self.config.seed, round);
        let rt = Arc::clone(&self.runtime);
        match self.config.method {
            Method::Default => algorithms::default::run_round(
                &rt,
                &mut self.model,
                &self.dataset,
                &self.config,
                seed,
            ),
            Method::UldpNaive => algorithms::naive::run_round(
                &rt,
                &mut self.model,
                &self.dataset,
                &self.config,
                seed,
            ),
            Method::UldpGroup { .. } => {
                let flags = self
                    .contribution_flags
                    .as_ref()
                    .expect("GROUP method always builds contribution flags");
                group::run_round(&rt, &mut self.model, &self.dataset, &self.config, flags, seed);
            }
            Method::UldpAvg { .. } | Method::UldpSgd { .. } => {
                let q = self.config.user_sampling;
                // A fresh user-level Poisson sample every round, independent of earlier
                // rounds as the accountant assumes. The draw walks geometric gaps (one
                // uniform per *sampled* user), so a sparse round over a large population
                // never pays a per-user Bernoulli pass.
                let mask = (q < 1.0)
                    .then(|| SampleMask::poisson(&mut self.rng, self.dataset.num_users, q));
                let mask = mask.as_ref();
                let effective_q = if mask.is_some() { q } else { 1.0 };
                if matches!(self.config.method, Method::UldpAvg { .. }) {
                    algorithms::uldp_avg::run_round(
                        &rt,
                        &mut self.model,
                        &self.dataset,
                        &self.config,
                        &self.weights,
                        mask,
                        effective_q,
                        seed,
                    );
                } else {
                    algorithms::uldp_sgd::run_round(
                        &rt,
                        &mut self.model,
                        &self.dataset,
                        &self.config,
                        &self.weights,
                        mask,
                        effective_q,
                        seed,
                    );
                }
            }
        }
        self.accountant.step_round();
        // Privacy-budget ledger: one entry per accounted round with the running
        // (ε, δ) total, so traces show privacy spend alongside the timing spans.
        if uldp_telemetry::enabled() {
            uldp_telemetry::metrics::LEDGER_ENTRIES.inc();
            let epsilon = self.accountant.epsilon(self.config.delta);
            trace::event(
                "privacy",
                "ledger",
                vec![
                    ("round", round.into()),
                    ("rounds_accounted", self.accountant.rounds().into()),
                    ("epsilon", epsilon.into()),
                    ("delta", self.config.delta.into()),
                ],
            );
        }
    }

    /// Evaluates the current model on the held-out test set.
    pub fn evaluate(&self, round: u64) -> RoundMetrics {
        let epsilon = self.accountant.epsilon(self.config.delta);
        evaluate_model(self.model.as_ref(), &self.dataset.test, round, epsilon)
    }

    /// Runs the full configured number of rounds and returns the training history.
    ///
    /// Evaluation points are pipelined through the same handoff primitive as the
    /// protocol's round pipeline: the evaluation of round `t` scores a cheap model
    /// snapshot on a side thread while the main thread already steps round `t+1`.
    /// Snapshot, epsilon and round index are captured at exactly the point the
    /// sequential loop would evaluate, so the history is bit-identical at any depth
    /// (`ULDP_PIPELINE=0` or [`FlConfig::pipeline_depth`] control it; see
    /// [`Trainer::run_with_pipeline`]).
    pub fn run(&mut self) -> TrainingHistory {
        let depth = uldp_runtime::resolve_pipeline_depth(self.config.pipeline_depth);
        self.run_with_pipeline(depth)
    }

    /// [`Trainer::run`] at an explicit pipeline depth: `0` runs the sequential
    /// reference loop. Exposed so tests can compare depths without touching the
    /// process environment.
    pub fn run_with_pipeline(&mut self, depth: usize) -> TrainingHistory {
        if depth == 0 || self.config.rounds < 2 {
            let mut rounds = Vec::new();
            for t in 0..self.config.rounds {
                self.step(t);
                let is_last = t + 1 == self.config.rounds;
                if (t + 1) % self.config.eval_every == 0 || is_last {
                    rounds.push(self.evaluate(t + 1));
                }
            }
            return self.finish(rounds);
        }
        // The held-out test set is immutable for the whole run but the stepping loop
        // needs `&mut self`, so the side thread scores against its own copy.
        let test: Vec<Sample> = self.dataset.test.clone();
        let total = self.config.rounds;
        let eval_every = self.config.eval_every;
        let jobs: Handoff<EvalJob> = Handoff::new(depth);
        let scored: Handoff<RoundMetrics> = Handoff::new(total.max(1) as usize);
        std::thread::scope(|scope| {
            let (jobs, scored, test) = (&jobs, &scored, &test);
            scope.spawn(move || {
                let _close_scored = CloseOnDrop(scored);
                let _close_jobs = CloseOnDrop(jobs);
                while let Some((seq, job)) = jobs.pop() {
                    let m = evaluate_model(job.model.as_ref(), test, job.round, job.epsilon);
                    if !scored.push(seq, m) {
                        break;
                    }
                }
            });
            let mut seq = 0u64;
            for t in 0..total {
                self.step(t);
                let is_last = t + 1 == total;
                if (t + 1) % eval_every == 0 || is_last {
                    // Everything the sequential evaluate would read is captured here,
                    // before the next step mutates the model or the accountant.
                    let job = EvalJob {
                        round: t + 1,
                        model: self.model.clone_model(),
                        epsilon: self.accountant.epsilon(self.config.delta),
                    };
                    let _wait = trace::span("train", "pipeline_wait").arg("round", t);
                    assert!(jobs.push(seq, job), "evaluation stage terminated early");
                    seq += 1;
                }
            }
            jobs.close();
        });
        // The scored queue outlives the consumer (closed by its guard), so this drains
        // every evaluation in submission order.
        let mut rounds = Vec::new();
        while let Some((_, m)) = scored.pop() {
            rounds.push(m);
        }
        self.finish(rounds)
    }

    fn finish(&self, rounds: Vec<RoundMetrics>) -> TrainingHistory {
        TrainingHistory {
            method: self.config.method.label(),
            dataset: self.dataset.name.clone(),
            rounds,
            final_parameters: self.model.parameters().to_vec(),
        }
    }
}

/// What the training pipeline's step stage hands the evaluation stage: a model
/// snapshot (cheap — models are flat parameter vectors) plus the accountant state the
/// sequential loop would have read at this evaluation point.
struct EvalJob {
    round: u64,
    model: Box<dyn Model>,
    epsilon: f64,
}

/// [`Trainer::evaluate`] against an explicit model and test set, shared by the
/// sequential path and the pipelined evaluation stage.
fn evaluate_model(model: &dyn Model, test: &[Sample], round: u64, epsilon: f64) -> RoundMetrics {
    match model.kind() {
        ModelKind::Cox => RoundMetrics {
            round,
            test_accuracy: None,
            test_loss: Some(metrics::average_loss(model, test)),
            c_index: Some(metrics::concordance_index(model, test)),
            epsilon,
        },
        _ => RoundMetrics {
            round,
            test_accuracy: Some(metrics::accuracy(model, test)),
            test_loss: Some(metrics::average_loss(model, test)),
            c_index: None,
            epsilon,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_util::{tiny_federation, tiny_model};
    use crate::config::GroupSize;

    fn quick_config(method: Method) -> FlConfig {
        FlConfig {
            method,
            rounds: 3,
            local_epochs: 2,
            local_lr: 0.3,
            global_lr: if matches!(method, Method::UldpAvg { .. } | Method::UldpSgd { .. }) {
                10.0
            } else {
                1.0
            },
            sigma: if method.is_private() { 1.0 } else { 0.0 },
            clip_bound: 2.0,
            ..Default::default()
        }
    }

    #[test]
    fn default_run_produces_history_without_privacy() {
        let dataset = tiny_federation(2, 6, 80);
        let mut trainer = Trainer::new(quick_config(Method::Default), dataset, tiny_model());
        let history = trainer.run();
        assert_eq!(history.method, "DEFAULT");
        assert_eq!(history.rounds.len(), 3);
        assert!(history.final_epsilon().is_infinite());
        assert!(history.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn uldp_avg_tracks_finite_epsilon() {
        let dataset = tiny_federation(2, 6, 80);
        let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
        let mut trainer = Trainer::new(quick_config(method), dataset, tiny_model());
        let history = trainer.run();
        let eps = history.final_epsilon();
        assert!(eps.is_finite() && eps > 0.0);
        // epsilon grows monotonically across evaluation points
        let eps_series: Vec<f64> = history.rounds.iter().map(|r| r.epsilon).collect();
        assert!(eps_series.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn group_method_has_larger_epsilon_than_avg() {
        let dataset = tiny_federation(2, 6, 120);
        let avg = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
        let group = Method::UldpGroup { group_size: GroupSize::Fixed(8), sampling_rate: 0.5 };
        let mut avg_trainer = Trainer::new(quick_config(avg), dataset.clone(), tiny_model());
        let mut group_trainer = Trainer::new(quick_config(group), dataset, tiny_model());
        let avg_eps = avg_trainer.run().final_epsilon();
        let group_eps = group_trainer.run().final_epsilon();
        assert!(group_eps > avg_eps, "group eps {group_eps} should exceed avg eps {avg_eps}");
    }

    #[test]
    fn subsampling_reduces_epsilon_in_training() {
        let dataset = tiny_federation(2, 10, 100);
        let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
        let mut full_cfg = quick_config(method);
        full_cfg.sigma = 5.0;
        let mut sub_cfg = full_cfg.clone();
        sub_cfg.user_sampling = 0.3;
        let full_eps = Trainer::new(full_cfg, dataset.clone(), tiny_model()).run().final_epsilon();
        let sub_eps = Trainer::new(sub_cfg, dataset, tiny_model()).run().final_epsilon();
        assert!(sub_eps < full_eps, "{sub_eps} !< {full_eps}");
    }

    #[test]
    fn eval_every_controls_history_density() {
        let dataset = tiny_federation(2, 6, 40);
        let mut cfg = quick_config(Method::Default);
        cfg.rounds = 4;
        cfg.eval_every = 2;
        let mut trainer = Trainer::new(cfg, dataset, tiny_model());
        let history = trainer.run();
        assert_eq!(history.rounds.len(), 2);
        assert_eq!(history.rounds[0].round, 2);
        assert_eq!(history.rounds[1].round, 4);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let dataset = tiny_federation(2, 6, 40);
        let mut trainer = Trainer::new(quick_config(Method::Default), dataset, tiny_model());
        let history = trainer.run();
        let csv = history.to_csv();
        assert!(csv.starts_with("round,accuracy,loss,c_index,epsilon\n"));
        assert_eq!(csv.lines().count(), 1 + history.rounds.len());
    }

    #[test]
    fn runs_are_reproducible_with_same_seed() {
        let dataset = tiny_federation(2, 6, 60);
        let cfg = quick_config(Method::UldpAvg { weighting: WeightingStrategy::Uniform });
        let h1 = Trainer::new(cfg.clone(), dataset.clone(), tiny_model()).run();
        let h2 = Trainer::new(cfg, dataset, tiny_model()).run();
        assert_eq!(h1.final_parameters, h2.final_parameters);
    }

    #[test]
    fn pipelined_history_matches_sequential_at_every_depth() {
        let dataset = tiny_federation(2, 6, 60);
        let mut cfg = quick_config(Method::UldpAvg { weighting: WeightingStrategy::Uniform });
        cfg.rounds = 5;
        cfg.eval_every = 2;
        let sequential =
            Trainer::new(cfg.clone(), dataset.clone(), tiny_model()).run_with_pipeline(0);
        for depth in [1, 2, 3] {
            let piped =
                Trainer::new(cfg.clone(), dataset.clone(), tiny_model()).run_with_pipeline(depth);
            assert_eq!(
                piped.final_parameters, sequential.final_parameters,
                "depth {depth} changed the trained model"
            );
            assert_eq!(piped.rounds.len(), sequential.rounds.len());
            for (p, s) in piped.rounds.iter().zip(&sequential.rounds) {
                assert_eq!(p.round, s.round, "depth {depth} reordered evaluation points");
                assert_eq!(p.test_accuracy, s.test_accuracy, "depth {depth} round {}", s.round);
                assert_eq!(p.test_loss, s.test_loss, "depth {depth} round {}", s.round);
                assert_eq!(p.c_index, s.c_index, "depth {depth} round {}", s.round);
                assert_eq!(p.epsilon, s.epsilon, "depth {depth} round {}", s.round);
            }
        }
    }
}
