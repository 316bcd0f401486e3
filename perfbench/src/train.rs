//! The `train_plain` workload: ULDP-AVG-w on a paper-scale Creditcard federation, with
//! no cryptography at all.
//!
//! `setup_s` is the median of several `Trainer::new` calls. A timed region is one
//! `Trainer::run` of a fresh trainer (evaluation every round, through the trainer's
//! evaluation pipeline), after one untimed warm-up run. The traced run adds one stepped
//! region that calls `Trainer::step`, `Trainer::evaluate` and `Accountant::epsilon` one by
//! one, the sequential equivalent of `Trainer::run`, to split the round by layer.

use crate::probe::Recorder;
use crate::report::Outcome;
use crate::{measure_regions, report_regions, seed_for, stats, timed, Args, Scale, THREADS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use uldp_accounting::{Accountant, AlgorithmPrivacy};
use uldp_core::{FlConfig, Method, Trainer, TrainingHistory, WeightingStrategy};
use uldp_datasets::creditcard::{self, CreditcardConfig};
use uldp_datasets::{Allocation, FederatedDataset};
use uldp_ml::LinearClassifier;
use uldp_telemetry::metrics as counters;

/// Test accuracy the final model must reach. The synthetic Creditcard task labels 15%
/// of records as fraud, so always predicting "legit" scores about 0.85; the floor
/// demands a model that actually separates the classes.
pub const ACCURACY_FLOOR: f64 = 0.9;

const SETUP_REPS: usize = 25;

/// A dataset plus the training configuration every region uses.
pub struct TrainWorkload {
    dataset: FederatedDataset,
    config: FlConfig,
}

impl TrainWorkload {
    /// 5 silos, 1 000 users, 25 000 training records (zipf), a 29-feature two-class
    /// linear model (60 parameters), ULDP-AVG-w with Q = 2 local epochs and q = 1.
    pub fn train_plain(seed: u64, scale: Scale) -> Self {
        let mut rng = StdRng::seed_from_u64(seed_for(seed, "train_plain.federation", 0));
        let dataset = creditcard::generate(
            &mut rng,
            &CreditcardConfig {
                train_records: scale.pick(25_000, 2_000),
                test_records: 1_000,
                num_silos: 5,
                num_users: scale.pick(1_000, 100),
                allocation: Allocation::zipf_default(),
                ..Default::default()
            },
        );
        let mut config = FlConfig::recommended(
            Method::UldpAvg { weighting: WeightingStrategy::RecordProportional },
            dataset.num_silos,
        );
        config.rounds = scale.pick(8, 3);
        config.local_epochs = 2;
        config.local_lr = 0.3;
        config.global_lr = dataset.num_silos as f64 * 20.0;
        config.clip_bound = 1.0;
        config.sigma = 5.0;
        config.user_sampling = 1.0;
        config.eval_every = 1;
        config.seed = seed_for(seed, "train_plain.trainer", 0);
        config.threads = THREADS;
        TrainWorkload { dataset, config }
    }

    fn trainer(&self) -> Trainer {
        let model = Box::new(LinearClassifier::new(self.dataset.feature_dim(), 2));
        Trainer::new(self.config.clone(), self.dataset.clone(), model)
    }

    /// (silo, user) pairs holding records: the tasks a q = 1 round trains.
    fn tasks(&self) -> usize {
        self.dataset.histogram().iter().flatten().filter(|&&n| n > 0).count()
    }

    /// The run's correctness check: the final ε equals an independently stepped
    /// accountant's, and the final accuracy clears [`ACCURACY_FLOOR`].
    fn check(&self, epsilon: f64, accuracy: Option<f64>) -> Result<(), String> {
        let mut accountant = Accountant::new(AlgorithmPrivacy::UserLevelGaussian {
            sigma: self.config.sigma,
            q: self.config.user_sampling,
        });
        for _ in 0..self.config.rounds {
            accountant.step_round();
        }
        let expected = accountant.epsilon(self.config.delta);
        if epsilon.to_bits() != expected.to_bits() {
            return Err(format!("final epsilon {epsilon} != independently accounted {expected}"));
        }
        match accuracy {
            Some(a) if a >= ACCURACY_FLOOR => Ok(()),
            Some(a) => Err(format!("final accuracy {a} below the floor {ACCURACY_FLOOR}")),
            None => Err("no test accuracy recorded".to_string()),
        }
    }

    fn check_history(&self, history: &TrainingHistory) -> Result<(), String> {
        if history.rounds.len() as u64 != self.config.rounds {
            return Err(format!(
                "{} evaluations recorded for {} rounds",
                history.rounds.len(),
                self.config.rounds
            ));
        }
        self.check(history.final_epsilon(), history.final_accuracy())
    }
}

/// Runs the workload; see the module documentation.
pub fn run(w: &TrainWorkload, args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let r = w.config.rounds as usize;
    let mut setup_walls = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let dataset = w.dataset.clone();
        let model = Box::new(LinearClassifier::new(w.dataset.feature_dim(), 2));
        let span = rec.begin("trainer.new");
        let trainer = Trainer::new(w.config.clone(), dataset, model);
        setup_walls.push(rec.end(span));
        drop(trainer);
    }
    out.set("setup_s", stats::median(&setup_walls));

    let mut accuracies = Vec::new();
    // One `Trainer::run` of a fresh trainer, checked; `None` when it panicked.
    let mut run_once = |name: &'static str, rec: &mut Recorder, out: &mut Outcome| {
        let span = rec.begin("inputs");
        let mut trainer = w.trainer();
        rec.end(span);
        let span = rec.begin(name);
        let (result, timed) = timed(|| catch_unwind(AssertUnwindSafe(|| trainer.run())));
        rec.end(span);
        let Ok(history) = result else {
            out.problems.push(format!("{name}: Trainer::run panicked"));
            out.count(r, r);
            return None;
        };
        accuracies.push(history.final_accuracy().unwrap_or(0.0));
        let failed = match w.check_history(&history) {
            Ok(()) => 0,
            Err(e) => {
                out.problems.push(format!("{name}: {e}"));
                r
            }
        };
        out.count(r, failed);
        Some(timed)
    };
    // An untimed warm-up run, so the first timed region does not pay for first-touch
    // allocations.
    if run_once("trainer.warm_up", rec, out).is_none() {
        return;
    }
    let mut counted = false;
    let (plain, traced) = measure_regions(args, |_, is_traced| {
        let name = if is_traced { "trainer.run.traced" } else { "trainer.run" };
        let timed = run_once(name, rec, out);
        if is_traced && !counted {
            out.set("runtime.pool_jobs", counters::POOL_JOBS.get() as f64 / r as f64);
            counted = true;
        }
        timed
    });

    report_regions(args, &plain, &traced, r, out);
    out.notes.push(format!(
        "check: lowest final test accuracy {:.4} (floor {ACCURACY_FLOOR})",
        accuracies.iter().copied().fold(f64::INFINITY, f64::min)
    ));
    out.set("trainer.tasks", w.tasks() as f64);
    if args.trace {
        stepped_region(w, rec, out);
    }
}

/// The traced run's layer split: one fresh trainer driven round by round.
fn stepped_region(w: &TrainWorkload, rec: &mut Recorder, out: &mut Outcome) {
    let r = w.config.rounds;
    let mut trainer = w.trainer();
    let (mut step_s, mut eval_s, mut eps_s) = (0.0, 0.0, 0.0);
    let region = rec.begin("trainer.stepped");
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut last = None;
        for t in 0..r {
            let span = rec.begin("trainer.step");
            trainer.step(t);
            step_s += rec.end(span);
            let span = rec.begin("trainer.evaluate");
            last = Some(trainer.evaluate(t + 1));
            eval_s += rec.end(span);
            let span = rec.begin("accounting.epsilon");
            std::hint::black_box(trainer.accountant().epsilon(w.config.delta));
            eps_s += rec.end(span);
        }
        last
    }));
    let wall = rec.end(region);
    let failed = match result {
        Ok(Some(m)) => match w.check(m.epsilon, m.test_accuracy) {
            Ok(()) => 0,
            Err(e) => {
                out.problems.push(format!("stepped region: {e}"));
                r as usize
            }
        },
        Ok(None) | Err(_) => {
            out.problems.push("stepped region did not complete".to_string());
            r as usize
        }
    };
    out.count(r as usize, failed);
    out.set("trainer.step_s", step_s / r as f64);
    out.set("trainer.evaluate_s", eval_s / r as f64);
    out.set("accounting.epsilon_s", eps_s / r as f64);
    out.set("trainer.evaluate_share", eval_s / wall.max(f64::MIN_POSITIVE));
}
