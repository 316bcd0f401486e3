//! The two Protocol 1 workloads: `secure_dense` and `population_sparse`.
//!
//! A run sets the protocol up several times (`setup_s` is the median), then measures
//! timed regions. A region is one `PrivateWeightingProtocol::run_rounds` call over
//! `rounds_per_region` rounds. `secure_dense` keeps its cross-round ciphertext cache
//! warm: one untimed round after setup fills it, and at q = 1 every timed round
//! re-randomises cached ciphertexts, the steady state of a training run.
//! `population_sparse` starts every region from an empty cache, so each region is the
//! first rounds after setup; with a fresh mask every round, a warm cache would drift
//! towards hits as the run goes on. It runs one untimed region before the timed ones.
//! Each region's inputs (deltas, noise, sampling masks, encryption randomness) come from
//! the seed and are built before its timer starts.

use crate::probe::Recorder;
use crate::report::Outcome;
use crate::{measure_regions, report_regions, seed_for, stats, timed, Args, Scale, Timed, THREADS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use uldp_core::{
    PrivateWeightingProtocol, ProtocolConfig, RoundInput, RoundOutput, RoundTimings, SampleMask,
};
use uldp_datasets::tcga_brca::{self, TcgaBrcaConfig};
use uldp_datasets::Allocation;
use uldp_ml::gaussian;
use uldp_telemetry::metrics as counters;

/// Clipped deltas are drawn uniformly from `[-DELTA_RANGE, DELTA_RANGE]` per coordinate.
const DELTA_RANGE: f64 = 0.1;
/// Per-silo noise is `N(0, σ²C²)` with the paper's σ = 5 and C = 1.
const NOISE_STD: f64 = 5.0;
/// Setups a run may make while looking for a modulus of exactly the configured size.
const MAX_SETUPS: usize = 32;

/// Counters read after the first traced region, per round.
const COUNTERS: &[(&str, &counters::Counter)] = &[
    ("crypto.paillier_encrypt", &counters::PAILLIER_ENCRYPT),
    ("crypto.paillier_rerandomise", &counters::PAILLIER_RERANDOMISE),
    ("crypto.paillier_scalar_mul", &counters::PAILLIER_SCALAR_MUL),
    ("crypto.paillier_decrypt", &counters::PAILLIER_DECRYPT),
    ("bigint.mont_mul", &counters::MONT_MUL),
    ("bigint.mont_sqr", &counters::MONT_SQR),
    ("bigint.multi_exp", &counters::MULTI_EXP),
    ("bigint.mod_pow_fixed_base", &counters::MODPOW_FIXED_BASE),
    ("bigint.mod_pow_window", &counters::MODPOW_WINDOW),
    ("runtime.pool_jobs", &counters::POOL_JOBS),
];

/// A federation, protocol parameters and the shape of its timed regions.
pub struct SecureWorkload {
    histogram: Vec<Vec<usize>>,
    user_totals: Vec<usize>,
    config: ProtocolConfig,
    params: usize,
    /// Poisson sampling rate; `None` is q = 1 (no mask, every user every round).
    q: Option<f64>,
    rounds_per_region: usize,
    setup_reps: usize,
    /// Keep the cross-round cache across regions, after one untimed warm-up round;
    /// otherwise every region starts from an empty cache.
    warm_cache: bool,
    /// Run the rounds on a modulus of exactly `config.paillier_bits` bits. Key
    /// generation may return one bit fewer, and at 1024 bits that one bit changes the
    /// fixed-base window (see [`run`]).
    exact_modulus: bool,
}

impl SecureWorkload {
    /// TcgaBrca-shaped: 6 silos, 20 users (zipf), 39 parameters, 1024-bit Paillier, q = 1.
    ///
    /// The federation is the same for every seed: with 20 users, each zipf draw places a
    /// different number of (silo, user) pairs, and every pair adds a term to each of its
    /// silo's cells, so a fixed federation keeps the work per round the same for every
    /// seed. The seed draws the deltas, the noise and the encryption randomness.
    pub fn secure_dense(scale: Scale) -> Self {
        let mut rng = StdRng::seed_from_u64(seed_for(0, "secure_dense.federation", 0));
        let data = tcga_brca::generate(
            &mut rng,
            &TcgaBrcaConfig {
                num_users: 20,
                allocation: Allocation::zipf_default(),
                ..Default::default()
            },
        );
        let config = ProtocolConfig {
            paillier_bits: scale.pick(1024, 256),
            dh_bits: 0,
            use_rfc_group: true,
            n_max: data.max_records_per_user() as u64,
            threads: THREADS,
            ..Default::default()
        };
        let histogram = data.histogram();
        SecureWorkload {
            user_totals: user_totals(&histogram),
            histogram,
            config,
            params: data.feature_dim(),
            q: None,
            rounds_per_region: 2,
            setup_reps: 5,
            warm_cache: true,
            exact_modulus: true,
        }
    }

    /// Population-scale: 10⁵ users, 2 silos, 2 parameters, 128-bit Paillier,
    /// `N_max` = 8, a fresh Poisson mask with q = 0.01 every round.
    pub fn population_sparse(seed: u64, scale: Scale) -> Self {
        let users = scale.pick(100_000, 2_000);
        let mut rng = StdRng::seed_from_u64(seed_for(seed, "population_sparse.federation", 0));
        let histogram: Vec<Vec<usize>> =
            (0..2).map(|_| (0..users).map(|_| rng.gen_range(0..4usize)).collect()).collect();
        let config = ProtocolConfig {
            paillier_bits: 128,
            dh_bits: 0,
            use_rfc_group: true,
            n_max: 8,
            threads: THREADS,
            ..Default::default()
        };
        SecureWorkload {
            user_totals: user_totals(&histogram),
            histogram,
            config,
            params: 2,
            q: Some(0.01),
            rounds_per_region: 8,
            setup_reps: 3,
            warm_cache: false,
            exact_modulus: false,
        }
    }

    fn num_users(&self) -> usize {
        self.user_totals.len()
    }

    /// The users a round samples, ascending: the mask's, or everyone at q = 1.
    fn round_users<'a>(
        &self,
        mask: Option<&'a SampleMask>,
    ) -> Box<dyn Iterator<Item = usize> + 'a> {
        match mask {
            Some(m) => m.iter(),
            None => Box::new(0..self.num_users()),
        }
    }

    /// One round's inputs. Deltas are drawn for sampled users with records in the silo,
    /// in ascending user order; everyone else's delta stays empty.
    fn make_round(&self, rng: &mut StdRng, rec: &mut Recorder) -> RoundData {
        let mask = self.q.map(|q| {
            let span = rec.begin("sampling.poisson");
            let mask = SampleMask::poisson(rng, self.num_users(), q);
            rec.end(span);
            mask
        });
        let mut deltas: Vec<Vec<Vec<f64>>> =
            vec![vec![Vec::new(); self.num_users()]; self.histogram.len()];
        let mut active = 0usize;
        for u in self.round_users(mask.as_ref()) {
            active += usize::from(self.user_totals[u] > 0);
            for (row, hist) in deltas.iter_mut().zip(&self.histogram) {
                if hist[u] > 0 {
                    row[u] = (0..self.params)
                        .map(|_| rng.gen_range(-DELTA_RANGE..DELTA_RANGE))
                        .collect();
                }
            }
        }
        let noises = (0..self.histogram.len())
            .map(|_| (0..self.params).map(|_| NOISE_STD * gaussian(rng)).collect())
            .collect();
        RoundData { deltas, noises, mask, active }
    }

    /// The correctness check of one round: every coordinate of the decrypted aggregate
    /// lies within the fixed-point bound of `plaintext_reference`.
    ///
    /// Encoding rounds each delta and noise value to a multiple of the precision `P`,
    /// an error of at most `P/2` per value. The protocol weights delta terms by
    /// `w = n_{s,u}/N_u ≤ 1` exactly (the `C_LCM` factor makes the weights integral
    /// before decoding), so a coordinate summing `T` terms is off by at most `T·P/2`.
    /// The f64 reference itself may be off by `T·ε·Σ|term|` (ε = f64 machine epsilon);
    /// the bound allows twice that. Returns the largest error as a share of its bound.
    fn check_round(
        &self,
        protocol: &PrivateWeightingProtocol,
        data: &RoundData,
        out: &RoundOutput,
    ) -> Result<f64, String> {
        let reference =
            protocol.plaintext_reference(&data.deltas, &data.noises, data.mask.as_ref());
        if out.aggregate.len() != reference.len() {
            return Err(format!(
                "aggregate has {} coordinates, expected {}",
                out.aggregate.len(),
                reference.len()
            ));
        }
        let (terms, abs_sums) = self.summed_terms(data);
        let precision = self.config.precision;
        let mut worst = 0.0f64;
        for (j, (got, want)) in out.aggregate.iter().zip(&reference).enumerate() {
            let bound = terms as f64 * (precision / 2.0 + 2.0 * f64::EPSILON * abs_sums[j]);
            let err = (got - want).abs();
            if err.is_nan() || err > bound {
                return Err(format!(
                    "coordinate {j}: |{got} - {want}| = {err:e} exceeds the bound {bound:e}"
                ));
            }
            worst = worst.max(err / bound);
        }
        Ok(worst)
    }

    /// Terms summed into each coordinate (weighted deltas plus one noise value per
    /// silo) and, per coordinate, the sum of their magnitudes.
    fn summed_terms(&self, data: &RoundData) -> (usize, Vec<f64>) {
        let mut abs = vec![0.0; self.params];
        let mut terms = 0usize;
        for u in self.round_users(data.mask.as_ref()) {
            for (s, hist) in self.histogram.iter().enumerate() {
                let delta = &data.deltas[s][u];
                if hist[u] == 0 || delta.is_empty() {
                    continue;
                }
                terms += 1;
                let w = hist[u] as f64 / self.user_totals[u] as f64;
                for (a, d) in abs.iter_mut().zip(delta) {
                    *a += (w * d).abs();
                }
            }
        }
        for noise in &data.noises {
            terms += 1;
            for (a, z) in abs.iter_mut().zip(noise) {
                *a += z.abs();
            }
        }
        (terms, abs)
    }
}

/// `N_u = Σ_s n_{s,u}` for every user.
fn user_totals(histogram: &[Vec<usize>]) -> Vec<usize> {
    let mut totals = vec![0usize; histogram[0].len()];
    for row in histogram {
        for (t, &c) in totals.iter_mut().zip(row) {
            *t += c;
        }
    }
    totals
}

struct RoundData {
    deltas: Vec<Vec<Vec<f64>>>,
    noises: Vec<Vec<f64>>,
    mask: Option<SampleMask>,
    /// Users with records that take part in the round.
    active: usize,
}

/// Runs the workload: setups, then timed regions until `args.seconds` of region time
/// is measured. With `args.trace`, regions alternate untraced and traced (program
/// telemetry on); the first traced region supplies the per-round counters.
pub fn run(w: &SecureWorkload, args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let r = w.rounds_per_region;
    let mut setup_walls = Vec::new();
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    let mut protocol = None;
    // Key generation may return a modulus one bit short of the configured size, and the
    // fixed-base window is chosen by the modulus' bit length (1023 bits gets a smaller
    // window than 1024), so such a key runs a different, slower configuration. With
    // `exact_modulus`, every setup is timed but the rounds run on the last one whose
    // modulus has exactly the configured size.
    for rep in 0..MAX_SETUPS {
        if rep >= w.setup_reps && protocol.is_some() {
            break;
        }
        // Drop the previous instance first so peak memory holds one federation.
        drop(protocol.take());
        // Setup randomness (key generation, blinding seed) does not follow the seed:
        // prime search takes a random number of candidates, which would add its own
        // spread to `setup_s` on top of the machine's.
        let mut rng = StdRng::seed_from_u64(seed_for(0, "setup", rep as u64));
        let span = rec.begin("protocol.setup");
        let result = catch_unwind(AssertUnwindSafe(|| {
            PrivateWeightingProtocol::setup(&w.histogram, &w.config, &mut rng)
        }));
        let secs = rec.end(span);
        let Ok(p) = result else {
            out.problems.push(format!("setup {rep} panicked"));
            out.count(r, r);
            return;
        };
        let t = p.setup_timings();
        phases[0].push(t.key_exchange.as_secs_f64());
        phases[1].push(t.histogram_blinding.as_secs_f64());
        phases[2].push(t.inverse_computation.as_secs_f64());
        setup_walls.push(secs);
        if !w.exact_modulus || p.modulus_bits() == w.config.paillier_bits {
            protocol = Some(p);
        }
    }
    let Some(protocol) = protocol else {
        out.problems
            .push(format!("no {}-bit modulus in {MAX_SETUPS} setups", w.config.paillier_bits));
        out.count(r, r);
        return;
    };
    out.notes.push(format!(
        "setup: {} setups, rounds run on a {}-bit modulus",
        setup_walls.len(),
        protocol.modulus_bits()
    ));
    out.set("setup_s", stats::median(&setup_walls));
    out.set("protocol.setup.key_exchange_s", stats::median(&phases[0]));
    out.set("protocol.setup.histogram_blinding_s", stats::median(&phases[1]));
    out.set("protocol.setup.inverse_computation_s", stats::median(&phases[2]));

    let mut checks = Checks::default();
    // An untimed warm-up before the timed regions. With a warm cache, one round fills the
    // ciphertext cache and its fixed-base tables; otherwise one whole region runs, so the
    // first timed region does not pay for first-touch allocations.
    let warm_rounds = if w.warm_cache { 1 } else { r };
    let warm_seed = seed_for(args.seed, "warm-up", 0);
    if run_region(w, &protocol, warm_rounds, warm_seed, "protocol.warm_up", rec, out, &mut checks)
        .is_none()
    {
        return;
    }
    let mut traced_timings = Vec::new();
    let (plain, traced) = measure_regions(args, |index, is_traced| {
        let name = if is_traced { "protocol.run_rounds.traced" } else { "protocol.run_rounds" };
        let seed = seed_for(args.seed, "region", index);
        let region = run_region(w, &protocol, r, seed, name, rec, out, &mut checks)?;
        if is_traced {
            if traced_timings.is_empty() {
                // The first traced region's counts: fixed work for a given seed.
                for &(name, counter) in COUNTERS {
                    out.set(name, counter.get() as f64 / r as f64);
                }
                out.set(
                    "protocol.cache.hit_ratio",
                    stats::cache_hit_ratio(
                        counters::PAILLIER_ENCRYPT.get(),
                        counters::PAILLIER_RERANDOMISE.get(),
                    ),
                );
            }
            traced_timings.extend(region.timings);
        }
        Some(region.timed)
    });

    report_regions(args, &plain, &traced, r, out);
    out.notes.push(format!(
        "check: largest |secure - plaintext_reference| is {:.3} of its fixed-point bound",
        checks.worst_share
    ));
    let per_round = |phase: fn(&RoundTimings) -> Duration| {
        let total: f64 = traced_timings.iter().map(|t| phase(t).as_secs_f64()).sum();
        total / traced_timings.len().max(1) as f64
    };
    out.set("protocol.round.server_encryption_s", per_round(|t| t.server_encryption));
    out.set("protocol.round.silo_weighting_s", per_round(|t| t.silo_weighting));
    out.set("protocol.round.aggregation_s", per_round(|t| t.aggregation));
    out.set(
        "protocol.pipeline.overlap",
        stats::pipeline_overlap(&traced_timings, traced.wall_sum()),
    );
    out.set("protocol.cache.state_bytes", protocol.cached_state_bytes() as f64);
    let poisson: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "sampling.poisson")
        .map(|s| s.dur_us * 1e-6)
        .collect();
    let poisson_s = if poisson.is_empty() { 0.0 } else { stats::median(&poisson) };
    out.set("sampling.poisson_s", poisson_s);
    out.set("sampling.active_users", checks.active as f64 / checks.rounds.max(1) as f64);
}

/// Running totals of the round checks and inputs.
#[derive(Default)]
struct Checks {
    /// Rounds built.
    rounds: usize,
    /// Active users summed over the rounds built.
    active: usize,
    /// Largest error seen, as a share of its bound.
    worst_share: f64,
}

/// What one timed `run_rounds` call measured.
struct TimedRegion {
    timed: Timed,
    timings: Vec<RoundTimings>,
}

/// Builds `rounds` rounds of inputs from `seed`, then times one `run_rounds` call over
/// them (from an empty cache unless the workload keeps it warm) and checks every round.
/// Counts the rounds into `out`; `None` when the call panicked.
#[allow(clippy::too_many_arguments)]
fn run_region(
    w: &SecureWorkload,
    protocol: &PrivateWeightingProtocol,
    rounds: usize,
    seed: u64,
    name: &'static str,
    rec: &mut Recorder,
    out: &mut Outcome,
    checks: &mut Checks,
) -> Option<TimedRegion> {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = rec.begin("inputs");
    let data: Vec<RoundData> = (0..rounds).map(|_| w.make_round(&mut rng, rec)).collect();
    rec.end(span);
    checks.rounds += rounds;
    checks.active += data.iter().map(|d| d.active).sum::<usize>();
    let inputs: Vec<RoundInput<'_>> = data
        .iter()
        .map(|d| RoundInput {
            clipped_deltas: &d.deltas,
            noises: &d.noises,
            sampled: d.mask.as_ref(),
            faulted: None,
        })
        .collect();
    if !w.warm_cache {
        protocol.reset_round_cache();
    }

    let span = rec.begin(name);
    let (result, timed) =
        timed(|| catch_unwind(AssertUnwindSafe(|| protocol.run_rounds(&inputs, &mut rng))));
    rec.end(span);
    let Ok(outputs) = result else {
        out.problems.push(format!("{name}: run_rounds panicked"));
        out.count(rounds, rounds);
        return None;
    };

    let span = rec.begin("check");
    let mut failed = rounds.saturating_sub(outputs.len());
    for (t, (d, o)) in data.iter().zip(&outputs).enumerate() {
        match w.check_round(protocol, d, o) {
            Ok(share) => checks.worst_share = checks.worst_share.max(share),
            Err(e) => {
                out.problems.push(format!("{name} round {t}: {e}"));
                failed += 1;
            }
        }
    }
    rec.end(span);
    out.count(rounds, failed);
    Some(TimedRegion { timed, timings: outputs.iter().map(|o| o.timings).collect() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;
    use std::sync::Mutex;

    /// Telemetry counters are process-wide: tests that run rounds take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn args(trace: bool) -> Args {
        Args::parse(
            ["--workload", "secure_dense", "--seed", "3", "--seconds", "0.1", "--trace"]
                .iter()
                .map(|s| s.to_string())
                .chain([if trace { "1" } else { "0" }.to_string()]),
        )
        .expect("valid arguments")
    }

    fn tiny(n_max: u64) -> SecureWorkload {
        let config = ProtocolConfig {
            paillier_bits: 256,
            dh_bits: 64,
            n_max,
            threads: THREADS,
            ..Default::default()
        };
        let histogram = vec![vec![2, 0, 1], vec![1, 3, 1]];
        SecureWorkload {
            user_totals: user_totals(&histogram),
            histogram,
            config,
            params: 3,
            q: None,
            rounds_per_region: 2,
            setup_reps: 1,
            warm_cache: false,
            exact_modulus: false,
        }
    }

    #[test]
    fn check_catches_an_aggregate_outside_the_bound() {
        let _serial = serial();
        let w = tiny(8);
        let mut rng = StdRng::seed_from_u64(1);
        let protocol = PrivateWeightingProtocol::setup(&w.histogram, &w.config, &mut rng);
        let mut rec = Recorder::new();
        let data = w.make_round(&mut rng, &mut rec);
        let input = RoundInput {
            clipped_deltas: &data.deltas,
            noises: &data.noises,
            sampled: None,
            faulted: None,
        };
        let mut outputs = protocol.run_rounds(&[input], &mut rng);
        let share = w.check_round(&protocol, &data, &outputs[0]).expect("secure round is exact");
        assert!(share <= 1.0);
        // Seven terms per coordinate (users 0 and 2 in both silos, user 1 in one, plus
        // two noise values) allow 3.5 precision units of error; add 10.
        outputs[0].aggregate[1] += 10.0 * w.config.precision;
        assert!(w.check_round(&protocol, &data, &outputs[0]).is_err());
    }

    #[test]
    fn a_panicking_setup_fails_every_round_and_still_reports() {
        let _serial = serial();
        // User 1 holds 3 records but N_max = 2: setup asserts Theorem 4's precondition.
        let w = tiny(2);
        let mut out = Outcome::default();
        let mut rec = Recorder::new();
        run(&w, &args(false), &mut rec, &mut out);
        assert_eq!(out.attempted, w.rounds_per_region as u64);
        assert_eq!(out.failed, out.attempted);
        assert!(!out.correct());
        assert!(out.json_line(false).contains("\"round_s\": {\"value\": "));
    }

    #[test]
    fn a_traced_run_reports_counters_per_round() {
        let _serial = serial();
        let w = tiny(8);
        let mut out = Outcome::default();
        let mut rec = Recorder::new();
        run(&w, &args(true), &mut rec, &mut out);
        assert!(out.correct(), "{:?}", out.problems);
        // q = 1 with 3 users: round 1 encrypts all three, round 2 re-randomises them.
        assert_eq!(out.metrics["crypto.paillier_encrypt"], 1.5);
        assert_eq!(out.metrics["crypto.paillier_rerandomise"], 1.5);
        assert_eq!(out.metrics["protocol.cache.hit_ratio"], 0.5);
        assert!(out.metrics["protocol.pipeline.overlap"] > 0.0);
    }
}
