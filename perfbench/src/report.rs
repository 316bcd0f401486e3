//! Metric catalogue and the result line.
//!
//! Every run prints every metric of its mode, in catalogue order: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A layer a workload
//! never calls reads `0` (its work was not done), which keeps one schema for all
//! workloads; the human-readable lines mark those as `n/a`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric: its name and unit and, for a per-layer metric, which end-to-end metric a
/// change in it should move, on which workloads.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit; `count/round` counts are per round.
    pub unit: &'static str,
    /// End-to-end metrics a change in this layer should move (empty for end-to-end ones).
    pub moves: &'static str,
    /// Workloads on which it should move them.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric { name, unit, moves, on }
}

const fn end_to_end(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, moves: "", on: "" }
}

/// End-to-end metrics of the untraced run. Whether rounds passed their checks is
/// reported by the result's `attempted` / `failed` counts (`error_rate` in the
/// human-readable lines), not as a metric.
pub const END_TO_END: &[Metric] = &[
    end_to_end("setup_s", "s"),
    end_to_end("round_s", "s"),
    end_to_end("round_cpu_s", "s"),
    end_to_end("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("protocol.setup.key_exchange_s", "s", "setup_s", "secure_dense"),
    layer("protocol.setup.histogram_blinding_s", "s", "setup_s", "population_sparse"),
    layer("protocol.setup.inverse_computation_s", "s", "setup_s", "population_sparse"),
    layer("protocol.round.server_encryption_s", "s", "round_s", "population_sparse"),
    layer("protocol.round.silo_weighting_s", "s", "round_s, round_cpu_s", "secure_dense"),
    layer("protocol.round.aggregation_s", "s", "round_s, round_cpu_s", "secure_dense"),
    layer("protocol.pipeline.overlap", "ratio", "round_s", "secure_dense"),
    layer("protocol.cache.hit_ratio", "ratio", "round_s", "secure_dense, population_sparse"),
    layer("protocol.cache.state_bytes", "bytes", "peak_rss_mb", "population_sparse"),
    layer("sampling.poisson_s", "s", "round_s", "population_sparse"),
    layer("sampling.active_users", "count/round", "round_s", "population_sparse"),
    layer(
        "crypto.paillier_encrypt",
        "count/round",
        "round_cpu_s",
        "secure_dense, population_sparse",
    ),
    layer(
        "crypto.paillier_rerandomise",
        "count/round",
        "round_cpu_s",
        "secure_dense, population_sparse",
    ),
    layer(
        "crypto.paillier_scalar_mul",
        "count/round",
        "round_cpu_s",
        "secure_dense, population_sparse",
    ),
    layer(
        "crypto.paillier_decrypt",
        "count/round",
        "round_cpu_s",
        "secure_dense, population_sparse",
    ),
    layer("bigint.mont_mul", "count/round", "round_cpu_s", "secure_dense"),
    layer("bigint.mont_sqr", "count/round", "round_cpu_s", "secure_dense"),
    layer("bigint.multi_exp", "count/round", "round_cpu_s", "secure_dense"),
    layer("bigint.mod_pow_fixed_base", "count/round", "round_cpu_s", "secure_dense"),
    layer("bigint.mod_pow_window", "count/round", "round_cpu_s", "secure_dense"),
    layer("runtime.busy_cores", "cores", "round_s", "all"),
    layer("runtime.pool_jobs", "count/round", "round_s", "all"),
    layer("trainer.step_s", "s", "round_s", "train_plain"),
    layer("trainer.evaluate_s", "s", "round_s", "train_plain"),
    layer("trainer.tasks", "count/round", "round_s", "train_plain"),
    layer("trainer.evaluate_share", "ratio", "round_s", "train_plain"),
    layer("accounting.epsilon_s", "s", "round_s", "train_plain"),
    layer("bench.unattributed_share", "ratio", "none (validity)", "all"),
    layer("trace.overhead", "ratio", "none (validity)", "all"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Rounds attempted (timed and traced regions alike).
    pub attempted: u64,
    /// Rounds that failed their correctness check or never completed.
    pub failed: u64,
    /// Measured values by metric name; catalogue names missing here print as `0`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// One line per failed check, printed before the result.
    pub problems: Vec<String>,
    /// Context for a reader (accuracy reached, error against the bound), printed with
    /// the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts `rounds` attempted rounds of which `failed` failed.
    pub fn count(&mut self, rounds: usize, failed: usize) {
        self.attempted += rounds as u64;
        self.failed += failed as u64;
    }

    /// Failed over attempted rounds (`1.0` when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every attempted round passed and at least one was attempted.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The catalogue for the run's mode.
    pub fn catalogue(traced: bool) -> &'static [Metric] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable lines: notes, one line per metric, then `error_rate`.
    pub fn human_lines(&self, workload: &str, traced: bool) -> Vec<String> {
        let mut lines: Vec<String> = self.notes.iter().map(|n| format!("{workload} {n}")).collect();
        for m in Self::catalogue(traced) {
            let value = match self.metrics.get(m.name) {
                Some(v) => format!("{v} {}", m.unit),
                None => "n/a".to_string(),
            };
            let moves = if m.moves.is_empty() {
                String::new()
            } else {
                format!("  [moves {} on {}]", m.moves, m.on)
            };
            lines.push(format!("{workload} {} = {value}{moves}", m.name));
        }
        lines.push(format!(
            "{workload} error_rate = {} ({} of {} rounds failed)",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        lines
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and the mode's
    /// metrics with their units. Non-finite values print as `0`.
    pub fn json_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed }
        );
        for (i, m) in Self::catalogue(traced).iter().enumerate() {
            let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i > 0 { ", " } else { "" };
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_every_catalogue_metric() {
        let mut o = Outcome::default();
        o.count(4, 0);
        o.set("round_s", 1.25);
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{}", m.name);
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        assert!(line.contains("\"round_s\": {\"value\": 1.25,"));
    }

    #[test]
    fn nothing_attempted_is_incorrect() {
        let o = Outcome::default();
        assert!(!o.correct());
        assert!(o
            .json_line(true)
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
