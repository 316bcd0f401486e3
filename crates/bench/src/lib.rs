//! # uldp-bench
//!
//! Benchmark and figure-regeneration harness for the Uldp-FL reproduction.
//!
//! Every figure of the paper's evaluation section has a dedicated binary in `src/bin/`
//! that regenerates the corresponding series and prints them as aligned tables / CSV:
//!
//! | binary | paper figure | content |
//! |--------|--------------|---------|
//! | `fig2_group_privacy` | Fig. 2 | ε of the group-privacy conversion vs. group size k |
//! | `fig4_creditcard` | Fig. 4 | Creditcard privacy-utility trade-offs, all methods |
//! | `fig5_mnist` | Fig. 5 | MNIST trade-offs incl. the non-i.i.d. variants |
//! | `fig6_heartdisease` | Fig. 6 | HeartDisease trade-offs |
//! | `fig7_tcgabrca` | Fig. 7 | TcgaBrca trade-offs (C-index) |
//! | `fig8_weighting` | Fig. 8 | ULDP-AVG vs ULDP-AVG-w test loss under skew, |S| ∈ {5,20,50} |
//! | `fig9_subsampling` | Fig. 9 | effect of user-level sub-sampling rates |
//! | `fig10_protocol_bench` | Fig. 10 | private weighting protocol wall-clock, benchmark scenarios |
//! | `fig11_protocol_scaling` | Fig. 11 | protocol scaling with parameter count and user count |
//!
//! Scale is controlled by the `ULDP_BENCH_SCALE` environment variable: `quick` (default,
//! minutes) or `full` (closer to the paper's scale, much slower). Criterion micro-benches
//! (`cargo bench`) cover the crypto primitives, the per-phase protocol cost, the RDP
//! accountant and silo-local training.

pub mod modpow;
pub mod report;
pub mod scenarios;
pub mod telemetry_report;
pub mod trend;

use rand::rngs::StdRng;
use uldp_core::{
    FlConfig, Method, PrivateWeightingProtocol, RoundInput, RoundOutput, RoundTimings, Trainer,
    TrainingHistory,
};
use uldp_datasets::FederatedDataset;
use uldp_ml::Model;
use uldp_runtime::Runtime;

pub use report::{BenchEntry, BenchSection};

/// Experiment scale selected via the `ULDP_BENCH_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small workloads that finish in seconds to minutes (default).
    Quick,
    /// Workloads close to the paper's scale.
    Full,
}

impl Scale {
    /// Reads the scale from the environment (`quick` unless `ULDP_BENCH_SCALE=full`).
    pub fn from_env() -> Self {
        match std::env::var("ULDP_BENCH_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks `quick` or `full` value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One row of a figure's result table.
#[derive(Clone, Debug)]
pub struct ResultRow {
    /// Series / method label.
    pub label: String,
    /// Named values of the row, printed in insertion order.
    pub values: Vec<(String, String)>,
}

impl ResultRow {
    /// Creates an empty row with a label.
    pub fn new(label: impl Into<String>) -> Self {
        ResultRow { label: label.into(), values: Vec::new() }
    }

    /// Appends a formatted numeric value.
    pub fn push_f64(&mut self, name: &str, value: f64) {
        let rendered = if value.is_infinite() {
            "inf".to_string()
        } else if value.abs() >= 1000.0 {
            format!("{value:.1}")
        } else {
            format!("{value:.4}")
        };
        self.values.push((name.to_string(), rendered));
    }

    /// Appends a pre-formatted value.
    pub fn push_str(&mut self, name: &str, value: impl Into<String>) {
        self.values.push((name.to_string(), value.into()));
    }
}

/// Prints a titled table of rows in an aligned, grep-friendly format.
pub fn print_table(title: &str, rows: &[ResultRow]) {
    println!("\n== {title} ==");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    // header from the first row
    let mut header = format!("{:<24}", "series");
    for (name, _) in &rows[0].values {
        header.push_str(&format!(" {name:>14}"));
    }
    println!("{header}");
    for row in rows {
        let mut line = format!("{:<24}", row.label);
        for (_, value) in &row.values {
            line.push_str(&format!(" {value:>14}"));
        }
        println!("{line}");
    }
}

/// Trains `method` on a clone of `dataset` with a model produced by `make_model`, using
/// the supplied configuration tweaks, and returns the history. Shared by the figure
/// binaries so all of them configure runs consistently.
pub fn run_training(
    dataset: &FederatedDataset,
    method: Method,
    rounds: u64,
    sigma: f64,
    user_sampling: f64,
    make_model: &dyn Fn() -> Box<dyn Model>,
) -> TrainingHistory {
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = rounds;
    config.local_epochs = 2;
    config.local_lr = 0.3;
    config.clip_bound = 1.0;
    config.sigma = sigma;
    config.user_sampling = user_sampling;
    config.eval_every = (rounds / 5).max(1);
    if matches!(method, Method::UldpAvg { .. } | Method::UldpSgd { .. }) {
        config.global_lr = dataset.num_silos as f64 * 20.0;
    }
    Trainer::new(config, dataset.clone(), make_model()).run()
}

/// Formats a `Duration` in milliseconds with three decimals.
pub fn millis(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Outcome of running one weighting round on the pooled runtime and again on a 1-thread
/// runtime from an identically-seeded RNG.
#[derive(Clone, Debug)]
pub struct RoundComparison {
    /// Decrypted aggregate of the pooled round (bitwise-equal to the sequential one).
    pub aggregate: Vec<f64>,
    /// Per-phase timings of the pooled round.
    pub timings: RoundTimings,
    /// Per-phase timings of the 1-thread round.
    pub seq_timings: RoundTimings,
    /// Wall-clock speedup of the pooled round over the sequential one.
    pub speedup: f64,
    /// Peak transient fold-accumulator bytes of the pooled round (the round's streaming
    /// cell fold, read from the runtime's [`uldp_runtime::MemoryGauge`]). This is the
    /// measured O(chunks × dim) footprint the `memory` report section records.
    pub peak_fold_bytes: usize,
}

/// Runs `protocol`'s weighting round twice — on its configured (pooled) runtime with
/// `rng`, then on a 1-thread runtime from a pre-round clone of `rng` — and asserts the
/// decrypted aggregates are bitwise-identical (the runtime's determinism guarantee).
///
/// Shared by `fig10_protocol_bench`, `fig11_protocol_scaling` and `protocol_smoke` so
/// the comparison harness cannot drift between them. `rng` advances exactly as one round
/// would; the protocol is returned with the 1-thread runtime installed.
pub fn pooled_vs_sequential_round(
    protocol: PrivateWeightingProtocol,
    deltas: &[Vec<Vec<f64>>],
    noises: &[Vec<f64>],
    rng: &mut StdRng,
) -> (PrivateWeightingProtocol, RoundComparison) {
    let round = [RoundInput::new(deltas, noises)];
    // Warm-up round on a cloned RNG, output discarded: the first round over a fresh
    // protocol pays one-time lazy initialisation (CRT decryption contexts, allocator
    // growth) that belongs to neither side of the threads comparison — without this the
    // pooled round, which runs first, absorbed that cost and a 1-thread "pooled" run
    // read as slower than sequential.
    let _ = protocol.run_rounds(&round, &mut rng.clone());
    let mut seq_rng = rng.clone();
    protocol.runtime().fold_gauge().reset();
    let RoundOutput { aggregate, timings, .. } = protocol.run_rounds(&round, rng).remove(0);
    let peak_fold_bytes = protocol.runtime().fold_gauge().peak();
    let protocol = protocol.with_runtime(Runtime::handle(1));
    let seq = protocol.run_rounds(&round, &mut seq_rng).remove(0);
    let seq_timings = seq.timings;
    assert_eq!(
        aggregate.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        seq.aggregate.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "pooled and sequential aggregates must be bitwise-identical"
    );
    let speedup = seq_timings.total().as_secs_f64() / timings.total().as_secs_f64().max(1e-12);
    (protocol, RoundComparison { aggregate, timings, seq_timings, speedup, peak_fold_bytes })
}

/// Outcome of replaying the same multi-round inputs twice — once sequentially
/// (depth 0) and once through the round pipeline — from identically-seeded RNGs.
#[derive(Clone, Debug)]
pub struct PipelineComparison {
    /// Rounds in the replay.
    pub rounds: usize,
    /// Pipeline depth of the overlapped replay (0 means the pipeline was disabled and
    /// both replays took the sequential path).
    pub depth: usize,
    /// Wall-clock of the sequential replay, milliseconds.
    pub seq_ms: f64,
    /// Wall-clock of the pipelined replay, milliseconds.
    pub pipe_ms: f64,
    /// `seq_ms / pipe_ms` — how much decrypt/fold overlap buys over the loop.
    pub speedup: f64,
    /// Aggregates of the pipelined replay (bitwise-equal to the sequential ones).
    pub aggregates: Vec<Vec<f64>>,
}

/// Replays `rounds` through [`PrivateWeightingProtocol::run_rounds_with_depth`] twice —
/// pipelined at `depth` with `rng`, then sequentially (depth 0) from a pre-replay clone
/// of `rng` — and asserts the decrypted aggregates are bitwise-identical.
///
/// A full warm-up replay runs first (cloned RNG, output discarded) so neither timed
/// replay pays the one-time lazy initialisation. `rng` advances exactly as one replay
/// would. Shared by `protocol_smoke` and ad-hoc benches so the comparison harness
/// cannot drift.
pub fn pipelined_vs_sequential_rounds(
    protocol: &PrivateWeightingProtocol,
    rounds: &[RoundInput<'_>],
    depth: usize,
    rng: &mut StdRng,
) -> PipelineComparison {
    let _ = protocol.run_rounds_with_depth(rounds, 0, &mut rng.clone());
    let mut seq_rng = rng.clone();
    let start = std::time::Instant::now();
    let outputs = protocol.run_rounds_with_depth(rounds, depth, rng);
    let pipe_ms = millis(start.elapsed());
    let start = std::time::Instant::now();
    let seq_outputs = protocol.run_rounds_with_depth(rounds, 0, &mut seq_rng);
    let seq_ms = millis(start.elapsed());
    let bits = |outs: &[RoundOutput]| {
        outs.iter()
            .map(|o| o.aggregate.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&outputs),
        bits(&seq_outputs),
        "pipelined and sequential replays must be bitwise-identical"
    );
    PipelineComparison {
        rounds: rounds.len(),
        depth,
        seq_ms,
        pipe_ms,
        speedup: seq_ms / pipe_ms.max(1e-9),
        aggregates: outputs.into_iter().map(|o| o.aggregate).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_quick() {
        // The environment variable is not set in the test harness.
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn result_rows_format_values() {
        let mut row = ResultRow::new("test");
        row.push_f64("eps", f64::INFINITY);
        row.push_f64("acc", 0.91234);
        row.push_f64("big", 12345.6);
        row.push_str("note", "ok");
        assert_eq!(row.values[0].1, "inf");
        assert_eq!(row.values[1].1, "0.9123");
        assert_eq!(row.values[2].1, "12345.6");
        assert_eq!(row.values[3].1, "ok");
        // print_table must not panic
        print_table("unit", &[row]);
        print_table("empty", &[]);
    }

    #[test]
    fn millis_converts() {
        assert!((millis(std::time::Duration::from_millis(250)) - 250.0).abs() < 1e-9);
    }
}
