//! End-to-end and per-layer benchmark of the uldp-fl workspace.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (one process each, 2 worker threads):
//!
//! * `secure_dense` — Protocol 1 on a TcgaBrca-shaped federation at q = 1. The mask
//!   never changes, so every timed round re-randomises cached ciphertexts: the cell
//!   fold, fixed-base evaluation, the wide-modulus bigint tiers, batched decryption and
//!   the round pipeline do nearly all the work.
//! * `population_sparse` — Protocol 1 over 10⁵ users with a fresh q = 0.01 Poisson mask
//!   every round. Setup (blinding, 10⁵ inversions) dominates; each round creates about a
//!   thousand new lazy cache entries, so cache misses dominate the rounds.
//! * `train_plain` — ULDP-AVG-w training on a paper-scale Creditcard federation with no
//!   cryptography: local training, clipping, the streaming fold, the pool, the
//!   accountant and evaluation.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones (see
//! [`report`]); the last line of standard output is the JSON result. Round inputs are
//! built from `--seed` before any timer starts, and every round's output is checked.
//! Protocol keys, and the `secure_dense` federation, are the same for every seed.

pub mod probe;
pub mod report;
pub mod secure;
pub mod stats;
pub mod train;

use std::path::PathBuf;
use std::time::Instant;

/// Worker threads of every workload, pinned through `ProtocolConfig::threads` /
/// `FlConfig::threads`.
pub const THREADS: usize = 2;

/// No new timed region starts once the process has run this long plus the previous
/// region's length, so a run ends well inside three minutes.
pub const REGION_BUDGET_S: f64 = 120.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["secure_dense", "population_sparse", "train_plain"];

/// Input sizes: `Full` is the benchmark; `Smoke` shrinks every workload so the
/// harness's own tests run in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined with.
    Full,
    /// Tiny inputs for testing the harness.
    Smoke,
}

impl Scale {
    /// `full` at [`Scale::Full`], `smoke` at [`Scale::Smoke`].
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds of timed regions to measure.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory the traced run writes its chrome-trace file to.
    pub trace_dir: PathBuf,
    /// Process start, for the region budget.
    pub started: Instant,
}

/// Usage text for argument errors.
pub const USAGE: &str = "usage: perfbench --workload <secure_dense|population_sparse|train_plain> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|smoke] [--trace-dir <dir>]";

impl Args {
    /// Parses `--key value` pairs; `--workload`, `--seed`, `--seconds` and `--trace` are
    /// required.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let started = Instant::now();
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = Scale::Full;
        let mut trace_dir = PathBuf::from(".bench_build/perfbench-traces");
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(format!("unknown workload {value:?}"));
                    }
                    workload = Some(value);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "smoke" => Scale::Smoke,
                        _ => return Err(format!("--scale takes full or smoke, got {value:?}")),
                    }
                }
                "--trace-dir" => trace_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            trace_dir,
            started,
        })
    }

    /// Seconds since the arguments were parsed.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Refuses any `ULDP_*` environment variable: each one selects a different program
/// path (`ULDP_FRESH_ENCRYPT`, `ULDP_PIPELINE`, `ULDP_DENSE_MASK`, ...), a different
/// pool or chunking (`ULDP_THREADS`, `ULDP_CHUNK`, `ULDP_SHARDS`) or turns telemetry on
/// (`ULDP_TRACE`), so a stray one would silently measure another program.
pub fn check_environment(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), String> {
    let mut set: Vec<String> =
        vars.into_iter().map(|(k, _)| k).filter(|k| k.starts_with("ULDP_")).collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to run with {} set: ULDP_* variables change what is measured; unset them",
        set.join(", ")
    ))
}

/// A 64-bit seed for one named input stream: `splitmix64` over the run seed, a hash of
/// the stream label and an index, so streams are independent and repeat per seed.
pub fn seed_for(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    let mut z = seed ^ h ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wall and process-CPU seconds of one timed call.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of the whole process (every thread, user and system).
    pub cpu: f64,
}

/// Runs `f`, timing it in wall and process-CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = probe::cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    let wall = t0.elapsed().as_secs_f64();
    (value, Timed { wall, cpu: probe::cpu_seconds() - cpu0 })
}

/// The timed regions of one kind (untraced or traced) of a run.
#[derive(Debug, Default)]
pub struct Regions {
    /// Wall seconds per region.
    pub walls: Vec<f64>,
    /// Process CPU seconds per region.
    pub cpus: Vec<f64>,
}

impl Regions {
    /// Total wall seconds.
    pub fn wall_sum(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Total CPU seconds.
    pub fn cpu_sum(&self) -> f64 {
        self.cpus.iter().sum()
    }

    /// Median region wall seconds over the rounds of a region.
    pub fn median_per_round(&self, rounds: usize) -> f64 {
        stats::median(&self.walls) / rounds as f64
    }

    /// A note listing every region's wall seconds and their spread, for judging how
    /// steady a run was.
    pub fn describe(&self, kind: &str) -> String {
        let walls: Vec<String> = self.walls.iter().map(|w| format!("{w:.3}")).collect();
        format!(
            "{kind} regions: {} timed, wall s [{}], interquartile range {:.3} of the median",
            self.walls.len(),
            walls.join(", "),
            stats::spread(&self.walls)
        )
    }
}

/// Records what every workload derives from its regions of `rounds` rounds each:
/// `round_s`, `round_cpu_s` and `runtime.busy_cores` from the untraced regions,
/// `trace.overhead` from both kinds, and a steadiness note per kind.
pub fn report_regions(
    args: &Args,
    plain: &Regions,
    traced: &Regions,
    rounds: usize,
    out: &mut report::Outcome,
) {
    out.notes.push(plain.describe("untraced"));
    let untraced = plain.median_per_round(rounds);
    out.set("round_s", untraced);
    out.set("round_cpu_s", stats::median(&plain.cpus) / rounds as f64);
    out.set("runtime.busy_cores", plain.cpu_sum() / plain.wall_sum().max(f64::MIN_POSITIVE));
    if args.trace {
        out.notes.push(traced.describe("traced"));
        if untraced > 0.0 {
            out.set("trace.overhead", traced.median_per_round(rounds) / untraced - 1.0);
        }
    }
}

/// Runs timed regions until about `args.seconds` of region time is measured, or until
/// the run's time budget ends; at least one untraced region and, with `args.trace`, one
/// traced. No region starts that would, at the previous region's length, end more than
/// half a region past `args.seconds`, so long regions do not stretch a run by a whole
/// region. Traced runs alternate untraced and traced regions. Program telemetry is on,
/// with counters freshly reset, exactly while a traced region runs.
///
/// `region(index, traced)` runs one region and returns its timing, or `None` to stop.
pub fn measure_regions(
    args: &Args,
    mut region: impl FnMut(u64, bool) -> Option<Timed>,
) -> (Regions, Regions) {
    let (mut plain, mut traced) = (Regions::default(), Regions::default());
    let min_regions = if args.trace { 2 } else { 1 };
    let mut last_wall = 0.0;
    for index in 0u64.. {
        if index >= min_regions {
            let measured = plain.wall_sum() + traced.wall_sum();
            if measured + last_wall / 2.0 >= args.seconds
                || args.elapsed_s() + last_wall > REGION_BUDGET_S
            {
                break;
            }
        }
        let is_traced = args.trace && index % 2 == 1;
        if is_traced {
            uldp_telemetry::reset();
            uldp_telemetry::set_enabled(true);
        }
        let result = region(index, is_traced);
        if is_traced {
            uldp_telemetry::set_enabled(false);
        }
        let Some(t) = result else { break };
        last_wall = t.wall;
        let kind = if is_traced { &mut traced } else { &mut plain };
        kind.walls.push(t.wall);
        kind.cpus.push(t.cpu);
    }
    uldp_telemetry::reset();
    (plain, traced)
}

/// Runs one workload and returns what it measured and checked.
pub fn run(args: &Args) -> report::Outcome {
    let mut rec = probe::Recorder::new();
    let mut out = report::Outcome::default();
    let root = rec.begin("run");
    let span = rec.begin("federation");
    let workload = args.workload.as_str();
    match workload {
        "secure_dense" | "population_sparse" => {
            let w = if workload == "secure_dense" {
                secure::SecureWorkload::secure_dense(args.scale)
            } else {
                secure::SecureWorkload::population_sparse(args.seed, args.scale)
            };
            rec.end(span);
            secure::run(&w, args, &mut rec, &mut out);
        }
        _ => {
            let w = train::TrainWorkload::train_plain(args.seed, args.scale);
            rec.end(span);
            train::run(&w, args, &mut rec, &mut out);
        }
    }
    rec.end(root);
    out.set("peak_rss_mb", probe::peak_rss_mb());
    if args.trace {
        out.set("bench.unattributed_share", rec.unattributed_share());
        let path = args.trace_dir.join(format!("{workload}-seed{}.trace.json", args.seed));
        match rec.write_chrome_trace(&path) {
            Ok(()) => eprintln!("perfbench: span trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(argv("--workload train_plain --seed 7 --seconds 10 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("train_plain", 7, 10.0, true)
        );
        assert_eq!(a.scale, Scale::Full);
        assert!(Args::parse(argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(argv("--workload train_plain --seed 1 --seconds 1")).is_err());
        assert!(Args::parse(argv("--workload train_plain --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn refuses_uldp_knobs() {
        let clean = vec![("PATH".to_string(), "/bin".to_string())];
        assert!(check_environment(clean).is_ok());
        let stray = vec![
            ("ULDP_PIPELINE".to_string(), "0".to_string()),
            ("ULDP_FRESH_ENCRYPT".to_string(), "1".to_string()),
        ];
        let err = check_environment(stray).expect_err("knobs must be refused");
        assert!(err.contains("ULDP_FRESH_ENCRYPT, ULDP_PIPELINE"), "{err}");
    }

    #[test]
    fn seed_streams_are_distinct_and_repeatable() {
        assert_eq!(seed_for(1, "region", 0), seed_for(1, "region", 0));
        assert_ne!(seed_for(1, "region", 0), seed_for(1, "region", 1));
        assert_ne!(seed_for(1, "region", 0), seed_for(2, "region", 0));
        assert_ne!(seed_for(1, "region", 0), seed_for(1, "setup", 0));
    }
}
