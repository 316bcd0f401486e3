//! Process probes (CPU clock, peak resident memory) and the benchmark's own span
//! recorder.
//!
//! Spans are recorded from the benchmark's files only, around its calls into the
//! library's public entry points, and kept in memory until the run ends; the traced run
//! then writes them as a chrome-trace (`chrome://tracing` / Perfetto) JSON file.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user plus system time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, all threads) the process has used so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on the 64-bit Linux
    // targets this benchmark builds for) and the clock id is a constant the kernel
    // defines; `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name, e.g. `protocol.setup` or `trainer.step`.
    pub name: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans nest: [`Recorder::begin`] opens a child of the
/// innermost open span, [`Recorder::end`] closes it and returns its duration in seconds.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<(usize, Instant)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_us: now.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().map(|&(p, _)| p),
        });
        self.open.push((id, now));
        id
    }

    /// Closes span `id` and returns its seconds. Spans opened inside it and still open
    /// (a caught panic unwound past their `end`) close with it.
    pub fn end(&mut self, id: usize) -> f64 {
        while let Some((top, started)) = self.open.pop() {
            let secs = started.elapsed().as_secs_f64();
            self.spans[top].dur_us = secs * 1e6;
            if top == id {
                return secs;
            }
        }
        panic!("span {id} is not open");
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// `bench.unattributed_share`: the self time of every span that has children (its
    /// duration minus the part its child spans cover), summed, over the duration of the
    /// outermost span. This is the time the benchmark spent between its calls into the
    /// library; `0.0` without a closed root span.
    pub fn unattributed_share(&self) -> f64 {
        let Some(root) = self.spans.iter().find(|s| s.parent.is_none()) else {
            return 0.0;
        };
        if root.dur_us <= 0.0 {
            return 0.0;
        }
        let mut child_us = vec![0.0; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
                has_child[p] = true;
            }
        }
        let self_us: f64 = (0..self.spans.len())
            .filter(|&i| has_child[i])
            .map(|i| (self.spans[i].dur_us - child_us[i]).max(0.0))
            .sum();
        self_us / root.dur_us
    }

    /// The spans as chrome-trace JSON (complete `X` events on one thread).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1}}",
                s.name, s.start_us, s.dur_us
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Writes [`Recorder::chrome_trace_json`] to `path`, creating its directory.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn spans_nest_and_self_time_is_attributed() {
        let mut rec = Recorder::new();
        let root = rec.begin("run");
        let a = rec.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(5));
        rec.end(a);
        std::thread::sleep(std::time::Duration::from_millis(5));
        rec.end(root);
        assert_eq!(rec.spans()[a].parent, Some(root));
        let share = rec.unattributed_share();
        assert!(share > 0.0 && share < 1.0, "share {share}");
        let json = rec.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":[") && json.contains("\"name\":\"a\""));
    }
}
