//! Every name `BENCHMARK.json` declares is printed, with its unit, by a short run of each
//! workload: the end-to-end metrics by the untraced run, the per-layer metrics by the
//! traced run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The `(name, unit)` pairs of the objects in the top-level array `key` (`unit` is empty
/// for workloads). The arrays hold flat objects, so the first `]` closes the array.
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key:?}"));
    let body = &json[start..];
    let body = &body[body.find('[').expect("array")..];
    let body = &body[..body.find(']').expect("closing bracket")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                string_field(obj, "name").expect("every entry has a name"),
                string_field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn string_field(obj: &str, field: &str) -> Option<String> {
    let at = obj.find(&format!("\"{field}\""))?;
    let rest = &obj[at + field.len() + 2..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

fn run(workload: &str, trace: bool) -> String {
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-traces");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("ULDP_")) {
        cmd.env_remove(k);
    }
    let out = cmd
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .arg("--trace-dir")
        .arg(&trace_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if trace {
        assert!(trace_dir.join(format!("{workload}-seed5.trace.json")).is_file());
    }
    stdout
}

fn check_workload(workload: &str) {
    let json = benchmark_json();
    assert!(
        entries(&json, "workloads").iter().any(|(name, _)| name == workload),
        "{workload} is not declared in BENCHMARK.json"
    );
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let stdout = run(workload, trace);
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true,"), "{last}");
        let declared = entries(&json, key);
        assert!(!declared.is_empty());
        for (name, unit) in declared {
            let metric = format!("\"{name}\": {{\"value\": ");
            assert!(last.contains(&metric), "{workload} does not print {name}: {last}");
            let with_unit = last[last.find(&metric).expect("present")..].to_string();
            let unit_field = format!("\"unit\": \"{unit}\"");
            assert!(
                with_unit[..with_unit.find('}').expect("object end")].contains(&unit_field),
                "{workload} prints {name} without unit {unit}"
            );
        }
        assert!(stdout.contains(&format!("{workload} error_rate = 0 ")), "{stdout}");
    }
}

#[test]
fn secure_dense_prints_every_declared_metric() {
    check_workload("secure_dense");
}

#[test]
fn population_sparse_prints_every_declared_metric() {
    check_workload("population_sparse");
}

#[test]
fn train_plain_prints_every_declared_metric() {
    check_workload("train_plain");
}

#[test]
fn declared_workloads_are_the_benchmarks() {
    let declared: Vec<String> =
        entries(&benchmark_json(), "workloads").into_iter().map(|(name, _)| name).collect();
    assert_eq!(declared, uldp_perfbench::WORKLOADS);
}
