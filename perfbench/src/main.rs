//! Command-line entry point; see the library documentation for the workloads.

use std::process::ExitCode;
use uldp_perfbench::{check_environment, run, Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_environment(std::env::vars()) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let outcome = run(&args);
    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    for line in outcome.human_lines(&args.workload, args.trace) {
        println!("{line}");
    }
    println!("{}", outcome.json_line(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
