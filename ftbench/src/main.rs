//! `ftbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, last on standard output, one JSON object
//! with `correct`, `attempted`, `failed` and the metrics: every
//! end-to-end metric untraced, every per-layer metric traced. Exits 1 when
//! a check failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use ftbench::spans::Tracer;
use ftbench::{workloads, Args, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let report = workloads::run(&args, &mut tracer);

    for note in &report.notes {
        println!("{note}");
    }
    for why in &report.problems {
        eprintln!("FAILED: {why}");
    }
    println!("{}", report.digest.line(args.workload.name(), args.seed));
    if args.trace {
        let path = args
            .spans_out
            .clone()
            .unwrap_or_else(|| default_spans_path(&args));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    if !report.correct() {
        // Print what was measured, then fail: a result line is only
        // complete when every check passed.
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            report.attempted, report.failed
        );
        return ExitCode::from(1);
    }
    match report.result_line(catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

/// Spans go beside the executable (inside the build directory) unless
/// `--spans-out` says otherwise.
fn default_spans_path(args: &Args) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("spans")))
        .unwrap_or_else(|| PathBuf::from("spans"));
    dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}
