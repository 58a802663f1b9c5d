//! Structured export: metrics JSON, a Chrome trace, JSONL span and
//! time-series logs.
//!
//! Runs a small ECP machine with a transient failure, then writes four
//! artifacts next to the working directory:
//!
//! * `ftcoma_metrics.json` — the versioned metrics document (machine-wide,
//!   per-node and per-link sections, phase percentiles, availability);
//! * `ftcoma_trace.json` — a Chrome trace-event file: open it in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing` to see per-node
//!   timelines of checkpoint creates, commit scans and the recovery window,
//!   protocol events as instants, plus causal spans with flow arrows
//!   linking each transaction's hops;
//! * `ftcoma_spans.jsonl` — the same records as one JSON object per line,
//!   for `jq`-style ad-hoc analysis (`ftcoma trace summarize --spans
//!   ftcoma_spans.jsonl` digests it);
//! * `ftcoma_timeseries.jsonl` — one epoch sample every 10k cycles.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example export_trace
//! ```

use ftcoma_core::FtConfig;
use ftcoma_machine::{export, FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_sim::Clock;
use ftcoma_workloads::presets;

fn main() -> std::io::Result<()> {
    let mut machine = Machine::new(MachineConfig {
        nodes: 9,
        refs_per_node: 12_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(200.0),
        trace_capacity: 500_000,
        timeseries_every: 10_000,
        verify: true,
        ..MachineConfig::default()
    });
    machine.schedule_failure(60_000, NodeId::new(4), FailureKind::Transient);
    let metrics = machine.run();
    machine.assert_invariants();

    let doc = export::metrics_json(&metrics, &machine.link_report());
    std::fs::write("ftcoma_metrics.json", doc.to_string_pretty() + "\n")?;

    let spans = machine.spans();
    let chrome = export::chrome_trace_with_spans(&spans, Clock::ksr1().hz());
    std::fs::write("ftcoma_trace.json", chrome.to_string_compact() + "\n")?;
    std::fs::write("ftcoma_spans.jsonl", export::spans_jsonl(&spans))?;
    std::fs::write(
        "ftcoma_timeseries.jsonl",
        export::timeseries_jsonl(machine.timeseries()),
    )?;

    let s = metrics.access_latency.summary();
    println!(
        "run: {} cycles, {} checkpoints, {} failure(s)",
        metrics.total_cycles, metrics.checkpoints, metrics.failures
    );
    println!(
        "access latency: p50<={:.0} p90<={:.0} p99<={:.0} max={}",
        s.p50, s.p90, s.p99, s.max
    );
    let d = metrics.phases.dir_lookup.summary();
    println!(
        "dir_lookup phase: {} lookups, p99<={:.0}; availability {:.4}, MTTR {:.0} cycles",
        d.count,
        d.p99,
        metrics.availability(),
        metrics.mttr_cycles()
    );
    println!("per-node share of injections:");
    for n in &metrics.per_node {
        print!(" {:>4}", n.injections);
    }
    println!();
    println!(
        "wrote ftcoma_metrics.json, ftcoma_trace.json, ftcoma_spans.jsonl ({} records), \
         ftcoma_timeseries.jsonl ({} rows)",
        spans.len(),
        machine.timeseries().len()
    );
    println!("open ftcoma_trace.json in https://ui.perfetto.dev to browse the timeline");
    Ok(())
}
