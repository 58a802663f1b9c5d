//! Protocol tracing: watch the coherence traffic around a failure.
//!
//! Runs a small ECP machine with the trace ring enabled, injects a
//! transient failure, and prints the message mix plus the checkpoint,
//! failure and recovery records around it.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```

use ftcoma_core::FtConfig;
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_sim::span::SpanPhase;
use ftcoma_workloads::presets;

fn main() {
    let mut machine = Machine::new(MachineConfig {
        nodes: 9,
        refs_per_node: 12_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(200.0),
        trace_capacity: 500_000,
        verify: true,
        ..MachineConfig::default()
    });
    machine.schedule_failure(60_000, NodeId::new(4), FailureKind::Transient);
    machine.run();
    machine.assert_invariants();

    let trace = machine.spans();

    // Message-kind histogram: what does the protocol actually send?
    let mut kinds: std::collections::BTreeMap<&str, usize> = Default::default();
    for s in trace.iter().filter(|s| s.phase == SpanPhase::Delivery) {
        *kinds.entry(s.kind).or_default() += 1;
    }
    println!("message mix over {} trace records:", trace.len());
    for (kind, count) in &kinds {
        println!("  {kind:<18} {count:>8}");
    }

    // The milestones — checkpoints, faults and the recovery phases — in
    // the order they closed.
    println!("\nmilestones:");
    for s in &trace {
        let milestone = s.phase.is_recovery() || !s.phase.is_causal();
        if milestone && s.phase != SpanPhase::Delivery {
            println!(
                "  {:>10}..{:<10} {:<18} n{}",
                s.start, s.end, s.phase, s.node
            );
        }
    }
}
