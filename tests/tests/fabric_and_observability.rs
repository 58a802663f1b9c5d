//! Cross-cutting tests for the alternative fabrics (wormhole switching,
//! shared bus) and the observability features (trace ring, latency
//! histogram, capacity report).

use ftcoma_core::FtConfig;
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_net::{BusConfig, NetConfig};
use ftcoma_sim::span::SpanPhase;
use ftcoma_workloads::presets;

fn base() -> MachineConfig {
    MachineConfig {
        nodes: 9,
        refs_per_node: 10_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(400.0),
        verify: true,
        ..MachineConfig::default()
    }
}

#[test]
fn wormhole_switching_preserves_correctness() {
    let mut m = Machine::new(MachineConfig {
        net: NetConfig::wormhole(),
        ..base()
    });
    m.schedule_failure(20_000, NodeId::new(3), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 1);
    m.assert_invariants();
}

#[test]
fn bus_fabric_preserves_correctness_under_failure() {
    let mut m = Machine::new(MachineConfig {
        bus: Some(BusConfig::default()),
        ..base()
    });
    m.schedule_failure(30_000, NodeId::new(5), FailureKind::Permanent);
    let run = m.run();
    assert_eq!(run.failures, 1);
    m.assert_invariants();
}

#[test]
fn single_medium_bus_works_too() {
    let bus = BusConfig {
        split_classes: false,
        ..BusConfig::default()
    };
    let mut m = Machine::new(MachineConfig {
        bus: Some(bus),
        ..base()
    });
    m.run();
    m.assert_invariants();
}

#[test]
fn trace_orders_failure_before_recovery() {
    let mut m = Machine::new(MachineConfig {
        trace_capacity: 1_000_000,
        ..base()
    });
    m.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
    m.run();
    let trace = m.spans();
    let failure_pos = trace
        .iter()
        .position(|s| s.phase == SpanPhase::Failure)
        .expect("failure traced");
    let recovered_pos = trace
        .iter()
        .position(|s| s.phase == SpanPhase::Reconfiguration)
        .expect("recovery traced");
    assert!(failure_pos < recovered_pos);
    // Instants are recorded as they happen, so their timestamps are
    // monotone; every span ends at or after its start.
    let times: Vec<_> = trace
        .iter()
        .filter(|s| s.phase.is_instant())
        .map(|s| s.start)
        .collect();
    assert!(times.len() > 1);
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    assert!(trace.iter().all(|s| s.end >= s.start));
}

#[test]
fn trace_disabled_by_default() {
    let mut m = Machine::new(base());
    m.run();
    assert!(m.spans().is_empty());
}

#[test]
fn tracing_is_zero_cost() {
    // Enabling every observability sink (trace ring, span log, epoch
    // time-series sampler) must not perturb the simulation: identical
    // timing, identical RNG stream, identical metrics (including the
    // always-on phase histograms and availability timeline), event for
    // event.
    let mut quiet = Machine::new(MachineConfig {
        trace_capacity: 0,
        timeseries_every: 0,
        ..base()
    });
    let mut traced = Machine::new(MachineConfig {
        trace_capacity: 1_000_000,
        timeseries_every: 5_000,
        ..base()
    });
    quiet.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
    traced.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
    let a = quiet.run();
    let b = traced.run();
    assert_eq!(a.total_cycles, b.total_cycles, "tracing changed the timing");
    assert_eq!(a, b, "tracing changed the metrics");
    assert!(quiet.spans().is_empty() && quiet.timeseries().is_empty());
    assert!(!traced.spans().is_empty(), "spans collected when enabled");
    assert!(
        traced.spans().iter().any(|s| s.phase.is_instant()),
        "protocol events collected when enabled"
    );
    assert!(
        !traced.timeseries().is_empty(),
        "time-series sampled when enabled"
    );
}

/// Regression: a small `--trace-capacity` ring must wrap by
/// evicting the *oldest* records — the newest span closes and instants
/// (the end-of-run tail of a full-capacity log) always survive.
#[test]
fn span_ring_wraparound_never_drops_newest_closes() {
    let run_with = |capacity: usize| {
        let mut m = Machine::new(MachineConfig {
            trace_capacity: capacity,
            ..base()
        });
        m.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
        m.run();
        m.spans()
    };
    let full = run_with(1_000_000);
    let small = run_with(64);
    assert!(
        full.len() > 64,
        "fixture too small to exercise wraparound ({} spans)",
        full.len()
    );
    assert_eq!(small.len(), 64);
    // The bounded log's content is exactly the newest 64 closes of the
    // full log (same run: the sink is pure observation).
    assert_eq!(small, full[full.len() - 64..].to_vec());
}

#[test]
fn per_node_metrics_sum_to_machine_totals() {
    let mut m = Machine::new(base());
    let run = m.run();
    assert_eq!(run.per_node.len(), 9);
    let refs: u64 = run.per_node.iter().map(|n| n.refs).sum();
    let read_misses: u64 = run.per_node.iter().map(|n| n.read_misses).sum();
    let write_misses: u64 = run.per_node.iter().map(|n| n.write_misses).sum();
    let injections: u64 = run.per_node.iter().map(|n| n.injections).sum();
    let items: u64 = run.per_node.iter().map(|n| n.items_checkpointed).sum();
    let repl: u64 = run.per_node.iter().map(|n| n.replication_bytes).sum();
    let pages: u64 = run.per_node.iter().map(|n| n.pages_allocated).sum();
    assert_eq!(refs, run.refs);
    assert_eq!(read_misses, run.read_misses);
    assert_eq!(write_misses, run.write_misses);
    assert_eq!(injections, run.injections_total());
    assert_eq!(items, run.items_checkpointed);
    assert_eq!(repl, run.replication_bytes);
    assert_eq!(pages, run.pages_allocated);
    if run.checkpoints > 0 {
        assert!(
            run.per_node.iter().any(|n| n.ckpt_stall_cycles > 0),
            "checkpoints must charge stall time to the nodes"
        );
    }
}

#[test]
fn link_report_covers_mesh_traffic() {
    let mut m = Machine::new(base());
    let run = m.run();
    let links = m.link_report();
    assert!(!links.is_empty());
    let messages: u64 = links.iter().map(|l| l.stats.messages).sum();
    // Each remote message crosses >= 1 link; local ones cross none.
    assert!(messages >= 1);
    for l in &links {
        let u = l.utilization(run.total_cycles);
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
    // Bus fabrics report no links.
    let mut bus = Machine::new(MachineConfig {
        bus: Some(BusConfig::default()),
        ..base()
    });
    bus.run();
    assert!(bus.link_report().is_empty());
}

#[test]
fn latency_histogram_covers_hits_and_misses() {
    let mut m = Machine::new(base());
    let run = m.run();
    assert_eq!(
        run.access_latency.count(),
        run.refs,
        "every reference must be accounted in the latency histogram"
    );
    assert!(
        run.access_latency.quantile(0.1) <= 2.0,
        "cache hits dominate the low end"
    );
    assert!(
        run.access_latency.max() >= 116,
        "remote misses reach Table-2 latencies"
    );
}

#[test]
fn capacity_report_printable() {
    let report = base().capacity_report();
    let text = format!("{report}");
    assert!(text.contains("guarantee holds"), "{text}");
}
