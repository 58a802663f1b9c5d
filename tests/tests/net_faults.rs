//! End-to-end interconnect fault tolerance: the reliable transport must
//! mask message loss, fault-aware routing must detour around cut links
//! and dead routers, and unreachable peers must escalate into the
//! machine's existing reconfiguration path.

use ftcoma_core::{FtConfig, RecoveryOutcome};
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_net::MeshGeometry;
use ftcoma_sim::span::SpanPhase;
use ftcoma_workloads::presets;

fn base() -> MachineConfig {
    MachineConfig {
        nodes: 8,
        refs_per_node: 4_000,
        warmup_refs_per_node: 0,
        workload: presets::water(),
        ft: FtConfig::enabled(1_000.0),
        verify: true,
        ..MachineConfig::default()
    }
}

#[test]
fn fault_free_runs_never_touch_the_transport() {
    let m = Machine::new(base()).run();
    assert_eq!(m.net_retries, 0);
    assert_eq!(m.net_timeouts, 0);
    assert_eq!(m.net_detour_hops, 0);
    assert_eq!(m.net_dropped_msgs, 0);
}

#[test]
fn message_loss_is_masked_by_retransmission() {
    let mut machine = Machine::new(base());
    machine.set_message_loss(3_000, 300);
    let m = machine.run();
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert!(m.net_dropped_msgs > 0, "the plan dropped nothing");
    assert!(m.net_retries > 0, "losses must be retransmitted");
    assert!(m.net_timeouts >= m.net_retries);
    // No node failed: the transport absorbed the episode entirely.
    assert_eq!(m.failures, 0);
    assert!(machine.check_invariants().is_empty());
}

#[test]
fn message_loss_runs_are_deterministic() {
    let run = || {
        let mut machine = Machine::new(base());
        machine.set_message_loss(3_000, 300);
        machine.run()
    };
    assert_eq!(run(), run());
}

#[test]
fn link_cut_detours_traffic_and_still_recovers() {
    let mut machine = Machine::new(base());
    machine.schedule_link_cut(2_000, NodeId::new(0), NodeId::new(1));
    let m = machine.run();
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert!(m.net_detour_hops > 0, "cut-link traffic must misroute");
    assert_eq!(m.failures, 0, "a single cut never severs the mesh");
    // The report marks exactly the cut link (both directions) dead.
    let geo = MeshGeometry::for_nodes(8);
    let ends = [geo.coords(NodeId::new(0)), geo.coords(NodeId::new(1))];
    let dead: Vec<_> = machine
        .link_report()
        .into_iter()
        .filter(|l| !l.alive)
        .map(|l| (l.from, l.to))
        .collect();
    assert!(!dead.is_empty());
    for (from, to) in &dead {
        assert!(
            ends.contains(from) && ends.contains(to),
            "only 0<->1 was cut, got {from:?}->{to:?}"
        );
    }
}

#[test]
fn router_down_escalates_into_a_permanent_node_failure() {
    let mut cfg = base();
    cfg.trace_capacity = 100_000;
    let mut machine = Machine::new(cfg);
    machine.schedule_router_down(5_000, NodeId::new(3));
    let m = machine.run();
    // The victim's peers exhaust their retries, then reconfigure around
    // it exactly as they would for a fail-stop node.
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert!(m.net_timeouts > 0, "escalation needs exhausted retries");
    assert_eq!(m.failures, 1);
    let trace = machine.spans();
    assert!(trace
        .iter()
        .any(|s| s.phase == SpanPhase::RouterDown && s.node == 3));
    // The escalated failure is permanent (`arg` 1).
    assert!(trace
        .iter()
        .any(|s| s.phase == SpanPhase::Failure && s.node == 3 && s.arg == 1));
    assert!(machine.check_invariants().is_empty());
}

/// Regression for routing through permanently failed nodes: a dead node's
/// router must stop carrying third-party traffic, and the links incident
/// to it must be reported dead.
#[test]
fn permanent_node_failure_kills_its_router() {
    let mut machine = Machine::new(base());
    machine.schedule_failure(5_000, NodeId::new(4), FailureKind::Permanent);
    let m = machine.run();
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert_eq!(m.failures, 1);
    let dead_router = MeshGeometry::for_nodes(8).coords(NodeId::new(4));
    let report = machine.link_report();
    assert!(report
        .iter()
        .any(|l| !l.alive && (l.from == dead_router || l.to == dead_router)));
    // Links between live nodes stay up.
    assert!(report
        .iter()
        .filter(|l| l.from != dead_router && l.to != dead_router)
        .all(|l| l.alive));
}

/// Regression: on a fallback grid, node 2 of 5 (3x2 grid, (2,1) empty)
/// has one neighbour, node 1. Routes no longer pass through the empty
/// position, so node 1's death cuts node 2 off alive. Without the
/// transport the dropped messages used to stall the run forever; the
/// machine now halts fail-stop as a partitioned network.
#[test]
fn permanent_failure_cutting_off_a_live_node_halts_partitioned() {
    let mut cfg = base();
    cfg.nodes = 5;
    cfg.seed = 1;
    let mut machine = Machine::new(cfg);
    machine.schedule_failure(60_000, NodeId::new(1), FailureKind::Permanent);
    machine.run();
    assert_eq!(
        *machine.outcome(),
        RecoveryOutcome::PartitionedNetwork {
            at: 60_000,
            from: NodeId::new(0),
            to: NodeId::new(2),
        }
    );
}

/// The same cut-off with the reliable transport on: the peers of node 2
/// time out and escalate, but the majority component {0, 3, 4} holds
/// fewer live nodes than the ECP's four-node floor, so the machine halts
/// partitioned instead of failing node 2 as well.
#[test]
fn escalation_to_a_majority_below_the_ecp_floor_halts_partitioned() {
    let mut cfg = base();
    cfg.nodes = 5;
    cfg.seed = 1;
    let mut machine = Machine::new(cfg);
    machine.preactivate_transport();
    machine.schedule_failure(60_000, NodeId::new(1), FailureKind::Permanent);
    let m = machine.run();
    assert!(
        matches!(
            *machine.outcome(),
            RecoveryOutcome::PartitionedNetwork { to, .. } if to == NodeId::new(2)
        ),
        "got {:?}",
        machine.outcome()
    );
    assert_eq!(m.failures, 1, "node 2 must not be failed below the floor");
}

/// A dead router on the only path to node 2 cuts off node 1 (dead router)
/// and node 2 (alive) at once; escalation must not shrink the machine to
/// the three nodes of the majority component.
#[test]
fn router_down_isolating_two_nodes_of_five_halts_partitioned() {
    let mut cfg = base();
    cfg.nodes = 5;
    cfg.seed = 1;
    let mut machine = Machine::new(cfg);
    machine.schedule_router_down(60_000, NodeId::new(1));
    let m = machine.run();
    assert_eq!(machine.outcome().label(), "partitioned_network");
    assert!(m.failures <= 1, "{} failures", m.failures);
}
