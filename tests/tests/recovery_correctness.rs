//! Recovery-correctness tests: after any failure, the machine's memory
//! must equal the last committed recovery point exactly, the protocol
//! invariants must hold, and the computation must complete.

use ftcoma_core::{FtConfig, RecoveryOutcome};
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::{ItemState, NodeId};
use ftcoma_workloads::{presets, SplashConfig};

fn cfg(workload: SplashConfig, freq: f64) -> MachineConfig {
    MachineConfig {
        nodes: 9,
        refs_per_node: 8_000,
        workload,
        ft: FtConfig::enabled(freq),
        verify: true,
        ..MachineConfig::default()
    }
}

#[test]
fn transient_failure_restores_committed_memory_all_workloads() {
    for wl in presets::all() {
        let name = wl.name.clone();
        let mut m = Machine::new(cfg(wl, 400.0));
        m.schedule_failure(20_000, NodeId::new(4), FailureKind::Transient);
        let run = m.run();
        assert_eq!(run.failures, 1, "{name}: failure must fire");
        m.assert_invariants();
        // The run completed references despite the rollback.
        assert!(run.refs > 0, "{name}: no references completed");
    }
}

#[test]
fn permanent_failure_reconfigures_all_workloads() {
    for wl in presets::all() {
        let name = wl.name.clone();
        let mut m = Machine::new(cfg(wl, 400.0));
        m.schedule_failure(20_000, NodeId::new(4), FailureKind::Permanent);
        let run = m.run();
        assert_eq!(run.failures, 1, "{name}");
        assert!(
            !m.ring().is_alive(NodeId::new(4)),
            "{name}: node stays dead"
        );
        m.assert_invariants();
        // The dead node's memory plays no further part.
        assert_eq!(m.nodes()[4].am.iter_present().count(), 0, "{name}");
    }
}

#[test]
fn failure_at_many_points_in_time() {
    // Sweep the failure time across the run, including instants that land
    // inside checkpoint establishment phases.
    for at in [5_000u64, 20_000, 50_000, 75_000, 100_001, 150_000] {
        let mut m = Machine::new(cfg(presets::mp3d(), 400.0));
        m.schedule_failure(at, NodeId::new(2), FailureKind::Transient);
        let run = m.run();
        if run.failures == 1 {
            m.assert_invariants();
        } // else the run finished before `at`; nothing to check
    }
}

#[test]
fn failure_before_first_checkpoint_rolls_back_to_start() {
    // With a very low checkpoint rate, the failure precedes the first
    // recovery point: the machine must roll back to the *initial* state
    // (empty memory, streams rewound) and still complete.
    let mut config = cfg(presets::water(), 5.0);
    config.refs_per_node = 5_000;
    let mut m = Machine::new(config);
    m.schedule_failure(10_000, NodeId::new(1), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 1);
    assert_eq!(
        run.checkpoints, 0,
        "no recovery point fits before the failure"
    );
    m.assert_invariants();
}

#[test]
fn double_transient_failures_different_nodes() {
    let mut m = Machine::new(cfg(presets::cholesky(), 200.0));
    m.schedule_failure(40_000, NodeId::new(1), FailureKind::Transient);
    m.schedule_failure(120_000, NodeId::new(7), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 2);
    m.assert_invariants();
}

#[test]
fn transient_then_permanent_failure() {
    let mut m = Machine::new(cfg(presets::water(), 400.0));
    m.schedule_failure(30_000, NodeId::new(3), FailureKind::Transient);
    m.schedule_failure(90_000, NodeId::new(6), FailureKind::Permanent);
    let run = m.run();
    assert_eq!(run.failures, 2);
    assert!(m.ring().is_alive(NodeId::new(3)));
    assert!(!m.ring().is_alive(NodeId::new(6)));
    m.assert_invariants();
}

#[test]
fn after_permanent_failure_every_item_has_two_recovery_copies() {
    let mut m = Machine::new(cfg(presets::mp3d(), 400.0));
    m.schedule_failure(20_000, NodeId::new(0), FailureKind::Permanent);
    let run = m.run();
    assert_eq!(run.failures, 1);
    m.assert_invariants(); // includes the exactly-two-CK-copies pair check

    // Additionally: no recovery copy names the dead node as its partner.
    for ns in m.nodes().iter().filter(|n| n.alive) {
        for (item, slot) in ns.am.iter_present() {
            if slot.state.is_committed_recovery() {
                assert_ne!(
                    slot.partner,
                    Some(NodeId::new(0)),
                    "{item} still partnered with the dead node"
                );
            }
        }
    }
}

#[test]
fn recovery_discards_uncommitted_writes() {
    // Deterministic end-state check: run with exactly one failure and
    // verify (via the machine's oracle) that rollback restored committed
    // values — a divergence is reported as a structured
    // `InvariantViolation` outcome; we also double-check that the final
    // memory contains no Pre-Commit leftovers.
    let mut m = Machine::new(cfg(presets::barnes(), 100.0));
    m.schedule_failure(80_000, NodeId::new(5), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 1);
    assert!(
        m.outcome().is_recovered(),
        "oracle rejected the recovery: {}",
        m.outcome()
    );
    for ns in m.nodes() {
        assert_eq!(ns.am.count_state(ItemState::PreCommit1), 0);
        assert_eq!(ns.am.count_state(ItemState::PreCommit2), 0);
    }
}

#[test]
fn second_fault_during_reconfiguration_restarts_recovery() {
    // A permanent failure opens the recovery/reconfiguration window (orphan
    // re-replication is asynchronous); a second fault inside that window
    // used to be a blanket `UnrecoverableSecondFault` halt. Recovery is
    // restartable now: the in-flight recovery is abandoned, the new victim
    // folds into the failure set, and recovery restarts from on-node
    // committed state — the run must end recovered, with the restart
    // visible in the metrics.
    // 1000 rp/s = one establishment every 20k cycles, so the permanent
    // fault at 30k lands after the first recovery point committed and
    // leaves orphaned recovery copies to re-replicate; the second fault 50
    // cycles later hits that reconfiguration window.
    let mut config = cfg(presets::mp3d(), 1_000.0);
    config.refs_per_node = 40_000;
    let mut m = Machine::new(config);
    m.schedule_failure(30_000, NodeId::new(2), FailureKind::Permanent);
    m.schedule_failure(30_050, NodeId::new(5), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 2, "both faults must be recorded");
    assert!(m.outcome().is_recovered(), "{}", m.outcome());
    assert!(run.recovery_restarts >= 1, "the nested fault must restart");
    assert_eq!(run.recovery_max_depth, 2);
    assert_eq!(run.faults_survived, 2);
    assert_eq!(run.faults_unsurvivable, 0);
    assert_eq!(m.audit_data_loss(), None);
    m.assert_invariants();
}

#[test]
fn second_fault_after_recovery_completes_is_fine() {
    // The same two faults far apart: the window has closed, both recover.
    let mut config = cfg(presets::mp3d(), 1_000.0);
    config.refs_per_node = 40_000;
    let mut m = Machine::new(config);
    m.schedule_failure(30_000, NodeId::new(2), FailureKind::Permanent);
    m.schedule_failure(45_000, NodeId::new(5), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 2);
    assert!(m.outcome().is_recovered(), "{}", m.outcome());
    m.assert_invariants();
}

#[test]
fn work_lost_grows_with_checkpoint_interval() {
    // BER economics: with a rarer checkpoint, a failure at the same time
    // forces more re-execution, lengthening the run.
    let mut runtimes = Vec::new();
    for freq in [400.0, 20.0] {
        let mut config = cfg(presets::water(), freq);
        config.refs_per_node = 20_000;
        let mut m = Machine::new(config);
        m.schedule_failure(120_000, NodeId::new(2), FailureKind::Transient);
        let run = m.run();
        assert_eq!(run.failures, 1, "at {freq}");
        runtimes.push(run.total_cycles);
    }
    assert!(
        runtimes[1] > runtimes[0],
        "rare checkpoints ({} cycles) must lose more work than frequent ones ({} cycles)",
        runtimes[1],
        runtimes[0]
    );
}

#[test]
fn repaired_node_rejoins_and_takes_work_back() {
    let mut m = Machine::new(MachineConfig {
        nodes: 9,
        refs_per_node: 15_000,
        workload: presets::water(),
        ft: FtConfig::enabled(400.0),
        verify: true,
        ..MachineConfig::default()
    });
    m.schedule_failure(20_000, NodeId::new(4), FailureKind::Permanent);
    m.schedule_repair(60_000, NodeId::new(4));
    let run = m.run();
    assert_eq!(run.failures, 1);
    assert_eq!(run.repairs, 1);
    assert!(
        m.ring().is_alive(NodeId::new(4)),
        "repaired node is back in the ring"
    );
    m.assert_invariants();
}

#[test]
fn repair_of_live_node_is_noop() {
    let mut m = Machine::new(MachineConfig {
        nodes: 9,
        refs_per_node: 8_000,
        workload: presets::water(),
        ft: FtConfig::enabled(400.0),
        ..MachineConfig::default()
    });
    m.schedule_repair(10_000, NodeId::new(2));
    let run = m.run();
    assert_eq!(run.repairs, 0);
    m.assert_invariants();
}

#[test]
fn fail_repair_fail_cycle() {
    let mut m = Machine::new(MachineConfig {
        nodes: 9,
        refs_per_node: 25_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(400.0),
        verify: true,
        ..MachineConfig::default()
    });
    m.schedule_failure(20_000, NodeId::new(4), FailureKind::Permanent);
    m.schedule_repair(80_000, NodeId::new(4));
    m.schedule_failure(200_000, NodeId::new(7), FailureKind::Permanent);
    let run = m.run();
    assert!(run.failures >= 1);
    m.assert_invariants();
}

#[test]
fn rollback_replays_references_buffered_at_the_recovery_point() {
    // Regression, found by `ftcoma chaos`: when a checkpoint commits, a
    // paused processor may hold a prefetched reference in its issue buffer
    // that the stream snapshot already counts as emitted. Rollback used to
    // clear those buffers without re-injecting the references, so their
    // writes vanished — visible whenever the lost write was the item's
    // last (e.g. a fault after the final commit). The faulted run must end
    // with the identical private-memory image as the unfaulted one.
    let build = || {
        Machine::new(MachineConfig {
            nodes: 8,
            refs_per_node: 4_000,
            workload: presets::water(),
            ft: FtConfig::enabled(1_000.0),
            verify: true,
            seed: 0xf225_be8c_3181_d18a,
            ..MachineConfig::default()
        })
    };
    let mut golden = build();
    let _ = golden.run();

    let mut m = build();
    // Past the final checkpoint commit (~80k; the clean run ends ~96k).
    m.schedule_failure(84_618, NodeId::new(4), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 1);
    assert!(m.outcome().is_recovered(), "{}", m.outcome());
    m.assert_invariants();

    // Every reference must eventually issue: nothing may be lost to the
    // cleared issue buffers (replay may only add re-issues).
    let quota = 8 * 4_000;
    assert!(run.refs >= quota, "lost references: {} < {quota}", run.refs);

    // Private items replay value-exactly.
    let floor = presets::water().shared_pages * ftcoma_mem::addr::ITEMS_PER_PAGE;
    let private_image = |m: &Machine| -> Vec<(u64, u64)> {
        m.owner_image()
            .into_iter()
            .filter(|&(i, _)| i >= floor)
            .collect()
    };
    assert_eq!(
        private_image(&golden),
        private_image(&m),
        "private image diverged"
    );
}

#[test]
fn repaired_node_reintegrates_and_survives_a_second_failure() {
    // The repair re-integration property behind the continuous fault
    // process: a repaired node must rejoin with the protocol invariants
    // intact, its availability interval must close at the repair, and a
    // *later* failure — of the very node that was repaired — must be an
    // ordinary recoverable fault.
    let victim = NodeId::new(4);
    let mut m = Machine::new(MachineConfig {
        nodes: 9,
        refs_per_node: 25_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(400.0),
        verify: true,
        ..MachineConfig::default()
    });
    m.schedule_failure(20_000, victim, FailureKind::Permanent);
    m.schedule_repair(120_000, victim);
    m.schedule_failure(250_000, victim, FailureKind::Permanent);
    m.schedule_repair(400_000, victim);
    let run = m.run();

    assert_eq!(run.failures, 2, "both scripted failures must fire");
    assert!(run.repairs >= 1, "at least the first repair must land");
    assert!(m.outcome().is_recovered(), "{}", m.outcome());
    // Well-separated faults are independent episodes: no restart fires.
    assert_eq!(run.recovery_restarts, 0);
    assert_eq!(run.faults_survived, 2);
    assert_eq!(run.faults_unsurvivable, 0);
    m.assert_invariants();

    // Availability accounting: every down interval of the victim closed
    // (repair or end-of-run), in order, and none is empty.
    let intervals = &run.down_intervals[victim.index()];
    assert!(
        intervals.len() >= 2,
        "two failures leave two down intervals: {intervals:?}"
    );
    for w in intervals.windows(2) {
        assert!(w[0].1 <= w[1].0, "intervals overlap: {intervals:?}");
    }
    let mut down = 0;
    for &(from, to) in intervals {
        assert!(from < to, "unclosed or empty interval: {intervals:?}");
        down += to - from;
    }
    assert_eq!(run.per_node[victim.index()].down_cycles, down);
    assert_eq!(run.per_node[victim.index()].repairs, run.repairs);
    assert!(run.availability() < 1.0);

    // Re-integration is real: the node ended the run back in the ring.
    assert!(m.ring().is_alive(victim), "victim must be repaired at end");
}

#[test]
fn random_nested_fault_sequences_recover_or_certify_data_loss() {
    // Property test of restartable recovery: random K-fault sequences
    // (K <= 4, mixed transient/permanent, gaps tight enough that later
    // faults often land inside open recovery windows) must either recover
    // — invariants intact, every stream at quota, every fault credited —
    // or halt with a data loss the copy-accounting audit certifies. At
    // most one permanent kill per sequence: scripted failures carry no
    // mesh-connectivity guard, and this property is about restarts, not
    // partitions.
    let mut rng = ftcoma_sim::DetRng::seeded(0x5EED_FA17);
    for case in 0..12u32 {
        let mut config = cfg(presets::water(), 1_000.0);
        config.nodes = 8;
        config.refs_per_node = 6_000;
        let quota = config.warmup_refs_per_node + config.refs_per_node;
        let mut m = Machine::new(config);
        let k = 2 + rng.below(3); // 2..=4 faults
        let mut at = 10_000 + rng.below(30_000);
        let mut permanents = 0u32;
        let mut victims: Vec<u16> = Vec::new();
        for _ in 0..k {
            let mut node = rng.below(8) as u16;
            while victims.contains(&node) {
                node = (node + 1) % 8;
            }
            victims.push(node);
            let kind = if permanents == 0 && rng.chance(0.3) {
                permanents += 1;
                FailureKind::Permanent
            } else {
                FailureKind::Transient
            };
            m.schedule_failure(at, NodeId::new(node), kind);
            // Tight gaps: most land inside the previous fault's window.
            at += 1 + rng.below(3_000);
        }
        let run = m.run();
        assert_eq!(run.failures, k, "case {case}: all faults fire");
        match m.outcome() {
            RecoveryOutcome::Recovered => {
                m.assert_invariants();
                assert_eq!(m.audit_data_loss(), None, "case {case}");
                assert_eq!(run.faults_survived, run.failures, "case {case}");
                assert_eq!(run.faults_unsurvivable, 0, "case {case}");
                assert!(
                    m.stream_progress().iter().all(|&p| p == quota),
                    "case {case}: a stream stalled short of quota"
                );
            }
            RecoveryOutcome::UnrecoverableDataLoss { item, .. } => {
                assert_eq!(
                    m.audit_data_loss(),
                    Some(*item),
                    "case {case}: data-loss halt must be audit-certified"
                );
                assert_eq!(run.faults_unsurvivable, 1, "case {case}");
            }
            other => panic!("case {case}: unexpected outcome {other}"),
        }
    }
}

#[test]
fn nested_fault_in_each_recovery_subphase_restarts_and_recovers() {
    use ftcoma_sim::span::SpanPhase;

    // Probe run: locate the recovery window of a single permanent fault,
    // so the nested injections below can hit each sub-phase precisely.
    let probe_cfg = || {
        let mut c = cfg(presets::mp3d(), 1_000.0);
        c.refs_per_node = 40_000;
        c
    };
    let mut probe_config = probe_cfg();
    probe_config.trace_capacity = 200_000;
    let mut probe = Machine::new(probe_config);
    probe.schedule_failure(30_000, NodeId::new(2), FailureKind::Permanent);
    let _ = probe.run();
    // Recovery completes where its reconfiguration span ends.
    let recovered_at = probe
        .spans()
        .iter()
        .find_map(|s| (s.phase == SpanPhase::Reconfiguration && s.end >= 30_000).then_some(s.end))
        .expect("probe run must recover");
    assert!(recovered_at > 30_001, "window too narrow to subdivide");

    // Pin a nested fault in each recovery sub-phase. Detection is
    // zero-width, so "during detection" means the failure cycle itself;
    // rollback starts immediately after; reconfiguration runs until its
    // span ends; replay follows recovery until the next commit
    // (where a fault opens its own episode instead of restarting).
    for (phase, at2, expect_restart) in [
        ("detection", 30_000, true),
        ("rollback", 30_001, true),
        ("reconfiguration", recovered_at - 1, true),
        ("replay", recovered_at + 50, false),
    ] {
        let mut m = Machine::new(probe_cfg());
        m.schedule_failure(30_000, NodeId::new(2), FailureKind::Permanent);
        m.schedule_failure(at2, NodeId::new(5), FailureKind::Transient);
        let run = m.run();
        assert_eq!(run.failures, 2, "{phase}");
        assert!(m.outcome().is_recovered(), "{phase}: {}", m.outcome());
        m.assert_invariants();
        if expect_restart {
            assert!(run.recovery_restarts >= 1, "{phase}: no restart recorded");
            assert!(run.recovery_max_depth >= 2, "{phase}");
        } else {
            assert_eq!(
                run.recovery_restarts, 0,
                "{phase}: a fault after recovery completes is its own episode"
            );
        }
        assert_eq!(run.faults_survived, run.failures, "{phase}");
        assert_eq!(m.audit_data_loss(), None, "{phase}");
    }
}
