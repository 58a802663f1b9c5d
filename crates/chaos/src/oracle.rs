//! The three-layer oracle: what makes a chaos case pass.
//!
//! Layer 1 — *protocol invariants*: the machine's own
//! [`RecoveryOutcome`](ftcoma_core::RecoveryOutcome) (which already folds
//! in the post-run `ftcoma_core::invariants::check` sweep, see
//! `ftcoma_campaign::run_cell`).
//!
//! Layer 2 — *golden replay*: the faulted run's final owner-visible memory
//! image is compared against an unfaulted reference execution of the same
//! seed. Private items must match exactly (their write values are a pure
//! function of the stream position, which rollback replays exactly);
//! shared items must agree on the *set* of items owned — their final
//! values legitimately depend on the cross-node interleaving, which a
//! failure perturbs. Never-written items (value 0) may be dropped by a
//! failure: their content is the well-known initial value, recreated on
//! demand, so only written data is irreplaceable.
//!
//! Layer 3 — *liveness*: every stream reaches its reference quota and the
//! run terminates within a generous multiple of the golden run time.

use std::collections::BTreeMap;

use ftcoma_campaign::CellOutcome;
use ftcoma_core::RecoveryOutcome;

/// The unfaulted reference execution a case is judged against.
#[derive(Debug, Clone)]
pub struct GoldenRef {
    /// Simulated cycles of the unfaulted run (liveness bound input).
    pub total_cycles: u64,
    /// Final owner image (`(item index, value)`, sorted by item).
    pub owner_image: Vec<(u64, u64)>,
    /// First private item index: items at or above it are private and must
    /// replay value-exactly.
    pub private_floor: u64,
    /// References each stream must emit.
    pub quota: u64,
}

impl GoldenRef {
    /// Builds the reference from an unfaulted cell run.
    pub fn from_outcome(outcome: &CellOutcome, private_floor: u64, quota: u64) -> GoldenRef {
        GoldenRef {
            total_cycles: outcome.metrics.total_cycles,
            owner_image: outcome.owner_image.clone(),
            private_floor,
            quota,
        }
    }

    /// The liveness bound: a faulted run pays rollback re-execution,
    /// recovery scans and degraded (MTTR) progress for *every* fault it
    /// absorbs. Scripted scenarios absorb a handful, so the base bound of
    /// `4x golden + 2M cycles` dominates; a continuous soak process
    /// absorbs dozens, so the bound scales with the absorbed count —
    /// anything past it means the machine stopped making progress.
    pub fn cycle_bound(&self, faults_absorbed: u64) -> u64 {
        // Per fault: rollback replays at most ~one checkpoint interval
        // per node (<= golden/2 is generous), plus the reconfiguration
        // window and an MTTR of degraded throughput (~250k covers both
        // at any shipped scale).
        let per_fault = self.total_cycles / 2 + 250_000;
        self.total_cycles.saturating_mul(4) + 2_000_000 + faults_absorbed.saturating_mul(per_fault)
    }
}

/// A case's verdict under the three oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Recovered and passed all three oracle layers.
    Pass,
    /// A *legal* fail-stop outcome, not an oracle failure: either the mesh
    /// split so no component could safely reconfigure
    /// (`partitioned_network`), or the run reported
    /// `unrecoverable_data_loss` *and* the copy-accounting audit certifies
    /// it — some written committed item really retains zero live copies.
    /// An uncertified data-loss claim is an oracle failure: recovery is
    /// restartable, so the machine may only halt when data is provably
    /// gone.
    Unrecoverable,
    /// An oracle failed; the reasons name each divergence.
    Fail(Vec<String>),
}

impl Verdict {
    /// Stable tag for reports (`pass` / `unrecoverable` / `fail`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Unrecoverable => "unrecoverable",
            Verdict::Fail(_) => "fail",
        }
    }

    /// True for [`Verdict::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }
}

/// Judges one case outcome against its golden reference.
pub fn judge(outcome: &CellOutcome, golden: &GoldenRef) -> Verdict {
    match &outcome.outcome {
        RecoveryOutcome::PartitionedNetwork { .. } => Verdict::Unrecoverable,
        RecoveryOutcome::UnrecoverableDataLoss { at, item } => {
            if outcome.data_loss_certified {
                Verdict::Unrecoverable
            } else {
                Verdict::Fail(vec![format!(
                    "uncertified data loss: machine claimed {item} unrecoverable at cycle \
                     {at} but the copy audit found no zero-copy committed item"
                )])
            }
        }
        RecoveryOutcome::InvariantViolation { at, problems } => Verdict::Fail(
            problems
                .iter()
                .map(|p| format!("invariant (at cycle {at}): {p}"))
                .collect(),
        ),
        RecoveryOutcome::Recovered => {
            let mut reasons = Vec::new();
            liveness(outcome, golden, &mut reasons);
            golden_replay(outcome, golden, &mut reasons);
            if reasons.is_empty() {
                Verdict::Pass
            } else {
                Verdict::Fail(reasons)
            }
        }
    }
}

fn liveness(outcome: &CellOutcome, golden: &GoldenRef, reasons: &mut Vec<String>) {
    for (i, &p) in outcome.stream_progress.iter().enumerate() {
        if p != golden.quota {
            reasons.push(format!(
                "liveness: stream {i} stopped at {p}/{} references",
                golden.quota
            ));
        }
    }
    let bound = golden.cycle_bound(outcome.metrics.failures);
    if outcome.metrics.total_cycles > bound {
        reasons.push(format!(
            "liveness: run took {} cycles, bound {bound} (golden {})",
            outcome.metrics.total_cycles, golden.total_cycles
        ));
    }
}

fn golden_replay(outcome: &CellOutcome, golden: &GoldenRef, reasons: &mut Vec<String>) {
    const MAX_REPORTED: usize = 8;
    let want: BTreeMap<u64, u64> = golden.owner_image.iter().copied().collect();
    let got: BTreeMap<u64, u64> = outcome.owner_image.iter().copied().collect();
    let mut diffs = 0usize;
    let report = |reasons: &mut Vec<String>, diffs: &mut usize, msg: String| {
        if *diffs < MAX_REPORTED {
            reasons.push(msg);
        }
        *diffs += 1;
    };
    for (&item, &v) in &want {
        match got.get(&item) {
            // A never-written item (value 0) is recreatable on demand: a
            // failure may drop the last cached copy, and post-rollback
            // replay only re-materializes it if some stream touches it
            // again. Written data, by contrast, must never vanish — it is
            // either in the recovery data or re-produced by replay.
            None if v == 0 => {}
            None => report(
                reasons,
                &mut diffs,
                format!("golden-replay: item {item} lost (golden value {v})"),
            ),
            Some(&g) if item >= golden.private_floor && g != v => report(
                reasons,
                &mut diffs,
                format!("golden-replay: private item {item} holds {g}, golden {v}"),
            ),
            Some(_) => {}
        }
    }
    for &item in got.keys() {
        if !want.contains_key(&item) {
            report(
                reasons,
                &mut diffs,
                format!("golden-replay: spurious item {item} not in the golden image"),
            );
        }
    }
    if diffs > MAX_REPORTED {
        reasons.push(format!(
            "golden-replay: {} further divergences suppressed",
            diffs - MAX_REPORTED
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_machine::RunMetrics;

    fn outcome(
        image: Vec<(u64, u64)>,
        progress: Vec<u64>,
        cycles: u64,
        outcome: RecoveryOutcome,
    ) -> CellOutcome {
        CellOutcome {
            cell_id: 0,
            metrics: RunMetrics {
                total_cycles: cycles,
                ..RunMetrics::default()
            },
            links: Vec::new(),
            outcome,
            owner_image: image,
            stream_progress: progress,
            spans: Vec::new(),
            timeseries: Vec::new(),
            data_loss_certified: false,
            wall_ms: 0.0,
        }
    }

    fn golden() -> GoldenRef {
        GoldenRef {
            total_cycles: 10_000,
            owner_image: vec![(1, 11), (2, 22), (5, 0), (100, 77)],
            private_floor: 100, // items >= 100 are private
            quota: 500,
        }
    }

    #[test]
    fn clean_replay_passes() {
        let o = outcome(
            vec![(1, 99), (2, 22), (100, 77)], // shared value drift is fine
            vec![500, 500],
            12_000,
            RecoveryOutcome::Recovered,
        );
        // Item 5 (golden value 0, never written) is absent — a dropped
        // clean copy is legal, so this still passes.
        assert_eq!(judge(&o, &golden()), Verdict::Pass);
    }

    #[test]
    fn divergences_and_stalls_fail() {
        // Private value drift.
        let o = outcome(
            vec![(1, 11), (2, 22), (100, 78)],
            vec![500, 500],
            12_000,
            RecoveryOutcome::Recovered,
        );
        assert!(judge(&o, &golden()).is_fail());
        // Lost item.
        let o = outcome(
            vec![(1, 11), (100, 77)],
            vec![500, 500],
            12_000,
            RecoveryOutcome::Recovered,
        );
        assert!(judge(&o, &golden()).is_fail());
        // Spurious item.
        let o = outcome(
            vec![(1, 11), (2, 22), (3, 1), (100, 77)],
            vec![500, 500],
            12_000,
            RecoveryOutcome::Recovered,
        );
        assert!(judge(&o, &golden()).is_fail());
        // Stream stalled short of quota.
        let o = outcome(
            vec![(1, 11), (2, 22), (100, 77)],
            vec![500, 499],
            12_000,
            RecoveryOutcome::Recovered,
        );
        assert!(judge(&o, &golden()).is_fail());
        // Blown cycle bound.
        let o = outcome(
            vec![(1, 11), (2, 22), (100, 77)],
            vec![500, 500],
            golden().cycle_bound(0) + 1,
            RecoveryOutcome::Recovered,
        );
        assert!(judge(&o, &golden()).is_fail());
    }

    #[test]
    fn cycle_bound_scales_with_absorbed_faults() {
        // A soak run that absorbed 40 faults may legitimately run far
        // past the scripted-scenario bound...
        let mut o = outcome(
            vec![(1, 11), (2, 22), (100, 77)],
            vec![500, 500],
            golden().cycle_bound(0) + 1,
            RecoveryOutcome::Recovered,
        );
        o.metrics.failures = 40;
        assert_eq!(judge(&o, &golden()), Verdict::Pass);
        // ...but the scaled bound still cuts off a stalled machine.
        o.metrics.total_cycles = golden().cycle_bound(40) + 1;
        assert!(judge(&o, &golden()).is_fail());
    }

    #[test]
    fn machine_outcomes_map_to_verdicts() {
        // A data-loss halt is only legal when the copy audit certifies it.
        let mut o = outcome(
            Vec::new(),
            Vec::new(),
            0,
            RecoveryOutcome::UnrecoverableDataLoss {
                at: 5,
                item: ftcoma_mem::ItemId::new(42),
            },
        );
        o.data_loss_certified = true;
        assert_eq!(judge(&o, &golden()), Verdict::Unrecoverable);
        o.data_loss_certified = false;
        let v = judge(&o, &golden());
        assert!(v.is_fail(), "{v:?}");
        if let Verdict::Fail(reasons) = v {
            assert!(reasons[0].contains("uncertified data loss"), "{reasons:?}");
        }
        let o = outcome(
            Vec::new(),
            Vec::new(),
            0,
            RecoveryOutcome::PartitionedNetwork {
                at: 7,
                from: ftcoma_mem::NodeId::new(0),
                to: ftcoma_mem::NodeId::new(3),
            },
        );
        assert_eq!(judge(&o, &golden()), Verdict::Unrecoverable);
        let o = outcome(
            Vec::new(),
            Vec::new(),
            0,
            RecoveryOutcome::InvariantViolation {
                at: 9,
                problems: vec!["two owners".into()],
            },
        );
        let v = judge(&o, &golden());
        assert!(v.is_fail());
        assert_eq!(v.label(), "fail");
    }
}
