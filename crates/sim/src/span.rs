//! Causal spans: typed, parent-linked time intervals.
//!
//! The paper's central measurements are *time decompositions* — where a
//! reference's latency goes (directory lookup, home forwarding, data
//! reply, network hops), where checkpoint cost goes (create window,
//! per-node commit scans) and where recovery time goes after a fault
//! (detection, reconfiguration, rollback, re-execution). A [`SpanRecord`]
//! is one measured interval of such a phase; records link to a parent
//! span, so a remote miss becomes a small causal tree rooted at its
//! transaction span and a recovery becomes a tree rooted at the recovery
//! span. Protocol events — deliveries, failures, link and router faults,
//! recovery restarts, repairs — are *instants*: records of an instant
//! phase with `start == end`.
//!
//! A [`SpanLog`] is the machine's one trace sink. With capacity 0 it is a
//! no-op (the zero-cost-when-disabled invariant); a bounded one retains
//! the **newest** records and evicts the oldest. Spans are pushed when
//! they *close* and instants when they happen, so eviction can never drop
//! the most recent records of either kind.
//!
//! # Example
//!
//! ```
//! use ftcoma_sim::span::{SpanLog, SpanPhase, SpanRecord};
//!
//! let mut log = SpanLog::new(16);
//! let txn = log.alloc_id();
//! let leg = log.alloc_id();
//! log.push(SpanRecord::new(leg, txn, SpanPhase::DirLookup, 3, 100, 130));
//! log.push(SpanRecord::new(txn, 0, SpanPhase::Transaction, 0, 100, 216));
//! let fail = log.alloc_id();
//! log.push(SpanRecord { arg: 1, ..SpanRecord::new(fail, 0, SpanPhase::Failure, 2, 300, 300) });
//! assert_eq!(log.records().len(), 3);
//! assert_eq!(log.records()[1].duration(), 116);
//! assert!(log.records()[2].phase.is_instant());
//! ```

use std::collections::VecDeque;

use crate::Cycles;

/// Identifier of a span within one run. `0` means "no span" and is never
/// allocated; parent links use it for roots.
pub type SpanId = u64;

/// The typed phase a span measures.
///
/// The first group decomposes a memory transaction (a reference that
/// missed and stalled its processor); the second decomposes a recovery;
/// the third measures recovery-point establishment; the last group are
/// instant phases (protocol events, `start == end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Root span of one stalled memory reference: processor stall to
    /// resume.
    Transaction,
    /// Request leg: requester → home-node directory (ReadReq/WriteReq in
    /// flight).
    DirLookup,
    /// Forwarded leg: home directory → current owner (ReadFwd/WriteFwd).
    HomeFwd,
    /// Data leg: data or grant travelling back to the requester.
    DataReply,
    /// One router-to-router hop of a message on the mesh.
    NetHop,
    /// Root span of one fault recovery: detection through replay.
    Recovery,
    /// Fault detection (zero-length under the fail-stop model).
    Detection,
    /// Global rollback to the last recovery point (per-node scans).
    Rollback,
    /// Directory reconfiguration and copy promotion after the rollback.
    Reconfiguration,
    /// Re-execution of the work lost between the recovery point and the
    /// fault, ending at the first post-recovery commit.
    Replay,
    /// Recovery-point create window: all processors quiesced until the
    /// commit (machine-wide; `arg` is the generation being established).
    Create,
    /// One node's commit scan, child of its checkpoint's create span.
    Commit,
    /// Instant: a coherence message reached `node` (`kind` is the message
    /// kind, `arg` the item).
    Delivery,
    /// Instant: `node` failed (`arg` is 1 for a permanent failure).
    Failure,
    /// Instant: a fault landed inside an open recovery window, which was
    /// abandoned and restarted; `node` is the new victim and `arg` the
    /// number of faults folded into the episode (2 = first restart).
    RecoveryRestarted,
    /// Instant: a replacement for `node` rejoined.
    Repaired,
    /// Instant: the mesh link `node`↔`arg` was cut (both directions).
    LinkCut,
    /// Instant: the mesh link `node`↔`arg` was restored.
    LinkRepaired,
    /// Instant: the mesh router of `node` went down.
    RouterDown,
}

/// Every phase, in declaration order.
pub const ALL_PHASES: [SpanPhase; 19] = [
    SpanPhase::Transaction,
    SpanPhase::DirLookup,
    SpanPhase::HomeFwd,
    SpanPhase::DataReply,
    SpanPhase::NetHop,
    SpanPhase::Recovery,
    SpanPhase::Detection,
    SpanPhase::Rollback,
    SpanPhase::Reconfiguration,
    SpanPhase::Replay,
    SpanPhase::Create,
    SpanPhase::Commit,
    SpanPhase::Delivery,
    SpanPhase::Failure,
    SpanPhase::RecoveryRestarted,
    SpanPhase::Repaired,
    SpanPhase::LinkCut,
    SpanPhase::LinkRepaired,
    SpanPhase::RouterDown,
];

impl SpanPhase {
    /// Stable lowercase name used by every exporter.
    pub fn name(&self) -> &'static str {
        match self {
            SpanPhase::Transaction => "transaction",
            SpanPhase::DirLookup => "dir_lookup",
            SpanPhase::HomeFwd => "home_fwd",
            SpanPhase::DataReply => "data_reply",
            SpanPhase::NetHop => "net_hop",
            SpanPhase::Recovery => "recovery",
            SpanPhase::Detection => "detection",
            SpanPhase::Rollback => "rollback",
            SpanPhase::Reconfiguration => "reconfiguration",
            SpanPhase::Replay => "replay",
            SpanPhase::Create => "create",
            SpanPhase::Commit => "commit",
            SpanPhase::Delivery => "delivery",
            SpanPhase::Failure => "failure",
            SpanPhase::RecoveryRestarted => "recovery_restarted",
            SpanPhase::Repaired => "repaired",
            SpanPhase::LinkCut => "link_cut",
            SpanPhase::LinkRepaired => "link_repaired",
            SpanPhase::RouterDown => "router_down",
        }
    }

    /// Inverse of [`SpanPhase::name`].
    pub fn from_name(name: &str) -> Option<SpanPhase> {
        ALL_PHASES.into_iter().find(|p| p.name() == name)
    }

    /// Is this an instant phase (a protocol event, `start == end`)?
    pub fn is_instant(&self) -> bool {
        matches!(
            self,
            SpanPhase::Delivery
                | SpanPhase::Failure
                | SpanPhase::RecoveryRestarted
                | SpanPhase::Repaired
                | SpanPhase::LinkCut
                | SpanPhase::LinkRepaired
                | SpanPhase::RouterDown
        )
    }

    /// Does this phase belong to a transaction or recovery decomposition
    /// (rather than checkpointing or the instant protocol events)?
    pub fn is_causal(&self) -> bool {
        !self.is_instant() && !matches!(self, SpanPhase::Create | SpanPhase::Commit)
    }

    /// The key [`SpanRecord::arg`] is exported under, for the phases that
    /// carry one.
    pub fn arg_name(&self) -> Option<&'static str> {
        match self {
            SpanPhase::Delivery => Some("item"),
            SpanPhase::Create => Some("gen"),
            SpanPhase::Failure => Some("permanent"),
            SpanPhase::RecoveryRestarted => Some("depth"),
            SpanPhase::LinkCut | SpanPhase::LinkRepaired => Some("peer"),
            _ => None,
        }
    }

    /// Does this phase belong to the recovery decomposition (rather than
    /// the transaction one)?
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            SpanPhase::Recovery
                | SpanPhase::Detection
                | SpanPhase::Rollback
                | SpanPhase::Reconfiguration
                | SpanPhase::Replay
        )
    }
}

impl std::fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One record of the trace: a closed span (a measured interval with causal
/// parentage) or an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (unique within a run, never 0).
    pub id: SpanId,
    /// Parent span id, or 0 for a root.
    pub parent: SpanId,
    /// What the interval measures.
    pub phase: SpanPhase,
    /// The node the phase executed on (for message legs: the receiver).
    pub node: u16,
    /// Interval start, in cycles.
    pub start: Cycles,
    /// Interval end, in cycles (`end >= start`).
    pub end: Cycles,
    /// Message kind of a [`SpanPhase::Delivery`] (`Msg::kind`); empty for
    /// every other phase.
    pub kind: &'static str,
    /// The phase's argument (see [`SpanPhase::arg_name`]); 0 for phases
    /// without one.
    pub arg: u64,
}

impl SpanRecord {
    /// A record with no message kind and no argument.
    pub fn new(
        id: SpanId,
        parent: SpanId,
        phase: SpanPhase,
        node: u16,
        start: Cycles,
        end: Cycles,
    ) -> Self {
        SpanRecord {
            id,
            parent,
            phase,
            node,
            start,
            end,
            kind: "",
            arg: 0,
        }
    }

    /// Length of the interval in cycles.
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }
}

/// A bounded ring of trace records (closed spans and instants).
///
/// Capacity 0 disables the sink entirely (`push` is a no-op,
/// [`SpanLog::enabled`] is false); a bounded log evicts the *oldest*
/// record when full. Because spans are pushed at close time and instants
/// when they happen, the newest records always survive wraparound.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    records: VecDeque<SpanRecord>,
    capacity: usize,
    next_id: SpanId,
}

impl SpanLog {
    /// Creates a log retaining at most `capacity` records (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_id: 0,
        }
    }

    /// Is the sink collecting at all?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Allocates a fresh span id (1, 2, 3, ... within a run). Returns 0
    /// when the sink is disabled, so disabled runs allocate nothing and
    /// parent links stay inert.
    pub fn alloc_id(&mut self) -> SpanId {
        if self.capacity == 0 {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a closed span or an instant, evicting the oldest record when
    /// full.
    /// No-op while disabled or for records of disabled allocations
    /// (`id == 0`).
    pub fn push(&mut self, record: SpanRecord) {
        if self.capacity == 0 || record.id == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// The retained records, oldest first: spans in close order,
    /// instants as they happened.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.iter().copied().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: SpanId, end: Cycles) -> SpanRecord {
        SpanRecord::new(
            id,
            0,
            SpanPhase::Transaction,
            0,
            end.saturating_sub(10),
            end,
        )
    }

    #[test]
    fn disabled_log_is_inert() {
        let mut log = SpanLog::new(0);
        assert!(!log.enabled());
        assert_eq!(log.alloc_id(), 0);
        log.push(rec(1, 50));
        assert!(log.is_empty());
    }

    #[test]
    fn ids_are_dense_and_nonzero() {
        let mut log = SpanLog::new(4);
        assert_eq!(log.alloc_id(), 1);
        assert_eq!(log.alloc_id(), 2);
        assert_eq!(log.alloc_id(), 3);
    }

    #[test]
    fn records_with_zero_id_are_dropped() {
        // A span allocated while the sink was disabled must not be
        // recorded even if the record is pushed later.
        let mut log = SpanLog::new(4);
        log.push(rec(0, 10));
        assert!(log.is_empty());
    }

    /// Satellite regression: ring wraparound evicts the *oldest* closes;
    /// the newest span-close events are always retained.
    #[test]
    fn wraparound_keeps_newest_closes() {
        let mut log = SpanLog::new(3);
        for end in 1..=10u64 {
            let id = log.alloc_id();
            log.push(rec(id, end));
        }
        let kept = log.records();
        assert_eq!(kept.len(), 3);
        assert_eq!(
            kept.iter().map(|r| r.end).collect::<Vec<_>>(),
            vec![8, 9, 10],
            "eviction must drop the oldest closes, never the newest"
        );
    }

    /// One ring holds both kinds of record: wraparound evicts the oldest
    /// and keeps the newest spans and instants alike.
    #[test]
    fn ring_keeps_newest_spans_and_instants() {
        let mut log = SpanLog::new(4);
        for t in 1..=9u64 {
            let id = log.alloc_id();
            if t % 2 == 0 {
                log.push(SpanRecord::new(id, 0, SpanPhase::Delivery, 1, t, t));
            } else {
                log.push(rec(id, t));
            }
        }
        let kept = log.records();
        assert_eq!(
            kept.iter().map(|r| r.end).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(kept.iter().filter(|r| r.phase.is_instant()).count(), 2);
        assert_eq!(kept.iter().filter(|r| !r.phase.is_instant()).count(), 2);
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in ALL_PHASES {
            assert_eq!(SpanPhase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(SpanPhase::from_name("bogus"), None);
        assert!(SpanPhase::Rollback.is_recovery());
        assert!(!SpanPhase::DataReply.is_recovery());
        assert!(SpanPhase::Failure.is_instant() && !SpanPhase::Failure.is_causal());
        assert!(!SpanPhase::Commit.is_instant() && !SpanPhase::Commit.is_causal());
        assert!(SpanPhase::Replay.is_causal());
    }
}
