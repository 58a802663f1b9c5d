//! The machine: nodes + engine + mesh + checkpoint coordinator + failures,
//! advanced by one deterministic event loop.

use std::collections::VecDeque;

use ftcoma_core::{
    ckpt, invariants, recovery, AccessOutcome, AccessReq, Ctx, Effect, Engine, HitSource,
    RecoveryOutcome,
};
use ftcoma_mem::{ItemId, ItemState, NodeId};
use ftcoma_net::{Fabric, FaultDecision, LogicalRing, NetClass, NetFaultPlan};
use ftcoma_protocol::msg::{InjectCause, Msg, TxnLeg};
use ftcoma_protocol::transport::{DedupFilter, SeqSpace};
use ftcoma_protocol::NodeState;
use ftcoma_sim::span::{SpanId, SpanLog, SpanPhase, SpanRecord};
use ftcoma_sim::{derive_seed, Cycles, EventQueue, FxHashMap};
use ftcoma_workloads::{MemRef, NodeStream, RefStream, StreamSnapshot};

use crate::config::{FailureKind, MachineConfig, ECP_MIN_NODES};
use crate::faultproc::{FaultAction, FaultProcess, FaultProcessConfig};
use crate::metrics::{NodeMetrics, RunMetrics, TsSample};

#[derive(Debug, Clone)]
enum Event {
    /// Processor of `node` issues its buffered reference (valid only for
    /// the matching epoch).
    Proc { node: NodeId, epoch: u64 },
    /// Network delivery. `sent` is the departure time, kept so delivery
    /// can attribute the end-to-end leg latency to its causal phase.
    Deliver { to: NodeId, msg: Msg, sent: Cycles },
    /// Stalled access of `node` completed.
    Resume { node: NodeId, epoch: u64 },
    /// Periodic recovery-point establishment.
    CkptTimer,
    /// Injected failure.
    Failure { node: NodeId, kind: FailureKind },
    /// A replacement node rejoins in place of a permanently failed one.
    Repair { node: NodeId },
    /// Reliable-transport delivery attempt: one physical copy of packet
    /// `(src, seq)` arriving at `to`.
    NetDeliver {
        src: NodeId,
        to: NodeId,
        seq: u64,
        msg: Msg,
    },
    /// Transport acknowledgement for `(src, dst, seq)` arriving back at
    /// `src`.
    NetAck { src: NodeId, dst: NodeId, seq: u64 },
    /// Retransmission timer for in-flight packet `(src, dst, seq)`.
    NetRetry { src: NodeId, dst: NodeId, seq: u64 },
    /// Scheduled interconnect fault: a mesh link is cut.
    LinkCut { a: NodeId, b: NodeId },
    /// Scheduled interconnect fault: a mesh router dies.
    RouterDown { node: NodeId },
    /// The continuous fault process has events due ([`FaultProcess`]);
    /// exactly one tick is in flight whenever a process is installed.
    FaultTick,
}

/// An unacknowledged transport packet awaiting its ack or next retry.
#[derive(Debug, Clone)]
struct InFlight {
    msg: Msg,
    attempts: u32,
    /// Original departure time of the logical message (retransmissions keep
    /// it, so the measured leg latency includes retry delays).
    sent: Cycles,
}

/// Ceiling on retained time-series rows: when reached, every other row is
/// dropped and the sampling stride doubles, keeping memory bounded on
/// arbitrarily long runs while staying deterministic.
const MAX_TS_ROWS: usize = 8192;

/// Seed stream for the message-loss plan installed by
/// [`Machine::set_message_loss`] (decorrelates it from workload streams).
const NET_PLAN_STREAM: u64 = 0xD1A5_7E2C_0FF3_1D07;

/// Seed stream for the continuous fault process installed by
/// [`Machine::install_fault_process`].
const FAULT_PROC_STREAM: u64 = 0x8F17_0C55_C0D1_2ED9;

/// How long a [`Machine::set_message_loss`] window stays open. Bounded so
/// a lossy episode behaves like a transient network fault rather than a
/// permanently degraded mesh (which would escalate into node failures with
/// probability approaching 1 as the run grows).
const LOSS_WINDOW: Cycles = 16_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Will issue at its scheduled `Proc` event.
    Ready,
    /// Blocked on a coherence transaction.
    Stalled,
    /// Stopped for a checkpoint or recovery.
    Paused,
    /// Waiting at a global barrier.
    AtBarrier,
    /// Completed its reference quota.
    Done,
    /// Permanently failed.
    Dead,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    /// Waiting for in-flight transactions to finish before `create`.
    Draining,
    /// Create phase of a recovery point establishment in progress.
    Create,
    /// Post-failure reconfiguration in progress.
    Recovering,
}

/// The simulated ft-coma machine. See the crate docs for an example.
///
/// `Clone` is deep and deterministic: the clone replays exactly like the
/// original (see [`Machine::snapshot`]).
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    nodes: Vec<NodeState>,
    engine: Engine,
    mesh: Fabric,
    ring: LogicalRing,
    queue: EventQueue<Event>,

    streams: Vec<NodeStream>,
    snapshots: Vec<StreamSnapshot>,
    /// Per-stream buffered-but-unissued reference at the recovery point.
    /// The stream snapshot already counts such a reference as emitted, so
    /// a rollback must re-inject it explicitly or it is lost forever.
    pending_snap: Vec<Option<MemRef>>,
    /// References re-injected by a rollback, drained before the streams.
    carryover: Vec<VecDeque<(usize, MemRef)>>,
    /// Stream indices each node executes (grows when adopting a dead
    /// node's work).
    assigned: Vec<Vec<usize>>,
    rr: Vec<usize>,
    pending_ref: Vec<Option<(usize, MemRef)>>,
    proc: Vec<ProcState>,
    epochs: Vec<u64>,
    stall_start: Vec<Cycles>,
    refs_since_barrier: Vec<u64>,

    phase: Phase,
    gen: u64,
    deliver_pending: usize,
    ckpt_start: Cycles,
    create_done: usize,
    reconfig_done: usize,
    reconfig_expected: usize,
    recovery_start: Cycles,
    recovery_scan_end: Cycles,
    /// Failures folded into the recovery episode currently in flight (1
    /// for a plain fault, +1 per nested fault that restarted the episode;
    /// 0 outside recovery). Credited to `faults_survived` in one lump when
    /// the episode's reconfiguration finally completes.
    episode_faults: u64,
    timer_in_queue: bool,
    pending_repair: Option<NodeId>,
    /// Continuous MTBF/MTTR failure–repair schedule generator
    /// ([`Machine::install_fault_process`]; `None` = scripted faults only).
    fault_process: Option<FaultProcess>,

    /// Reliable transport active? Flips on when a fault plan is installed
    /// or an interconnect fault is scheduled; off = the exact legacy
    /// fire-and-forget path (mesh sends cannot fail on a healthy fabric).
    transport_active: bool,
    /// Deterministic drop/duplicate/delay plan consulted per physical send.
    net_plan: Option<NetFaultPlan>,
    /// Per-source send sequence spaces (indexed by sender).
    seqs: Vec<SeqSpace>,
    /// Per-receiver duplicate suppression (indexed by receiver).
    dedup: Vec<DedupFilter>,
    /// Unacked packets by `(src, dst, seq)`.
    in_flight: FxHashMap<(NodeId, NodeId, u64), InFlight>,

    committed_values: FxHashMap<ItemId, u64>,

    /// The trace ring: causal spans and instant protocol events (inert
    /// when `trace_capacity` is 0).
    spans: SpanLog,
    /// Start of the open recovery-point create window.
    create_start: Cycles,
    /// Open root Transaction span per node (0 = none).
    open_txn: Vec<SpanId>,
    /// Open root Recovery span: `(id, failure time, failed node)`.
    open_recovery: Option<(SpanId, Cycles, u16)>,
    /// Open Replay child span: `(id, recovery-end time)`.
    open_replay: Option<(SpanId, Cycles)>,
    /// Start of the current replay window (always on; feeds the replay
    /// phase histogram independently of span capture).
    replay_start: Option<Cycles>,
    /// Per-node down-interval opening time (always on; availability).
    down_since: Vec<Option<Cycles>>,

    /// Time-series sampling stride (0 = off; doubles when thinning).
    ts_every: Cycles,
    /// Next sample time.
    ts_next: Cycles,
    /// `refs` as of the previous sample (for per-interval deltas).
    ts_last_refs: u64,
    ts_rows: Vec<TsSample>,

    metrics: RunMetrics,
    /// Metrics snapshot taken when warmup completed.
    baseline: Option<(RunMetrics, Cycles)>,
    finished: bool,
    outcome: RecoveryOutcome,
    /// Set when the machine stopped early on a terminal outcome.
    halted: bool,
}

/// A frozen, deeply-cloned [`Machine`] state, cheap to fork from.
///
/// Produced by [`Machine::snapshot`]; turned back into a runnable machine
/// by [`Snapshot::to_machine`] (any number of times — each fork is
/// independent) or applied over an existing machine by
/// [`Machine::restore`]. Forked runs are byte-identical to straight runs:
/// the event calendar's two-band sequence numbering makes scenario
/// injection into a resumed snapshot tie-break exactly like
/// construction-time injection.
#[derive(Debug, Clone)]
pub struct Snapshot(Box<Machine>);

impl Snapshot {
    /// Forks an independent runnable machine from the captured state.
    pub fn to_machine(&self) -> Machine {
        (*self.0).clone()
    }

    /// Simulation time at which the state was captured.
    pub fn at(&self) -> Cycles {
        self.0.queue.now()
    }
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`MachineConfig::validate`]).
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let n = cfg.nodes as usize;
        let nodes: Vec<NodeState> = (0..cfg.nodes)
            .map(|i| NodeState::new(NodeId::new(i), cfg.am, cfg.cache))
            .collect();
        let streams: Vec<NodeStream> = (0..cfg.nodes)
            .map(|i| NodeStream::new(&cfg.workload, i, cfg.nodes, cfg.seed))
            .collect();
        let snapshots = streams.iter().map(NodeStream::snapshot).collect();
        let mesh = Fabric::new(cfg.fabric(), n);
        let engine = Engine::new(cfg.ft, cfg.timing, n);
        let mut machine = Self {
            nodes,
            engine,
            mesh,
            ring: LogicalRing::new(n),
            queue: EventQueue::new(),
            streams,
            snapshots,
            pending_snap: vec![None; n],
            carryover: (0..n).map(|_| VecDeque::new()).collect(),
            assigned: (0..n).map(|i| vec![i]).collect(),
            rr: vec![0; n],
            pending_ref: vec![None; n],
            proc: vec![ProcState::Ready; n],
            epochs: vec![0; n],
            stall_start: vec![0; n],
            refs_since_barrier: vec![0; n],
            phase: Phase::Running,
            gen: 0,
            deliver_pending: 0,
            ckpt_start: 0,
            create_done: 0,
            reconfig_done: 0,
            reconfig_expected: 0,
            recovery_start: 0,
            recovery_scan_end: 0,
            episode_faults: 0,
            timer_in_queue: false,
            pending_repair: None,
            fault_process: None,
            transport_active: cfg.net_fault.is_some(),
            net_plan: cfg.net_fault.clone(),
            seqs: vec![SeqSpace::new(); n],
            dedup: vec![DedupFilter::new(); n],
            in_flight: FxHashMap::default(),
            committed_values: FxHashMap::default(),
            spans: SpanLog::new(cfg.trace_capacity),
            create_start: 0,
            open_txn: vec![0; n],
            open_recovery: None,
            open_replay: None,
            replay_start: None,
            down_since: vec![None; n],
            ts_every: cfg.timeseries_every,
            ts_next: cfg.timeseries_every,
            ts_last_refs: 0,
            ts_rows: Vec::new(),
            metrics: RunMetrics {
                nodes: n as u64,
                per_node: vec![NodeMetrics::default(); n],
                down_intervals: vec![Vec::new(); n],
                ..RunMetrics::default()
            },
            baseline: None,
            finished: false,
            outcome: RecoveryOutcome::Recovered,
            halted: false,
            cfg,
        };
        if machine.spans.enabled() {
            // Pure observation on the mesh side; timing is unchanged.
            machine.mesh.set_hop_trace(true);
        }
        for i in 0..n {
            machine.prepare_and_schedule(NodeId::new(i as u16), 0, true);
        }
        if let Some(period) = machine.cfg.ft.ckpt_period_cycles() {
            machine.queue.schedule(period, Event::CkptTimer);
            machine.timer_in_queue = true;
        }
        machine
    }

    /// Schedules a node failure at an absolute simulation time.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled (the baseline machine cannot
    /// recover) or the node index is out of range.
    pub fn schedule_failure(&mut self, at: Cycles, node: NodeId, kind: FailureKind) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "failures require the ECP; the standard protocol cannot recover"
        );
        assert!(node.index() < self.nodes.len(), "no such node");
        self.queue.schedule_pre(at, Event::Failure { node, kind });
    }

    /// Schedules the repair of a permanently failed node: a fresh
    /// replacement (empty memory) rejoins the ring at `at`, takes its
    /// static home range back and resumes the node's share of the work.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled or the node index is out of
    /// range. Repairing a node that is still alive at `at` is a no-op.
    pub fn schedule_repair(&mut self, at: Cycles, node: NodeId) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "repair requires the ECP machine"
        );
        assert!(node.index() < self.nodes.len(), "no such node");
        self.queue.schedule_pre(at, Event::Repair { node });
    }

    /// Schedules a mesh link cut at `at`: both directions of the `a`–`b`
    /// link die, forcing traffic to detour (or, if the cut severs the mesh,
    /// escalating through the reliable transport). Activates the transport.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, the fabric is a bus (no
    /// per-link topology), or a node index is out of range; `a` and `b`
    /// must be mesh-adjacent (checked when the cut is applied).
    pub fn schedule_link_cut(&mut self, at: Cycles, a: NodeId, b: NodeId) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "interconnect faults require the ECP machine"
        );
        assert!(self.cfg.bus.is_none(), "link cuts need a mesh fabric");
        assert!(
            a.index() < self.nodes.len() && b.index() < self.nodes.len(),
            "no such node"
        );
        self.transport_active = true;
        self.queue.schedule_pre(at, Event::LinkCut { a, b });
    }

    /// Schedules a mesh router failure at `at`: the node's router stops
    /// switching, making the node unreachable while its processor keeps
    /// running. Its peers' transports time out and escalate, turning the
    /// router loss into a permanent node failure. Activates the transport.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, the fabric is a bus, or the
    /// node index is out of range.
    pub fn schedule_router_down(&mut self, at: Cycles, node: NodeId) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "interconnect faults require the ECP machine"
        );
        assert!(self.cfg.bus.is_none(), "router faults need a mesh fabric");
        assert!(node.index() < self.nodes.len(), "no such node");
        self.transport_active = true;
        self.queue.schedule_pre(at, Event::RouterDown { node });
    }

    /// Installs a seeded message-loss episode: starting at `at`, each
    /// physical packet is dropped with probability `rate_per_mille`/1000
    /// for a bounded window ([`LOSS_WINDOW`] cycles). The reliable
    /// transport masks the losses with retransmissions. Activates the
    /// transport.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, a plan is already installed,
    /// or the rate exceeds 1000 per-mille.
    pub fn set_message_loss(&mut self, at: Cycles, rate_per_mille: u32) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "interconnect faults require the ECP machine"
        );
        match &mut self.net_plan {
            None => {
                let plan = NetFaultPlan::message_loss(
                    derive_seed(self.cfg.seed, NET_PLAN_STREAM),
                    rate_per_mille,
                )
                .with_window(at, at + LOSS_WINDOW);
                self.net_plan = Some(plan);
            }
            // A zero-rate standby plan ([`Machine::preactivate_transport`])
            // arms in place, keeping its seed and send ordinal so a forked
            // run rolls the same per-packet dice as a straight one.
            Some(plan) if plan.rate_per_mille() == 0 => {
                plan.arm_message_loss(rate_per_mille, at, at + LOSS_WINDOW);
            }
            Some(_) => panic!("one message fault plan per machine"),
        }
        self.transport_active = true;
    }

    /// Switches the machine onto the reliable-transport path from cycle 0
    /// with an inert (zero-rate) fault plan, without changing behavior:
    /// every packet is delivered, merely through the sequenced/acked path
    /// an armed plan would use. A prefix run snapshotted for later
    /// network-fault injection must run pre-activated so the fork point
    /// inherits transport state (and the plan's send ordinal) identical to
    /// a straight run's.
    ///
    /// # Panics
    ///
    /// Panics if a (non-inert) fault plan is already installed.
    pub fn preactivate_transport(&mut self) {
        if let Some(plan) = &self.net_plan {
            assert!(plan.rate_per_mille() == 0, "a fault plan is already armed");
        } else {
            self.net_plan = Some(NetFaultPlan::new(derive_seed(
                self.cfg.seed,
                NET_PLAN_STREAM,
            )));
        }
        self.transport_active = true;
    }

    /// Installs the continuous MTBF/MTTR failure–repair process
    /// ([`crate::faultproc`]): from `cfg.start` on, nodes permanently
    /// fail and rejoin — and, when the link process is enabled, mesh
    /// links are cut and restored — on an unbounded seeded stochastic
    /// schedule. Node repairs re-enter through the full rejoin path
    /// (router restored, home ranges migrated back, work reclaimed);
    /// enabling the link process activates the reliable transport, since
    /// a cut may sever the mesh.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, a process is already
    /// installed, the configuration does not validate, or a link process
    /// is requested on a bus fabric.
    pub fn install_fault_process(&mut self, cfg: FaultProcessConfig) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "continuous faults require the ECP; the standard protocol cannot recover"
        );
        assert!(
            self.fault_process.is_none(),
            "one fault process per machine"
        );
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let links = if cfg.link_mtbf > 0 {
            assert!(self.cfg.bus.is_none(), "link faults need a mesh fabric");
            self.transport_active = true;
            mesh_links(self.nodes.len())
        } else {
            Vec::new()
        };
        let fp = FaultProcess::new(
            cfg,
            derive_seed(self.cfg.seed, FAULT_PROC_STREAM),
            self.cfg.nodes,
            links,
        );
        let first = fp.next_at().expect("a validated process is always armed");
        self.queue.schedule_pre(first.max(1), Event::FaultTick);
        self.fault_process = Some(fp);
    }

    /// Dispatches queued events in order until a terminal condition —
    /// halt, quiescent completion, or (when `limit` is set) the next
    /// event not being strictly before `limit`.
    ///
    /// The termination checks run *before* each pop, so an event queued
    /// past the natural end of the run (e.g. a fault injected into a
    /// resumed snapshot at a cycle the straight run never reached) is
    /// left undelivered exactly as a straight run would leave it.
    fn advance(&mut self, limit: Option<Cycles>) {
        self.queue.seal();
        loop {
            if self.halted {
                return;
            }
            if self.all_done() && self.deliver_pending == 0 && self.phase == Phase::Running {
                return;
            }
            if let Some(l) = limit {
                match self.queue.peek_time() {
                    Some(t) if t < l => {}
                    _ => return,
                }
            }
            let Some((at, ev)) = self.queue.pop() else {
                return;
            };
            if self.ts_every > 0 {
                self.sample_timeseries_until(at);
            }
            self.dispatch(ev);
        }
    }

    /// Runs the machine up to (but not including) simulation time `limit`,
    /// then stops with all state intact: every event strictly before
    /// `limit` is dispatched, nothing at or after it. The machine can
    /// continue via another [`Machine::run_until`] or finish with
    /// [`Machine::run`] — the composite run is byte-identical to an
    /// uninterrupted one. This is the prefix half of snapshot-fork
    /// execution: run to an injection cycle once, snapshot, fork many.
    ///
    /// # Panics
    ///
    /// Panics if the machine already finished.
    pub fn run_until(&mut self, limit: Cycles) {
        assert!(!self.finished, "machine already ran");
        self.advance(Some(limit));
    }

    /// Runs the machine to completion and returns the metrics.
    pub fn run(&mut self) -> RunMetrics {
        assert!(!self.finished, "machine already ran");
        self.advance(None);
        self.finished = true;
        self.finalize_observability();
        self.metrics.total_cycles = self.queue.now();
        self.metrics.pages_allocated = self
            .live_nodes()
            .map(|n| n.am.allocated_pages() as u64)
            .sum();
        self.metrics.pages_peak = self
            .live_nodes()
            .map(|n| n.am.peak_allocated_pages() as u64)
            .sum();
        for i in 0..self.nodes.len() {
            // Dead nodes report their peak up to the failure (the wipe
            // evicts pages but keeps the high-water mark) and zero current
            // pages, consistent with the live_nodes() aggregates above.
            self.metrics.per_node[i].pages_allocated = if self.nodes[i].alive {
                self.nodes[i].am.allocated_pages() as u64
            } else {
                0
            };
            self.metrics.per_node[i].pages_peak = self.nodes[i].am.peak_allocated_pages() as u64;
        }
        self.metrics.net_messages = self.mesh.stats().messages;
        self.metrics.net_contention_cycles = self.mesh.stats().contention_cycles;
        self.metrics.net_detour_hops = self.mesh.stats().detour_hops;
        if let Some((base, base_cycles)) = self.baseline.take() {
            self.metrics = self.metrics.delta_since(&base);
            self.metrics.total_cycles = self.queue.now() - base_cycles;
        }
        self.metrics.clone()
    }

    /// Captures the machine's complete state — engine, attraction
    /// memories, caches, directory/home tables, transport, mesh, fault
    /// plan, workload streams, RNG streams, metrics/trace/span/time-series
    /// sinks and the event calendar with both sequence bands — as a
    /// deterministic snapshot. A machine restored from the snapshot and
    /// run to completion produces a report byte-identical to running the
    /// original straight through.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(Box::new(self.clone()))
    }

    /// Replaces this machine's state with the snapshot's.
    pub fn restore(&mut self, snap: &Snapshot) {
        *self = (*snap.0).clone();
    }

    /// The metrics collected so far (complete after [`Machine::run`]).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The structured recovery verdict of the run so far. Stays
    /// [`RecoveryOutcome::Recovered`] unless the run degraded into a
    /// terminal state (second fault inside a recovery window, or a failed
    /// post-recovery verification), in which case the machine halted early.
    pub fn outcome(&self) -> &RecoveryOutcome {
        &self.outcome
    }

    /// Per-stream emitted-reference counts, indexed by stream (= home
    /// node) number. After a complete run every entry reaches the quota
    /// `warmup_refs_per_node + refs_per_node` even when streams were
    /// adopted by an heir — the liveness signal chaos oracles check.
    pub fn stream_progress(&self) -> Vec<u64> {
        self.streams.iter().map(RefStream::refs_emitted).collect()
    }

    /// The owner-visible memory image: `(item index, value)` for every
    /// owner-state copy on a live node, sorted by item index. The
    /// invariants guarantee at most one owner per item, so this is a
    /// well-defined snapshot of current memory contents.
    pub fn owner_image(&self) -> Vec<(u64, u64)> {
        let mut image: Vec<(u64, u64)> = Vec::new();
        for ns in self.live_nodes() {
            for (item, slot) in ns.am.iter_present() {
                if slot.state.is_owner() {
                    image.push((item.index(), slot.value));
                }
            }
        }
        image.sort_unstable();
        image
    }

    /// The retained trace records — causal spans and instant protocol
    /// events — oldest first (empty unless
    /// [`MachineConfig::trace_capacity`] was set). The newest records
    /// survive wraparound. Tracing never affects simulated timing.
    ///
    /// # Example
    ///
    /// ```
    /// use ftcoma_core::FtConfig;
    /// use ftcoma_machine::{Machine, MachineConfig};
    /// use ftcoma_sim::span::SpanPhase;
    /// use ftcoma_workloads::presets;
    ///
    /// let mut m = Machine::new(MachineConfig {
    ///     nodes: 4,
    ///     refs_per_node: 20_000,
    ///     workload: presets::water(),
    ///     ft: FtConfig::enabled(400.0),
    ///     trace_capacity: 200_000,
    ///     ..MachineConfig::default()
    /// });
    /// m.run();
    /// let trace = m.spans();
    /// let ckpts = trace.iter().filter(|s| s.phase == SpanPhase::Create).count();
    /// assert!(ckpts > 0);
    /// assert!(trace.iter().any(|s| s.phase == SpanPhase::Delivery));
    /// ```
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.records()
    }

    /// Records an instant protocol event at the current time (no-op while
    /// tracing is off).
    fn trace_event(&mut self, phase: SpanPhase, node: NodeId, kind: &'static str, arg: u64) {
        if self.spans.enabled() {
            let id = self.spans.alloc_id();
            let now = self.queue.now();
            let node = node.index() as u16;
            self.spans.push(SpanRecord {
                kind,
                arg,
                ..SpanRecord::new(id, 0, phase, node, now, now)
            });
        }
    }

    /// The sampled time-series rows (empty unless
    /// [`MachineConfig::timeseries_every`] was set).
    pub fn timeseries(&self) -> &[TsSample] {
        &self.ts_rows
    }

    /// Per-link interconnect traffic breakdown (empty for bus fabrics).
    pub fn link_report(&self) -> Vec<ftcoma_net::LinkReport> {
        self.mesh.link_report()
    }

    /// The per-node states (read-only, for tests and tools).
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// The logical ring (liveness view).
    pub fn ring(&self) -> &LogicalRing {
        &self.ring
    }

    /// Checks all protocol invariants on the (quiescent) machine.
    ///
    /// # Panics
    ///
    /// Panics with a readable report if an invariant is violated.
    pub fn assert_invariants(&self) {
        let scope = invariants::CheckScope {
            allow_precommit: self.phase == Phase::Create,
            check_homes: self.deliver_pending == 0,
        };
        invariants::assert_consistent(&self.nodes, &self.ring, scope);
    }

    /// Checks all protocol invariants and returns the violations (empty =
    /// consistent). Non-panicking form of [`Machine::assert_invariants`]
    /// for harnesses that report rather than abort.
    pub fn check_invariants(&self) -> Vec<String> {
        let scope = invariants::CheckScope {
            allow_precommit: self.phase == Phase::Create,
            check_homes: self.deliver_pending == 0,
        };
        invariants::check(&self.nodes, &self.ring, scope)
    }

    /// Verifies that the memory image matches the last committed recovery
    /// point (meaningful right after a recovery, before computation
    /// resumes; requires `verify` in the configuration).
    pub fn verify_against_oracle(&self) -> Result<(), Vec<String>> {
        assert!(
            self.cfg.verify,
            "oracle tracking disabled in this configuration"
        );
        let mut problems = Vec::new();
        let mut seen: FxHashMap<ItemId, Vec<u64>> = FxHashMap::default();
        for ns in self.live_nodes() {
            for (item, slot) in ns.am.iter_present() {
                if slot.state.is_committed_recovery() {
                    seen.entry(item).or_default().push(slot.value);
                }
            }
        }
        for (&item, &value) in &self.committed_values {
            match seen.get(&item) {
                Some(vals) if vals.len() == 2 && vals.iter().all(|&v| v == value) => {}
                other => problems.push(format!(
                    "{item}: expected 2 recovery copies of value {value}, found {other:?}"
                )),
            }
        }
        for item in seen.keys() {
            if !self.committed_values.contains_key(item) {
                problems.push(format!("{item}: recovery copies for an uncommitted item"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Re-runs the data-loss certification audit against the current
    /// memory image: `Some(item)` iff some *written* committed item has
    /// zero live copies (the lowest such item, matching the one a
    /// [`RecoveryOutcome::UnrecoverableDataLoss`] outcome names).
    /// Available on every machine — unlike
    /// [`Machine::verify_against_oracle`] it does not require `verify`,
    /// because the committed-value oracle is always maintained.
    pub fn audit_data_loss(&self) -> Option<ItemId> {
        recovery::audit_copies(
            &self.nodes,
            self.committed_values.iter().map(|(&i, &v)| (i, v)),
        )
        .lost
        .first()
        .copied()
    }

    // -- internals ---------------------------------------------------------

    fn live_nodes(&self) -> impl Iterator<Item = &NodeState> {
        self.nodes.iter().filter(|n| n.alive)
    }

    fn all_done(&self) -> bool {
        self.proc
            .iter()
            .all(|&p| matches!(p, ProcState::Done | ProcState::Dead))
    }

    /// Emits every due sample row up to (and including) simulation time
    /// `t`. Pure observation: reads counters, schedules nothing.
    fn sample_timeseries_until(&mut self, t: Cycles) {
        while self.ts_next <= t {
            let in_flight = self
                .proc
                .iter()
                .filter(|&&p| p == ProcState::Stalled)
                .count()
                + self.deliver_pending;
            let nodes_down: Vec<u16> = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| !n.alive || self.down_since[*i].is_some())
                .map(|(i, _)| i as u16)
                .collect();
            let row = TsSample {
                cycle: self.ts_next,
                refs: self.metrics.refs,
                refs_delta: self.metrics.refs - self.ts_last_refs,
                read_misses: self.metrics.read_misses,
                write_misses: self.metrics.write_misses,
                in_flight: in_flight as u64,
                queue_depth: self.queue.len() as u64,
                nodes_up: self.ring.alive_count() as u64,
                nodes_down,
                checkpoints: self.metrics.checkpoints,
                failures: self.metrics.failures,
                ckpt_stall_cycles: self
                    .metrics
                    .per_node
                    .iter()
                    .map(|n| n.ckpt_stall_cycles)
                    .sum(),
                rollback_cycles: self
                    .metrics
                    .per_node
                    .iter()
                    .map(|n| n.rollback_cycles)
                    .sum(),
            };
            self.ts_last_refs = self.metrics.refs;
            self.ts_rows.push(row);
            self.ts_next += self.ts_every;
            if self.ts_rows.len() >= MAX_TS_ROWS {
                // Thin deterministically: keep every other row, double the
                // stride. Long runs stay bounded without a config knob.
                let mut idx = 0;
                self.ts_rows.retain(|_| {
                    idx += 1;
                    idx % 2 == 1
                });
                self.ts_every *= 2;
            }
        }
    }

    /// Closes every still-open span and down interval at the end of the
    /// run (or at a halt), so exported timelines never dangle.
    fn finalize_observability(&mut self) {
        let now = self.queue.now();
        for i in 0..self.nodes.len() {
            if let Some(from) = self.down_since[i].take() {
                self.metrics.per_node[i].down_cycles += now - from;
                self.metrics.down_intervals[i].push((from, now));
            }
        }
        if let Some(start) = self.replay_start.take() {
            // The window can open at a recovery end scheduled past the
            // final event; a window that never opened has no duration to
            // record (a zero would pollute the replay p50).
            if now >= start {
                self.metrics.phases.replay.record(now - start);
            }
        }
        if self.spans.enabled() {
            self.close_open_txn_spans(now);
            let (parent, victim) = self
                .open_recovery
                .map(|(id, _, node)| (id, node))
                .unwrap_or((0, 0));
            if let Some((id, start)) = self.open_replay.take() {
                self.spans.push(SpanRecord::new(
                    id,
                    parent,
                    SpanPhase::Replay,
                    victim,
                    start.min(now),
                    now,
                ));
            }
            if let Some((id, start, node)) = self.open_recovery.take() {
                self.spans.push(SpanRecord::new(
                    id,
                    0,
                    SpanPhase::Recovery,
                    node,
                    start,
                    now,
                ));
            }
        }
    }

    /// Closes every open root Transaction span at `end` (normal closes
    /// happen on resume; this handles rollback aborts and end-of-run).
    fn close_open_txn_spans(&mut self, end: Cycles) {
        for i in 0..self.open_txn.len() {
            let id = std::mem::take(&mut self.open_txn[i]);
            if id != 0 {
                self.spans.push(SpanRecord::new(
                    id,
                    0,
                    SpanPhase::Transaction,
                    i as u16,
                    self.stall_start[i],
                    end,
                ));
            }
        }
    }

    /// Attributes a delivered message to its transaction leg: records the
    /// end-to-end latency in the always-on phase histogram and, when span
    /// capture is enabled, emits a leg span parented to the requester's
    /// open Transaction span.
    fn record_leg(&mut self, to: NodeId, msg: &Msg, sent: Cycles) {
        let Some(leg) = msg.txn_leg() else {
            return;
        };
        let now = self.queue.now();
        let dur = now - sent;
        match leg {
            TxnLeg::DirLookup => self.metrics.phases.dir_lookup.record(dur),
            TxnLeg::HomeFwd => self.metrics.phases.home_fwd.record(dur),
            TxnLeg::DataReply => self.metrics.phases.data_reply.record(dur),
        }
        if self.spans.enabled() {
            let requester = msg.requester().map(NodeId::index).unwrap_or(to.index());
            let parent = self.open_txn.get(requester).copied().unwrap_or(0);
            if parent != 0 {
                let phase = match leg {
                    TxnLeg::DirLookup => SpanPhase::DirLookup,
                    TxnLeg::HomeFwd => SpanPhase::HomeFwd,
                    TxnLeg::DataReply => SpanPhase::DataReply,
                };
                let id = self.spans.alloc_id();
                self.spans.push(SpanRecord::new(
                    id,
                    parent,
                    phase,
                    to.index() as u16,
                    sent,
                    now,
                ));
            }
        }
    }

    /// Emits NetHop spans for the hop segments of the send just issued on
    /// the mesh, parented to the requester's open Transaction span.
    fn record_hop_spans(&mut self, msg: &Msg, to: NodeId) {
        if !self.spans.enabled() || msg.txn_leg().is_none() {
            return;
        }
        let requester = msg.requester().map(NodeId::index).unwrap_or(to.index());
        let parent = self.open_txn.get(requester).copied().unwrap_or(0);
        if parent == 0 {
            return;
        }
        let hops: Vec<ftcoma_net::HopSegment> = self.mesh.last_hops().to_vec();
        for h in hops {
            let id = self.spans.alloc_id();
            self.spans.push(SpanRecord::new(
                id,
                parent,
                SpanPhase::NetHop,
                to.index() as u16,
                h.start,
                h.end,
            ));
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Proc { node, epoch } => self.on_proc(node, epoch),
            Event::Deliver { to, msg, sent } => self.on_deliver(to, msg, sent),
            Event::Resume { node, epoch } => self.on_resume(node, epoch),
            Event::CkptTimer => self.on_ckpt_timer(),
            Event::Failure { node, kind } => self.on_failure(node, kind),
            Event::Repair { node } => self.on_repair_request(node),
            Event::NetDeliver { src, to, seq, msg } => self.on_net_deliver(src, to, seq, msg),
            Event::NetAck { src, dst, seq } => {
                self.in_flight.remove(&(src, dst, seq));
            }
            Event::NetRetry { src, dst, seq } => self.on_net_retry(src, dst, seq),
            Event::LinkCut { a, b } => {
                self.trace_event(SpanPhase::LinkCut, a, "", b.index() as u64);
                self.mesh.fail_link(a, b);
            }
            Event::RouterDown { node } => {
                self.trace_event(SpanPhase::RouterDown, node, "", 0);
                self.mesh.fail_router(node);
            }
            Event::FaultTick => self.on_fault_tick(),
        }
        if self.halted {
            return; // terminal outcome: no phase may make progress
        }
        if self.cfg.workload.barrier_interval_refs.is_some() && self.phase == Phase::Running {
            self.try_release_barrier();
        }
        // Phase progress checks after every event.
        if self.phase == Phase::Draining {
            self.try_begin_create();
        }
        if self.phase == Phase::Create
            && self.create_done == self.ring.alive_count()
            && self.deliver_pending == 0
        {
            self.do_commit();
        }
        if self.phase == Phase::Recovering
            && self.reconfig_done == self.reconfig_expected
            && self.deliver_pending == 0
        {
            self.finish_recovery();
        }
    }

    /// Releases the global barrier once every eligible node has arrived.
    fn try_release_barrier(&mut self) {
        let eligible = self
            .proc
            .iter()
            .filter(|p| !matches!(p, ProcState::Done | ProcState::Dead))
            .count();
        let waiting = self
            .proc
            .iter()
            .filter(|&&p| p == ProcState::AtBarrier)
            .count();
        if eligible == 0 || waiting < eligible {
            return;
        }
        for i in 0..self.nodes.len() {
            if self.proc[i] == ProcState::AtBarrier {
                self.proc[i] = ProcState::Paused;
                let id = self.nodes[i].id;
                self.resume_paused(id, 1);
            }
        }
    }

    /// Picks the next reference for `node` from its assigned streams
    /// (round-robin), or `None` when its quota is complete.
    fn next_ref_for(&mut self, node: NodeId) -> Option<(usize, MemRef)> {
        let i = node.index();
        if let Some(re_injected) = self.carryover[i].pop_front() {
            return Some(re_injected);
        }
        let quota = self.cfg.warmup_refs_per_node + self.cfg.refs_per_node;
        let assigned = &self.assigned[i];
        let k = assigned.len();
        let start = self.rr[i];
        for step in 0..k {
            // `start < k` (the repair path keeps it so) and `step < k`: a
            // conditional subtract replaces `% k`.
            let mut j = start + step;
            if j >= k {
                j -= k;
            }
            let si = assigned[j];
            if self.streams[si].refs_emitted() < quota {
                self.rr[i] = if j + 1 == k { 0 } else { j + 1 };
                return Some((si, self.streams[si].next_ref()));
            }
        }
        None
    }

    /// Makes `node` Ready with a buffered reference and schedules its issue.
    /// `include_pre` adds the reference's compute gap to the issue time
    /// (used for freshly generated references).
    fn prepare_and_schedule(&mut self, node: NodeId, at_delay: Cycles, include_pre: bool) {
        let i = node.index();
        if self.pending_ref[i].is_none() {
            match self.next_ref_for(node) {
                Some((si, r)) => self.pending_ref[i] = Some((si, r)),
                None => {
                    self.proc[i] = ProcState::Done;
                    return;
                }
            }
        }
        let pre = if include_pre {
            Cycles::from(
                self.pending_ref[i]
                    .as_ref()
                    .expect("just filled")
                    .1
                    .pre_cycles,
            )
        } else {
            0
        };
        self.proc[i] = ProcState::Ready;
        self.epochs[i] += 1;
        let epoch = self.epochs[i];
        self.queue.schedule(
            self.queue.now() + at_delay + pre,
            Event::Proc { node, epoch },
        );
    }

    fn on_proc(&mut self, node: NodeId, epoch: u64) {
        let i = node.index();
        if epoch != self.epochs[i] || self.proc[i] != ProcState::Ready {
            return; // stale event from before a pause/rollback
        }
        debug_assert_eq!(
            self.phase,
            Phase::Running,
            "ready processors only run in Running"
        );

        // Global barrier: SPLASH-style phase synchronisation.
        if let Some(interval) = self.cfg.workload.barrier_interval_refs {
            if self.refs_since_barrier[i] >= interval {
                self.refs_since_barrier[i] = 0;
                self.proc[i] = ProcState::AtBarrier;
                self.try_release_barrier();
                return;
            }
        }
        let (si, r) = self.pending_ref[i]
            .take()
            .expect("ready node has a buffered reference");

        self.metrics.refs += 1;
        self.metrics.per_node[i].refs += 1;
        self.refs_since_barrier[i] += 1;
        self.metrics.instructions += 1 + u64::from(r.pre_cycles);
        if self.baseline.is_none()
            && self.cfg.warmup_refs_per_node > 0
            && self.metrics.refs >= self.cfg.warmup_refs_per_node * self.nodes.len() as u64
        {
            let mut snap = self.metrics.clone();
            snap.total_cycles = 0;
            snap.net_messages = self.mesh.stats().messages;
            snap.net_contention_cycles = self.mesh.stats().contention_cycles;
            snap.net_detour_hops = self.mesh.stats().detour_hops;
            self.baseline = Some((snap, self.queue.now()));
        }
        if r.is_write {
            self.metrics.writes += 1;
        } else {
            self.metrics.reads += 1;
        }

        let write_value = ((si as u64) << 48) | self.streams[si].refs_emitted();
        let req = AccessReq {
            addr: r.addr,
            is_write: r.is_write,
            write_value,
        };
        let mut ctx = Ctx::new(&self.ring, self.queue.now());
        let outcome = self.engine.access(&mut self.nodes[i], req, &mut ctx);
        let (out, effects) = ctx.finish();
        if self.spans.enabled() && matches!(outcome, AccessOutcome::Stalled) {
            // Open the root Transaction span before the request messages
            // leave, so their hop spans find their parent.
            self.open_txn[i] = self.spans.alloc_id();
        }
        self.apply_outgoing(node, out);
        self.apply_effects(node, effects);

        match outcome {
            AccessOutcome::Complete { latency, source } => {
                match source {
                    HitSource::Cache if !r.is_write => self.metrics.cache_read_hits += 1,
                    HitSource::LocalAmCk => self.metrics.shared_ck_reads += 1,
                    _ => {}
                }
                self.metrics.access_latency.record(latency);
                self.prepare_and_schedule(node, latency, true);
            }
            AccessOutcome::Stalled => {
                if r.is_write {
                    self.metrics.write_misses += 1;
                    self.metrics.per_node[i].write_misses += 1;
                } else {
                    self.metrics.read_misses += 1;
                    self.metrics.per_node[i].read_misses += 1;
                }
                self.stall_start[i] = self.queue.now();
                self.proc[i] = ProcState::Stalled;
            }
        }
    }

    fn on_deliver(&mut self, to: NodeId, msg: Msg, sent: Cycles) {
        self.deliver_pending -= 1;
        if !self.nodes[to.index()].alive {
            return; // fail-silent node swallows the message
        }
        self.trace_event(SpanPhase::Delivery, to, msg.kind(), msg.item().index());
        self.record_leg(to, &msg, sent);
        let mut ctx = Ctx::new(&self.ring, self.queue.now());
        self.engine
            .handle(&mut self.nodes[to.index()], msg, &mut ctx);
        let (out, effects) = ctx.finish();
        self.apply_outgoing(to, out);
        self.apply_effects(to, effects);
    }

    fn on_resume(&mut self, node: NodeId, epoch: u64) {
        let i = node.index();
        if epoch != self.epochs[i] || self.proc[i] != ProcState::Stalled {
            return;
        }
        self.metrics
            .access_latency
            .record(self.queue.now() - self.stall_start[i]);
        if self.spans.enabled() {
            let id = std::mem::take(&mut self.open_txn[i]);
            if id != 0 {
                self.spans.push(SpanRecord::new(
                    id,
                    0,
                    SpanPhase::Transaction,
                    i as u16,
                    self.stall_start[i],
                    self.queue.now(),
                ));
            }
        }
        if self.phase == Phase::Running {
            self.prepare_and_schedule(node, 0, true);
        } else {
            self.proc[i] = ProcState::Paused;
        }
    }

    fn on_ckpt_timer(&mut self) {
        self.timer_in_queue = false;
        if self.all_done() {
            return;
        }
        if self.phase != Phase::Running {
            // Recovery in progress: try again a period later.
            self.schedule_timer(self.period());
            return;
        }
        self.phase = Phase::Draining;
        self.ckpt_start = self.queue.now();
        // Pause every processor that has not yet issued; stalled ones
        // finish their transaction first ("each node first terminates all
        // pending requests").
        for i in 0..self.nodes.len() {
            if self.proc[i] == ProcState::Ready {
                self.proc[i] = ProcState::Paused;
                self.epochs[i] += 1; // invalidates the scheduled Proc event
            }
        }
        self.try_begin_create();
    }

    fn try_begin_create(&mut self) {
        let quiesced = self.deliver_pending == 0
            && self.proc.iter().all(|&p| {
                matches!(
                    p,
                    ProcState::Paused | ProcState::AtBarrier | ProcState::Done | ProcState::Dead
                )
            });
        if !quiesced {
            return;
        }
        if let Some(node) = self.pending_repair.take() {
            self.do_repair(node);
            return;
        }
        self.phase = Phase::Create;
        self.create_done = 0;
        self.create_start = self.queue.now();
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            let mut ctx = Ctx::new(&self.ring, self.queue.now());
            self.engine
                .begin_create(&mut self.nodes[i], self.gen + 1, &mut ctx);
            let (out, effects) = ctx.finish();
            let id = self.nodes[i].id;
            self.apply_outgoing(id, out);
            self.apply_effects(id, effects);
        }
        // An entirely clean machine commits immediately.
        if self.create_done == self.ring.alive_count() && self.deliver_pending == 0 {
            self.do_commit();
        }
    }

    fn do_commit(&mut self) {
        debug_assert_eq!(self.phase, Phase::Create);
        let commit_start = self.queue.now();
        // A commit ends the replay window: lost work is re-covered by a
        // durable recovery point from here on. The window can open at a
        // recovery end scheduled past this event; such a not-yet-open
        // window is discarded without a sample (a clamped zero would
        // pollute the replay p50).
        if let Some(start) = self.replay_start.take() {
            if commit_start >= start {
                self.metrics.phases.replay.record(commit_start - start);
            }
        }
        if self.spans.enabled() {
            if let Some((root, rstart, victim)) = self.open_recovery.take() {
                if let Some((id, start)) = self.open_replay.take() {
                    self.spans.push(SpanRecord::new(
                        id,
                        root,
                        SpanPhase::Replay,
                        victim,
                        start.min(commit_start),
                        commit_start,
                    ));
                }
                self.spans.push(SpanRecord::new(
                    root,
                    0,
                    SpanPhase::Recovery,
                    victim,
                    rstart,
                    commit_start,
                ));
            }
        }
        self.metrics.t_create += commit_start - self.ckpt_start;
        self.gen += 1;
        self.metrics.checkpoints += 1;
        let create = self.spans.alloc_id();
        self.spans.push(SpanRecord {
            arg: self.gen,
            ..SpanRecord::new(
                create,
                0,
                SpanPhase::Create,
                0,
                self.create_start,
                commit_start,
            )
        });

        let mut max_dur = 0;
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            let stats = ckpt::commit_node(&mut self.nodes[i], &self.cfg.ft, self.engine.timing());
            max_dur = max_dur.max(stats.duration);
            let id = self.spans.alloc_id();
            let end = commit_start + stats.duration;
            self.spans.push(SpanRecord::new(
                id,
                create,
                SpanPhase::Commit,
                i as u16,
                commit_start,
                end,
            ));
            if self.proc[i] == ProcState::Paused {
                // This processor was stopped from the establishment start
                // until its own commit scan finished.
                self.metrics.per_node[i].ckpt_stall_cycles +=
                    (commit_start - self.ckpt_start) + stats.duration;
                let node = self.nodes[i].id;
                self.resume_paused(node, stats.duration);
            }
        }
        self.metrics.t_commit += max_dur;

        // The recovery point includes the processor (stream) state, plus
        // any reference already emitted into an issue buffer but not yet
        // executed — the stream snapshot counts it as consumed, so only
        // this side record can resurrect it after a rollback.
        self.snapshots = self.streams.iter().map(NodeStream::snapshot).collect();
        self.pending_snap = vec![None; self.streams.len()];
        for p in self.pending_ref.iter().flatten() {
            self.pending_snap[p.0] = Some(p.1);
        }
        // The committed-value oracle is always maintained (not just under
        // `verify`): the restartable-recovery copy audit needs it to
        // certify data loss on any machine.
        self.rebuild_oracle();

        self.phase = Phase::Running;
        let period = self.period();
        let next = (self.ckpt_start + period).max(commit_start + 1);
        self.schedule_timer(next - self.queue.now());
    }

    fn resume_paused(&mut self, node: NodeId, delay: Cycles) {
        debug_assert_eq!(self.proc[node.index()], ProcState::Paused);
        self.prepare_and_schedule(node, delay, self.pending_ref[node.index()].is_none());
    }

    fn period(&self) -> Cycles {
        self.cfg
            .ft
            .ckpt_period_cycles()
            .expect("timer only runs with FT enabled")
    }

    fn schedule_timer(&mut self, delay: Cycles) {
        debug_assert!(!self.timer_in_queue, "one checkpoint timer at a time");
        self.queue
            .schedule(self.queue.now() + delay, Event::CkptTimer);
        self.timer_in_queue = true;
    }

    /// The continuous fault process has events due: apply every due
    /// action through the same machinery the scripted APIs use, then arm
    /// the next tick. A failure that cannot be applied (its node is still
    /// down, or the ECP's four-node floor would be breached) is deferred
    /// by a fresh MTBF draw instead of being forced.
    fn on_fault_tick(&mut self) {
        let now = self.queue.now();
        let Some(mut fp) = self.fault_process.take() else {
            return;
        };
        for action in fp.fire(now) {
            if self.halted {
                break;
            }
            match action {
                FaultAction::FailNode(node) => {
                    // A draw landing inside an open recovery window fires
                    // like any other: recovery is restartable, so the soak
                    // exercises the nested-fault regime instead of
                    // deferring around it (which skewed the sampled
                    // distribution). Only structural guards defer — the
                    // node is already down, the ECP's four-live-node
                    // establishment floor, or a kill that would partition
                    // the live mesh.
                    if !self.nodes[node.index()].alive
                        || self.ring.alive_count() <= usize::from(ECP_MIN_NODES)
                        || !self.kill_keeps_mesh_connected(node)
                    {
                        fp.defer_node_fail(node, now);
                    } else {
                        self.on_failure(node, FailureKind::Permanent);
                    }
                }
                FaultAction::RepairNode(node) => self.on_repair_request(node),
                FaultAction::CutLink(a, b) => {
                    self.trace_event(SpanPhase::LinkCut, a, "", b.index() as u64);
                    self.mesh.fail_link(a, b);
                }
                FaultAction::RepairLink(a, b) => {
                    self.trace_event(SpanPhase::LinkRepaired, a, "", b.index() as u64);
                    self.mesh.repair_link(a, b);
                }
            }
        }
        if !self.halted {
            if let Some(at) = fp.next_at() {
                self.queue.schedule(at.max(now + 1), Event::FaultTick);
            }
        }
        self.fault_process = Some(fp);
    }

    /// Whether the grid of live mesh routers stays connected after
    /// `victim` dies. A permanent failure takes the router down with the
    /// node, and the continuous fault process may hold several nodes down
    /// at once — but it must never partition the live machine: on a
    /// healthy-link fabric every live pair must stay routable (the
    /// fire-and-forget send path treats an unroutable live destination as
    /// a protocol violation). Cut links are deliberately ignored here:
    /// when the link process is active the reliable transport is too, and
    /// it escalates residual partitions instead of asserting.
    fn kill_keeps_mesh_connected(&self, victim: NodeId) -> bool {
        if self.cfg.bus.is_some() {
            return true; // a bus has no routers to lose
        }
        self.mesh_single_component(|i| self.nodes[i].alive && i != victim.index())
    }

    /// Whether the nodes selected by `up` form one mesh-connected
    /// component (grid adjacency, links assumed healthy — see the caller
    /// docs for why cut links are ignored).
    fn mesh_single_component(&self, up: impl Fn(usize) -> bool) -> bool {
        let n = self.nodes.len();
        let Some(start) = (0..n).find(|&i| up(i)) else {
            return false;
        };
        let geo = ftcoma_net::MeshGeometry::for_nodes(n);
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(i) = stack.pop() {
            let (x, y) = geo.coords(NodeId::new(i as u16));
            for (j, seen_j) in seen.iter_mut().enumerate() {
                if !*seen_j && up(j) {
                    let (bx, by) = geo.coords(NodeId::new(j as u16));
                    if x.abs_diff(bx) + y.abs_diff(by) == 1 {
                        *seen_j = true;
                        stack.push(j);
                    }
                }
            }
        }
        (0..n).filter(|&i| up(i)).all(|i| seen[i])
    }

    /// Whether rejoining `node` leaves every live router (including the
    /// rejoined one) in a single mesh component. The dual of
    /// [`Self::kill_keeps_mesh_connected`]: the continuous fault process
    /// may ask for a repair while all of the node's grid neighbours are
    /// still down, and granting it would create a live-but-unroutable
    /// node. Cut links are ignored for the same reason as on the kill
    /// side.
    fn rejoin_reaches_mesh(&self, node: NodeId) -> bool {
        if self.cfg.bus.is_some() {
            return true;
        }
        self.mesh_single_component(|i| self.nodes[i].alive || i == node.index())
    }

    fn on_repair_request(&mut self, node: NodeId) {
        if self.nodes[node.index()].alive {
            return; // nothing to repair
        }
        if self.phase != Phase::Running
            || self.pending_repair.is_some()
            || !self.rejoin_reaches_mesh(node)
        {
            // Let the current checkpoint/recovery finish first — or, under
            // the continuous fault process, wait until a mesh neighbour is
            // back up: rejoining a node every live router is dead to would
            // make it live but unroutable.
            self.queue.schedule_in(10_000, Event::Repair { node });
            return;
        }
        // Drain in-flight transactions (home responsibility is about to
        // move), then perform the rejoin at quiescence.
        self.phase = Phase::Draining;
        self.pending_repair = Some(node);
        for i in 0..self.nodes.len() {
            if self.proc[i] == ProcState::Ready {
                self.proc[i] = ProcState::Paused;
                self.epochs[i] += 1;
            }
        }
        self.try_begin_create();
    }

    /// Performs the rejoin at quiescence: fresh node, ring membership,
    /// home-range migration back, and reclaiming its share of the work.
    fn do_repair(&mut self, node: NodeId) {
        let i = node.index();
        self.mesh.repair_node(node);
        self.ring.mark_alive(node);
        self.nodes[i] = NodeState::new(node, self.cfg.am, self.cfg.cache);
        self.engine.reset_node(node);
        self.proc[i] = ProcState::Paused;
        self.pending_ref[i] = None;

        // The statically assigned home range returns to the repaired node.
        recovery::rebuild_homes_from_owners(&mut self.nodes, &self.ring);

        // Reclaim the node's own stream from whoever adopted it (any
        // rollback-re-injected reference of that stream follows it home).
        for other in 0..self.nodes.len() {
            if other != i {
                self.assigned[other].retain(|&s| s != i);
                while let Some(pos) = self.carryover[other].iter().position(|&(s, _)| s == i) {
                    let moved = self.carryover[other].remove(pos).expect("position exists");
                    self.carryover[i].push_back(moved);
                }
            }
        }
        if !self.assigned[i].contains(&i) {
            self.assigned[i].push(i);
        }
        // Shrunk lists keep their round-robin cursor in range, so
        // `next_ref_for` can step it with a subtract instead of `% k`.
        for (rr, streams) in self.rr.iter_mut().zip(&self.assigned) {
            *rr %= streams.len().max(1);
        }
        self.metrics.repairs += 1;
        self.metrics.per_node[i].repairs += 1;
        if let Some(from) = self.down_since[i].take() {
            self.metrics.per_node[i].down_cycles += self.queue.now() - from;
            self.metrics.down_intervals[i].push((from, self.queue.now()));
        }
        self.trace_event(SpanPhase::Repaired, node, "", 0);

        self.phase = Phase::Running;
        for k in 0..self.nodes.len() {
            if self.proc[k] == ProcState::Paused || self.proc[k] == ProcState::Done {
                // Done nodes may have new work (the repaired node); Paused
                // ones simply resume.
                let id = self.nodes[k].id;
                self.proc[k] = ProcState::Paused;
                self.resume_paused(id, 1);
            }
        }
    }

    fn on_failure(&mut self, node: NodeId, kind: FailureKind) {
        if !self.nodes[node.index()].alive {
            return;
        }
        // A fault inside an open recovery window *restarts* recovery: the
        // in-flight reconfiguration (and its purged re-replication
        // traffic) is abandoned, the new victim joins the failure set and
        // the whole pipeline re-enters from the on-node committed state.
        // Every step below is idempotent against a half-applied
        // predecessor — rollback skips already-restored copies, the dedup
        // pass collapses double-installed recovery copies, and orphan
        // collection counts live copies rather than trusting pointers —
        // so a restart never double-applies partner migration or orphan
        // re-replication. The only fault that cannot be absorbed is a
        // certified data loss, caught by the copy audit further down.
        let was_recovering = self.phase == Phase::Recovering;
        if was_recovering {
            let abandoned = self.queue.now() - self.recovery_start;
            self.metrics.recovery_restarts += 1;
            self.metrics.phases.restart.record(abandoned);
            // The abandoned window is recovery time too; `finish_recovery`
            // only accounts from the *latest* restart.
            self.metrics.t_recovery += abandoned;
        }
        self.metrics.failures += 1;
        self.episode_faults += 1;
        self.metrics.recovery_max_depth = self.metrics.recovery_max_depth.max(self.episode_faults);
        self.recovery_start = self.queue.now();
        let permanent = kind == FailureKind::Permanent;
        self.trace_event(SpanPhase::Failure, node, "", u64::from(permanent));
        if was_recovering {
            let depth = self.episode_faults;
            self.trace_event(SpanPhase::RecoveryRestarted, node, "", depth);
        }
        // A failure inside a replay window ends that window early. The
        // window can open in the *future* (a recovery end pushed past the
        // failure event by the rollback scan); such a window never opened,
        // so it is discarded without a sample (a clamped zero would
        // pollute the replay p50).
        if let Some(start) = self.replay_start.take() {
            if self.recovery_start >= start {
                self.metrics
                    .phases
                    .replay
                    .record(self.recovery_start - start);
            }
        }
        // Detection is immediate under the fail-stop model; the zero-width
        // sample keeps the phase present in the decomposition.
        self.metrics.phases.detection.record(0);
        self.note_down(node);
        if self.spans.enabled() {
            let now = self.queue.now();
            // In-flight transactions are about to be aborted by the purge.
            self.close_open_txn_spans(now);
            // Close a stale recovery tree (failure during a replay window).
            if let Some((rid, rstart, victim)) = self.open_recovery.take() {
                if let Some((id, start)) = self.open_replay.take() {
                    self.spans.push(SpanRecord::new(
                        id,
                        rid,
                        SpanPhase::Replay,
                        victim,
                        start.min(now),
                        now,
                    ));
                }
                self.spans.push(SpanRecord::new(
                    rid,
                    0,
                    SpanPhase::Recovery,
                    victim,
                    rstart,
                    now,
                ));
            }
            let root = self.spans.alloc_id();
            self.open_recovery = Some((root, now, node.index() as u16));
            let det = self.spans.alloc_id();
            self.spans.push(SpanRecord::new(
                det,
                root,
                SpanPhase::Detection,
                node.index() as u16,
                now,
                now,
            ));
        }

        // 1. Every in-flight message and scheduled processor issue is moot
        //    (scheduled interconnect faults survive: the mesh keeps its own
        //    fate regardless of node-level recovery). The transport loses
        //    all its packets with the network, so its state resets too.
        self.queue.retain(|e| {
            matches!(
                e,
                Event::CkptTimer
                    | Event::Failure { .. }
                    | Event::Repair { .. }
                    | Event::LinkCut { .. }
                    | Event::RouterDown { .. }
                    | Event::FaultTick
            )
        });
        // A repair that was draining toward quiescence when this failure
        // hit would otherwise be lost for good (the phase leaves Draining
        // and `pending_repair` is only consumed at quiescence), wedging
        // every later repair of the run behind it: re-queue it as a fresh
        // request once recovery is over.
        if let Some(r) = self.pending_repair.take() {
            self.queue.schedule_in(10_000, Event::Repair { node: r });
        }
        self.deliver_pending = 0;
        self.in_flight.clear();
        for s in &mut self.seqs {
            s.clear();
        }
        for d in &mut self.dedup {
            d.clear();
        }
        for i in 0..self.nodes.len() {
            self.epochs[i] += 1;
            self.pending_ref[i] = None;
        }

        // 2. The failed node. A permanent loss takes its mesh router down
        //    with it, so subsequent traffic detours around the dead node
        //    instead of flowing through a ghost router.
        if permanent {
            self.mesh.fail_node(node);
            self.ring.mark_dead(node);
            recovery::wipe_dead_node(&mut self.nodes[node.index()]);
            self.proc[node.index()] = ProcState::Dead;
            // Its work is adopted by the ring successor.
            let heir = self.ring.successor(node).expect("a live node remains");
            let work = std::mem::take(&mut self.assigned[node.index()]);
            self.assigned[heir.index()].extend(work);
        }

        // 3. Global rollback on every live node.
        let mut max_scan = 0;
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            let stats = recovery::rollback_node(&mut self.nodes[i], self.engine.timing());
            max_scan = max_scan.max(stats.duration);
            let id = self.nodes[i].id;
            self.metrics.per_node[i].rollback_cycles += stats.duration;
            self.metrics.phases.rollback.record(stats.duration);
            if self.spans.enabled() {
                if let Some((root, _, _)) = self.open_recovery {
                    let sid = self.spans.alloc_id();
                    self.spans.push(SpanRecord::new(
                        sid,
                        root,
                        SpanPhase::Rollback,
                        i as u16,
                        self.recovery_start,
                        self.recovery_start + stats.duration,
                    ));
                }
            }
            self.engine.reset_node(id);
            if self.proc[i] != ProcState::Dead {
                self.proc[i] = ProcState::Paused;
            }
        }
        self.recovery_scan_end = self.recovery_start + max_scan;

        for c in &mut self.refs_since_barrier {
            *c = 0;
        }

        // 4. Recovery copies that were mid-injection exist twice (origin
        //    and destination); keep one of each and mend partner pointers.
        recovery::dedup_recovery_copies(&mut self.nodes);

        // 4b. Per-item copy accounting: recovery can restart as long as
        //     every *written* committed item retains at least one live
        //     copy. A certified zero-copy written item is unreconstructible
        //     — halt fail-stop. Never-written committed items (value 0)
        //     that lost every copy are dropped from the oracle instead:
        //     the machine recreates them on first touch, exactly like
        //     items annihilated by a pre-first-commit rollback.
        let audit = recovery::audit_copies(
            &self.nodes,
            self.committed_values.iter().map(|(&i, &v)| (i, v)),
        );
        if let Some(&item) = audit.lost.first() {
            self.metrics.faults_unsurvivable += 1;
            self.outcome = RecoveryOutcome::UnrecoverableDataLoss {
                at: self.queue.now(),
                item,
            };
            self.halt();
            return;
        }
        for item in &audit.droppable {
            self.committed_values.remove(item);
        }

        // 5. Processor state (streams) rewinds to the recovery point, and
        //    references that sat in an issue buffer when that recovery
        //    point was taken are re-injected: the restored streams will
        //    never re-emit them. Each goes to whichever live node now
        //    executes its stream (the ring heir after an adoption).
        for (stream, snap) in self.streams.iter_mut().zip(&self.snapshots) {
            stream.restore(snap);
        }
        for q in &mut self.carryover {
            q.clear();
        }
        for (si, buffered) in self.pending_snap.iter().enumerate() {
            if let Some(r) = buffered {
                let owner = (0..self.nodes.len())
                    .find(|&p| self.proc[p] != ProcState::Dead && self.assigned[p].contains(&si));
                if let Some(p) = owner {
                    self.carryover[p].push_back((si, *r));
                }
            }
        }

        // 5. Reconfiguration: re-replicate orphaned recovery copies, then
        //    rebuild the localization pointers from the surviving primaries.
        //    Orphans are found by counting live copies per item rather than
        //    chasing partner pointers: a pointer can be stale when the
        //    failure purged an in-flight `PartnerUpdate` of a copy that had
        //    just migrated, and a stale pointer must not hide an orphan.
        //    A restart re-runs the census even for a transient victim: the
        //    abandoned recovery's re-replication traffic was purged above,
        //    so items it had not yet re-paired are still singletons.
        let orphan_lists: Vec<(NodeId, Vec<ItemId>)> = if permanent || was_recovering {
            recovery::collect_singleton_orphans(&mut self.nodes)
        } else {
            Vec::new()
        };
        recovery::rebuild_homes(&mut self.nodes, &self.ring);

        self.phase = Phase::Recovering;
        self.reconfig_done = 0;
        self.reconfig_expected = orphan_lists.len();
        for (id, orphans) in orphan_lists {
            let mut ctx = Ctx::new(&self.ring, self.queue.now());
            self.engine
                .begin_reconfig(&mut self.nodes[id.index()], orphans, &mut ctx);
            let (out, effects) = ctx.finish();
            self.apply_outgoing(id, out);
            self.apply_effects(id, effects);
        }
        if self.reconfig_expected == 0 && self.deliver_pending == 0 {
            self.finish_recovery();
        }
    }

    /// Opens a down interval for `node` (availability accounting).
    fn note_down(&mut self, node: NodeId) {
        let i = node.index();
        self.metrics.per_node[i].down_count += 1;
        if self.down_since[i].is_none() {
            self.down_since[i] = Some(self.queue.now());
        }
    }

    fn finish_recovery(&mut self) {
        debug_assert_eq!(self.phase, Phase::Recovering);
        let end = self.queue.now().max(self.recovery_scan_end);
        self.metrics.t_recovery += end - self.recovery_start;
        self.metrics
            .phases
            .reconfiguration
            .record(end - self.recovery_start);

        if self.cfg.verify {
            if let Err(problems) = self.verify_against_oracle() {
                self.outcome = RecoveryOutcome::InvariantViolation { at: end, problems };
                self.halt();
                return;
            }
        }

        // The whole episode is survived at once: a restarted recovery
        // covers every fault folded into it.
        self.metrics.faults_survived += self.episode_faults;
        self.episode_faults = 0;
        // Surviving (transient) victims come back up when the machine
        // resumes; permanently failed nodes stay down until repair.
        for i in 0..self.nodes.len() {
            if self.nodes[i].alive {
                if let Some(from) = self.down_since[i].take() {
                    self.metrics.per_node[i].down_cycles += end - from;
                    self.metrics.down_intervals[i].push((from, end));
                }
            }
        }
        self.replay_start = Some(end);
        if self.spans.enabled() {
            if let Some((root, _, victim)) = self.open_recovery {
                let id = self.spans.alloc_id();
                self.spans.push(SpanRecord::new(
                    id,
                    root,
                    SpanPhase::Reconfiguration,
                    victim,
                    self.recovery_start,
                    end,
                ));
                let rid = self.spans.alloc_id();
                self.open_replay = Some((rid, end));
            }
        }
        self.phase = Phase::Running;
        let delay = end - self.queue.now();
        for i in 0..self.nodes.len() {
            if self.proc[i] == ProcState::Paused {
                let id = self.nodes[i].id;
                self.resume_paused(id, delay);
            }
        }
        if self.cfg.ft.ckpt_period_cycles().is_some() && !self.timer_in_queue && !self.all_done() {
            self.schedule_timer(delay + self.period());
        }
    }

    /// Stops the event loop: drains the queue so [`Machine::run`] exits at
    /// the current simulation time with the terminal outcome recorded.
    fn halt(&mut self) {
        debug_assert!(
            !self.outcome.is_recovered(),
            "halt needs a terminal outcome"
        );
        self.halted = true;
        self.queue.clear();
        self.deliver_pending = 0;
        self.timer_in_queue = false;
    }

    fn rebuild_oracle(&mut self) {
        self.committed_values.clear();
        for ns in self.nodes.iter().filter(|n| n.alive) {
            for (item, slot) in ns.am.iter_present() {
                if slot.state == ItemState::SharedCk1 {
                    self.committed_values.insert(item, slot.value);
                }
            }
        }
    }

    fn apply_outgoing(&mut self, from: NodeId, out: Vec<ftcoma_protocol::msg::Outgoing>) {
        for o in out {
            let depart = self.queue.now() + o.delay;
            if !self.transport_active || o.to == from {
                // Fire-and-forget: either no interconnect faults are in
                // play, or the message never leaves the node (node-local
                // deliveries need no end-to-end framing). A send can only
                // fail once a mesh fault has removed the route, in which
                // case the destination must already be a dead node whose
                // router died with it; the dead node would have swallowed
                // the message anyway.
                match self
                    .mesh
                    .send(depart, from, o.to, o.msg.class(), o.msg.payload_bytes())
                {
                    Ok(arrival) => {
                        self.record_hop_spans(&o.msg, o.to);
                        self.queue.schedule(
                            arrival,
                            Event::Deliver {
                                to: o.to,
                                msg: o.msg,
                                sent: depart,
                            },
                        );
                        self.deliver_pending += 1;
                    }
                    Err(_) => {
                        debug_assert!(
                            !self.nodes[o.to.index()].alive,
                            "unroutable destination {} is alive",
                            o.to
                        );
                        self.metrics.net_dropped_msgs += 1;
                    }
                }
                continue;
            }
            // Reliable transport: sequence the packet, remember it until
            // acked, and let the retry timer repair whatever the network
            // does to it. `deliver_pending` counts logical messages, so it
            // rises exactly once here no matter how many copies fly.
            let seq = self.seqs[from.index()].next(o.to);
            self.deliver_pending += 1;
            self.in_flight.insert(
                (from, o.to, seq),
                InFlight {
                    msg: o.msg,
                    attempts: 0,
                    sent: depart,
                },
            );
            self.transmit(depart, from, o.to, seq);
        }
    }

    /// Sends one physical copy of in-flight packet `(src, dst, seq)` and
    /// arms its retransmission timer. The fault plan may drop, duplicate
    /// or delay the copy; an unroutable destination counts as a drop (the
    /// retry timer escalates if the route never comes back).
    fn transmit(&mut self, depart: Cycles, src: NodeId, dst: NodeId, seq: u64) {
        let entry = &self.in_flight[&(src, dst, seq)];
        let attempt = entry.attempts;
        let (class, bytes) = (entry.msg.class(), entry.msg.payload_bytes());
        let (mut copies, mut extra_delay) = (1, 0);
        if let Some(plan) = &mut self.net_plan {
            match plan.decide(depart) {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => copies = 0,
                FaultDecision::Duplicate => copies = 2,
                FaultDecision::Delay(d) => extra_delay = d,
            }
        }
        if copies == 0 {
            self.metrics.net_dropped_msgs += 1;
        }
        for _ in 0..copies {
            match self.mesh.send(depart, src, dst, class, bytes) {
                Ok(arrival) => {
                    // Clone only per physical copy scheduled (the stored
                    // packet must stay in `in_flight` for retransmission).
                    let msg = self.in_flight[&(src, dst, seq)].msg.clone();
                    if attempt == 0 {
                        self.record_hop_spans(&msg, dst);
                    }
                    self.queue.schedule(
                        arrival + extra_delay,
                        Event::NetDeliver {
                            src,
                            to: dst,
                            seq,
                            msg,
                        },
                    );
                }
                Err(_) => {
                    self.metrics.net_dropped_msgs += 1;
                    break;
                }
            }
        }
        self.queue.schedule(
            depart + self.cfg.retry.backoff(attempt),
            Event::NetRetry { src, dst, seq },
        );
    }

    /// A physical copy of `(src, seq)` reached `to`: ack it, and hand the
    /// payload to the protocol engine iff this is its first arrival.
    fn on_net_deliver(&mut self, src: NodeId, to: NodeId, seq: u64, msg: Msg) {
        if !self.nodes[to.index()].alive {
            return; // purged-queue stragglers only; nothing was counted
        }
        // Ack every copy: the sender keeps retransmitting until an ack
        // survives the network, so duplicates must re-ack too.
        self.send_ack(to, src, seq);
        if !self.dedup[to.index()].first_delivery(src, seq) {
            return; // duplicate suppressed
        }
        self.deliver_pending -= 1;
        self.trace_event(SpanPhase::Delivery, to, msg.kind(), msg.item().index());
        let sent = self
            .in_flight
            .get(&(src, to, seq))
            .map(|e| e.sent)
            .unwrap_or_else(|| self.queue.now());
        self.record_leg(to, &msg, sent);
        let mut ctx = Ctx::new(&self.ring, self.queue.now());
        self.engine
            .handle(&mut self.nodes[to.index()], msg, &mut ctx);
        let (out, effects) = ctx.finish();
        self.apply_outgoing(to, out);
        self.apply_effects(to, effects);
    }

    /// Sends a transport ack from `from` back to `to` for `(to, from, seq)`.
    /// Acks are header-only reply-class packets, subject to the fault plan
    /// but never retried themselves: a lost ack is repaired by the data
    /// packet's retransmission, which triggers a fresh ack.
    fn send_ack(&mut self, from: NodeId, to: NodeId, seq: u64) {
        let now = self.queue.now();
        let (mut copies, mut extra_delay) = (1, 0);
        if let Some(plan) = &mut self.net_plan {
            match plan.decide(now) {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => copies = 0,
                FaultDecision::Duplicate => copies = 2,
                FaultDecision::Delay(d) => extra_delay = d,
            }
        }
        if copies == 0 {
            self.metrics.net_dropped_msgs += 1;
        }
        for _ in 0..copies {
            match self.mesh.send(now, from, to, NetClass::Reply, 0) {
                Ok(arrival) => {
                    self.queue.schedule(
                        arrival + extra_delay,
                        Event::NetAck {
                            src: to,
                            dst: from,
                            seq,
                        },
                    );
                }
                Err(_) => {
                    self.metrics.net_dropped_msgs += 1;
                    break;
                }
            }
        }
    }

    /// The retransmission timer for `(src, dst, seq)` fired. If the ack
    /// already arrived this is a no-op; otherwise retransmit with doubled
    /// timeout, or escalate once the retry budget is spent.
    fn on_net_retry(&mut self, src: NodeId, dst: NodeId, seq: u64) {
        let Some(entry) = self.in_flight.get_mut(&(src, dst, seq)) else {
            return; // acked in time
        };
        self.metrics.net_timeouts += 1;
        if entry.attempts >= self.cfg.retry.max_retries {
            self.in_flight.remove(&(src, dst, seq));
            self.escalate(src, dst);
            return;
        }
        entry.attempts += 1;
        self.metrics.net_retries += 1;
        let now = self.queue.now();
        self.transmit(now, src, dst, seq);
    }

    /// The transport gave up on `dst` after the policy's retry budget
    /// ([`MachineConfig::retry`]): decide what
    /// that means for the machine. A peer that is still routable looks
    /// dead, so the single-failure machinery handles it. If the mesh is
    /// severed, the largest connected component of live nodes (ties broken
    /// towards the one holding the lowest node id) carries on and treats
    /// the endpoints outside it as failed; when neither endpoint is in the
    /// majority component, no side can safely reconfigure and the machine
    /// halts fail-stop with [`RecoveryOutcome::PartitionedNetwork`].
    fn escalate(&mut self, src: NodeId, dst: NodeId) {
        if self.mesh.reachable(src, dst) {
            // Pure message loss: the peer is unresponsive, not unreachable.
            self.on_failure(dst, FailureKind::Permanent);
            return;
        }
        let live: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.id)
            .collect();
        let mut best: Vec<NodeId> = Vec::new();
        let mut assigned = vec![false; self.nodes.len()];
        for &n in &live {
            if assigned[n.index()] {
                continue;
            }
            let comp: Vec<NodeId> = live
                .iter()
                .copied()
                .filter(|&m| self.mesh.reachable(n, m))
                .collect();
            for &m in &comp {
                assigned[m.index()] = true;
            }
            // First strictly-larger component wins; iteration order is by
            // ascending node id, so ties resolve to the lowest-id one.
            if comp.len() > best.len() {
                best = comp;
            }
        }
        let src_in = best.contains(&src);
        let dst_in = best.contains(&dst);
        match (src_in, dst_in) {
            (true, false) => self.on_failure(dst, FailureKind::Permanent),
            (false, true) => self.on_failure(src, FailureKind::Permanent),
            _ => {
                self.outcome = RecoveryOutcome::PartitionedNetwork {
                    at: self.queue.now(),
                    from: src,
                    to: dst,
                };
                self.halt();
            }
        }
    }

    fn apply_effects(&mut self, node: NodeId, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::Resume { latency } => {
                    let epoch = self.epochs[node.index()];
                    self.queue
                        .schedule(self.queue.now() + latency, Event::Resume { node, epoch });
                }
                Effect::CreateDone => self.create_done += 1,
                Effect::ReconfigDone => self.reconfig_done += 1,
                Effect::InjectionStarted { cause } => {
                    let counted = match cause {
                        InjectCause::Replacement => {
                            self.metrics.injections_replacement += 1;
                            true
                        }
                        InjectCause::ReadOnInvCk => {
                            self.metrics.injections_on_read += 1;
                            true
                        }
                        InjectCause::WriteOnInvCk => {
                            self.metrics.injections_write_inv_ck += 1;
                            true
                        }
                        InjectCause::WriteOnSharedCk => {
                            self.metrics.injections_write_shared_ck += 1;
                            true
                        }
                        _ => false,
                    };
                    if counted {
                        self.metrics.per_node[node.index()].injections += 1;
                    }
                }
                Effect::ReplicationBytes { bytes } => {
                    self.metrics.replication_bytes += bytes;
                    self.metrics.per_node[node.index()].replication_bytes += bytes;
                }
                Effect::ItemCheckpointed { reused_existing } => {
                    self.metrics.items_checkpointed += 1;
                    self.metrics.per_node[node.index()].items_checkpointed += 1;
                    if reused_existing {
                        self.metrics.reused_replicas += 1;
                    }
                }
                Effect::FatalNoSpace { item } => panic!(
                    "AM capacity exhausted: no node could host a copy of {item}; \
                     enlarge the AMs or shrink the working set (the paper reserves \
                     four irreplaceable pages per page to rule this out)"
                ),
            }
        }
    }
}

/// Every link of the mesh a machine of `n` nodes routes on: one entry per
/// undirected pair of mesh-adjacent node ids, ordered by ascending
/// `(low, high)` — the link universe the continuous fault process samples
/// cuts from.
fn mesh_links(n: usize) -> Vec<(NodeId, NodeId)> {
    let geo = ftcoma_net::MeshGeometry::for_nodes(n);
    let mut links = Vec::new();
    for i in 0..n {
        let (ax, ay) = geo.coords(NodeId::new(i as u16));
        for j in (i + 1)..n {
            let (bx, by) = geo.coords(NodeId::new(j as u16));
            if ax.abs_diff(bx) + ay.abs_diff(by) == 1 {
                links.push((NodeId::new(i as u16), NodeId::new(j as u16)));
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use ftcoma_core::FtConfig;
    use ftcoma_workloads::presets;

    fn small_ecp_config() -> MachineConfig {
        MachineConfig {
            nodes: 8,
            refs_per_node: 3_000,
            workload: presets::water(),
            ft: FtConfig::enabled(400.0),
            verify: true,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn dead_node_reports_peak_pages_and_zero_current() {
        let mut m = Machine::new(small_ecp_config());
        let victim = NodeId::new(2);
        m.schedule_failure(20_000, victim, FailureKind::Permanent);
        let metrics = m.run();
        assert!(m.outcome().is_recovered(), "run must survive the failure");
        assert_eq!(metrics.failures, 1, "the failure must fire mid-run");

        let dead = &metrics.per_node[victim.index()];
        assert_eq!(
            dead.pages_allocated, 0,
            "a permanently failed node holds no pages"
        );
        assert!(
            dead.pages_peak > 0,
            "the peak up to the failure must be reported, not dropped"
        );
        // The aggregates cover live nodes only; per-node rows must agree.
        let live_current: u64 = metrics
            .per_node
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim.index())
            .map(|(_, n)| n.pages_allocated)
            .sum();
        assert_eq!(metrics.pages_allocated, live_current);
        let live_peak: u64 = metrics
            .per_node
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim.index())
            .map(|(_, n)| n.pages_peak)
            .sum();
        assert_eq!(metrics.pages_peak, live_peak);
    }

    #[test]
    fn spans_decompose_transactions_and_recoveries() {
        let mut m = Machine::new(MachineConfig {
            trace_capacity: 100_000,
            ..small_ecp_config()
        });
        m.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());

        let spans = m.spans();
        assert!(!spans.is_empty());
        for s in &spans {
            assert!(s.end >= s.start, "span {s:?} ends before it starts");
            assert_ne!(s.id, 0);
        }
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == ftcoma_sim::span::SpanPhase::Transaction)
            .collect();
        assert!(!roots.is_empty(), "miss transactions must produce roots");
        // Every child points at a recorded parent of the right kind.
        let recovery_roots: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == ftcoma_sim::span::SpanPhase::Recovery)
            .collect();
        assert_eq!(recovery_roots.len(), 1, "one failure, one recovery root");
        let root = recovery_roots[0];
        for phase in [
            ftcoma_sim::span::SpanPhase::Detection,
            ftcoma_sim::span::SpanPhase::Rollback,
            ftcoma_sim::span::SpanPhase::Reconfiguration,
            ftcoma_sim::span::SpanPhase::Replay,
        ] {
            let children: Vec<_> = spans
                .iter()
                .filter(|s| s.phase == phase && s.parent == root.id)
                .collect();
            assert!(
                !children.is_empty(),
                "recovery must contain a {phase} child"
            );
            for c in children {
                assert!(c.start >= root.start && c.end <= root.end);
            }
        }
        // The always-on phase histograms saw the same decomposition.
        assert!(metrics.phases.dir_lookup.summary().count > 0);
        assert!(metrics.phases.data_reply.summary().count > 0);
        assert_eq!(metrics.phases.detection.summary().count, 1);
        assert!(metrics.phases.rollback.summary().count > 0);
        assert_eq!(metrics.phases.reconfiguration.summary().count, 1);
        assert_eq!(metrics.phases.replay.summary().count, 1);
    }

    /// The one trace stream carries the checkpoint and fault story of a
    /// nested-fault run: commit scans, rollback scans, failure and restart
    /// instants, and abandoned recoveries recognisable as such.
    #[test]
    fn trace_stream_records_checkpoints_faults_and_restarts() {
        use ftcoma_sim::span::SpanPhase;
        // 1000 rp/s: the permanent fault at 30k follows a commit, so its
        // reconfiguration re-replicates copies and stays open long enough
        // for the fault 50 cycles later to land inside it.
        let nodes = 9;
        let mut m = Machine::new(MachineConfig {
            nodes: nodes as u16,
            refs_per_node: 10_000,
            workload: presets::mp3d(),
            ft: FtConfig::enabled(1_000.0),
            trace_capacity: 1_000_000,
            ..small_ecp_config()
        });
        m.schedule_failure(30_000, NodeId::new(2), FailureKind::Permanent);
        m.schedule_failure(30_050, NodeId::new(5), FailureKind::Transient);
        m.schedule_failure(90_000, NodeId::new(6), FailureKind::Transient);
        let metrics = m.run();
        assert!(m.outcome().is_recovered(), "{}", m.outcome());
        assert_eq!(metrics.failures, 3);
        assert!(metrics.recovery_restarts >= 1, "the 30 050 fault must nest");
        let trace = m.spans();
        let of = |phase: SpanPhase| trace.iter().filter(move |s| s.phase == phase);
        let failures: Vec<_> = of(SpanPhase::Failure).collect();
        assert_eq!(failures.len() as u64, metrics.failures);
        assert_eq!(
            failures
                .iter()
                .map(|f| (f.start, f.node, f.arg))
                .collect::<Vec<_>>(),
            vec![(30_000, 2, 1), (30_050, 5, 0), (90_000, 6, 0)]
        );
        // Live nodes at `t`: all but the permanent victims failed by then.
        let live_at = |t: Cycles| {
            nodes
                - failures
                    .iter()
                    .filter(|f| f.arg == 1 && f.start <= t)
                    .count()
        };

        // One commit span per live node per checkpoint, parented to it.
        let creates: Vec<_> = of(SpanPhase::Create).collect();
        assert_eq!(creates.len() as u64, metrics.checkpoints);
        assert!(creates.len() >= 2);
        for c in &creates {
            let commits: Vec<_> = of(SpanPhase::Commit).filter(|s| s.parent == c.id).collect();
            assert_eq!(commits.len(), live_at(c.end), "checkpoint {}", c.arg);
            assert!(commits.iter().all(|s| s.start == c.end));
        }
        assert_eq!(
            creates.iter().map(|c| c.arg).collect::<Vec<_>>(),
            (1..=metrics.checkpoints).collect::<Vec<_>>(),
            "create spans carry consecutive generations"
        );

        // One rollback span per live node per fault.
        for f in &failures {
            let rollbacks = of(SpanPhase::Rollback)
                .filter(|s| s.start == f.start)
                .count();
            assert_eq!(rollbacks, live_at(f.start), "fault at {}", f.start);
        }

        // One restart instant per restart, naming the nested victim.
        let restarts: Vec<_> = of(SpanPhase::RecoveryRestarted).collect();
        assert_eq!(restarts.len() as u64, metrics.recovery_restarts);
        assert_eq!(
            (restarts[0].start, restarts[0].node, restarts[0].arg),
            (30_050, 5, 2)
        );

        // An abandoned recovery is a recovery root without a
        // reconfiguration child, closed by a restart.
        let abandoned: Vec<_> = of(SpanPhase::Recovery)
            .filter(|r| !of(SpanPhase::Reconfiguration).any(|c| c.parent == r.id))
            .collect();
        assert_eq!(abandoned.len(), restarts.len());
        for (r, x) in abandoned.iter().zip(&restarts) {
            assert_eq!(r.end, x.start);
        }
        assert_eq!(
            of(SpanPhase::Recovery).count(),
            failures.len(),
            "every fault opens a recovery root"
        );
    }

    #[test]
    fn availability_tracks_down_intervals() {
        let victim = NodeId::new(3);
        let mut m = Machine::new(small_ecp_config());
        m.schedule_failure(30_000, victim, FailureKind::Permanent);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        let i = victim.index();
        assert_eq!(metrics.per_node[i].down_count, 1);
        assert!(metrics.per_node[i].down_cycles > 0);
        assert_eq!(metrics.down_intervals[i].len(), 1);
        let (from, to) = metrics.down_intervals[i][0];
        assert_eq!(from, 30_000);
        assert_eq!(
            to, metrics.total_cycles,
            "a permanent failure stays down to the end of the run"
        );
        assert_eq!(metrics.per_node[i].down_cycles, to - from);
        assert!(metrics.availability() < 1.0);
        assert!(metrics.mttr_cycles() > 0.0);
        // Other nodes never went down.
        for (k, n) in metrics.per_node.iter().enumerate() {
            if k != i {
                assert_eq!(n.down_count, 0);
                assert!(metrics.down_intervals[k].is_empty());
            }
        }
    }

    #[test]
    fn transient_down_interval_closes_at_recovery_end() {
        let victim = NodeId::new(1);
        let mut m = Machine::new(small_ecp_config());
        m.schedule_failure(30_000, victim, FailureKind::Transient);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        let i = victim.index();
        assert_eq!(metrics.down_intervals[i].len(), 1);
        let (from, to) = metrics.down_intervals[i][0];
        assert_eq!(from, 30_000);
        assert!(
            to < metrics.total_cycles,
            "a transient victim comes back before the run ends"
        );
        assert_eq!(metrics.per_node[i].down_cycles, to - from);
    }

    #[test]
    fn timeseries_rows_are_sampled_and_monotone() {
        let mut m = Machine::new(MachineConfig {
            timeseries_every: 5_000,
            ..small_ecp_config()
        });
        m.schedule_failure(30_000, NodeId::new(2), FailureKind::Permanent);
        let metrics = m.run();
        let rows = m.timeseries();
        assert!(rows.len() > 2, "a multi-epoch run yields several samples");
        for w in rows.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].refs >= w[0].refs);
            assert_eq!(w[1].refs_delta, w[1].refs - w[0].refs);
        }
        assert!(rows.last().expect("nonempty").refs <= metrics.refs);
        // After the permanent failure every sample reports the node down.
        let post: Vec<_> = rows.iter().filter(|r| r.cycle > 30_000).collect();
        assert!(!post.is_empty());
        for r in post {
            assert_eq!(r.nodes_up, 7);
            assert_eq!(r.nodes_down, vec![2]);
        }
    }

    #[test]
    fn timeseries_thinning_keeps_memory_bounded() {
        let mut m = Machine::new(MachineConfig {
            timeseries_every: 1,
            refs_per_node: 2_000,
            ..small_ecp_config()
        });
        m.run();
        assert!(
            m.timeseries().len() < super::MAX_TS_ROWS,
            "thinning must hold the row count under the cap"
        );
        let rows = m.timeseries();
        for w in rows.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
        }
    }

    #[test]
    fn observability_sinks_do_not_change_metrics() {
        let quiet = Machine::new(small_ecp_config()).run();
        let mut m = Machine::new(MachineConfig {
            trace_capacity: 50_000,
            timeseries_every: 2_000,
            ..small_ecp_config()
        });
        let loud = m.run();
        assert_eq!(quiet, loud, "sinks must be pure observation");
        assert!(!m.spans().is_empty());
        assert!(!m.timeseries().is_empty());
    }

    #[test]
    fn live_nodes_report_pages_as_before() {
        let mut m = Machine::new(small_ecp_config());
        let metrics = m.run();
        for n in &metrics.per_node {
            assert!(n.pages_peak >= n.pages_allocated);
            assert!(n.pages_allocated > 0, "every live node touched pages");
        }
    }

    #[test]
    fn continuous_fault_process_cycles_failures_and_repairs() {
        let run = || {
            let mut m = Machine::new(MachineConfig {
                refs_per_node: 6_000,
                ..small_ecp_config()
            });
            m.install_fault_process(FaultProcessConfig {
                node_mtbf: 60_000,
                node_mttr: 10_000,
                link_mtbf: 80_000,
                link_mttr: 10_000,
                ..FaultProcessConfig::default()
            });
            let metrics = m.run();
            let progress = m.stream_progress();
            (metrics, m.outcome().clone(), m.check_invariants(), progress)
        };
        let (metrics, outcome, violations, progress) = run();
        assert!(
            metrics.failures >= 2 && metrics.repairs >= 1,
            "the process must drive fault/repair cycles (got {} failures, {} repairs)",
            metrics.failures,
            metrics.repairs
        );
        if outcome.is_recovered() {
            assert!(violations.is_empty(), "{violations:?}");
            assert_eq!(metrics.faults_survived, metrics.failures);
            assert_eq!(metrics.faults_unsurvivable, 0);
            // Every stream reached its quota despite the churn (metrics.refs
            // counts rollback re-execution too, so it only bounds below).
            assert!(progress.iter().all(|&p| p == 6_000));
            assert!(metrics.refs >= 8 * 6_000);
        } else {
            // Nested faults restart recovery instead of halting, so the
            // only unrecovered ends left are a certified data loss or a
            // network partition.
            assert!(matches!(
                outcome,
                RecoveryOutcome::UnrecoverableDataLoss { .. }
                    | RecoveryOutcome::PartitionedNetwork { .. }
            ));
            let expected = u64::from(matches!(
                outcome,
                RecoveryOutcome::UnrecoverableDataLoss { .. }
            ));
            assert_eq!(metrics.faults_unsurvivable, expected);
        }
        // The schedule is a pure function of the configuration.
        let again = run();
        assert_eq!((metrics, outcome, violations, progress), again);
    }

    #[test]
    fn fault_process_defers_below_the_four_node_floor() {
        let mut m = Machine::new(MachineConfig {
            nodes: 4,
            ..small_ecp_config()
        });
        // Aggressive MTBF on the smallest legal ECP machine: every sampled
        // failure must be deferred, never breaching the floor.
        m.install_fault_process(FaultProcessConfig {
            node_mtbf: 5_000,
            node_mttr: 1_000,
            ..FaultProcessConfig::default()
        });
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        assert_eq!(metrics.failures, 0, "the floor defers every failure");
        assert_eq!(metrics.refs, 4 * 3_000);
    }

    #[test]
    #[should_panic(expected = "no process enabled")]
    fn fault_process_rejects_an_empty_configuration() {
        let mut m = Machine::new(small_ecp_config());
        m.install_fault_process(FaultProcessConfig::default());
    }

    #[test]
    fn replay_window_opening_in_the_future_is_discarded_not_clamped() {
        // `finish_recovery` can open the replay window at a cycle past the
        // current event (the rollback scan end); if the run ends first,
        // the window never opened and must not contribute a sample.
        let mut m = Machine::new(small_ecp_config());
        m.run();
        let before = m.metrics().phases.replay.count();
        m.replay_start = Some(m.queue.now() + 10_000);
        m.finalize_observability();
        assert_eq!(
            m.metrics().phases.replay.count(),
            before,
            "a window that never opened must not record a zero-length sample"
        );
        // A window that did open still records normally.
        m.replay_start = Some(m.queue.now().saturating_sub(50));
        m.finalize_observability();
        assert_eq!(m.metrics().phases.replay.count(), before + 1);
    }

    #[test]
    fn nested_fault_before_the_replay_window_opens_records_no_zero_sample() {
        // Regression for the `saturating_sub` clamp: drive a real recovery
        // with `run_until` until `finish_recovery` has opened the replay
        // window at a *future* cycle, inject a nested fault inside that
        // gap, and check the aborted window contributes no (zero) sample —
        // only the second episode's commit-closed window is recorded.
        let mut m = Machine::new(small_ecp_config());
        m.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        m.run_until(20_001); // process the failure event
        while m.replay_start.is_none() {
            let t = m.queue.peek_time().expect("recovery still in flight");
            m.run_until(t + 1);
        }
        let window_opens = m.replay_start.expect("just observed");
        let now = m.queue.now();
        assert!(
            window_opens > now,
            "config must produce a future-opening window ({window_opens} vs {now})"
        );
        m.schedule_failure(now, NodeId::new(3), FailureKind::Transient);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        assert_eq!(metrics.failures, 2);
        assert_eq!(
            metrics.phases.replay.count(),
            1,
            "only the completed episode's replay window may be sampled"
        );
    }

    #[test]
    fn forked_run_report_matches_a_straight_run() {
        let cfg = small_ecp_config();
        let mut straight = Machine::new(cfg.clone());
        straight.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        let want = straight.run();

        // Fork: run an unfaulted prefix to the injection cycle, snapshot,
        // clone a machine off it, inject, finish.
        let mut prefix = Machine::new(cfg);
        prefix.run_until(20_000);
        let snap = prefix.snapshot();
        let mut fork = snap.to_machine();
        fork.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        let got = fork.run();
        assert_eq!(got, want, "forked report differs from the straight run");
        assert_eq!(fork.stream_progress(), straight.stream_progress());
        assert_eq!(fork.outcome(), straight.outcome());
        assert_eq!(fork.timeseries(), straight.timeseries());

        // The snapshot is reusable: a second fork replays identically too.
        let mut fork2 = snap.to_machine();
        fork2.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        assert_eq!(fork2.run(), want);
    }

    #[test]
    fn run_until_composes_into_an_uninterrupted_run() {
        let cfg = small_ecp_config();
        let mut straight = Machine::new(cfg.clone());
        straight.schedule_failure(15_000, NodeId::new(1), FailureKind::Permanent);
        straight.schedule_repair(60_000, NodeId::new(1));
        let want = straight.run();

        let mut stepped = Machine::new(cfg);
        stepped.schedule_failure(15_000, NodeId::new(1), FailureKind::Permanent);
        stepped.schedule_repair(60_000, NodeId::new(1));
        for limit in [1, 10_000, 15_000, 15_001, 40_000, 90_000] {
            stepped.run_until(limit);
        }
        assert_eq!(stepped.run(), want);
    }
}
