//! Per-layer replays: each layer's share of a machine run, measured by
//! driving that layer's public API in isolation with the run's own inputs
//! (generator), addresses (memory), geometry and message mix (mesh) or
//! calendar depth and delay mix (event queue).
//!
//! A replay's host time over the run's wall time is the layer's share;
//! `machine.other_share` is the rest (dispatch, `Engine::access`/`handle`
//! and message apply), so the split sums to 1 by construction.

use std::hint::black_box;

use ftcoma_machine::{MachineConfig, RunMetrics};
use ftcoma_mem::addr::ITEM_BYTES;
use ftcoma_mem::{AttractionMemory, Cache};
use ftcoma_net::{LinkReport, Mesh, MeshGeometry, NetClass};
use ftcoma_sim::{derive_seed, DetRng, EventQueue};
use ftcoma_workloads::{MemRef, NodeStream, RefStream};

use crate::spans::Tracer;

/// Most operations a sampled replay (queue, memory, mesh) performs; its
/// per-operation cost is scaled to the run's full count.
const SAMPLE_OPS: u64 = 400_000;

/// One complete fault-free machine run, as the layer split needs it.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// The run's configuration.
    pub cfg: MachineConfig,
    /// Simulated statistics (warmup excluded).
    pub metrics: RunMetrics,
    /// References each stream emitted, warmup included.
    pub progress: Vec<u64>,
    /// Host seconds of `Machine::run`.
    pub wall_s: f64,
    /// Absolute simulated cycle at which the run ended (warmup included).
    pub end_cycle: u64,
    /// Per-link traffic over the whole run.
    pub links: Vec<LinkReport>,
}

impl MachineRun {
    /// References simulated, warmup included.
    pub fn refs_total(&self) -> u64 {
        self.progress.iter().sum()
    }

    /// Factor from post-warmup counts to whole-run estimates.
    fn scale(&self) -> f64 {
        if self.metrics.refs == 0 {
            1.0
        } else {
            self.refs_total() as f64 / self.metrics.refs as f64
        }
    }

    /// Estimated calendar events over the whole run: one per reference,
    /// message, miss and checkpoint. An estimate: the machine does not
    /// expose its event count.
    pub fn events_estimate(&self) -> u64 {
        let m = &self.metrics;
        let per_run = (m.net_messages + m.read_misses + m.write_misses) as f64 * self.scale();
        self.refs_total() + per_run.round() as u64 + m.checkpoints
    }

    /// Estimated messages over the whole run.
    pub fn messages_estimate(&self) -> u64 {
        (self.metrics.net_messages as f64 * self.scale()).round() as u64
    }
}

/// The layer split of a set of runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    /// Host ns per schedule+pop pair at the runs' depth and delay mix.
    pub queue_ns_per_op: f64,
    /// Estimated calendar share of the runs' wall time.
    pub queue_share: f64,
    /// Estimated calendar events (see [`MachineRun::events_estimate`]).
    pub events_est: u64,
    /// Host ns per generated reference.
    pub gen_ns_per_ref: f64,
    /// Generator share of the runs' wall time.
    pub gen_share: f64,
    /// References the generator replay produced.
    pub gen_refs: u64,
    /// Host ns per local cache/AM probe.
    pub mem_ns_per_ref: f64,
    /// Estimated local-memory share of the runs' wall time.
    pub mem_share: f64,
    /// Host ns per `Mesh::send`.
    pub net_ns_per_msg: f64,
    /// Estimated mesh share of the runs' wall time.
    pub net_share: f64,
    /// Everything the replays do not cover: `1 - sum of the shares`.
    pub other_share: f64,
}

/// Replays every layer for every run and splits the runs' wall time.
pub fn split(runs: &[MachineRun], tracer: &mut Tracer) -> Split {
    let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    let (mut q_secs, mut q_ops, mut events) = (0.0, 0u64, 0u64);
    let (mut g_secs, mut g_refs) = (0.0, 0u64);
    let (mut m_secs, mut m_refs) = (0.0, 0u64);
    let (mut n_secs, mut n_msgs) = (0.0, 0u64);
    for (k, run) in runs.iter().enumerate() {
        let seed = derive_seed(run.cfg.seed, 0xbe9c + k as u64);

        let ev = run.events_estimate();
        let span = tracer.open("replay.sim.queue");
        let ns = replay_queue(ev, run.cfg.nodes as usize, run.end_cycle, seed);
        tracer.close(span);
        q_secs += ns * ev as f64 / 1e9;
        q_ops += ev;
        events += ev;

        let span = tracer.open("replay.workloads");
        let refs = replay_generator(&run.cfg, &run.progress);
        g_secs += tracer.close(span);
        g_refs += refs;

        let refs = run.refs_total();
        let span = tracer.open("replay.mem");
        let ns = replay_mem(&run.cfg, run.progress[0].min(SAMPLE_OPS));
        tracer.close(span);
        m_secs += ns * refs as f64 / 1e9;
        m_refs += refs;

        let msgs = run.messages_estimate();
        let span = tracer.open("replay.net");
        let ns = replay_net(run, msgs.min(SAMPLE_OPS), seed);
        tracer.close(span);
        n_secs += ns * msgs as f64 / 1e9;
        n_msgs += msgs;
    }
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let share = |secs: f64| if wall > 0.0 { secs / wall } else { 0.0 };
    let mut s = Split {
        queue_ns_per_op: per(q_secs, q_ops),
        queue_share: share(q_secs),
        events_est: events,
        gen_ns_per_ref: per(g_secs, g_refs),
        gen_share: share(g_secs),
        gen_refs: g_refs,
        mem_ns_per_ref: per(m_secs, m_refs),
        mem_share: share(m_secs),
        net_ns_per_msg: per(n_secs, n_msgs),
        net_share: share(n_secs),
        other_share: 0.0,
    };
    s.other_share = 1.0 - (s.queue_share + s.gen_share + s.mem_share + s.net_share);
    s
}

/// Regenerates every node's exact reference stream over the count it
/// emitted in the run; returns the references produced. The caller times
/// it.
pub fn replay_generator(cfg: &MachineConfig, progress: &[u64]) -> u64 {
    let mut streams: Vec<NodeStream> = (0..cfg.nodes)
        .map(|i| NodeStream::new(&cfg.workload, i, cfg.nodes, cfg.seed))
        .collect();
    let mut produced = 0;
    for (stream, &quota) in streams.iter_mut().zip(progress) {
        for _ in 0..quota {
            black_box(stream.next_ref());
        }
        produced += stream.refs_emitted();
    }
    produced
}

/// Host ns per reference of node 0's first `refs` addresses probed through
/// one node's cache and attraction memory: loads try the cache first, and
/// anything the cache does not serve looks up the AM state and fills the
/// line, as the local access path does.
pub fn replay_mem(cfg: &MachineConfig, refs: u64) -> f64 {
    let mut stream = NodeStream::new(&cfg.workload, 0, cfg.nodes, cfg.seed);
    let trace: Vec<MemRef> = (0..refs).map(|_| stream.next_ref()).collect();
    let mut cache = Cache::new(cfg.cache);
    let am = AttractionMemory::new(cfg.am);
    let start = std::time::Instant::now();
    for r in &trace {
        let line = r.addr.line();
        if !r.is_write && cache.probe(line) {
            continue;
        }
        black_box(am.state(r.addr.item()));
        if r.is_write && cache.probe(line) {
            cache.mark_dirty(line);
        } else {
            black_box(cache.fill(line, r.is_write));
        }
    }
    per_op_ns(start.elapsed().as_secs_f64(), trace.len() as u64)
}

/// Host ns per schedule+pop pair on a calendar holding `depth` pending
/// events (one per node), with delays drawn uniformly around the mean
/// that Little's law gives for `events` over `cycles`.
pub fn replay_queue(events: u64, depth: usize, cycles: u64, seed: u64) -> f64 {
    let ops = events.min(SAMPLE_OPS);
    let mean = (depth as u64 * cycles / events.max(1)).max(1);
    let mut rng = DetRng::seeded(seed);
    let delays: Vec<u64> = (0..ops + depth as u64)
        .map(|_| 1 + rng.below(2 * mean))
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, &d) in delays[..depth].iter().enumerate() {
        q.schedule(d, i as u32);
    }
    let start = std::time::Instant::now();
    for &d in &delays[depth..] {
        let (_, ev) = q.pop().expect("the calendar never drains");
        q.schedule_in(d, black_box(ev));
    }
    per_op_ns(start.elapsed().as_secs_f64(), ops)
}

/// Host ns per `Mesh::send` of `msgs` messages between random node pairs
/// on the run's geometry, paced at the run's mean message gap, with the
/// run's request/reply class mix and data-carrying share.
pub fn replay_net(run: &MachineRun, msgs: u64, seed: u64) -> f64 {
    let n = run.cfg.nodes;
    let m = &run.metrics;
    let (mut req, mut rep) = (0u64, 0u64);
    for l in &run.links {
        match l.class {
            NetClass::Request => req += l.stats.messages,
            NetClass::Reply => rep += l.stats.messages,
        }
    }
    let req_frac = if req + rep == 0 {
        0.5
    } else {
        req as f64 / (req + rep) as f64
    };
    let data =
        m.replication_bytes / ITEM_BYTES + m.read_misses + m.write_misses + m.injections_total();
    let data_frac = if m.net_messages == 0 {
        0.0
    } else {
        (data as f64 / m.net_messages as f64).min(1.0)
    };
    let gap = (run.end_cycle / run.messages_estimate().max(1)).max(1);

    let mut rng = DetRng::seeded(seed);
    let (req_t, data_t) = (DetRng::threshold(req_frac), DetRng::threshold(data_frac));
    let sends: Vec<(u16, u16, NetClass, u64)> = (0..msgs)
        .map(|_| {
            let src = rng.below(u64::from(n)) as u16;
            let dst = (src + 1 + rng.below(u64::from(n) - 1) as u16) % n;
            let class = if rng.chance_with(req_t) {
                NetClass::Request
            } else {
                NetClass::Reply
            };
            let bytes = if rng.chance_with(data_t) {
                ITEM_BYTES
            } else {
                0
            };
            (src, dst, class, bytes)
        })
        .collect();
    let mut mesh = Mesh::new(MeshGeometry::for_nodes(n as usize), run.cfg.net);
    let start = std::time::Instant::now();
    let mut now = 0;
    for &(src, dst, class, bytes) in &sends {
        let arrival = mesh.send(
            now,
            ftcoma_mem::NodeId::new(src),
            ftcoma_mem::NodeId::new(dst),
            class,
            bytes,
        );
        black_box(arrival.expect("a healthy mesh routes every message"));
        now += gap;
    }
    per_op_ns(start.elapsed().as_secs_f64(), msgs)
}

fn per_op_ns(secs: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        secs * 1e9 / ops as f64
    }
}
