//! Per-node memory-reference streams with checkpoint/rollback support.

use ftcoma_mem::addr::{Addr, ITEMS_PER_PAGE, ITEM_BYTES, LINE_BYTES, PAGE_BYTES};
use ftcoma_sim::rng::RngSnapshot;
use ftcoma_sim::DetRng;

use crate::presets::{SharingStyle, SplashConfig};
use crate::zipf::Zipf;

/// One memory reference, preceded by some non-memory instructions.
///
/// Batching the compute gap into the reference keeps the simulator's event
/// count proportional to memory references, not instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Non-memory instructions (1 cycle each) executed before this access.
    pub pre_cycles: u32,
    /// Store (`true`) or load (`false`).
    pub is_write: bool,
    /// Byte address accessed.
    pub addr: Addr,
    /// Whether the address lies in the shared region (for statistics).
    pub shared: bool,
}

/// A replayable stream of memory references.
///
/// Implementations must be deterministic functions of their construction
/// parameters and must support exact rewind via
/// [`snapshot`](RefStream::snapshot) / [`restore`](RefStream::restore):
/// after a restore, the stream re-produces the identical reference sequence.
/// This models re-execution from a recovery point.
pub trait RefStream {
    /// Produces the next memory reference.
    fn next_ref(&mut self) -> MemRef;

    /// Captures the complete stream state.
    fn snapshot(&self) -> StreamSnapshot;

    /// Rewinds to a previously captured state.
    fn restore(&mut self, snap: &StreamSnapshot);

    /// Total references produced so far (monotone between restores).
    fn refs_emitted(&self) -> u64;
}

/// Saved state of a [`RefStream`] implementation.
///
/// For [`NodeStream`] this captures the generator's full state; simpler
/// streams (e.g. trace replay) use the position-only constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSnapshot {
    rng: RngSnapshot,
    burst_item: u64,
    burst_left: u32,
    priv_frame: u64,
    priv_writes: u32,
    shr_frame: u64,
    shr_writes: u32,
    refs_emitted: u64,
}

impl StreamSnapshot {
    /// Snapshot for position-indexed streams (trace replay): stores only a
    /// cursor and the emission count.
    pub fn for_position(pos: u64, emitted: u64) -> Self {
        Self {
            rng: ftcoma_sim::DetRng::seeded(0).snapshot(),
            burst_item: pos,
            burst_left: 0,
            priv_frame: 0,
            priv_writes: 0,
            shr_frame: 0,
            shr_writes: 0,
            refs_emitted: emitted,
        }
    }

    /// The `(cursor, emitted)` pair of a position snapshot.
    pub fn position(&self) -> (u64, u64) {
        (self.burst_item, self.refs_emitted)
    }
}

/// The standard per-node stream implementing the four preset styles.
///
/// # Example
///
/// ```
/// use ftcoma_workloads::{presets, NodeStream, RefStream};
///
/// let cfg = presets::mp3d();
/// let mut s = NodeStream::new(&cfg, 3, 16, 99);
/// let snap = s.snapshot();
/// let a: Vec<_> = (0..100).map(|_| s.next_ref()).collect();
/// s.restore(&snap);
/// let b: Vec<_> = (0..100).map(|_| s.next_ref()).collect();
/// assert_eq!(a, b); // exact replay, as rollback requires
/// ```
#[derive(Debug, Clone)]
pub struct NodeStream {
    // Immutable configuration.
    node: u64,
    nodes: u64,
    shared_items: u64,
    private_base_page: u64,
    private_items: u64,
    window: u64,
    drift_period: u32,
    style: SharingStyle,
    shared_zipf: Zipf,
    panel_zipf: Option<Zipf>,
    /// Width of one node's slice of the shared items (see `own_slice`).
    slice_items: u64,
    /// `[lo, lo + span)`: the shared items this node's windowed stores
    /// land in. Fixed per node, so `shr_frame < span` always holds.
    write_lo: u64,
    write_span: u64,
    // Precomputed `DetRng::threshold`s for the per-reference Bernoulli
    // draws (bit-identical to the `chance(p)` forms, minus the per-call
    // float work — this path runs once per simulated reference).
    mem_t: u64,
    write_t: u64,
    shared_read_t: u64,
    shared_write_t: u64,
    priv_hot_t: u64,
    /// The style's own draw in `pick_shared_item`: Blocked's own-panel
    /// read (0.55), HotSpot's `hot_prob`, NeighborExchange's `local_prob`.
    style_t: u64,

    // Mutable, snapshot-covered state.
    rng: DetRng,
    burst_item: u64,
    burst_left: u32,
    priv_frame: u64,
    priv_writes: u32,
    shr_frame: u64,
    shr_writes: u32,
    refs_emitted: u64,
}

impl NodeStream {
    /// Builds the stream of node `node` out of `nodes`, deterministically
    /// derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`SplashConfig::validate`])
    /// or `node >= nodes`.
    pub fn new(cfg: &SplashConfig, node: u16, nodes: u16, seed: u64) -> Self {
        cfg.validate();
        assert!(node < nodes, "node index out of range");
        let shared_items = cfg.shared_pages * ITEMS_PER_PAGE;
        let private_items = cfg.private_pages_per_node * ITEMS_PER_PAGE;
        let panel_zipf = match cfg.style {
            SharingStyle::Blocked { panel_pages } => {
                let panels = (cfg.shared_pages / u64::from(panel_pages)).max(1) as usize;
                Some(Zipf::new(panels, cfg.zipf_theta))
            }
            _ => None,
        };
        let (node_ix, nodes_n) = (u64::from(node), u64::from(nodes));
        let slice_items = (shared_items / nodes_n).max(1);
        let (write_lo, write_hi) = match cfg.style {
            SharingStyle::MostlyRead => {
                // Writers update their own bodies, which live in the
                // cold (less-read) half of the shared set; the hot zipf
                // head is the read-mostly tree structure.
                let half = shared_items / 2;
                let span = (half / nodes_n).max(1);
                let lo = half + (node_ix * span).min(half - 1);
                (lo, (lo + span).min(shared_items).max(lo + 1))
            }
            SharingStyle::Blocked { .. } => {
                // Blocked stores are windowed in "write space", the
                // concatenation of all panel trailing halves (see
                // `pick_shared_item`).
                let write_space = (shared_items / 2).max(1);
                slice(write_space, (write_space / nodes_n).max(1), node_ix)
            }
            _ => slice(shared_items, slice_items, node_ix),
        };
        let style_t = match cfg.style {
            SharingStyle::Blocked { .. } => DetRng::threshold(0.55),
            SharingStyle::HotSpot { hot_prob, .. } => DetRng::threshold(hot_prob),
            SharingStyle::NeighborExchange { local_prob } => DetRng::threshold(local_prob),
            _ => 0,
        };
        Self {
            node: node_ix,
            nodes: nodes_n,
            shared_items,
            private_base_page: cfg.shared_pages + u64::from(node) * cfg.private_pages_per_node,
            private_items,
            window: u64::from(cfg.write_window_items),
            drift_period: cfg.write_drift_period,
            style: cfg.style,
            shared_zipf: Zipf::new(shared_items as usize, cfg.zipf_theta),
            panel_zipf,
            slice_items,
            write_lo,
            write_span: write_hi - write_lo,
            mem_t: DetRng::threshold(cfg.mem_frac()),
            write_t: DetRng::threshold(cfg.write_frac / cfg.mem_frac()),
            shared_read_t: DetRng::threshold(cfg.shared_read_frac / cfg.read_frac),
            shared_write_t: DetRng::threshold(cfg.shared_write_frac / cfg.write_frac),
            priv_hot_t: DetRng::threshold(cfg.private_hot_prob),
            style_t,
            rng: DetRng::seeded(seed).split(u64::from(node)),
            burst_item: 0,
            burst_left: 0,
            priv_frame: 0,
            priv_writes: 0,
            shr_frame: 0,
            shr_writes: 0,
            refs_emitted: 0,
        }
    }

    /// Address of a random line within shared item index `idx`.
    fn shared_addr(&mut self, idx: u64) -> Addr {
        let line = self.rng.below(ITEM_BYTES / LINE_BYTES);
        Addr::new(idx * ITEM_BYTES + line * LINE_BYTES)
    }

    fn private_idx_to_addr(&mut self, idx: u64) -> Addr {
        let base = self.private_base_page * PAGE_BYTES;
        let line = self.rng.below(ITEM_BYTES / LINE_BYTES);
        Addr::new(base + idx * ITEM_BYTES + line * LINE_BYTES)
    }

    /// Address of a private *store*: inside the sliding write window, which
    /// advances one item every `drift_period` stores. This is what keeps
    /// the per-checkpoint-interval modified set small and realistic.
    fn private_write_addr(&mut self) -> Addr {
        self.priv_writes += 1;
        if self.priv_writes >= self.drift_period {
            self.priv_writes = 0;
            self.priv_frame = wrap(self.priv_frame + 1, self.private_items);
        }
        // The window may exceed the region, so this one stays a `%`.
        let idx = (self.priv_frame + self.rng.below(self.window)) % self.private_items;
        self.private_idx_to_addr(idx)
    }

    /// Address of a private *load*: usually near the write window, with a
    /// uniform tail over the whole private region.
    fn private_read_addr(&mut self) -> Addr {
        let idx = if self.rng.chance_with(self.priv_hot_t) {
            let near = (self.window * 8).min(self.private_items);
            wrap(self.priv_frame + self.rng.below(near), self.private_items)
        } else {
            self.rng.below(self.private_items)
        };
        self.private_idx_to_addr(idx)
    }

    /// Windowed store with slow drift inside the node's write slice
    /// (`write_lo`, `write_span`): own bodies, panel updates, own-partition
    /// molecule updates.
    fn windowed_write(&mut self) -> u64 {
        let span = self.write_span;
        self.shr_writes += 1;
        if self.shr_writes >= self.drift_period {
            self.shr_writes = 0;
            self.shr_frame = wrap(self.shr_frame + 1, span);
        }
        self.write_lo + wrap(self.shr_frame + self.rng.below(self.window.min(span)), span)
    }

    /// Node `of_node`'s slice of the shared item space, for partitioned
    /// reads and writes.
    fn own_slice(&self, of_node: u64) -> (u64, u64) {
        slice(self.shared_items, self.slice_items, of_node)
    }

    fn pick_shared_item(&mut self, is_write: bool) -> u64 {
        match self.style {
            SharingStyle::MostlyRead => {
                if is_write {
                    self.windowed_write()
                } else {
                    self.shared_zipf.sample(&mut self.rng) as u64
                }
            }
            SharingStyle::Migratory {
                burst: (lo, hi),
                object_items,
            } => {
                if self.burst_left == 0 {
                    self.burst_item = self.rng.below(self.shared_items);
                    self.burst_left = self.rng.range(u64::from(lo), u64::from(hi) + 1) as u32;
                }
                self.burst_left -= 1;
                let off = self.rng.below(u64::from(object_items));
                (self.burst_item + off) % self.shared_items
            }
            SharingStyle::Blocked { panel_pages } => {
                let panel_items = u64::from(panel_pages) * ITEMS_PER_PAGE;
                if is_write {
                    // Updates land in the *trailing* rows of the panels
                    // (consumers read blocks only once finalised, i.e. the
                    // leading rows), partitioned per node. The windowed
                    // index lives in "write space" — the concatenation of
                    // all panel trailing halves — and is mapped back.
                    let half_panel = (panel_items / 2).max(1);
                    let ws = self.windowed_write();
                    let panel = ws / half_panel;
                    (panel * panel_items + half_panel + ws % half_panel) % self.shared_items
                } else if self.rng.chance_with(self.style_t) {
                    // A factorisation step mostly re-reads its own panel
                    // region (local blocks, including its own updates).
                    let (lo, hi) = self.own_slice(self.node);
                    self.rng.range(lo, hi)
                } else {
                    let panel = self
                        .panel_zipf
                        .as_ref()
                        .expect("blocked style")
                        .sample(&mut self.rng) as u64;
                    let base = panel * panel_items;
                    // Remote-panel reads touch only finalised rows — the
                    // leading half of the panel, biased towards the pivot
                    // block — never the trailing rows still being updated.
                    let half = (panel_items / 2).max(1);
                    let off = self.rng.below(half).min(self.rng.below(half));
                    (base + off) % self.shared_items
                }
            }
            SharingStyle::Uniform => self.rng.below(self.shared_items),
            SharingStyle::HotSpot { hot_items, .. } => {
                if self.rng.chance_with(self.style_t) {
                    self.rng.below(u64::from(hot_items).min(self.shared_items))
                } else {
                    self.rng.below(self.shared_items)
                }
            }
            SharingStyle::ProducerConsumer => {
                if is_write {
                    self.windowed_write()
                } else {
                    // Consume the ring predecessor's production.
                    let pred = wrap(self.node + self.nodes - 1, self.nodes);
                    let (lo, hi) = self.own_slice(pred);
                    self.rng.range(lo, hi)
                }
            }
            SharingStyle::NeighborExchange { .. } => {
                if is_write {
                    self.windowed_write()
                } else {
                    let target = if self.rng.chance_with(self.style_t) {
                        self.node
                    } else if self.rng.chance_with(HALF_T) {
                        wrap(self.node + 1, self.nodes)
                    } else {
                        wrap(self.node + self.nodes - 1, self.nodes)
                    };
                    let (lo, hi) = self.own_slice(target);
                    self.rng.range(lo, hi)
                }
            }
        }
    }
}

/// `DetRng::threshold(0.5)`: `ceil(0.5 · 2^53)`.
const HALF_T: u64 = 1 << 52;

/// `x mod m` for `x < 2m`: a compare and subtract instead of a division.
/// The generator's frames stay below their modulus, so every
/// frame-plus-offset sum it reduces with this is below twice the modulus.
fn wrap(x: u64, m: u64) -> u64 {
    debug_assert!(x < 2 * m, "{x} is not below twice {m}");
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Slice `node` of `0..items` cut into `per`-wide slices; the last
/// nodes share the final item when the slices run out.
fn slice(items: u64, per: u64, node: u64) -> (u64, u64) {
    let lo = (node * per).min(items - 1);
    let hi = ((node + 1) * per).min(items).max(lo + 1);
    (lo, hi)
}

impl RefStream for NodeStream {
    fn next_ref(&mut self) -> MemRef {
        // Compute gap: geometric with success probability mem_frac.
        let pre_cycles = self.rng.geometric_with(self.mem_t, 10_000) as u32;
        // Load or store, conditioned on this being a memory reference.
        let is_write = self.rng.chance_with(self.write_t);
        let shared = if is_write {
            self.rng.chance_with(self.shared_write_t)
        } else {
            self.rng.chance_with(self.shared_read_t)
        };
        let addr = if shared {
            let idx = self.pick_shared_item(is_write);
            self.shared_addr(idx)
        } else if is_write {
            self.private_write_addr()
        } else {
            self.private_read_addr()
        };
        self.refs_emitted += 1;
        MemRef {
            pre_cycles,
            is_write,
            addr,
            shared,
        }
    }

    fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            rng: self.rng.snapshot(),
            burst_item: self.burst_item,
            burst_left: self.burst_left,
            priv_frame: self.priv_frame,
            priv_writes: self.priv_writes,
            shr_frame: self.shr_frame,
            shr_writes: self.shr_writes,
            refs_emitted: self.refs_emitted,
        }
    }

    fn restore(&mut self, snap: &StreamSnapshot) {
        self.rng = DetRng::restore(&snap.rng);
        self.burst_item = snap.burst_item;
        self.burst_left = snap.burst_left;
        self.priv_frame = snap.priv_frame;
        self.priv_writes = snap.priv_writes;
        self.shr_frame = snap.shr_frame;
        self.shr_writes = snap.shr_writes;
        self.refs_emitted = snap.refs_emitted;
    }

    fn refs_emitted(&self) -> u64 {
        self.refs_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn collect(stream: &mut NodeStream, n: usize) -> Vec<MemRef> {
        (0..n).map(|_| stream.next_ref()).collect()
    }

    #[test]
    fn deterministic_across_constructions() {
        let cfg = presets::barnes();
        let mut a = NodeStream::new(&cfg, 1, 8, 7);
        let mut b = NodeStream::new(&cfg, 1, 8, 7);
        assert_eq!(collect(&mut a, 500), collect(&mut b, 500));
    }

    #[test]
    fn nodes_have_distinct_streams() {
        let cfg = presets::barnes();
        let mut a = NodeStream::new(&cfg, 0, 8, 7);
        let mut b = NodeStream::new(&cfg, 1, 8, 7);
        assert_ne!(collect(&mut a, 50), collect(&mut b, 50));
    }

    #[test]
    fn snapshot_restore_replays_exactly() {
        for cfg in presets::all() {
            let mut s = NodeStream::new(&cfg, 2, 16, 11);
            let _ = collect(&mut s, 1000); // advance into steady state
            let snap = s.snapshot();
            let first = collect(&mut s, 2000);
            s.restore(&snap);
            let second = collect(&mut s, 2000);
            assert_eq!(first, second, "replay diverged for {}", cfg.name);
        }
    }

    #[test]
    fn mix_matches_table3_within_tolerance() {
        for cfg in presets::all() {
            let mut s = NodeStream::new(&cfg, 0, 16, 3);
            let n = 200_000;
            let mut instr = 0u64;
            let (mut reads, mut writes, mut sreads, mut swrites) = (0u64, 0u64, 0u64, 0u64);
            for _ in 0..n {
                let r = s.next_ref();
                instr += u64::from(r.pre_cycles) + 1;
                if r.is_write {
                    writes += 1;
                    if r.shared {
                        swrites += 1;
                    }
                } else {
                    reads += 1;
                    if r.shared {
                        sreads += 1;
                    }
                }
            }
            let f = |x: u64| x as f64 / instr as f64;
            assert!(
                (f(reads) - cfg.read_frac).abs() < 0.01,
                "{} reads {}",
                cfg.name,
                f(reads)
            );
            assert!(
                (f(writes) - cfg.write_frac).abs() < 0.01,
                "{} writes",
                cfg.name
            );
            assert!(
                (f(sreads) - cfg.shared_read_frac).abs() < 0.01,
                "{} sreads",
                cfg.name
            );
            assert!(
                (f(swrites) - cfg.shared_write_frac).abs() < 0.005,
                "{} swrites",
                cfg.name
            );
        }
    }

    #[test]
    fn addresses_stay_in_declared_regions() {
        for cfg in presets::all() {
            let nodes = 8;
            let mut s = NodeStream::new(&cfg, 5, nodes, 13);
            let shared_limit = cfg.shared_pages * PAGE_BYTES;
            let priv_lo = (cfg.shared_pages + 5 * cfg.private_pages_per_node) * PAGE_BYTES;
            let priv_hi = priv_lo + cfg.private_pages_per_node * PAGE_BYTES;
            for _ in 0..20_000 {
                let r = s.next_ref();
                if r.shared {
                    assert!(r.addr.raw() < shared_limit, "{}: {:?}", cfg.name, r);
                } else {
                    assert!(
                        (priv_lo..priv_hi).contains(&r.addr.raw()),
                        "{}: private {:?} outside [{priv_lo}, {priv_hi})",
                        cfg.name,
                        r
                    );
                }
            }
        }
    }

    #[test]
    fn migratory_bursts_reuse_objects() {
        let cfg = presets::mp3d();
        let mut s = NodeStream::new(&cfg, 0, 4, 17);
        let mut repeats = 0;
        let mut shared_refs = 0;
        let mut last_item = None;
        for _ in 0..50_000 {
            let r = s.next_ref();
            if r.shared {
                shared_refs += 1;
                let item = r.addr.item();
                if last_item == Some(item) {
                    repeats += 1;
                }
                last_item = Some(item);
            }
        }
        // Bursts of 4..12 on single-item objects: consecutive shared refs
        // frequently hit the same item.
        assert!(
            repeats as f64 > shared_refs as f64 * 0.3,
            "only {repeats}/{shared_refs} consecutive repeats"
        );
    }

    /// FNV-1a over the little-endian bytes of `word`: a fold that, unlike
    /// `DefaultHasher`, is the same on every platform and Rust release.
    fn fnv(h: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Fingerprint of the first `n` references of node `node` of 16 and of
    /// the stream state they leave behind.
    fn fingerprint(cfg: &SplashConfig, node: u16, n: usize) -> u64 {
        let mut s = NodeStream::new(cfg, node, 16, 0xF7C0_3A11);
        let mut h = 0xCBF2_9CE4_8422_2325;
        for _ in 0..n {
            let r = s.next_ref();
            h = fnv(h, u64::from(r.pre_cycles));
            h = fnv(h, u64::from(r.is_write) | u64::from(r.shared) << 1);
            h = fnv(h, r.addr.raw());
        }
        let snap = s.snapshot();
        // The next draw stands for the RNG state (SplitMix64's step is a
        // bijection of the state).
        let rng_word = DetRng::restore(&snap.rng).next_u64();
        [
            rng_word,
            snap.burst_item,
            u64::from(snap.burst_left),
            snap.priv_frame,
            u64::from(snap.priv_writes),
            snap.shr_frame,
            u64::from(snap.shr_writes),
            snap.refs_emitted,
        ]
        .into_iter()
        .fold(h, fnv)
    }

    fn drift_every_store(cfg: SplashConfig) -> SplashConfig {
        SplashConfig {
            name: format!("{} (drift 1)", cfg.name),
            write_drift_period: 1,
            ..cfg
        }
    }

    #[test]
    fn stream_fingerprints_are_pinned() {
        // The generator's fast paths (threshold draws, batched geometric
        // gaps, division-free window arithmetic) promise bit-identical
        // streams. These fingerprints were computed with the plain
        // one-draw-at-a-time generator: any change to a single reference
        // or to the final stream state of any style changes them.
        let cases = [
            (
                presets::barnes(),
                [0xe193_8cec_c752_8f5b, 0xd45a_6c4a_bf81_b3e4],
            ),
            (
                presets::cholesky(),
                [0x94a5_8aff_dad8_65bc, 0x3bfc_ebcb_6ba8_fa3c],
            ),
            (
                presets::mp3d(),
                [0x4b07_bd1e_9df5_405a, 0x7a04_8dc9_f391_dafb],
            ),
            (
                presets::water(),
                [0xc3a5_3306_e700_fbc7, 0x3e48_9177_8f43_50b5],
            ),
            (
                presets::micro_uniform(),
                [0xda16_cc17_3c2f_ac3e, 0x7fb9_5a21_6eca_c06a],
            ),
            (
                presets::micro_hotspot(),
                [0x9793_db5b_8f93_b85f, 0xe307_08c0_8970_aba2],
            ),
            (
                presets::micro_producer_consumer(),
                [0xb343_db9e_a8a5_4641, 0x1fa2_a063_808c_d140],
            ),
            // The write frames advance on every store, so they wrap
            // around their regions many times within the 100k references.
            (
                drift_every_store(presets::barnes()),
                [0x37e9_ecf2_00f0_c77e, 0x9743_ce3c_0ceb_2777],
            ),
            (
                drift_every_store(presets::cholesky()),
                [0x0157_97e1_92f5_070b, 0x0ddd_34eb_d141_8666],
            ),
            (
                drift_every_store(presets::water()),
                [0x37de_82ae_2ca1_9d23, 0xf90a_fdf9_34bb_001e],
            ),
        ];
        for (cfg, want) in cases {
            let got = [
                fingerprint(&cfg, 0, 100_000),
                fingerprint(&cfg, 15, 100_000),
            ];
            assert_eq!(
                want, got,
                "{} stream fingerprints (nodes 0, 15) changed: got {got:#018x?}",
                cfg.name
            );
        }
    }

    #[test]
    fn refs_emitted_tracks_and_restores() {
        let cfg = presets::water();
        let mut s = NodeStream::new(&cfg, 0, 4, 19);
        let _ = collect(&mut s, 10);
        assert_eq!(s.refs_emitted(), 10);
        let snap = s.snapshot();
        let _ = collect(&mut s, 5);
        assert_eq!(s.refs_emitted(), 15);
        s.restore(&snap);
        assert_eq!(s.refs_emitted(), 10);
    }
}
