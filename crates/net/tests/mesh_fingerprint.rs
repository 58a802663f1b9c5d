//! Pinned fingerprints of the mesh's observable behaviour.
//!
//! A seeded schedule of sends, link cuts, router failures and repairs is
//! replayed on full grids under both switching models with hop tracing
//! on. Every arrival and refusal, every hop segment, the aggregate
//! statistics and the link report are folded into one 64-bit hash per
//! grid and model. The constants were computed with the hash-map mesh
//! that preceded the flat link tables, so any change to a simulated
//! number — an arrival time, a contention cycle, a detour, a report row —
//! fails here.

use ftcoma_mem::NodeId;
use ftcoma_net::{Mesh, MeshGeometry, NetClass, NetConfig, SwitchingModel};

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn xy(&mut self, (x, y): (usize, usize)) {
        self.add(x as u64);
        self.add(y as u64);
    }
}

/// SplitMix64: the schedule's own generator, independent of the
/// simulator's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random mesh-adjacent pair of nodes on a full `cols × rows` grid.
fn adjacent_pair(rng: &mut Rng, cols: usize, rows: usize) -> (NodeId, NodeId) {
    loop {
        let a = rng.below(cols * rows);
        let (x, y) = (a % cols, a / cols);
        let b = match rng.below(4) {
            0 if x + 1 < cols => a + 1,
            1 if x > 0 => a - 1,
            2 if y + 1 < rows => a + cols,
            3 if y > 0 => a - cols,
            _ => continue,
        };
        return (NodeId::new(a as u16), NodeId::new(b as u16));
    }
}

fn fold_report(mesh: &Mesh, h: &mut Fold) {
    let s = mesh.stats();
    for v in [
        s.messages,
        s.payload_bytes,
        s.contention_cycles,
        s.link_busy_cycles,
        s.detour_hops,
    ] {
        h.add(v);
    }
    let report = mesh.link_report();
    h.add(report.len() as u64);
    for r in report {
        h.xy(r.from);
        h.xy(r.to);
        h.add(r.class as u64);
        h.add(u64::from(r.alive));
        h.add(r.stats.messages);
        h.add(r.stats.busy_cycles);
        h.add(r.stats.contention_cycles);
    }
}

/// Replays the seeded schedule on a `cols × rows` mesh and returns its
/// fingerprint.
fn replay(cols: usize, rows: usize, switching: SwitchingModel, seed: u64) -> u64 {
    let nodes = cols * rows;
    let cfg = NetConfig {
        switching,
        ..NetConfig::default()
    };
    let mut mesh = Mesh::new(MeshGeometry::new(cols, rows), cfg);
    mesh.set_hop_trace(true);
    let mut rng = Rng(seed);
    let mut h = Fold::new();
    let mut cuts: Vec<(NodeId, NodeId)> = Vec::new();
    let mut dead: Vec<NodeId> = Vec::new();
    let mut now = 0u64;
    let (mut refused, mut link_repairs, mut router_repairs) = (0, 0, 0);
    for step in 0..6_000 {
        now += rng.below(24) as u64;
        match rng.below(200) {
            0..=2 if cuts.len() < 4 => {
                let (a, b) = adjacent_pair(&mut rng, cols, rows);
                mesh.fail_link(a, b);
                cuts.push((a, b));
            }
            3..=5 if !cuts.is_empty() => {
                let (a, b) = cuts.swap_remove(rng.below(cuts.len()));
                mesh.repair_link(a, b);
                link_repairs += 1;
            }
            6 if dead.len() < 2 => {
                let v = NodeId::new(rng.below(nodes) as u16);
                if rng.below(2) == 0 {
                    mesh.fail_router(v);
                } else {
                    mesh.fail_node(v);
                }
                dead.push(v);
            }
            7..=8 if !dead.is_empty() => {
                let v = dead.swap_remove(rng.below(dead.len()));
                // Another entry may name the same router; it stays down
                // in the mesh only until this repair.
                dead.retain(|&d| d != v);
                mesh.repair_router(v);
                router_repairs += 1;
            }
            _ => {
                let from = NodeId::new(rng.below(nodes) as u16);
                let to = if rng.below(16) == 0 {
                    from
                } else if !dead.is_empty() && rng.below(8) == 0 {
                    dead[rng.below(dead.len())]
                } else {
                    NodeId::new(rng.below(nodes) as u16)
                };
                let class = if rng.below(2) == 0 {
                    NetClass::Request
                } else {
                    NetClass::Reply
                };
                let bytes = [0, 0, 8, 128][rng.below(4)];
                let endpoint_down = mesh.router_failed(from) || mesh.router_failed(to);
                match mesh.send(now, from, to, class, bytes) {
                    Ok(t) => {
                        assert!(
                            from == to || !endpoint_down,
                            "step {step}: send {from} -> {to} crossed a dead router"
                        );
                        h.add(1);
                        h.add(t);
                    }
                    Err(_) => {
                        assert!(from != to, "step {step}: a local send was refused");
                        refused += 1;
                        h.add(2);
                        h.add(from.index() as u64);
                        h.add(to.index() as u64);
                    }
                }
                for hop in mesh.last_hops() {
                    h.xy(hop.from);
                    h.xy(hop.to);
                    h.add(hop.start);
                    h.add(hop.end);
                }
                h.add(u64::from(mesh.reachable(to, from)));
            }
        }
        if step % 1_000 == 999 {
            fold_report(&mesh, &mut h);
        }
    }
    fold_report(&mesh, &mut h);
    // The schedule must exercise what it pins.
    assert!(refused > 0 && link_repairs > 0 && router_repairs > 0);
    assert!(mesh.stats().detour_hops > 0);
    h.0
}

#[test]
fn seeded_fault_schedule_matches_pinned_fingerprints() {
    use SwitchingModel::{VirtualCutThrough, Wormhole};
    let cases = [
        (4, 2, VirtualCutThrough, 0x2189_8983_e000_2560),
        (4, 2, Wormhole, 0x61e6_9bbb_56f5_4dae),
        (4, 4, VirtualCutThrough, 0xa2eb_a34b_9afd_24fb),
        (4, 4, Wormhole, 0x952d_4ac3_54c9_e661),
        (7, 8, VirtualCutThrough, 0x528d_b9a6_5604_3485),
        (7, 8, Wormhole, 0x034f_94b1_0e24_aa16),
    ];
    let all: Vec<u64> = cases
        .iter()
        .enumerate()
        .map(|(i, &(cols, rows, switching, _))| {
            replay(cols, rows, switching, 0x3e5f_0a11 + i as u64)
        })
        .collect();
    for (&(cols, rows, switching, want), &got) in cases.iter().zip(&all) {
        assert_eq!(
            got, want,
            "{cols}x{rows} {switching:?}: fingerprint {got:#018x} (all: {all:#018x?})"
        );
    }
}
