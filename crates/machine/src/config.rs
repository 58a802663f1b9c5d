//! Machine configuration.

use ftcoma_core::FtConfig;
use ftcoma_mem::{AmGeometry, CacheGeometry};
use ftcoma_net::{NetConfig, NetFaultPlan};
use ftcoma_protocol::transport::RetryPolicy;
use ftcoma_protocol::MemTiming;
use ftcoma_workloads::{presets, SplashConfig};

/// Kind of injected node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The node stops, loses its running computation, and rejoins after
    /// the global rollback with its memory contents intact.
    Transient,
    /// The node is lost for good: memory gone, removed from the ring;
    /// recovery additionally reconfigures (re-replicates orphaned recovery
    /// copies) and the node's work is adopted by its ring successor.
    Permanent,
}

/// Full configuration of a simulated machine run.
///
/// The defaults are the paper's: KSR1-like node (20 MHz, 256 KB cache,
/// 8 MB AM), 4×4-capable mesh parameters, standard protocol, Water
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of nodes (the paper evaluates 9–56; default 16 = 4×4).
    pub nodes: u16,
    /// Memory references each node must complete.
    pub refs_per_node: u64,
    /// The synthetic application driving each node.
    pub workload: SplashConfig,
    /// Fault-tolerance mode and checkpoint frequency.
    pub ft: FtConfig,
    /// Node-local memory timings.
    pub timing: MemTiming,
    /// Network timings (used when `bus` is `None`: the mesh fabric).
    pub net: NetConfig,
    /// Replace the mesh with a split-transaction shared bus (snooping-style
    /// fabric; see `ftcoma_net::bus`). `None` = the paper's mesh.
    pub bus: Option<ftcoma_net::BusConfig>,
    /// Deterministic message-level fault plan (drop/duplicate/delay).
    /// `Some` activates the reliable transport (sequence numbers, acks,
    /// bounded-backoff retries); `None` keeps the exact fault-free fast
    /// path, byte-identical to a machine without this feature.
    pub net_fault: Option<NetFaultPlan>,
    /// Retransmission policy of the reliable transport (RTO base/cap and
    /// the retry budget before escalation). The default reproduces the
    /// historical constants, so fault-free runs — and faulted runs that
    /// don't override it — are byte-identical to before it was a knob.
    pub retry: RetryPolicy,
    /// Attraction-memory geometry.
    pub am: AmGeometry,
    /// Cache geometry.
    pub cache: CacheGeometry,
    /// References per node executed before measurement starts. The paper
    /// collects statistics "during the parallel phase" only; warmup skips
    /// the cold-start where every access is a machine-wide first touch.
    pub warmup_refs_per_node: u64,
    /// Master RNG seed; paired standard/ECP runs must share it.
    pub seed: u64,
    /// Track a committed-value oracle and verify every recovery against it
    /// (costs memory; on by default in tests, off in benches).
    pub verify: bool,
    /// Retain the newest N trace records — causal spans and instant
    /// protocol events, in one ring — for post-mortem inspection (`0` =
    /// tracing off; see [`crate::Machine::spans`] and `ftcoma_sim::span`).
    pub trace_capacity: usize,
    /// Emit one time-series sample row every N cycles (`0` = off). Sampling
    /// is pure observation: it never schedules events and cannot perturb
    /// the simulation.
    pub timeseries_every: ftcoma_sim::Cycles,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            nodes: 16,
            refs_per_node: 10_000,
            workload: presets::water(),
            ft: FtConfig::disabled(),
            timing: MemTiming::ksr1(),
            net: NetConfig::default(),
            bus: None,
            net_fault: None,
            retry: RetryPolicy::default(),
            am: AmGeometry::ksr1(),
            cache: CacheGeometry::ksr1(),
            warmup_refs_per_node: 0,
            seed: 0xF7C0_3A11,
            verify: false,
            trace_capacity: 0,
            timeseries_every: 0,
        }
    }
}

/// The smallest machine the ECP runs on. "Four copies are necessary
/// during the create phase": a modified item needs its two old Inv-CK
/// copies, the Pre-Commit1 original and a Pre-Commit2 replica on four
/// *distinct* nodes (an AM holds at most one copy of an item). The floor
/// holds for the live nodes too, after permanent failures: scenarios and
/// chaos are rejected if they would breach it, and the continuous fault
/// process defers a sampled failure that would.
pub const ECP_MIN_NODES: u16 = 4;

impl MachineConfig {
    /// The interconnect selection implied by this configuration.
    pub fn fabric(&self) -> ftcoma_net::FabricConfig {
        match self.bus {
            Some(bus) => ftcoma_net::FabricConfig::Bus(bus),
            None => ftcoma_net::FabricConfig::Mesh(self.net),
        }
    }

    /// Checks the settings a user can choose — machine size, run length
    /// and retry policy — without panicking.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem: fewer than two nodes
    /// (the ECP needs a second AM for every recovery copy), fewer than four
    /// under the ECP, no references to run, or an invalid retry policy.
    pub fn check(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("the machine needs at least two nodes".into());
        }
        if self.ft.mode.is_enabled() && self.nodes < ECP_MIN_NODES {
            return Err(format!(
                "the ECP needs at least four nodes (four copies per modified item), got {}",
                self.nodes
            ));
        }
        if self.refs_per_node == 0 {
            return Err("refs_per_node must be positive".into());
        }
        self.retry.validate()
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`MachineConfig::check`], or on
    /// inconsistent sub-configurations.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        self.workload.validate();
        self.timing.validate();
        self.am.validate();
        self.cache.validate();
    }

    /// The paper's four-irreplaceable-pages capacity check (§4.1) for this
    /// configuration: necessary (not sufficient) for injections to always
    /// find space. Violations make a run likely to abort with an
    /// AM-capacity panic.
    pub fn capacity_report(&self) -> ftcoma_core::capacity::CapacityReport {
        ftcoma_core::capacity::check(
            &self.am,
            self.nodes,
            ftcoma_core::capacity::workload_pages(
                self.workload.shared_pages,
                self.workload.private_pages_per_node,
                self.nodes,
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        MachineConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn rejects_single_node() {
        MachineConfig {
            nodes: 1,
            ..Default::default()
        }
        .validate();
    }
}
