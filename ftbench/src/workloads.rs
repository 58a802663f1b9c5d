//! The three workloads: what each instance runs, what the timed loop
//! measures and what the untimed tail checks.
//!
//! Load is fixed work run as a closed loop on one simulation thread: an
//! instance starts only when the previous one has finished, until the
//! run's seconds are spent. Instance `k` runs on seed
//! [`instance_seed`]`(seed, k)`, so a run averages over several inputs and
//! the same seed always gives the same inputs. Host times are normalized
//! by the calibration kernel of [`crate::host`].

use std::time::Instant;

use ftcoma_campaign::{
    run_cell_on, run_cells, Cell, CellOutcome, Scenario, ScenarioKind, SnapshotForge,
};
use ftcoma_chaos::{run_chaos, ChaosConfig, GoldenRef, Verdict};
use ftcoma_core::FtConfig;
use ftcoma_machine::{Machine, MachineConfig, PhaseLatency, RunMetrics};
use ftcoma_sim::derive_seed;
use ftcoma_workloads::{presets, SplashConfig};

use crate::args::{Args, Workload};
use crate::host::Calibrator;
use crate::layers::{self, MachineRun, Split};
use crate::report::{self, median, Digest, Report, END_TO_END, PER_LAYER};
use crate::spans::Tracer;

/// The shape of a fault-free workload.
struct FaultFree {
    workload: fn() -> SplashConfig,
    nodes: u16,
    /// Measured and warmup references per node.
    lengths: (u64, u64),
    /// Whether an instance times an ECP run beside the standard one.
    pair: bool,
    /// Instances that feed the digest, the pooled ECP overhead and the
    /// peak memory; also the fewest instances an untraced run measures.
    paired: usize,
}

/// `water16-std`: Water on 16 nodes, standard protocol, at the paper
/// benches' lengths for 400 recovery points/s (`lengths_for(400.0)`).
const WATER: FaultFree = FaultFree {
    workload: presets::water,
    nodes: 16,
    lengths: (60_000, 30_000),
    pair: false,
    paired: 8,
};

/// `mp3d56-ecp400`: Mp3d on 56 nodes, standard and ECP at 400/s. The
/// warmup covers one recovery-point interval and the measured part
/// several; its ECP overhead varies more from seed to seed than Water's,
/// so more instances feed the pooled figure.
const MP3D: FaultFree = FaultFree {
    workload: presets::mp3d,
    nodes: 56,
    lengths: (30_000, 10_000),
    pair: true,
    paired: 12,
};

/// Recovery-point frequency of the ECP runs (and of Water's ECP twins).
const ECP_HZ: f64 = 400.0;
/// Fewest seeds a traced run measures (each twice: traced, untraced).
const TRACED_SEEDS: usize = 2;

/// `chaos-w8-mixed`: cases per sweep.
const CHAOS_CASES: u64 = 30;
/// `chaos-w8-mixed`: seed groups (golden runs) per sweep.
const CHAOS_SEEDS: u64 = 4;
/// `chaos-w8-mixed`: sweeps whose goldens feed the digest and the ECP
/// overhead; also the fewest sweeps a run measures.
const CHAOS_DIGEST_SWEEPS: u64 = 3;
/// `chaos-w8-mixed`: references per node of every chaos machine.
const CHAOS_REFS: u64 = 4_000;
/// Repetitions of each fork and golden re-run measurement of the traced
/// chaos run.
const FORK_REPS: usize = 3;

/// Runs `args.workload` and returns what it measured.
pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let cal = &mut Calibrator::new();
    match args.workload {
        Workload::Water16Std => fault_free(args, tracer, cal, &WATER),
        Workload::Mp3d56Ecp400 => fault_free(args, tracer, cal, &MP3D),
        Workload::ChaosW8Mixed => chaos(args, tracer, cal),
    }
}

/// A fault-free machine configuration running `(refs, warmup)` references
/// per node.
pub fn machine_cfg(
    workload: SplashConfig,
    nodes: u16,
    (refs, warmup): (u64, u64),
    ft: FtConfig,
    seed: u64,
) -> MachineConfig {
    MachineConfig {
        nodes,
        refs_per_node: refs,
        warmup_refs_per_node: warmup,
        workload,
        ft,
        seed,
        verify: false,
        ..MachineConfig::default()
    }
}

/// One checked machine run and its set-up time.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The run.
    pub run: MachineRun,
    /// Host seconds of `Machine::new`.
    pub setup_s: f64,
    /// Host seconds of the run, normalized to the reference host (equal
    /// to `run.wall_s` for an uncalibrated run).
    pub norm_s: f64,
}

/// Host seconds a calibrated run spends between calibrations.
const CHUNK_S: f64 = 0.1;

/// Runs `m` to completion in slices of about [`CHUNK_S`] host seconds
/// (`Machine::run_until`, then `Machine::run` once every stream reached
/// its quota; the composite run is identical to a straight one), running
/// the calibration kernel between slices. Returns the metrics, the raw
/// host seconds and the host seconds normalized slice by slice.
fn run_calibrated(
    m: &mut Machine,
    quota: u64,
    tracer: &mut Tracer,
    cal: &mut Calibrator,
) -> (RunMetrics, f64, f64) {
    let (mut raw, mut norm) = (0.0, 0.0);
    let (mut limit, mut slice) = (0, 20_000u64);
    let mut before = cal.run();
    loop {
        let last = m.stream_progress().iter().sum::<u64>() >= quota;
        let (metrics, secs) = if last {
            let (metrics, secs) = tracer.time("Machine::run", || m.run());
            (Some(metrics), secs)
        } else {
            limit += slice;
            let ((), secs) = tracer.time("Machine::run_until", || m.run_until(limit));
            (None, secs)
        };
        let after = cal.run();
        raw += secs;
        norm += secs / Calibrator::factor(before, after);
        before = after;
        if let Some(metrics) = metrics {
            return (metrics, raw, norm);
        }
        // Aim the next slice at CHUNK_S host seconds.
        slice = ((slice as f64) * CHUNK_S / secs.max(1e-4)).clamp(1e3, 1e8) as u64;
    }
}

/// Builds and runs one fault-free machine, then checks it (untimed): the
/// outcome must be `Recovered`, the invariant sweep clean, every stream at
/// its quota and, for `verify` configurations, the memory image must match
/// the committed-value oracle. `detail` also records the absolute end
/// cycle and per-link report the layer split needs.
///
/// With a calibrator the run is timed by [`run_calibrated`].
pub fn run_checked(
    cfg: &MachineConfig,
    tracer: &mut Tracer,
    detail: bool,
    cal: Option<&mut Calibrator>,
) -> Result<Checked, String> {
    let (mut m, setup_s) = tracer.time("Machine::new", || Machine::new(cfg.clone()));
    let quota = (cfg.refs_per_node + cfg.warmup_refs_per_node) * u64::from(cfg.nodes);
    let (metrics, wall_s, norm_s) = match cal {
        Some(cal) => run_calibrated(&mut m, quota, tracer, cal),
        None => {
            let (metrics, secs) = tracer.time("Machine::run", || m.run());
            (metrics, secs, secs)
        }
    };
    let span = tracer.open("check");
    let verdict = check(&m, cfg);
    let (end_cycle, links) = if detail {
        (m.snapshot().at(), m.link_report())
    } else {
        (metrics.total_cycles, Vec::new())
    };
    tracer.close(span);
    verdict?;
    Ok(Checked {
        run: MachineRun {
            cfg: cfg.clone(),
            metrics,
            progress: m.stream_progress(),
            wall_s,
            end_cycle,
            links,
        },
        setup_s,
        norm_s,
    })
}

fn check(m: &Machine, cfg: &MachineConfig) -> Result<(), String> {
    if !m.outcome().is_recovered() {
        return Err(format!("outcome is {}", m.outcome()));
    }
    let problems = m.check_invariants();
    if !problems.is_empty() {
        return Err(format!("invariant sweep: {}", problems.join("; ")));
    }
    let quota = cfg.refs_per_node + cfg.warmup_refs_per_node;
    if let Some((i, p)) = m
        .stream_progress()
        .iter()
        .enumerate()
        .find(|(_, &p)| p != quota)
    {
        return Err(format!("stream {i} emitted {p} of {quota} references"));
    }
    if cfg.verify {
        m.verify_against_oracle()
            .map_err(|p| format!("oracle: {}", p.join("; ")))?;
    }
    Ok(())
}

/// Simulated (T_ecp / T_std - 1) x 100 of standard/ECP pairs, pooled
/// (total cycles over total cycles), and the Fig. 3 decomposition of the
/// difference into create, commit and pollution, in percent.
fn overhead<'a>(pairs: impl IntoIterator<Item = (&'a RunMetrics, &'a RunMetrics)>) -> [f64; 4] {
    let (mut t_std, mut t_ecp, mut create, mut commit) = (0.0, 0.0, 0.0, 0.0);
    for (std, ecp) in pairs {
        t_std += std.total_cycles as f64;
        t_ecp += ecp.total_cycles as f64;
        create += ecp.t_create as f64;
        commit += ecp.t_commit as f64;
    }
    [
        (t_ecp / t_std - 1.0) * 100.0,
        create / t_std * 100.0,
        commit / t_std * 100.0,
        (t_ecp - t_std - create - commit) / t_std * 100.0,
    ]
}

/// Per-layer simulated counters of a set of runs.
fn core_counters(report: &mut Report, runs: &[&MachineRun]) {
    let sum = |f: &dyn Fn(&RunMetrics) -> u64| runs.iter().map(|r| f(&r.metrics)).sum::<u64>();
    let refs = sum(&|m| m.refs).max(1) as f64;
    let msgs = sum(&|m| m.net_messages);
    let util = runs
        .iter()
        .flat_map(|r| r.links.iter().map(|l| l.utilization(r.end_cycle)))
        .fold(0.0, f64::max);
    let per = |x: u64, k: f64| x as f64 / refs * k;
    report.set(&PER_LAYER, "net.msgs_per_kref", per(msgs, 1e3));
    report.set(
        &PER_LAYER,
        "net.contention_cycles_per_msg",
        sum(&|m| m.net_contention_cycles) as f64 / msgs.max(1) as f64,
    );
    report.set(&PER_LAYER, "net.link_util_max", util);
    report.set(
        &PER_LAYER,
        "core.misses_per_kref",
        per(sum(&|m| m.read_misses + m.write_misses), 1e3),
    );
    report.set(
        &PER_LAYER,
        "core.checkpoints",
        sum(&|m| m.checkpoints) as f64,
    );
    report.set(
        &PER_LAYER,
        "core.injections_per_10kref",
        per(sum(&|m| m.injections_total()), 1e4),
    );
}

fn set_split(report: &mut Report, s: &Split) {
    report.set(&PER_LAYER, "sim.queue_ns_per_op", s.queue_ns_per_op);
    report.set(&PER_LAYER, "sim.queue_share", s.queue_share);
    report.set(&PER_LAYER, "sim.events_est", s.events_est as f64);
    report.set(&PER_LAYER, "workloads.ns_per_ref", s.gen_ns_per_ref);
    report.set(&PER_LAYER, "workloads.share", s.gen_share);
    report.set(&PER_LAYER, "mem.probe_ns_per_ref", s.mem_ns_per_ref);
    report.set(&PER_LAYER, "mem.share", s.mem_share);
    report.set(&PER_LAYER, "net.send_ns_per_msg", s.net_ns_per_msg);
    report.set(&PER_LAYER, "net.share", s.net_share);
    report.set(&PER_LAYER, "machine.other_share", s.other_share);
}

fn set_decomposition(report: &mut Report, o: [f64; 4]) {
    report.set(&PER_LAYER, "core.create_pct", o[1]);
    report.set(&PER_LAYER, "core.commit_pct", o[2]);
    report.set(&PER_LAYER, "core.pollution_pct", o[3]);
}

/// Metrics that only the chaos workload exercises.
const CHAOS_ONLY: [&str; 11] = [
    "machine.snapshot_us_per_node",
    "recovery.host_ms_per_fault.transient",
    "recovery.host_ms_per_fault.permanent",
    "recovery.host_ms_per_fault.nested",
    "recovery.rollback_cycles_p50",
    "recovery.reconfig_cycles_p50",
    "protocol.retries_per_loss_case",
    "campaign.golden_share",
    "campaign.fork_ms",
    "chaos.case_ms",
    "chaos.unrecoverable_frac",
];

/// Which seed an instance runs and whether it is traced. An untraced run
/// gives every instance a seed of its own; a traced run runs each seed
/// twice, traced and then untraced, so the difference between the two is
/// the tracing overhead, and only the traced instance counts.
fn schedule(trace: bool, instance: usize) -> (u64, bool, bool) {
    if trace {
        let first = instance.is_multiple_of(2);
        ((instance / 2) as u64, first, first)
    } else {
        (instance as u64, false, true)
    }
}

/// Host times of one instance, split by traced and untraced instances.
#[derive(Default)]
struct Loop {
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
}

impl Loop {
    /// Tracing overhead: traced minus untraced median instance time, in
    /// percent of the untraced one.
    fn overhead_pct(&self) -> f64 {
        let (t, u) = (median(&self.traced_s), median(&self.untraced_s));
        if u > 0.0 {
            (t - u) / u * 100.0
        } else {
            0.0
        }
    }
}

/// The seed of instance `k` of a run seeded `seed`: instance 0 uses the
/// seed itself (so the default seed reproduces the simulator's default
/// runs), later instances seeds derived from it.
fn instance_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        derive_seed(seed, k)
    }
}

/// `water16-std` and `mp3d56-ecp400`: an instance is a standard run, plus
/// an ECP run at 400/s when `pair` is set, on the instance's own seed.
/// The first `paired` instances also feed the digest and the ECP overhead
/// (Water runs their ECP twins untimed, after the loop).
fn fault_free(args: &Args, tracer: &mut Tracer, cal: &mut Calibrator, w: &FaultFree) -> Report {
    let mut report = Report::default();
    let FaultFree {
        nodes,
        lengths,
        pair,
        ..
    } = *w;
    let cfg = |ft: FtConfig, k: u64| {
        let seed = instance_seed(args.seed, k);
        machine_cfg((w.workload)(), nodes, lengths, ft, seed)
    };
    let std_ft = FtConfig::disabled();
    let ecp_ft = FtConfig::enabled(ECP_HZ);
    let runs_per_instance = if pair { 2 } else { 1 };

    let (mut refs_per_s, mut cases_per_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_refs_per_s, mut factors) = (Vec::new(), Vec::new());
    // Normalized host seconds of the standard and ECP runs.
    let (mut std_secs, mut ecp_secs) = (Vec::new(), Vec::new());
    // Runs of the paired instances: (standard, ECP if timed).
    let mut paired: Vec<(MachineRun, Option<MachineRun>)> = Vec::new();
    let mut timing = Loop::default();
    let start = Instant::now();
    let mut instance = 0;
    let mut rss = None;
    let min = if args.trace {
        2 * TRACED_SEEDS
    } else {
        w.paired
    };
    while instance < min || start.elapsed().as_secs_f64() < args.seconds {
        let (k, traced, counted) = schedule(args.trace, instance);
        tracer.set_on(traced);
        tracer.set_run(instance as u64);
        let span = tracer.open("instance");
        let mut cfgs = vec![cfg(std_ft, k)];
        if pair {
            cfgs.push(cfg(ecp_ft, k));
        }
        let mut done: Vec<Checked> = Vec::new();
        for c in &cfgs {
            match run_checked(c, tracer, args.trace && instance == 0, Some(cal)) {
                Ok(c) => done.push(c),
                Err(e) => {
                    report.judge(Err(format!("{} run: {e}", args.workload.name())));
                    break;
                }
            }
        }
        if done.len() != cfgs.len() {
            break;
        }
        let refs: u64 = done.iter().map(|c| c.run.refs_total()).sum();
        let wall: f64 = done.iter().map(|c| c.run.wall_s).sum();
        let norm: f64 = done.iter().map(|c| c.norm_s).sum();
        let factor = wall / norm;
        let setup = done.iter().map(|c| c.setup_s).sum::<f64>() / factor;
        for _ in &done {
            report.judge(Ok(()));
        }
        tracer.close(span);
        if traced {
            timing.traced_s.push(norm);
        } else {
            timing.untraced_s.push(norm);
        }
        instance += 1;
        if !counted {
            continue;
        }
        raw_refs_per_s.push(refs as f64 / wall);
        factors.push(factor);
        refs_per_s.push(refs as f64 / norm);
        cases_per_s.push(runs_per_instance as f64 / (setup + norm));
        setup_s.push(setup);
        std_secs.push(done[0].norm_s);
        ecp_secs.extend(done.get(1).map(|c| c.norm_s));
        let mut runs = done.into_iter().map(|c| c.run);
        let std_run = runs.next().expect("the standard run ran");
        let ecp_run = runs.next();
        if paired.len() < w.paired {
            paired.push((std_run, ecp_run));
            if paired.len() == w.paired {
                // Peak memory over a fixed set of instances, so it does not
                // depend on how many instances the host's speed allowed.
                rss = report::peak_rss_mb();
            }
        }
    }
    tracer.set_on(args.trace);
    if !report.correct() || paired.is_empty() {
        return report;
    }

    // Untimed tail. Mp3d repeats instance 0's ECP run with the oracle on,
    // and it must reproduce the timed run exactly; Water runs each paired
    // instance's ECP twin, the first with the oracle on.
    let mut digest = Digest::default();
    let mut ecps = Vec::new();

    for (k, (std_run, ecp_run)) in paired.iter().enumerate() {
        let verify = k == 0;
        let ecp_cfg = MachineConfig {
            verify,
            ..cfg(ecp_ft, k as u64)
        };
        let ecp = match ecp_run {
            Some(e) if !verify => e.metrics.clone(),
            _ => match run_checked(&ecp_cfg, tracer, false, Some(cal)) {
                Ok(c) => {
                    if !pair {
                        ecp_secs.push(c.norm_s);
                    }
                    c.run.metrics
                }
                Err(e) => {
                    report.judge(Err(format!("ECP verify run: {e}")));
                    return report;
                }
            },
        };
        report.judge(match ecp_run {
            Some(e) if e.metrics.total_cycles != ecp.total_cycles => {
                Err("the verify run diverged from the timed ECP run".into())
            }
            _ => Ok(()),
        });
        digest.add_run(&std_run.metrics);
        digest.add_run(&ecp);
        ecps.push(ecp);
    }
    report.digest = digest;
    let over = overhead(paired.iter().map(|(s, _)| &s.metrics).zip(&ecps));
    report.notes.push(format!(
        "{}: {} instances of {} run(s), {} nodes, {}+{} refs/node; ecp_overhead_pct {:.2} at {} rp/s \
         over {} seeds; unnormalized refs_per_s {:.0}, host factor {:.3}",
        args.workload.name(),
        instance,
        runs_per_instance,
        nodes,
        lengths.1,
        lengths.0,
        over[0],
        ECP_HZ,
        paired.len(),
        median(&raw_refs_per_s),
        median(&factors),
    ));

    if !args.trace {
        report.set(&END_TO_END, "refs_per_s", median(&refs_per_s));
        report.set(&END_TO_END, "cases_per_s", median(&cases_per_s));
        report.set(&END_TO_END, "setup_s", median(&setup_s));
        report.set(&END_TO_END, "peak_rss_mb", rss.unwrap_or(0.0));
        report.set(&END_TO_END, "ecp_overhead_pct", over[0]);
        report.set(&END_TO_END, "ok_frac", ok_frac(&report));
        return report;
    }

    let first: Vec<MachineRun> = {
        let (s, e) = &paired[0];
        std::iter::once(s.clone()).chain(e.clone()).collect()
    };
    let span = tracer.open("replay");
    let split = layers::split(&first, tracer);
    tracer.close(span);
    set_split(&mut report, &split);
    let runs: Vec<&MachineRun> = first.iter().collect();
    core_counters(&mut report, &runs);
    set_decomposition(&mut report, over);
    report.set(
        &PER_LAYER,
        "core.ecp_host_ratio",
        median(&ecp_secs) / median(&std_secs),
    );
    report.set(
        &PER_LAYER,
        "machine.setup_ms_per_node",
        median(&setup_s) * 1e3 / (f64::from(nodes) * runs_per_instance as f64),
    );
    for name in CHAOS_ONLY {
        report.set(&PER_LAYER, name, 0.0);
    }
    report.set(&PER_LAYER, "trace.overhead_pct", timing.overhead_pct());
    report
}

fn ok_frac(report: &Report) -> f64 {
    1.0 - report.failed as f64 / report.attempted.max(1) as f64
}

/// The chaos sweep of `chaos-w8-mixed` for campaign seed `seed`.
fn chaos_cfg(seed: u64) -> ChaosConfig {
    let mut c = ChaosConfig::new(seed);
    c.seeds = CHAOS_SEEDS;
    c.cases = CHAOS_CASES;
    c.jobs = 1;
    c.workload = presets::water();
    c.nodes = 8;
    c.freq_hz = 1_000.0;
    c.refs_per_node = CHAOS_REFS;
    c.net_faults = true;
    c.soak = true;
    c.nested = true;
    c
}

/// The golden (fault-free) cells of a sweep.
fn golden_cells(c: &ChaosConfig) -> Vec<Cell> {
    (0..c.seeds)
        .map(|k| c.cell(k, k, Scenario::none()))
        .collect()
}

/// What the untimed tail of one of the first sweeps found.
struct GoldenTail {
    /// Host seconds of the golden phase re-run through `run_cells`.
    wall_s: f64,
    /// The golden outcomes.
    outcomes: Vec<CellOutcome>,
    /// Each golden's standard-protocol twin.
    std_runs: Vec<MachineRun>,
}

/// The standard-protocol twin of an ECP configuration.
fn std_twin(cfg: &MachineConfig) -> MachineConfig {
    MachineConfig {
        ft: FtConfig::disabled(),
        verify: false,
        ..cfg.clone()
    }
}

/// Re-runs a sweep's golden phase from outside and each golden's
/// standard-protocol twin, checking both.
fn golden_tail(goldens: &[Cell], tracer: &mut Tracer, report: &mut Report) -> Option<GoldenTail> {
    let (outcomes, wall_s) = tracer.time("run_cells", || run_cells(goldens, 1));
    let mut std_runs = Vec::new();
    for (g, o) in goldens.iter().zip(&outcomes) {
        report.judge(golden_ok(g, o));
        match run_checked(&std_twin(&g.cfg), tracer, false, None) {
            Ok(s) => {
                std_runs.push(s.run);
                report.judge(Ok(()));
            }
            Err(e) => report.judge(Err(format!("golden std twin: {e}"))),
        }
    }
    (report.correct() && std_runs.len() == goldens.len()).then_some(GoldenTail {
        wall_s,
        outcomes,
        std_runs,
    })
}

/// `chaos-w8-mixed`: an instance is one whole `run_chaos` sweep; sweep
/// `k` samples its cases from campaign seed [`instance_seed`].
fn chaos(args: &Args, tracer: &mut Tracer, cal: &mut Calibrator) -> Report {
    let mut report = Report::default();
    let mut digest = Digest::default();
    let mut pairs: Vec<(RunMetrics, RunMetrics)> = Vec::new();
    let (mut setup_s, mut factors) = (Vec::new(), Vec::new());
    let (mut golden_share, mut case_ms) = (Vec::new(), Vec::new());
    let (mut quota_refs, mut cases_done) = (0u64, 0u64);
    let (mut sweep_s, mut raw_sweep_s) = (0.0, 0.0);
    let mut rss = None;
    let mut first: Option<(ChaosConfig, Vec<Cell>, GoldenTail, u64)> = None;
    let mut timing = Loop::default();
    let start = Instant::now();
    let mut instance = 0;
    let min = if args.trace {
        2 * TRACED_SEEDS
    } else {
        CHAOS_DIGEST_SWEEPS as usize
    };
    while instance < min || start.elapsed().as_secs_f64() < args.seconds {
        let (k, traced, counted) = schedule(args.trace, instance);
        tracer.set_on(traced);
        tracer.set_run(instance as u64);
        let span = tracer.open("instance");
        let c = chaos_cfg(instance_seed(args.seed, k));
        let goldens = golden_cells(&c);
        let before = cal.run();
        // Set-up: the golden cells' machines, built before any event.
        let mut setup = 0.0;
        for g in &goldens {
            let (m, secs) = tracer.time("Machine::new", || Machine::new(g.cfg.clone()));
            setup += secs;
            drop(m);
        }
        let (result, wall) = tracer.time("run_chaos", || run_chaos(&c));
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                report.judge(Err(format!("run_chaos: {e}")));
                break;
            }
        };
        for _ in 0..r.passed + r.unrecoverable {
            report.judge(Ok(()));
        }
        for cx in &r.counterexamples {
            report.judge(Err(format!(
                "case {}: {}",
                cx.case_id,
                cx.reasons.join("; ")
            )));
        }
        if r.failed > 0 {
            break;
        }
        let factor = Calibrator::factor(before, cal.run());
        tracer.close(span);
        if traced {
            timing.traced_s.push(wall / factor);
        } else {
            timing.untraced_s.push(wall / factor);
        }
        instance += 1;
        if !counted {
            continue;
        }
        factors.push(factor);
        setup_s.push(setup / factor);
        quota_refs += (c.seeds + c.cases) * u64::from(c.nodes) * c.refs_per_node;
        cases_done += c.cases;
        raw_sweep_s += wall;
        sweep_s += wall / factor;

        // Untimed tail of the first sweeps: a fixed count, so the digest
        // and the ECP overhead are deterministic for a seed.
        if k < CHAOS_DIGEST_SWEEPS {
            let span = tracer.open("tail");
            let tail = golden_tail(&goldens, tracer, &mut report);
            tracer.close(span);
            let Some(tail) = tail else { break };
            digest.pass += r.passed;
            digest.unrecoverable += r.unrecoverable;
            for (o, s) in tail.outcomes.iter().zip(&tail.std_runs) {
                digest.add_run(&o.metrics);
                digest.add_run(&s.metrics);
                pairs.push((s.metrics.clone(), o.metrics.clone()));
            }
            golden_share.push(tail.wall_s / wall);
            if golden_share.len() == CHAOS_DIGEST_SWEEPS as usize {
                // Peak memory over a fixed set of sweeps, as for the
                // fault-free workloads.
                rss = report::peak_rss_mb();
            }
            case_ms.push((wall - tail.wall_s) * 1e3 / c.cases as f64);
            if k == 0 {
                first = Some((c, goldens, tail, r.unrecoverable));
            }
        }
    }
    tracer.set_on(args.trace);
    report.digest = digest;
    let Some((c, goldens, tail, unrecoverable)) = first else {
        return report;
    };
    if !report.correct() {
        return report;
    }
    let over = overhead(pairs.iter().map(|(s, e)| (s, e)));
    report.notes.push(format!(
        "{}: {} sweeps of {} cases ({} seed groups, {} nodes, {} refs/node, 1 worker); \
         first {} sweeps: {} pass, {} unrecoverable, \
         ecp_overhead_pct {:.2}; unnormalized cases_per_s {:.3}, host factor {:.3}",
        args.workload.name(),
        factors.len(),
        c.cases,
        c.seeds,
        c.nodes,
        c.refs_per_node,
        golden_share.len(),
        digest.pass,
        digest.unrecoverable,
        over[0],
        cases_done as f64 / raw_sweep_s,
        median(&factors),
    ));

    if !args.trace {
        // Pooled over every sweep: sweeps differ in their case mix, and
        // the pooled rate averages it out faster than a median would.
        report.set(&END_TO_END, "refs_per_s", quota_refs as f64 / sweep_s);
        report.set(&END_TO_END, "cases_per_s", cases_done as f64 / sweep_s);
        report.set(&END_TO_END, "setup_s", median(&setup_s));
        report.set(&END_TO_END, "peak_rss_mb", rss.unwrap_or(0.0));
        report.set(&END_TO_END, "ecp_overhead_pct", over[0]);
        report.set(&END_TO_END, "ok_frac", ok_frac(&report));
        return report;
    }

    // The layer split of sweep 0's golden runs, re-run from outside, each
    // beside its standard twin (the runs are short, so both are repeated
    // and their normalized times pooled for the host-time ratio).
    let mut golden_runs = Vec::new();
    let (mut ecp_secs, mut std_secs) = (0.0, 0.0);
    for rep in 0..FORK_REPS {
        for g in &goldens {
            let runs = run_checked(&g.cfg, tracer, rep == 0, Some(cal)).and_then(|ecp| {
                run_checked(&std_twin(&g.cfg), tracer, false, Some(cal)).map(|std| (ecp, std))
            });
            match runs {
                Ok((ecp, std)) => {
                    ecp_secs += ecp.norm_s;
                    std_secs += std.norm_s;
                    if rep == 0 {
                        golden_runs.push(ecp.run);
                    }
                }
                Err(e) => {
                    report.judge(Err(format!("golden re-run: {e}")));
                    return report;
                }
            }
        }
    }
    let span = tracer.open("replay");
    let split = layers::split(&golden_runs, tracer);
    tracer.close(span);
    set_split(&mut report, &split);
    let runs: Vec<&MachineRun> = golden_runs.iter().collect();
    core_counters(&mut report, &runs);
    set_decomposition(&mut report, over);
    report.set(&PER_LAYER, "core.ecp_host_ratio", ecp_secs / std_secs);
    report.set(
        &PER_LAYER,
        "machine.setup_ms_per_node",
        median(&setup_s) * 1e3 / (c.seeds * u64::from(c.nodes)) as f64,
    );

    let forks = fork_experiments(&c, &goldens[0], &tail.outcomes[0], tracer, &mut report);
    report.set(
        &PER_LAYER,
        "machine.snapshot_us_per_node",
        forks.snapshot_us_per_node,
    );
    report.set(
        &PER_LAYER,
        "recovery.host_ms_per_fault.transient",
        forks.fault_ms[0],
    );
    report.set(
        &PER_LAYER,
        "recovery.host_ms_per_fault.permanent",
        forks.fault_ms[1],
    );
    report.set(
        &PER_LAYER,
        "recovery.host_ms_per_fault.nested",
        forks.fault_ms[2],
    );
    report.set(
        &PER_LAYER,
        "recovery.rollback_cycles_p50",
        forks.phases.rollback.p50(),
    );
    report.set(
        &PER_LAYER,
        "recovery.reconfig_cycles_p50",
        forks.phases.reconfiguration.p50(),
    );
    report.set(
        &PER_LAYER,
        "protocol.retries_per_loss_case",
        forks.loss_retries,
    );
    report.set(&PER_LAYER, "campaign.fork_ms", forks.fork_ms);
    report.set(&PER_LAYER, "campaign.golden_share", median(&golden_share));
    report.set(&PER_LAYER, "chaos.case_ms", median(&case_ms));
    report.set(
        &PER_LAYER,
        "chaos.unrecoverable_frac",
        unrecoverable as f64 / c.cases as f64,
    );
    report.set(&PER_LAYER, "trace.overhead_pct", timing.overhead_pct());
    report
}

fn golden_ok(cell: &Cell, o: &CellOutcome) -> Result<(), String> {
    if !o.outcome.is_recovered() {
        return Err(format!(
            "golden {} did not recover: {}",
            cell.label, o.outcome
        ));
    }
    if o.stream_progress
        .iter()
        .any(|&p| p != cell.cfg.refs_per_node)
    {
        return Err(format!("golden {} missed its reference quota", cell.label));
    }
    Ok(())
}

/// What the traced chaos run measures on forks of one golden prefix.
struct Forks {
    snapshot_us_per_node: f64,
    /// Faulted minus unfaulted fork host time: transient, permanent,
    /// nested.
    fault_ms: [f64; 3],
    phases: PhaseLatency,
    loss_retries: f64,
    fork_ms: f64,
}

/// Forks the first golden run at half its length and measures recovery
/// and snapshot costs from outside: each faulted fork against an
/// unfaulted fork of the same snapshot, and the message-loss pair on the
/// reliable-transport band.
fn fork_experiments(
    c: &ChaosConfig,
    golden_cell: &Cell,
    golden_outcome: &CellOutcome,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Forks {
    let golden = GoldenRef::from_outcome(golden_outcome, c.private_floor(), c.refs_per_node);
    let at = golden_outcome.metrics.total_cycles / 2;
    let group = golden_cell.group;
    let scenario = |kind, node| Scenario {
        kind,
        node,
        at,
        repair_at: None,
    };
    let nested = ScenarioKind::Nested {
        gap: 2_000,
        second_node: 3,
        gap2: 0,
        third_node: 0,
        permanent_mask: 0,
    };
    let scenarios = [
        Scenario::none(),
        scenario(ScenarioKind::Transient, 1),
        scenario(ScenarioKind::Permanent, 2),
        scenario(nested, 1),
    ];
    let judge_fork = |report: &mut Report, label: &str, o: &CellOutcome| {
        report.judge(match ftcoma_chaos::judge(o, &golden) {
            Verdict::Fail(why) => Err(format!("fork {label}: {}", why.join("; "))),
            _ => Ok(()),
        });
    };

    let mut forge = SnapshotForge::new(golden_cell.cfg.clone(), false);
    let mut fork_s = Vec::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    let mut phases = PhaseLatency::default();
    for rep in 0..FORK_REPS {
        for (i, sc) in scenarios.iter().enumerate() {
            let cell = c.cell(1_000 + i as u64, group, *sc);
            let (m, secs) = tracer.time("SnapshotForge::machine_at", || forge.machine_at(at));
            fork_s.push(secs);
            let (o, secs) = tracer.time("run_cell_on", || run_cell_on(&cell, m));
            times[i].push(secs);
            if rep == 0 {
                judge_fork(report, &cell.label, &o);
                if i > 0 {
                    phases.merge(&o.metrics.phases);
                }
            }
        }
    }
    let base = median(&times[0]);
    let fault_ms = [1, 2, 3].map(|i| (median(&times[i]) - base) * 1e3);

    let m = forge.machine_at(at);
    let mut snap_s = Vec::new();
    for _ in 0..FORK_REPS {
        let span = tracer.open("Machine::snapshot+Snapshot::to_machine");
        let fork = m.snapshot().to_machine();
        snap_s.push(tracer.close(span));
        drop(fork);
    }

    let mut net_forge = SnapshotForge::new(golden_cell.cfg.clone(), true);
    let mut retries = [0u64; 2];
    let loss = [
        Scenario::none(),
        scenario(ScenarioKind::MessageLoss { rate: 200 }, 0),
    ];
    for (i, sc) in loss.iter().enumerate() {
        let cell = c.cell(2_000 + i as u64, group, *sc);
        let (m, secs) = tracer.time("SnapshotForge::machine_at", || net_forge.machine_at(at));
        fork_s.push(secs);
        let (o, _) = tracer.time("run_cell_on", || run_cell_on(&cell, m));
        judge_fork(report, &cell.label, &o);
        retries[i] = o.metrics.net_retries;
    }

    Forks {
        snapshot_us_per_node: median(&snap_s) * 1e6 / f64::from(c.nodes),
        fault_ms,
        phases,
        loss_retries: retries[1].saturating_sub(retries[0]) as f64,
        fork_ms: median(&fork_s) * 1e3,
    }
}
