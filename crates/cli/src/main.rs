//! `ftcoma` — command-line front end for the ft-coma simulator.
//!
//! ```text
//! ftcoma run      --workload mp3d --nodes 16 --refs 60000 [--freq 100 | --no-ft]
//! ftcoma compare  --workload mp3d --nodes 16 --freq 100        # std vs ECP
//! ftcoma sweep    --workload water --freqs 400,200,100,50,5    # Fig 3 style
//! ftcoma failure  --workload water --kind permanent --node 3 --at 20000 [--repair-at 80000]
//! ftcoma campaign --spec grid.json --jobs 8 --out report.json  # parallel grid
//! ftcoma chaos    --seeds 4 --cases 200 --jobs 4 --out chaos.json
//! ftcoma chaos    --replay chaos-counterexample-17.json        # reproduce
//! ftcoma trace summarize --spans spans.jsonl --top 10          # slowest txns
//! ftcoma latency                                               # Table 2 probe
//! ftcoma help
//! ```

mod args;

use std::process::ExitCode;
use std::time::Instant;

use args::{ArgError, Parsed};
use ftcoma_campaign::{
    check_freq, frequency_grid, report, run_cell, run_cells, workload_by_name, CampaignSpec, Cell,
    CellOutcome, Scenario, ScenarioKind, SpecError,
};
use ftcoma_chaos::{ChaosConfig, Counterexample, Verdict};
use ftcoma_core::{FtConfig, RecoveryOutcome};
use ftcoma_machine::{export, probe, MachineConfig, RetryPolicy, RunMetrics};
use ftcoma_sim::span::SpanRecord;
use ftcoma_sim::{Clock, Json};
use ftcoma_workloads::SplashConfig;

fn main() -> ExitCode {
    let parsed = match Parsed::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\nrun `ftcoma help` for usage");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\nrun `ftcoma help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(p: &Parsed) -> Result<(), ArgError> {
    match p.command.as_str() {
        "run" => cmd_run(p),
        "compare" => cmd_compare(p),
        "sweep" => cmd_sweep(p),
        "failure" => cmd_failure(p),
        "campaign" => cmd_campaign(p),
        "chaos" => cmd_chaos(p),
        "trace" => cmd_trace(p),
        "latency" => cmd_latency(p),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(ArgError(format!("unknown subcommand `{other}`"))),
    }
}

const HELP: &str = "\
ftcoma — fault-tolerant COMA simulator (Morin et al., ISCA 1996)

USAGE
  ftcoma run      --workload W [--nodes N] [--refs R] [--warmup U]
                  [--freq RP_PER_S | --no-ft] [--seed S] [--verify]
                  [--fail-at CYCLES [--fail-kind transient|permanent]
                  [--fail-node K]]
                  [--rto-base C] [--rto-cap C] [--max-retries N]
                  [--json] [--metrics-out FILE] [--trace-out FILE]
                  [--trace-capacity N] [--spans-out FILE]
                  [--timeseries-out FILE] [--timeseries-every CYCLES]
  ftcoma compare  --workload W [--nodes N] [--refs R] [--warmup U] [--freq F]
                  [--seed S]
  ftcoma sweep    --workload W [--nodes N] [--refs R] [--warmup U]
                  [--freqs F1,F2,...] [--seed S] [--jobs J]
  ftcoma failure  --workload W --kind transient|permanent|continuous
                  [--node K] [--at CYCLES] [--repair-at CYCLES]
                  [--node-mtbf C --node-mttr C] [--link-mtbf C --link-mttr C]
                  [--nodes N] [--refs R] [--warmup U] [--freq F] [--seed S]
                  [--rto-base C] [--rto-cap C] [--max-retries N]
                  [the OBSERVABILITY flags]
  ftcoma campaign --spec FILE [--jobs J] [--json] [--out FILE] [--cell ID]
  ftcoma chaos    [--seeds G] [--cases N] [--jobs J] [--seed S]
                  [--workload W] [--nodes K] [--freq F] [--refs R]
                  [--net-faults] [--soak] [--nested] [--out FILE] [--json]
  ftcoma chaos    --replay ARTIFACT.json
  ftcoma trace summarize --spans FILE [--top K]
  ftcoma latency
  ftcoma help

RUNS AND GRIDS (run, failure, compare, sweep)
  --seed S is the machine seed of every run these commands make: compare
  and sweep pair the standard-protocol baseline with each ECP frequency
  on that one seed, so `compare --freq F` and `sweep --freqs F` measure
  the same pair. failure's scenario flags map onto the campaign scenario
  keys of the same name (--repair-at -> repair_at, --node-mtbf ->
  node_mtbf), run's --fail-at/--fail-node onto `at`/`node`. The campaign's
  scenario parser and cell validator check them before any machine is
  built, so their error messages name those keys. A permanent fault must
  leave the ECP at least four live nodes (so chaos needs --nodes >= 5).

CAMPAIGNS
  A campaign spec (see docs/CAMPAIGNS.md) expands workloads x node counts
  x checkpoint frequencies x failure scenarios into independent cells, run
  on J worker threads. Per-cell seeds are derived from the campaign seed
  at expansion time, so the aggregated JSON report is byte-identical at
  any --jobs level (wall-clock timings go to a separate <out>.timing.json
  sidecar). --cell replays one cell. A `continuous` scenario installs a
  seeded MTBF/MTTR failure-repair process instead of scripted faults; the
  report's availability section carries the availability-vs-time curve
  and steady-state MTTR (see docs/CAMPAIGNS.md).

CHAOS (see docs/CHAOS.md)
  A seeded fuzzer sweeps failure injections across the whole protocol
  lifecycle (mid-transaction, checkpoint establishment, drain, recovery,
  back-to-back pairs) and judges every case with a three-layer oracle:
  post-recovery invariants, golden replay against an unfaulted run of the
  same seed, and liveness bounds. Failing cases are shrunk by bisection
  and written as standalone counterexample artifacts; --replay re-runs
  one artifact byte-identically (exit 0 iff it still reproduces).
  --net-faults mixes interconnect faults into the sampled cases: link
  cuts, router deaths and message-loss episodes, which the fault-aware
  routing and reliable transport must mask or escalate cleanly (see
  docs/NETWORK.md).
  --soak mixes continuous MTBF/MTTR failure-repair processes into the
  sampled cases: the case machine keeps failing, repairing and re-failing
  nodes (and links) for its whole run, probing long-horizon availability
  instead of one scripted fault.
  --nested mixes nested-fault chains into the sampled cases: two- and
  three-fault sequences with gaps tight enough to land later faults
  inside open recovery windows, forcing recovery to abandon and restart.
  A case may only end unrecoverable if the copy-accounting audit
  certifies a committed item with zero live copies.
  Reports are byte-identical across --jobs; wall-clock time goes to the
  <out>.timing.json sidecar. Counterexample artifacts carry the failing
  case's recovery span timeline.
  FTCOMA_BENCH_QUICK=1 halves the per-case run length for CI smoke.

OBSERVABILITY (run and failure; see docs/OBSERVABILITY.md)
  --json                   print the run metrics as versioned JSON on stdout
  --metrics-out FILE       also write that JSON document to FILE
  --trace-out FILE         write a Chrome trace-event file (Perfetto-viewable;
                           causal spans with flow arrows, protocol events
                           as instants)
  --trace-capacity N       retain the newest N trace records — causal spans
                           and protocol events share one ring (default
                           1000000 when --trace-out or --spans-out is
                           given, else 0)
  --spans-out FILE         write the trace records as JSON Lines
  --timeseries-out FILE    write epoch-sampled time-series rows as JSON Lines
  --timeseries-every N     sample every N cycles (default 10000 when
                           --timeseries-out is given, else off)
  ftcoma trace summarize --spans FILE [--top K]
                           print the K slowest transactions with their
                           per-phase decomposition (default 10)

WORKLOADS
  barnes, cholesky, mp3d, water (paper's Table 3), plus micro-benchmarks
  uniform, hotspot, prodcons.
";

fn workload(p: &Parsed) -> Result<SplashConfig, ArgError> {
    Ok(workload_by_name(&p.str_or("workload", "water"))?)
}

fn write_file(path: &str, contents: &str) -> Result<(), ArgError> {
    std::fs::write(path, contents).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

fn read_file(path: &str) -> Result<String, ArgError> {
    std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))
}

impl From<SpecError> for ArgError {
    fn from(e: SpecError) -> Self {
        ArgError(e.0)
    }
}

/// Flags every single-grid command reads: the workload and machine shape.
const GRID_FLAGS: &[&str] = &["workload", "nodes", "refs", "warmup", "seed"];

/// The machine flags `run` and `failure` read on top of the grid flags:
/// the ECP frequency and the reliable transport's retry policy.
const MACHINE_FLAGS: &[&str] = &["freq", "rto-base", "rto-cap", "max-retries"];

/// The structured-output flags of `run` and `failure`.
const OUTPUT_FLAGS: &[&str] = &[
    "json",
    "metrics-out",
    "trace-out",
    "trace-capacity",
    "spans-out",
    "timeseries-out",
    "timeseries-every",
];

/// `failure`'s scenario flags; each maps onto the scenario key of the same
/// name (`--repair-at` → `repair_at`).
const FAILURE_SCENARIO_FLAGS: &[&str] = &[
    "node",
    "at",
    "repair-at",
    "node-mtbf",
    "node-mttr",
    "link-mtbf",
    "link-mttr",
];

/// The machine a command's flags describe. Nothing is validated here
/// beyond the frequency; [`Cell::validate`] checks the rest before any
/// machine is built.
fn machine_config(p: &Parsed) -> Result<MachineConfig, ArgError> {
    let ft = if p.has("no-ft") {
        FtConfig::disabled()
    } else {
        let freq = p.f64_or("freq", 100.0)?;
        check_freq(freq).map_err(|e| ArgError(format!("--freq: {e}")))?;
        FtConfig::enabled(freq)
    };
    let net = if p.has("wormhole") {
        ftcoma_net::NetConfig::wormhole()
    } else {
        Default::default()
    };
    let default_trace_capacity = if p.has("trace-out") || p.has("spans-out") {
        1_000_000
    } else {
        0
    };
    let default_ts_every = if p.has("timeseries-out") { 10_000 } else { 0 };
    // Reliable-transport retry policy. The defaults reproduce the
    // historical constants, so runs that leave these flags alone are
    // byte-identical to builds that predate them.
    let d = RetryPolicy::default();
    Ok(MachineConfig {
        nodes: p.uint_or("nodes", 16)?,
        refs_per_node: p.uint_or("refs", 60_000)?,
        warmup_refs_per_node: p.uint_or("warmup", 30_000)?,
        workload: workload(p)?,
        ft,
        net,
        seed: p.uint_or("seed", 0xF7C0_3A11)?,
        verify: p.has("verify"),
        retry: RetryPolicy {
            rto_base: p.uint_or("rto-base", d.rto_base)?,
            rto_cap: p.uint_or("rto-cap", d.rto_cap)?,
            max_retries: p.uint_or("max-retries", d.max_retries)?,
        },
        trace_capacity: p.uint_or("trace-capacity", default_trace_capacity)?,
        timeseries_every: p.uint_or("timeseries-every", default_ts_every)?,
        ..MachineConfig::default()
    })
}

/// Handles the structured-output flags shared by `run` and `failure`.
/// Returns `true` when `--json` consumed stdout (suppress the text report).
fn export_outputs(p: &Parsed, o: &CellOutcome) -> Result<bool, ArgError> {
    let write = |flag: &str, contents: &str| write_file(&p.str_or(flag, ""), contents);
    let mut json = None;
    if p.has("json") || p.has("metrics-out") {
        let Json::Obj(mut pairs) = export::metrics_json(&o.metrics, &o.links) else {
            return Err(ArgError(
                "malformed metrics document: top level must be a JSON object".into(),
            ));
        };
        pairs.push(("outcome".into(), export::outcome_json(&o.outcome)));
        let text = Json::Obj(pairs).to_string_pretty();
        if p.has("metrics-out") {
            write("metrics-out", &format!("{text}\n"))?;
        }
        json = p.has("json").then_some(text);
    }
    if p.has("trace-out") {
        let chrome = export::chrome_trace_with_spans(&o.spans, Clock::ksr1().hz());
        write("trace-out", &format!("{}\n", chrome.to_string_compact()))?;
    }
    if p.has("spans-out") {
        write("spans-out", &export::spans_jsonl(&o.spans))?;
    }
    if p.has("timeseries-out") {
        write("timeseries-out", &export::timeseries_jsonl(&o.timeseries))?;
    }
    match json {
        Some(text) => {
            println!("{text}");
            Ok(true)
        }
        None => Ok(false),
    }
}

fn print_metrics(m: &RunMetrics) {
    println!("cycles           {:>14}", m.total_cycles);
    println!("instructions     {:>14}", m.instructions);
    println!("references       {:>14}", m.refs);
    println!("read miss rate   {:>13.2}%", m.read_miss_rate() * 100.0);
    println!("write miss rate  {:>13.2}%", m.write_miss_rate() * 100.0);
    if m.checkpoints > 0 {
        println!("recovery points  {:>14}", m.checkpoints);
        println!("T_create         {:>14}", m.t_create);
        println!("T_commit         {:>14}", m.t_commit);
        println!(
            "replication      {:>11.1} MB/s per node",
            m.replication_throughput_bps(20e6) / 1e6
        );
        println!(
            "injections/10k   {:>14.1}",
            m.per_10k_refs(m.injections_total())
        );
    }
    if m.failures > 0 {
        println!("failures         {:>14}", m.failures);
        println!("repairs          {:>14}", m.repairs);
        println!("T_recovery       {:>14}", m.t_recovery);
    }
    println!("pages allocated  {:>14}", m.pages_allocated);
    let s = m.access_latency.summary();
    println!(
        "access latency   mean {:.1}cy, p50<={:.0}, p90<={:.0}, p99<={:.0}, max {}",
        s.mean, s.p50, s.p90, s.p99, s.max,
    );
}

/// Error mapping shared by every command that surfaces a [`RecoveryOutcome`]:
/// an invariant violation is a simulator-correctness failure and must fail
/// the process; an unrecoverable second fault is a *reported* legal outcome.
fn fail_on_violation(outcome: &RecoveryOutcome) -> Result<(), ArgError> {
    if let RecoveryOutcome::InvariantViolation { at, problems } = outcome {
        return Err(ArgError(format!(
            "invariant violation at cycle {at}: {}",
            problems.join("; ")
        )));
    }
    Ok(())
}

/// The `--kind`-style flag `flag`, one of `kinds` (the first is the
/// default).
fn kind_flag(p: &Parsed, flag: &str, kinds: &[&str]) -> Result<String, ArgError> {
    let kind = p.str_or(flag, kinds[0]);
    if kinds.contains(&kind.as_str()) {
        Ok(kind)
    } else {
        Err(ArgError(format!(
            "--{flag} must be {}, got {kind}",
            kinds.join("|")
        )))
    }
}

/// The single cell of `run` and `failure`: the flags' machine plus a
/// scenario of `kind` whose keys come from `flags` (`--repair-at` →
/// `repair_at`, `run`'s `--fail-node` → `node`). The scenario goes
/// through the campaign's parser and the cell through [`Cell::validate`],
/// so both commands enforce exactly the rules campaign specs do, and
/// errors name the scenario keys.
fn single_cell(p: &Parsed, kind: &str, flags: &[&str]) -> Result<Cell, ArgError> {
    let mut keys = vec![("kind".to_string(), Json::from(kind))];
    for flag in flags.iter().filter(|f| p.has(f)) {
        let key = flag.trim_start_matches("fail-").replace('-', "_");
        keys.push((key, Json::from(p.uint_or(flag, 0u64)?)));
    }
    // A continuous process samples from the start unless told otherwise;
    // a scripted fault's `at` defaults to the parser's 20000.
    if kind == "continuous" && !keys.iter().any(|(k, _)| k == "at") {
        keys.push(("at".into(), Json::from(0u64)));
    }
    let scenario = Scenario::from_json(&Json::Obj(keys))?;
    let mut cfg = machine_config(p)?;
    // An injected run is always checked against the oracle.
    cfg.verify |= scenario.kind != ScenarioKind::None;
    let cell = Cell {
        id: 0,
        group: 0,
        label: format!(
            "{}/{}",
            cfg.workload.name.to_ascii_lowercase(),
            scenario.label()
        ),
        cfg,
        scenario,
    };
    cell.validate()?;
    Ok(cell)
}

/// Runs the cell of `run` or `failure`, writes the structured outputs and,
/// unless `--json` claimed stdout, prints the text report with `text`.
fn run_single(p: &Parsed, cell: &Cell, text: impl FnOnce(&CellOutcome)) -> Result<(), ArgError> {
    let outcome = run_cell(cell);
    if !export_outputs(p, &outcome)? {
        text(&outcome);
    }
    fail_on_violation(&outcome.outcome)
}

fn cmd_run(p: &Parsed) -> Result<(), ArgError> {
    const INJECTION_FLAGS: &[&str] = &["fail-at", "fail-node"];
    p.assert_only(
        &[
            GRID_FLAGS,
            MACHINE_FLAGS,
            OUTPUT_FLAGS,
            INJECTION_FLAGS,
            &["fail-kind", "no-ft", "verify", "wormhole"],
        ]
        .concat(),
    )?;
    let kind = if p.has("fail-at") {
        kind_flag(p, "fail-kind", &["transient", "permanent"])?
    } else if p.has("fail-kind") || p.has("fail-node") {
        return Err(ArgError(
            "--fail-kind/--fail-node need --fail-at CYCLES".into(),
        ));
    } else {
        "none".into()
    };
    let cell = single_cell(p, &kind, INJECTION_FLAGS)?;
    if !p.has("json") {
        let cfg = &cell.cfg;
        println!(
            "running {} on {} nodes ({})",
            cfg.workload.name,
            cfg.nodes,
            if cell.is_ft() {
                format!("ECP, {} rp/s", cfg.ft.ckpt_rate_hz)
            } else {
                "standard protocol".into()
            }
        );
        println!("capacity check: {}", cfg.capacity_report());
    }
    run_single(p, &cell, |o| {
        print_metrics(&o.metrics);
        if cell.scenario.kind != ScenarioKind::None || !o.outcome.is_recovered() {
            println!("outcome          {}", o.outcome);
        }
    })
}

fn cmd_failure(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(
        &[
            GRID_FLAGS,
            MACHINE_FLAGS,
            OUTPUT_FLAGS,
            FAILURE_SCENARIO_FLAGS,
            &["kind"],
        ]
        .concat(),
    )?;
    let kind = kind_flag(p, "kind", &["transient", "permanent", "continuous"])?;
    let cell = single_cell(p, &kind, FAILURE_SCENARIO_FLAGS)?;
    let sc = cell.scenario;
    run_single(p, &cell, |o| {
        match &o.outcome {
            RecoveryOutcome::Recovered => {
                println!("scenario `{}`: recovered and verified", sc.label());
            }
            other => println!("scenario `{}`: {other}", sc.label()),
        }
        if matches!(sc.kind, ScenarioKind::Continuous { .. }) || sc.repair_at.is_some() {
            println!("faults survived  {:>14}", o.metrics.faults_survived);
            println!(
                "steady MTTR      {:>11.0} cy",
                o.metrics.steady_mttr_cycles()
            );
        }
        print_metrics(&o.metrics);
    })
}

/// `--jobs` with a per-core default, shared by `sweep` and `campaign`
/// (`compare` takes no `--jobs` and always gets the default).
fn jobs_flag(p: &Parsed) -> Result<usize, ArgError> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    match p.uint_or("jobs", default)? {
        0 => Err(ArgError("--jobs must be at least 1".into())),
        jobs => Ok(jobs),
    }
}

/// The grid of `compare` and `sweep`: the flags' machine under the
/// standard protocol, then under the ECP at each of `freqs`, every cell on
/// the `--seed` machine seed. Returns the cells and their outcomes.
fn run_grid(p: &Parsed, freqs: &[f64]) -> Result<(Vec<Cell>, Vec<CellOutcome>), ArgError> {
    let cells = frequency_grid(&machine_config(p)?, freqs)?;
    let outcomes = run_cells(&cells, jobs_flag(p)?);
    Ok((cells, outcomes))
}

fn cmd_compare(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&[GRID_FLAGS, &["freq"]].concat())?;
    // `machine_config` checks `--freq` before the grid is built.
    let (cells, outcomes) = run_grid(p, &[p.f64_or("freq", 100.0)?])?;
    let (std_m, ft_m) = (&outcomes[0].metrics, &outcomes[1].metrics);
    let d = ft_m.decomposition(std_m);
    let cfg = &cells[1].cfg;
    println!(
        "{} on {} nodes at {} rp/s:",
        cfg.workload.name, cfg.nodes, cfg.ft.ckpt_rate_hz
    );
    println!("standard    {:>12} cycles", std_m.total_cycles);
    println!("ECP         {:>12} cycles", ft_m.total_cycles);
    println!("overhead    {:>11.1}%", d.total_overhead * 100.0);
    println!("  create    {:>11.1}%", d.create * 100.0);
    println!("  commit    {:>11.1}%", d.commit * 100.0);
    println!("  pollution {:>11.1}%", d.pollution * 100.0);
    Ok(())
}

fn cmd_sweep(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&[GRID_FLAGS, &["freqs", "jobs"]].concat())?;
    let freqs = p.f64_list_or("freqs", &[400.0, 200.0, 100.0, 50.0])?;
    // The standard-protocol baseline runs once; every frequency is
    // measured against it.
    let (cells, outcomes) = run_grid(p, &freqs)?;
    let std_m = &outcomes[0].metrics;
    println!(
        "baseline (standard protocol): {} cycles over {} refs",
        std_m.total_cycles, std_m.refs
    );
    println!(
        "{:>8}  {:>9}  {:>8}  {:>8}  {:>9}",
        "rp/s", "overhead", "create", "commit", "pollution"
    );
    for (cell, outcome) in cells.iter().zip(&outcomes).skip(1) {
        let d = outcome.metrics.decomposition(std_m);
        println!(
            "{:>8}  {:>8.1}%  {:>7.1}%  {:>7.1}%  {:>8.1}%",
            cell.cfg.ft.ckpt_rate_hz,
            d.total_overhead * 100.0,
            d.create * 100.0,
            d.commit * 100.0,
            d.pollution * 100.0,
        );
    }
    Ok(())
}

const CAMPAIGN_FLAGS: &[&str] = &["spec", "jobs", "json", "out", "cell"];

fn cmd_campaign(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(CAMPAIGN_FLAGS)?;
    if !p.has("spec") {
        return Err(ArgError("campaign needs --spec FILE".into()));
    }
    let path = p.str_or("spec", "");
    let text = read_file(&path)?;
    let spec = CampaignSpec::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let cells = spec.expand();

    // Single-cell replay: same expansion, same derived seed, one run.
    if p.has("cell") {
        let id = p.uint_or("cell", 0)?;
        let cell = cells
            .iter()
            .find(|c| c.id == id)
            .ok_or_else(|| ArgError(format!("no cell {id}: the spec has {}", cells.len())))?;
        let outcome = run_cell(cell);
        if p.has("json") {
            println!(
                "{}",
                report::cell_json(cell, &outcome, None).to_string_pretty()
            );
        } else {
            println!("cell {id} ({})", cell.label);
            print_metrics(&outcome.metrics);
            if !outcome.outcome.is_recovered() {
                println!("outcome          {}", outcome.outcome);
            }
        }
        return fail_on_violation(&outcome.outcome);
    }

    let jobs = jobs_flag(p)?;
    let quiet = p.has("json");
    if !quiet {
        println!(
            "campaign `{}`: {} cells on {} worker thread{}",
            spec.name,
            cells.len(),
            jobs,
            if jobs == 1 { "" } else { "s" }
        );
    }
    let start = Instant::now();
    let outcomes = run_cells(&cells, jobs);
    let wall_ms_total = start.elapsed().as_secs_f64() * 1e3;
    // The report is always written/printed first — a violation must not
    // suppress the evidence describing it.
    let violations: Vec<String> = cells
        .iter()
        .zip(&outcomes)
        .filter_map(|(c, o)| match &o.outcome {
            RecoveryOutcome::InvariantViolation { at, problems } => Some(format!(
                "cell {} ({}): invariant violation at cycle {at}: {}",
                c.id,
                c.label,
                problems.join("; ")
            )),
            _ => None,
        })
        .collect();
    let finish = |violations: Vec<String>| -> Result<(), ArgError> {
        for v in &violations {
            eprintln!("error: {v}");
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(ArgError(format!(
                "{} cell(s) ended with invariant violations",
                violations.len()
            )))
        }
    };
    let doc = report::campaign_json(&spec, &cells, &outcomes);
    if p.has("out") {
        let out = p.str_or("out", "");
        write_file(&out, &doc.to_string_pretty())?;
        // Wall-clock timings go to a sidecar so the report diffs cleanly.
        let timing_path = timing_sidecar_path(&out);
        let timing = report::timing_json(&outcomes, wall_ms_total);
        write_file(&timing_path, &timing.to_string_pretty())?;
        if !quiet {
            println!("wrote {out} (+ {timing_path})");
        }
    }
    if quiet {
        println!("{}", doc.to_string_pretty());
        return finish(violations);
    }

    // Text summary: one row per cell, overhead for ECP cells whose group
    // has a baseline.
    println!(
        "{:>4}  {:<34} {:>12} {:>6} {:>5} {:>9}",
        "id", "label", "cycles", "ckpts", "fail", "overhead"
    );
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        let m = &outcome.metrics;
        let overhead = cells
            .iter()
            .zip(&outcomes)
            .find(|(c, _)| c.group == cell.group && !c.is_ft())
            .filter(|_| cell.is_ft())
            .map(|(_, base)| {
                let t_std = base.metrics.total_cycles as f64;
                format!("{:>8.1}%", (m.total_cycles as f64 / t_std - 1.0) * 100.0)
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>4}  {:<34} {:>12} {:>6} {:>5} {:>9}",
            cell.id, cell.label, m.total_cycles, m.checkpoints, m.failures, overhead
        );
    }
    println!(
        "{} cells in {:.1} s ({} job{})",
        cells.len(),
        wall_ms_total / 1e3,
        jobs,
        if jobs == 1 { "" } else { "s" }
    );
    finish(violations)
}

const CHAOS_FLAGS: &[&str] = &[
    "seeds",
    "cases",
    "jobs",
    "seed",
    "workload",
    "nodes",
    "freq",
    "refs",
    "out",
    "json",
    "replay",
    "net-faults",
    "soak",
    "nested",
];

/// Where the wall-clock sidecar of `--out report.json` lands:
/// `report.timing.json`.
fn timing_sidecar_path(out: &str) -> String {
    format!("{}.timing.json", out.strip_suffix(".json").unwrap_or(out))
}

/// Where a counterexample artifact lands: next to `--out` when given
/// (`report.json` → `report-counterexample-<id>.json`), else the cwd.
fn artifact_path(out: Option<&str>, case_id: u64) -> String {
    match out {
        Some(out) => format!(
            "{}-counterexample-{case_id}.json",
            out.strip_suffix(".json").unwrap_or(out)
        ),
        None => format!("chaos-counterexample-{case_id}.json"),
    }
}

fn cmd_chaos(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(CHAOS_FLAGS)?;
    if p.has("replay") {
        return cmd_chaos_replay(p);
    }
    let mut cfg = ChaosConfig::new(p.uint_or("seed", 0xC4A0_5EED)?);
    cfg.seeds = p.uint_or("seeds", cfg.seeds)?;
    cfg.cases = p.uint_or("cases", cfg.cases)?;
    cfg.jobs = jobs_flag(p)?;
    if p.has("workload") {
        cfg.workload = workload(p)?;
    }
    cfg.nodes = p.uint_or("nodes", cfg.nodes)?;
    cfg.freq_hz = p.f64_or("freq", cfg.freq_hz)?;
    cfg.refs_per_node = p.uint_or("refs", cfg.refs_per_node)?;
    cfg.net_faults = p.has("net-faults");
    cfg.soak = p.has("soak");
    cfg.nested = p.has("nested");
    let quiet = p.has("json");
    if !quiet {
        println!(
            "chaos: {} cases over {} seed groups ({} on {} nodes, {} rp/s, {} refs/node, {} job{})",
            cfg.cases,
            cfg.seeds,
            cfg.workload.name,
            cfg.nodes,
            cfg.freq_hz,
            cfg.refs_per_node,
            cfg.jobs,
            if cfg.jobs == 1 { "" } else { "s" }
        );
    }
    let report = ftcoma_chaos::run_chaos(&cfg).map_err(ArgError)?;
    let out = p.has("out").then(|| p.str_or("out", ""));
    // Artifacts and report first; the exit code must never suppress them.
    for cx in &report.counterexamples {
        let path = artifact_path(out.as_deref(), cx.case_id);
        let mut text = cx.to_json().to_string_pretty();
        text.push('\n');
        write_file(&path, &text)?;
        eprintln!(
            "counterexample: case {} shrunk to `{}` in {} runs -> {path}",
            cx.case_id,
            cx.scenario.label(),
            cx.shrink_runs
        );
        for r in &cx.reasons {
            eprintln!("  {r}");
        }
    }
    if let Some(out) = &out {
        let mut text = report.doc.to_string_pretty();
        text.push('\n');
        write_file(out, &text)?;
        let timing_path = timing_sidecar_path(out);
        let timing = Json::obj([(
            "timing",
            Json::obj([("wall_ms_total", Json::from(report.wall_ms_total))]),
        )]);
        write_file(&timing_path, &timing.to_string_pretty())?;
        if !quiet {
            println!("wrote {out} (+ {timing_path})");
        }
    }
    if quiet {
        println!("{}", report.doc.to_string_pretty());
    } else {
        println!(
            "verdicts: {} pass, {} unrecoverable (certified halts), {} fail",
            report.passed, report.unrecoverable, report.failed
        );
    }
    if report.failed > 0 {
        return Err(ArgError(format!(
            "{} case(s) failed the oracle (see counterexample artifacts)",
            report.failed
        )));
    }
    Ok(())
}

/// `ftcoma chaos --replay ARTIFACT`: exit 0 iff the counterexample still
/// reproduces (a fixed bug makes the replay *fail* with the new verdict).
fn cmd_chaos_replay(p: &Parsed) -> Result<(), ArgError> {
    let path = p.str_or("replay", "");
    let text = read_file(&path)?;
    let cx = Counterexample::parse(&text).map_err(ArgError)?;
    println!(
        "replaying case {} of campaign seed 0x{:016x}: {} on {} nodes, scenario `{}`",
        cx.case_id,
        cx.campaign_seed,
        cx.workload,
        cx.nodes,
        cx.scenario.label()
    );
    match ftcoma_chaos::replay(&cx).map_err(ArgError)? {
        Verdict::Fail(reasons) => {
            println!("reproduced: the scenario still fails the oracle");
            for r in &reasons {
                println!("  {r}");
            }
            Ok(())
        }
        v => Err(ArgError(format!(
            "counterexample did not reproduce (verdict now `{}`)",
            v.label()
        ))),
    }
}

/// `ftcoma trace summarize --spans FILE [--top K]`: reads a spans JSONL
/// file (the `--spans-out` format) and prints the K slowest root spans —
/// transactions and recoveries — each decomposed into its child phases.
fn cmd_trace(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&["spans", "top"])?;
    match p.subcommand.as_deref() {
        Some("summarize") => {}
        Some(other) => {
            return Err(ArgError(format!(
                "unknown trace action `{other}` (try `summarize`)"
            )))
        }
        None => {
            return Err(ArgError(
                "trace needs an action: `ftcoma trace summarize --spans FILE`".into(),
            ))
        }
    }
    if !p.has("spans") {
        return Err(ArgError("trace summarize needs --spans FILE".into()));
    }
    let path = p.str_or("spans", "");
    let text = read_file(&path)?;
    let spans = parse_spans_jsonl(&text)?;
    print_span_summary(&spans, p.uint_or("top", 10)?);
    Ok(())
}

/// Parses a spans JSONL file: the meta header line is skipped, every
/// other line must be one span row as written by `--spans-out`.
fn parse_spans_jsonl(text: &str) -> Result<Vec<SpanRecord>, ArgError> {
    let mut spans = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row = Json::parse(line).map_err(|e| ArgError(format!("line {}: {e}", ln + 1)))?;
        if row.get("type").is_some() {
            continue; // meta header
        }
        let span =
            export::span_from_json(&row).map_err(|e| ArgError(format!("line {}: {e}", ln + 1)))?;
        spans.push(span);
    }
    Ok(spans)
}

/// Prints the `top` slowest roots with their per-phase decomposition.
/// Only the transaction and recovery trees count: checkpoint spans and
/// protocol-event instants are skipped.
fn print_span_summary(spans: &[SpanRecord], top: usize) {
    let spans: Vec<SpanRecord> = spans
        .iter()
        .copied()
        .filter(|s| s.phase.is_causal())
        .collect();
    let mut roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    // Slowest first; id breaks ties so the listing is deterministic.
    roots.sort_by(|a, b| b.duration().cmp(&a.duration()).then(a.id.cmp(&b.id)));
    println!(
        "{} spans, {} roots; top {} by duration:",
        spans.len(),
        roots.len(),
        roots.len().min(top)
    );
    for (rank, root) in roots.iter().take(top).enumerate() {
        println!(
            "#{:<3} {:<12} node {:<3} start {:>10}  {:>8} cycles",
            rank + 1,
            root.phase.name(),
            root.node,
            root.start,
            root.duration()
        );
        // (phase name, summed duration, child count), largest share first.
        let mut by_phase: Vec<(&'static str, u64, u64)> = Vec::new();
        for s in spans.iter().filter(|s| s.parent == root.id) {
            match by_phase.iter_mut().find(|(n, _, _)| *n == s.phase.name()) {
                Some(e) => {
                    e.1 += s.duration();
                    e.2 += 1;
                }
                None => by_phase.push((s.phase.name(), s.duration(), 1)),
            }
        }
        by_phase.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let total = root.duration().max(1) as f64;
        for (name, dur, count) in &by_phase {
            println!(
                "      {:<16} {:>8} cycles ({:>5.1}%, {} span{})",
                name,
                dur,
                *dur as f64 / total * 100.0,
                count,
                if *count == 1 { "" } else { "s" }
            );
        }
    }
}

fn cmd_latency(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&[])?;
    let t = probe::read_miss_latencies();
    println!("read miss latencies (paper Table 2):");
    println!("  cache            {:>4} cycles", t.cache);
    println!("  local AM         {:>4} cycles", t.local_am);
    println!("  remote AM, 1 hop {:>4} cycles", t.remote_1hop);
    println!("  remote AM, 2 hop {:>4} cycles", t.remote_2hop);
    Ok(())
}
