//! Tests of the benchmark itself: its names against `BENCHMARK.json`, its
//! generator replay, its digest and its layer split.

use std::collections::BTreeSet;

use ftbench::host::Calibrator;
use ftbench::layers::{self, MachineRun};
use ftbench::spans::Tracer;
use ftbench::workloads::{machine_cfg, run_checked};
use ftbench::{Digest, Workload, END_TO_END, PER_LAYER};
use ftcoma_core::FtConfig;
use ftcoma_machine::MachineConfig;
use ftcoma_sim::Json;
use ftcoma_workloads::presets;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalogue(c: &[(&str, &str)]) -> Vec<(String, String)> {
    c.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn printed_names_match_benchmark_json_and_the_name_grammar() {
    let doc = benchmark_json();
    assert_eq!(names_units(&doc, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names_units(&doc, "per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let mut seen = BTreeSet::new();
    for name in workloads.iter().map(String::as_str).chain(
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(name, _)| name),
    ) {
        assert!(is_name(name), "bad name {name}");
        assert!(seen.insert(name), "name {name} is used twice");
    }
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(is_unit(unit), "bad unit {unit} of {name}");
    }
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

fn small(seed: u64, ft: FtConfig) -> MachineConfig {
    machine_cfg(presets::water(), 4, (10_000, 2_000), ft, seed)
}

fn run(cfg: &MachineConfig, detail: bool, cal: Option<&mut Calibrator>) -> MachineRun {
    run_checked(cfg, &mut Tracer::new(false), detail, cal)
        .expect("a small fault-free run passes its checks")
        .run
}

#[test]
fn generator_replay_covers_exactly_the_streams_progress() {
    let cfg = small(7, FtConfig::disabled());
    let r = run(&cfg, false, None);
    let quota = cfg.refs_per_node + cfg.warmup_refs_per_node;
    assert!(r.progress.iter().all(|&p| p == quota));
    assert_eq!(layers::replay_generator(&cfg, &r.progress), r.refs_total());
    assert_eq!(r.refs_total(), quota * u64::from(cfg.nodes));
}

fn digest(seed: u64) -> Digest {
    let mut d = Digest::default();
    for ft in [FtConfig::disabled(), FtConfig::enabled(1_000.0)] {
        d.add_run(&run(&small(seed, ft), false, None).metrics);
    }
    d
}

#[test]
fn digest_repeats_for_a_seed_and_changes_with_it() {
    let a = digest(11);
    assert_eq!(a, digest(11));
    assert_ne!(a, digest(12));
    assert!(a.checkpoints > 0 && a.messages > 0);
}

#[test]
fn calibrated_runs_simulate_exactly_what_straight_runs_do() {
    let cfg = small(5, FtConfig::enabled(1_000.0));
    let straight = run(&cfg, false, None);
    let sliced = run(&cfg, false, Some(&mut Calibrator::new()));
    let mut a = Digest::default();
    a.add_run(&straight.metrics);
    let mut b = Digest::default();
    b.add_run(&sliced.metrics);
    assert_eq!(a, b);
    assert_eq!(straight.progress, sliced.progress);
}

#[test]
fn layer_shares_and_the_remainder_sum_to_one() {
    let runs: Vec<MachineRun> = [FtConfig::disabled(), FtConfig::enabled(1_000.0)]
        .into_iter()
        .map(|ft| run(&small(3, ft), true, None))
        .collect();
    let s = layers::split(&runs, &mut Tracer::new(true));
    let total = s.queue_share + s.gen_share + s.mem_share + s.net_share + s.other_share;
    assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    for share in [s.queue_share, s.gen_share, s.mem_share, s.net_share] {
        assert!(share > 0.0, "every replay takes time: {s:?}");
    }
    assert_eq!(
        s.gen_refs,
        runs.iter().map(MachineRun::refs_total).sum::<u64>()
    );
}
