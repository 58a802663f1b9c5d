//! End-to-end tests of the `ftcoma` binary's structured output: spawn the
//! real executable, parse what it writes, assert the schema.

use std::process::Command;

use ftcoma_sim::Json;

fn ftcoma(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ftcoma"))
        .args(args)
        .output()
        .expect("spawn ftcoma")
}

const RUN_ARGS: &[&str] = &[
    "run",
    "--workload",
    "water",
    "--nodes",
    "4",
    "--refs",
    "20000",
    "--warmup",
    "0",
    "--freq",
    "400",
    "--seed",
    "42",
];

#[test]
fn run_json_emits_versioned_schema_on_stdout() {
    let mut args = RUN_ARGS.to_vec();
    args.push("--json");
    let out = ftcoma(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::str::from_utf8(&out.stdout).expect("utf-8 stdout");
    let doc = Json::parse(text).expect("stdout is one valid JSON document");

    assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(8));
    let machine = doc.get("machine").expect("machine section");
    for key in [
        "nodes",
        "total_cycles",
        "refs",
        "read_miss_rate",
        "checkpoints",
        "t_create",
        "t_commit",
        "injections",
        "net",
    ] {
        assert!(machine.get(key).is_some(), "missing machine.{key}");
    }
    assert_eq!(machine.get("nodes").and_then(|v| v.as_u64()), Some(4));

    let per_node = doc.get("per_node").unwrap().as_array().unwrap();
    assert_eq!(per_node.len(), 4);
    let refs: u64 = per_node
        .iter()
        .map(|n| n.get("refs").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(Some(refs), machine.get("refs").and_then(|v| v.as_u64()));

    let per_link = doc.get("per_link").unwrap().as_array().unwrap();
    assert!(!per_link.is_empty(), "mesh runs must report per-link rows");
    for row in per_link {
        for key in [
            "from",
            "to",
            "class",
            "messages",
            "busy_cycles",
            "utilization",
        ] {
            assert!(row.get(key).is_some(), "missing per_link.{key}");
        }
    }

    let lat = doc.get("access_latency").unwrap();
    for key in ["count", "mean", "p50", "p90", "p99", "max"] {
        assert!(lat.get(key).is_some(), "missing access_latency.{key}");
    }

    // Since schema 3 every run reports its structured recovery outcome.
    assert_eq!(
        doc.get("outcome")
            .and_then(|o| o.get("status"))
            .and_then(|v| v.as_str()),
        Some("recovered")
    );
}

#[test]
fn run_fail_at_injects_and_reports_the_outcome() {
    let mut args = RUN_ARGS.to_vec();
    args.extend([
        "--fail-at",
        "8000",
        "--fail-kind",
        "transient",
        "--fail-node",
        "2",
        "--json",
    ]);
    let out = ftcoma(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let machine = doc.get("machine").expect("machine section");
    assert_eq!(machine.get("failures").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        doc.get("outcome")
            .and_then(|o| o.get("status"))
            .and_then(|v| v.as_str()),
        Some("recovered")
    );

    // The triple is validated: satellites without --fail-at are rejected.
    let out = ftcoma(&["run", "--workload", "water", "--fail-kind", "permanent"]);
    assert!(!out.status.success());
    let out = ftcoma(&["run", "--workload", "water", "--fail-at", "100", "--no-ft"]);
    assert!(!out.status.success(), "--fail-at needs the ECP");
}

#[test]
fn chaos_smoke_is_deterministic_and_passes() {
    let base = [
        "chaos", "--seeds", "2", "--cases", "6", "--nodes", "8", "--refs", "1500", "--freq",
        "1000", "--seed", "77", "--json",
    ];
    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let out = ftcoma(&[&base[..], &["--jobs", jobs]].concat());
        assert!(
            out.status.success(),
            "chaos failed the oracle; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::str::from_utf8(&out.stdout).unwrap().to_string();
        let doc = Json::parse(&text).expect("chaos report parses");
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("chaos"));
        let oracle = doc.get("oracle").expect("oracle tallies");
        assert_eq!(oracle.get("fail").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(doc.get("cases").unwrap().as_array().unwrap().len(), 6);
        reports.push(text);
    }
    assert_eq!(
        reports[0], reports[1],
        "chaos reports must be byte-identical across --jobs"
    );
}

#[test]
fn chaos_net_faults_smoke_passes() {
    let out = ftcoma(&[
        "chaos",
        "--seeds",
        "1",
        "--cases",
        "4",
        "--nodes",
        "8",
        "--refs",
        "1500",
        "--freq",
        "1000",
        "--seed",
        "9",
        "--net-faults",
        "--jobs",
        "2",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "net-fault chaos failed the oracle; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    assert_eq!(
        doc.get("config")
            .and_then(|c| c.get("net_faults"))
            .and_then(|v| v.as_bool()),
        Some(true)
    );
    let oracle = doc.get("oracle").expect("oracle tallies");
    assert_eq!(oracle.get("fail").and_then(|v| v.as_u64()), Some(0));
}

#[test]
fn metrics_and_trace_files_are_valid_json() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let metrics = dir.join(format!("ftcoma_test_m_{tag}.json"));
    let trace = dir.join(format!("ftcoma_test_t_{tag}.json"));
    let jsonl = dir.join(format!("ftcoma_test_t_{tag}.jsonl"));

    let mut args: Vec<String> = RUN_ARGS.iter().map(|s| s.to_string()).collect();
    for (flag, path) in [
        ("--metrics-out", &metrics),
        ("--trace-out", &trace),
        ("--spans-out", &jsonl),
    ] {
        args.push(flag.to_string());
        args.push(path.to_string_lossy().into_owned());
    }
    let out = ftcoma(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let m = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(m.get("schema_version").and_then(|v| v.as_u64()), Some(8));

    let t = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = t.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "trace must contain events");
    for e in events {
        assert!(
            e.get("ph").is_some() && e.get("pid").is_some(),
            "bad trace row: {e:?}"
        );
        if e.get("ph").and_then(|v| v.as_str()) != Some("M") {
            assert!(e.get("ts").is_some(), "non-metadata rows need a timestamp");
        }
    }
    // Commit scans are complete slices; deliveries are instants.
    let has = |ph: &str, name: &str| {
        events.iter().any(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some(ph)
                && e.get("name").and_then(|v| v.as_str()) == Some(name)
        })
    };
    assert!(has("X", "commit"), "no commit scan slice");
    assert!(has("i", "ReadReq"), "no delivery instant");

    let lines: Vec<String> = std::fs::read_to_string(&jsonl)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert!(lines.len() > 1, "JSONL needs a header and records");
    for line in &lines {
        Json::parse(line).expect("every JSONL line parses");
    }
    assert_eq!(
        Json::parse(&lines[0])
            .unwrap()
            .get("schema_version")
            .and_then(|v| v.as_u64()),
        Some(8)
    );
    // The protocol trace is part of the span stream: no separate flag.
    let mut old = RUN_ARGS.to_vec();
    old.extend(["--trace-jsonl", "unused.jsonl"]);
    let out = ftcoma(&old);
    assert!(!out.status.success(), "--trace-jsonl must be rejected");

    for p in [metrics, trace, jsonl] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn spans_timeseries_and_trace_summarize_work_end_to_end() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let spans = dir.join(format!("ftcoma_test_s_{tag}.jsonl"));
    let ts = dir.join(format!("ftcoma_test_ts_{tag}.jsonl"));
    let spans_str = spans.to_string_lossy().into_owned();
    let ts_str = ts.to_string_lossy().into_owned();

    // A faulted run so the span log carries a recovery tree too.
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.extend([
        "--fail-at",
        "8000",
        "--fail-kind",
        "transient",
        "--fail-node",
        "2",
        "--spans-out",
        &spans_str,
        "--timeseries-out",
        &ts_str,
        "--timeseries-every",
        "5000",
    ]);
    let out = ftcoma(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Spans JSONL: header + rows, transaction and recovery decompositions.
    let text = std::fs::read_to_string(&spans).unwrap();
    assert!(text.lines().count() > 1, "spans file needs header + rows");
    for line in text.lines() {
        Json::parse(line).expect("every spans line parses");
    }
    assert!(text.contains("\"transaction\""), "no transaction spans");
    assert!(text.contains("\"recovery\""), "no recovery span");

    // Time-series JSONL: header + sampled rows with the core columns.
    let ts_text = std::fs::read_to_string(&ts).unwrap();
    let rows: Vec<Json> = ts_text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(rows.len() > 2, "time-series needs header + several rows");
    assert!(rows[1].get("cycle").is_some() && rows[1].get("nodes_up").is_some());

    // `trace summarize` reads the file back and prints a ranked listing.
    let out = ftcoma(&["trace", "summarize", "--spans", &spans_str, "--top", "3"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("roots"), "summary header missing: {stdout}");
    assert!(stdout.contains("#1"), "no ranked rows: {stdout}");

    // Bad invocations fail cleanly.
    assert!(!ftcoma(&["trace"]).status.success());
    assert!(!ftcoma(&["trace", "bogus"]).status.success());

    for p in [spans, ts] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn campaign_is_deterministic_across_job_counts() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let spec = dir.join(format!("ftcoma_test_spec_{tag}.json"));
    std::fs::write(
        &spec,
        r#"{
            "name": "cli-determinism",
            "seed": 11,
            "workloads": ["water", "mp3d"],
            "nodes": [4],
            "freqs": [400],
            "refs": 2000,
            "warmup": 0,
            "scenarios": [
                {"kind": "none"},
                {"kind": "transient", "node": 1, "at": 4000}
            ]
        }"#,
    )
    .unwrap();
    let spec_str = spec.to_string_lossy().into_owned();

    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let out = ftcoma(&["campaign", "--spec", &spec_str, "--jobs", jobs, "--json"]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::str::from_utf8(&out.stdout).unwrap().to_string();
        let doc = Json::parse(&text).expect("campaign report parses");
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("campaign"));
        // 2 workloads x (1 baseline + 2 scenarios) = 6 cells.
        assert_eq!(doc.get("cells").unwrap().as_array().unwrap().len(), 6);
        reports.push(text);
    }
    assert_eq!(
        reports[0], reports[1],
        "--jobs 1 and --jobs 4 reports must be byte-identical"
    );

    // Single-cell replay reproduces the full run's numbers for that cell.
    let out = ftcoma(&["campaign", "--spec", &spec_str, "--cell", "1", "--json"]);
    assert!(out.status.success());
    let cell = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let full = Json::parse(&reports[0]).unwrap();
    let row = &full.get("cells").unwrap().as_array().unwrap()[1];
    assert_eq!(cell.get("label"), row.get("label"));
    assert_eq!(
        cell.get("metrics").unwrap().get("machine"),
        row.get("metrics").unwrap().get("machine"),
        "replayed cell diverged from the campaign run"
    );

    let _ = std::fs::remove_file(spec);
}

#[test]
fn campaign_rejects_bad_specs() {
    let dir = std::env::temp_dir();
    let spec = dir.join(format!("ftcoma_test_badspec_{}.json", std::process::id()));
    std::fs::write(&spec, r#"{"bogus_key": 1}"#).unwrap();
    let out = ftcoma(&["campaign", "--spec", &spec.to_string_lossy()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown spec key"));
    let out = ftcoma(&["campaign"]);
    assert!(!out.status.success(), "campaign requires --spec");
    let _ = std::fs::remove_file(spec);
}

#[test]
fn export_failures_exit_through_the_error_path_not_a_panic() {
    // An unwritable --metrics-out must surface as a clean CLI error even
    // when --json is also requested: exit code, an `error:` line on
    // stderr, and crucially no panic backtrace from the doc plumbing.
    let mut args = RUN_ARGS.to_vec();
    args.extend([
        "--json",
        "--metrics-out",
        "/nonexistent-ftcoma-dir/metrics.json",
    ]);
    let out = ftcoma(&args);
    assert!(!out.status.success(), "unwritable path must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot write /nonexistent-ftcoma-dir/metrics.json"),
        "expected the CLI error path, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "export errors must not panic: {stderr}"
    );
    // The failed export must not have half-emitted the JSON document.
    assert!(
        out.stdout.is_empty(),
        "stdout must stay empty on export failure"
    );
}

#[test]
fn json_rejects_unknown_subcommand_flags() {
    let out = ftcoma(&["latency", "--json"]);
    assert!(!out.status.success(), "latency does not take --json");
}

/// A span row that ends before it starts is a clean error (exit 1 with the
/// offending line), not an overflow panic or a huge bogus duration.
#[test]
fn trace_summarize_rejects_a_span_that_ends_before_it_starts() {
    let path = std::env::temp_dir().join(format!("ftcoma_test_bad_{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"type\":\"meta\",\"schema_version\":8,\"spans\":1}\n\
         {\"id\":1,\"parent\":0,\"phase\":\"transaction\",\"node\":0,\"start\":10,\"end\":5}\n",
    )
    .unwrap();
    let out = ftcoma(&["trace", "summarize", "--spans", &path.to_string_lossy()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: line 2: span 1 ends at cycle 5 before it starts at cycle 10"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing is summarized");
}

/// Asserts a clean CLI rejection: exit code 1, an `error:` line on stderr
/// and no panic.
fn assert_rejected(args: &[&str]) {
    let out = ftcoma(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_machine_and_scenario_inputs_are_typed_errors() {
    for args in [
        &["failure", "--node", "99"][..],
        &["failure", "--nodes", "3"],
        &["compare", "--nodes", "3"],
        &["run", "--nodes", "1"],
        &["run", "--refs", "0"],
        &["failure", "--freq", "0"],
        &["run", "--freq", "-1"],
        &["sweep", "--nodes", "2"],
        &["sweep", "--freqs", "400,0"],
        // Out-of-range integers are rejected, not truncated.
        &["run", "--nodes", "65545"],
        &["failure", "--node", "65537"],
        &["run", "--max-retries", "4294967296"],
        &["chaos", "--nodes", "65540"],
        // Scenario rules come from the campaign's scenario parser.
        &["failure", "--kind", "transient", "--repair-at", "90000"],
        &["failure", "--kind", "continuous"],
        &["failure", "--node-mtbf", "5000"],
        &["run", "--fail-at", "0"],
        &["run", "--fail-at", "100", "--fail-kind", "continuous"],
    ] {
        assert_rejected(args);
    }
    let out = ftcoma(&["failure", "--kind", "permanent", "--repair-at", "10"]);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("`repair_at`"),
        "failure's errors name the scenario keys"
    );
}

#[test]
fn permanent_fault_below_the_ecp_floor_is_a_typed_error() {
    // A permanent fault on 4 nodes would leave 3 live nodes, below the
    // ECP's four-copy floor; it used to abort mid-run ("AM capacity
    // exhausted"). Five nodes keep four survivors and run.
    let machine = "--refs 6000 --warmup 0 --freq 400 --seed 7";
    let run = |nodes: u16| {
        format!("run --nodes {nodes} {machine} --fail-at 9000 --fail-kind permanent --fail-node 2")
    };
    let failure = format!("failure --nodes 4 {machine} --kind permanent --node 2 --at 9000");
    for cmd in [run(4), failure] {
        let args: Vec<&str> = cmd.split_whitespace().collect();
        assert_rejected(&args);
        let stderr = String::from_utf8_lossy(&ftcoma(&args).stderr).into_owned();
        assert_eq!(
            stderr.lines().next().unwrap_or_default(),
            "error: scenario permanently fails 1 of 4 nodes, leaving 3 live: \
             the ECP needs at least 4",
            "{cmd}"
        );
    }
    let out = ftcoma(&run(5).split_whitespace().collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The chaos fuzzer samples permanent faults on every machine it runs.
    assert_rejected(&["chaos", "--nodes", "4", "--seeds", "1", "--cases", "1"]);
}

#[test]
fn compare_accepts_only_the_flags_it_reads() {
    for flag in [
        &["--json"][..],
        &["--metrics-out", "m.json"],
        &["--fail-at", "30000"],
        &["--no-ft"],
        &["--verify"],
        &["--jobs", "2"],
    ] {
        let mut args = vec!["compare", "--nodes", "4", "--refs", "100"];
        args.extend(flag);
        assert_rejected(&args);
    }
}

#[test]
fn failure_json_is_byte_identical_to_the_equivalent_run() {
    let machine = [
        "--workload",
        "water",
        "--nodes",
        "8",
        "--refs",
        "6000",
        "--warmup",
        "0",
        "--freq",
        "400",
        "--seed",
        "7",
        "--json",
    ];
    let run = ftcoma(
        &[
            &["run", "--fail-at", "9000", "--fail-kind", "permanent"][..],
            &["--fail-node", "2"],
            &machine,
        ]
        .concat(),
    );
    let failure = ftcoma(
        &[
            &[
                "failure",
                "--at",
                "9000",
                "--kind",
                "permanent",
                "--node",
                "2",
            ][..],
            &machine,
        ]
        .concat(),
    );
    assert!(run.status.success() && failure.status.success());
    let doc = Json::parse(std::str::from_utf8(&run.stdout).unwrap()).unwrap();
    let failures = doc.get("machine").and_then(|m| m.get("failures"));
    assert_eq!(failures.and_then(|v| v.as_u64()), Some(1));
    assert_eq!(run.stdout, failure.stdout);
}

#[test]
fn failure_with_repairs_reports_survived_faults_and_mttr() {
    let machine = [
        "--workload",
        "water",
        "--nodes",
        "8",
        "--refs",
        "8000",
        "--warmup",
        "0",
        "--freq",
        "1000",
    ];
    for scenario in [
        &[
            "--kind",
            "permanent",
            "--node",
            "3",
            "--at",
            "20000",
            "--repair-at",
            "60000",
        ][..],
        &[
            "--kind",
            "continuous",
            "--node-mtbf",
            "60000",
            "--node-mttr",
            "10000",
        ],
    ] {
        let out = ftcoma(&[&["failure"][..], &machine, scenario].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with("scenario `"), "{stdout}");
        assert!(stdout.contains("\nfaults survived "), "{stdout}");
        assert!(stdout.contains("\nsteady MTTR "), "{stdout}");
    }
}

#[test]
fn compare_and_sweep_measure_the_same_pair() {
    let machine = [
        "--workload",
        "water",
        "--nodes",
        "4",
        "--refs",
        "8000",
        "--warmup",
        "0",
        "--seed",
        "11",
    ];
    let compare = ftcoma(&[&["compare", "--freq", "400"][..], &machine].concat());
    let sweep = ftcoma(&[&["sweep", "--freqs", "400"][..], &machine].concat());
    assert!(compare.status.success() && sweep.status.success());
    let compare = String::from_utf8_lossy(&compare.stdout);
    let sweep = String::from_utf8_lossy(&sweep.stdout);
    // The value column of a compare line (`standard  85456 cycles`).
    let num = |line: &str| line.split_whitespace().nth(1).unwrap().to_string();
    let lines: Vec<&str> = compare.lines().collect();
    let std_cycles = num(lines[1]);
    assert!(
        sweep.starts_with(&format!(
            "baseline (standard protocol): {std_cycles} cycles"
        )),
        "{compare}\n{sweep}"
    );
    let row: Vec<&str> = sweep.lines().nth(2).unwrap().split_whitespace().collect();
    let split: Vec<String> = lines[3..7].iter().map(|l| num(l)).collect();
    assert_eq!(row[0], "400");
    assert_eq!(
        row[1..],
        [
            split[0].as_str(),
            split[1].as_str(),
            split[2].as_str(),
            split[3].as_str()
        ],
        "{compare}\n{sweep}"
    );
}
