//! Schema snapshot gate: the metrics document's *key tree* is pinned in
//! `specs/schema-v8.keys`. Adding, removing or reordering exported keys
//! is a schema change — it must come with a `SCHEMA_VERSION` bump and a
//! regenerated golden (`FTCOMA_UPDATE_SCHEMA=1 cargo test -p ftcoma-tests
//! --test schema_snapshot`), which makes the diff reviewable instead of
//! silent.
//!
//! The walk records every object key as a `.`-joined path; arrays descend
//! into their first element as `[]`, so per-node/per-link rows are pinned
//! once regardless of machine size.

use ftcoma_core::FtConfig;
use ftcoma_machine::{export, FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_sim::Json;
use ftcoma_workloads::presets;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../specs/schema-v8.keys");

fn walk(doc: &Json, prefix: &str, out: &mut Vec<String>) {
    match doc {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.push(path.clone());
                walk(v, &path, out);
            }
        }
        Json::Arr(items) => {
            if let Some(first) = items.first() {
                walk(first, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

/// One small faulted ECP run: exercises every section of the document
/// (phases, availability with a down interval, per-node, per-link,
/// outcome is exported by the CLI only, so it is not part of this tree).
fn sample_document() -> Json {
    let mut m = Machine::new(MachineConfig {
        nodes: 4,
        refs_per_node: 4_000,
        warmup_refs_per_node: 0,
        workload: presets::water(),
        ft: FtConfig::enabled(400.0),
        seed: 7,
        verify: true,
        ..MachineConfig::default()
    });
    m.schedule_failure(8_000, NodeId::new(2), FailureKind::Transient);
    let metrics = m.run();
    export::metrics_json(&metrics, &m.link_report())
}

#[test]
fn metrics_document_key_tree_matches_golden() {
    let mut keys = Vec::new();
    walk(&sample_document(), "", &mut keys);
    let mut text = String::new();
    for k in &keys {
        text.push_str(k);
        text.push('\n');
    }
    if std::env::var_os("FTCOMA_UPDATE_SCHEMA").is_some() {
        std::fs::write(GOLDEN, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("specs/schema-v8.keys missing — run with FTCOMA_UPDATE_SCHEMA=1 to create it");
    assert_eq!(
        golden, text,
        "exported key tree changed: bump SCHEMA_VERSION (crates/machine/src/export.rs), \
         document the change in docs/OBSERVABILITY.md, and regenerate the golden with \
         FTCOMA_UPDATE_SCHEMA=1"
    );
}
