//! The benchmark's own tests: the metric names agree with
//! `BENCHMARK.json`, every workload runs clean, and the deterministic
//! counts repeat exactly. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{per_layer, END_TO_END};
use perfbench::{run_workload, Outcome, RunConfig};
use simdize_telemetry::json::{self, Json};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Held by every test that runs a workload: each measures time and
/// wants the machine to itself.
static MACHINE: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// One short traced run. Every output must check
/// out; the replay-coverage floor is left to full-length runs, since a
/// window of one pass is too short to hold it reliably.
fn traced(workload: &str, seed: u64) -> Outcome {
    let cfg = RunConfig {
        seed,
        root: root(),
        measure: Duration::ZERO,
        trace: true,
        server_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    };
    let out = run_workload(workload, &cfg).unwrap();
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{workload}");
    out
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s `key` list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The metric names and units of a rendered result line.
fn printed(line: &str) -> Vec<(String, String)> {
    match json::parse(line).unwrap().get("metrics").unwrap() {
        Json::Obj(members) => members
            .iter()
            .map(|(name, v)| {
                (
                    name.clone(),
                    v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), end_to_end);
    assert_eq!(listed(&doc, "per_layer"), layers);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);

    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = traced("kernel-steady", 1);
    out.problems.clear();
    assert_eq!(printed(&out.render(true)), layers);
    assert_eq!(printed(&out.render(false)), end_to_end);
    assert!(out.problems.is_empty(), "{:?}", out.problems);
}

#[test]
fn deterministic_counts_repeat() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let same = |workload: &str, names: &[String]| {
        let (a, b) = (traced(workload, 5), traced(workload, 5));
        for name in names {
            let (x, y) = (a.values.get(name), b.values.get(name));
            assert!(x.is_some(), "{workload} reports no {name}");
            assert_eq!(x, y, "{workload}: {name}");
        }
    };
    let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    same(
        "paper-sweep",
        &names(&[
            "opd",
            "reorg.shifts",
            "reorg.shifts_over_bound",
            "codegen.insts",
            "engine.cache_misses",
        ]),
    );
    let mut kernel = names(&["opd", "reorg.shifts", "codegen.insts"]);
    kernel.extend(
        perfbench::inputs::KERNELS
            .iter()
            .map(|k| format!("kernel.{k}.ops")),
    );
    same("kernel-steady", &kernel);
    same(
        "prove-quick",
        &names(&["opd", "verify.units", "verify.runs"]),
    );
}

#[test]
fn serve_mixed_runs_clean_against_a_child_server() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = traced("serve-mixed", 2);
    let line = out.render(true);
    let compiled = out.values["reorg.place_us.calls"];
    assert!(compiled > 0.0, "{line}");
    assert!(out.values["server.decode_us.calls"] >= compiled);
}
