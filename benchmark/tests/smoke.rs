//! Runs the built harness: the committed `BENCHMARK.json` against what it
//! prints, and a `--quick` smoke of every workload in both modes.

use std::collections::BTreeSet;
use std::process::Command;

use sciflow_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sciflow_benchmark::json::{self, Json};

fn benchmark(args: &[&str]) -> (bool, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("harness runs");
    (out.status.success(), String::from_utf8(out.stdout).expect("utf-8 output"))
}

#[test]
fn committed_benchmark_json_is_what_describe_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json is committed at the root");
    let (ok, described) = benchmark(&["describe"]);
    assert!(ok);
    assert_eq!(committed, described, "regenerate with `benchmark describe > BENCHMARK.json`");

    // And it is the contract's shape: exactly these keys, these names.
    let doc = json::parse(&committed).expect("valid JSON");
    let Json::Obj(top) = &doc else { panic!("an object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert_eq!(doc.get("paths"), Some(&Json::Arr(vec![Json::Str("benchmark".into())])));
    let names = |key: &str| -> Vec<String> {
        let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is a list") };
        items
            .iter()
            .map(|i| i.get("name").and_then(Json::as_str).expect("named").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
}

/// What one run printed: its digest line and its result line.
struct Printed {
    digest: String,
    metrics: Vec<(String, f64, String)>,
}

fn run(workload: &str, seed: &str, trace: &str) -> Printed {
    let (ok, stdout) =
        benchmark(&["--workload", workload, "--seed", seed, "--trace", trace, "--quick"]);
    assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
    assert!(stdout.contains("scratch_fs tmpfs") || stdout.contains("scratch_fs disk"));
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("result_digest "))
        .expect("a result_digest line")
        .to_string();
    let doc = json::parse(stdout.lines().last().expect("a last line")).expect("a JSON result line");
    let Json::Obj(top) = &doc else { panic!("an object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(doc.get("attempted").and_then(Json::as_f64).expect("a count") >= 1.0);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics is an object") };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("a value");
            assert!(value.is_finite(), "{workload} {name} is {value}");
            (name.clone(), value, m.get("unit").and_then(Json::as_str).expect("a unit").to_string())
        })
        .collect();
    Printed { digest, metrics }
}

#[test]
fn quick_smoke_of_every_workload_in_both_modes() {
    let end_to_end: BTreeSet<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: BTreeSet<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let untraced = run(w.name, "1", "0");
        let printed: BTreeSet<(&str, &str)> =
            untraced.metrics.iter().map(|(n, _, u)| (n.as_str(), u.as_str())).collect();
        assert_eq!(printed, end_to_end, "{} --trace 0 prints every end-to-end metric", w.name);
        assert!(
            untraced.metrics.iter().all(|(_, v, _)| *v > 0.0),
            "end-to-end metrics are never 0"
        );

        let traced = run(w.name, "1", "1");
        let printed: BTreeSet<(&str, &str)> =
            traced.metrics.iter().map(|(n, _, u)| (n.as_str(), u.as_str())).collect();
        assert_eq!(printed, per_layer, "{} --trace 1 prints every per-layer metric", w.name);
        assert_eq!(untraced.digest, traced.digest, "{}: tracing changes no output", w.name);

        // The same seed again: digest and every exact count identical.
        let again = run(w.name, "1", "1");
        assert_eq!(traced.digest, again.digest);
        for ((name, a, _), (_, b, _)) in traced.metrics.iter().zip(&again.metrics) {
            if catalog::per_layer(name).expect("catalogued").exact {
                assert_eq!(a, b, "{}: exact count {name} repeats", w.name);
            }
        }

        // The traced run left its spans behind, parents before children.
        let path = format!("{}/out/trace-{}.json", env!("CARGO_MANIFEST_DIR"), w.name);
        let doc =
            json::parse(&std::fs::read_to_string(&path).expect("trace file written")).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w.name));
        let Some(Json::Arr(spans)) = doc.get("spans") else { panic!("spans is a list") };
        assert!(spans.iter().any(|s| s.get("pass").and_then(Json::as_f64) > Some(0.0)));
        let mut ids = BTreeSet::new();
        for s in spans {
            let id = s.get("id").and_then(Json::as_f64).expect("id") as u64;
            match s.get("parent") {
                Some(Json::Null) => {}
                Some(Json::Num(p)) => {
                    assert!(ids.contains(&(*p as u64)), "parent {p} precedes {id}")
                }
                other => panic!("parent is {other:?}"),
            }
            assert!(
                s.get("start_ns").and_then(Json::as_f64) <= s.get("end_ns").and_then(Json::as_f64)
            );
            ids.insert(id);
        }
    }
}

#[test]
fn another_seed_runs_clean_and_differs() {
    let one = run("es-ingest", "1", "0");
    let two = run("es-ingest", "2", "0");
    assert_ne!(one.digest, two.digest, "the seed reaches the inputs");
}

#[test]
fn bad_arguments_are_refused() {
    for args in [&["--workload", "no-such"][..], &["--trace", "2"], &["--frobnicate"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} prints no result");
    }
}
