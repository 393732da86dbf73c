//! Smoke-size runs of all four workloads: the output schema matches
//! `BENCHMARK.json`, every run passes its digest check, and the exact
//! counts repeat across two runs of one seed.

use pp_perfbench::{exact_metrics, run, Args, Outcome, Size, Workload};

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let outcome = run(&Args {
        workload,
        seed: 5,
        seconds: 0.05,
        trace,
        size: Size::Smoke,
    })
    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(outcome.correct, "{}: digest check failed", workload.name());
    assert!(outcome.attempted > 0, "{}", workload.name());
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    outcome
}

/// The metric names one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let rest = &json[start..];
    let end = rest[1..]
        .find("\"per_layer\"")
        .map_or(rest.len(), |i| i + 1);
    let mut names: Vec<String> = rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect();
    names.sort();
    names
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.0.keys().cloned().collect()
}

#[test]
fn every_workload_emits_the_declared_metrics() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in Workload::ALL {
        assert_eq!(
            names(&smoke(workload, false)),
            end_to_end,
            "{}",
            workload.name()
        );
        assert_eq!(
            names(&smoke(workload, true)),
            per_layer,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn exact_counts_repeat_for_one_seed() {
    for workload in Workload::ALL {
        let (a, b) = (smoke(workload, true), smoke(workload, true));
        for name in exact_metrics(workload) {
            let (x, y) = (a.metrics.get(name), b.metrics.get(name));
            assert!(x.is_some(), "{}: {name} missing", workload.name());
            assert_eq!(
                x.map(f64::to_bits),
                y.map(f64::to_bits),
                "{}: {name} {x:?} vs {y:?}",
                workload.name()
            );
        }
    }
    let hot = smoke(Workload::ServeHot, true);
    assert_eq!(
        hot.metrics.get("serve.prepares"),
        Some(15.0),
        "one preparation per tenant"
    );
    let deep = smoke(Workload::EnginesDeep, true);
    assert!(deep.metrics.get("core.type2.rounds_per_query").unwrap() > 0.0);
}
