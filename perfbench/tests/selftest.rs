//! Quick self-test of the benchmark: the metric table matches
//! `BENCHMARK.json`, every metric is emitted with a valid name and unit
//! on small campaign and fleet specs, and the correctness check rejects
//! corrupted reports. Run with `cargo test --manifest-path
//! perfbench/Cargo.toml`.

use std::sync::Mutex;

use lazyeye_campaign::CampaignSpec;
use lazyeye_fleet::{FleetCondition, FleetSpec};
use lazyeye_json::Json;
use lazyeye_perfbench::bench::{end_to_end, exposition_value, per_layer, Config};
use lazyeye_perfbench::check::verify;
use lazyeye_perfbench::ledger::Ledger;
use lazyeye_perfbench::metrics::{valid_name, valid_unit, Metric, END_TO_END, PER_LAYER};
use lazyeye_perfbench::pipeline::{self, Outputs};
use lazyeye_perfbench::workload::{Target, Workload};
use lazyeye_testbed::{CadCaseConfig, SweepSpec};

/// Passes reset the process-wide obs registry, so tests that run them
/// take turns.
static PASSES: Mutex<()> = Mutex::new(());

fn small_campaign() -> Target {
    Target::Campaign(CampaignSpec {
        name: "selftest".to_string(),
        clients: vec!["curl-7.88.1".to_string(), "chrome-130.0".to_string()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, 50),
            repetitions: 2,
        }),
        rd: None,
        selection: None,
        resolver: None,
        ..CampaignSpec::default()
    })
}

fn small_fleet() -> Target {
    Target::Fleet(FleetSpec {
        name: "selftest".to_string(),
        seed: 7,
        population: vec!["opera-114.0.0".to_string()],
        conditions: vec![FleetCondition {
            label: "home".to_string(),
            base_delay_ms: 8,
            jitter_ms: 3,
        }],
        cad_sessions: 1,
        rd_sessions: 1,
        rd_a_sessions: 1,
        repetitions: 2,
        resolver_checks: 1,
    })
}

/// A config whose reference is the benchmark's own pass at one worker,
/// so no CLI binary is needed.
fn config(workload: Workload, target: Target) -> Config {
    let reference = pipeline::run(&target, 1, false, &mut Ledger::off()).outputs;
    Config {
        workload,
        target,
        seconds: 0.001,
        jobs: 2,
        reference: Ok(reference),
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn assert_table_matches(json: &Json, key: &str, table: &[Metric]) {
    let listed = json.get(key).and_then(Json::as_array).expect(key);
    let names: Vec<&str> = listed
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "{key} names");
    for (entry, metric) in listed.iter().zip(table) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
        let better = if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
    }
}

#[test]
fn metric_table_matches_benchmark_json() {
    let json = benchmark_json();
    assert_table_matches(&json, "end_to_end", END_TO_END);
    assert_table_matches(&json, "per_layer", PER_LAYER);
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for entry in json.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{entry:?}");
    }
}

#[test]
fn metric_names_and_units_are_valid_and_unique() {
    let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
    for (i, m) in all.iter().enumerate() {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        assert!(
            all[..i].iter().all(|o| o.name != m.name),
            "{} twice",
            m.name
        );
    }
    assert!(END_TO_END.contains(&Metric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
    }));
    assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    assert!(!valid_unit("") && !valid_unit("µs"));
}

fn assert_emits_every_metric(workload: Workload, target: Target) {
    let _turn = PASSES.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = config(workload, target);
    for (outcome, table) in [(end_to_end(&cfg), END_TO_END), (per_layer(&cfg), PER_LAYER)] {
        assert_eq!(outcome.failed, 0, "{outcome:?}");
        let line = outcome.result_line(table).expect("every metric once");
        let parsed = Json::parse(&line).expect("the result line is JSON");
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = parsed.get("metrics").expect("metrics");
        for m in table {
            let entry = metrics.get(m.name).unwrap_or_else(|| panic!("{}", m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
        }
    }
}

#[test]
fn campaign_emits_every_metric() {
    assert_emits_every_metric(Workload::CadSweep, small_campaign());
}

#[test]
fn fleet_emits_every_metric() {
    assert_emits_every_metric(Workload::FleetWebtool, small_fleet());
}

fn corrupt(s: &str, from: &str, to: &str) -> String {
    assert!(s.contains(from), "{from:?} not in report");
    s.replacen(from, to, 1)
}

#[test]
fn check_rejects_corrupted_reports() {
    let _turn = PASSES.lock().unwrap_or_else(|e| e.into_inner());
    for (workload, target, truth) in [
        (
            Workload::CadSweep,
            small_campaign(),
            "\"matrix_agrees\": true",
        ),
        (
            Workload::FleetWebtool,
            small_fleet(),
            "\"all_members_agree\": true",
        ),
    ] {
        let good: Outputs = pipeline::run(&target, 2, false, &mut Ledger::off()).outputs;
        verify(workload, &good, &good).expect("a pass agrees with itself");

        let mut bad_json = good.clone();
        bad_json.json = corrupt(&good.json, "\"seed\": ", "\"seed\": 1");
        assert!(verify(workload, &good, &bad_json).is_err());

        let mut bad_csv = good.clone();
        bad_csv.csv.push('\n');
        assert!(verify(workload, &good, &bad_csv).is_err());

        // A report that matches its reference byte for byte but has lost
        // a paper finding is still wrong.
        let mut lost = good.clone();
        lost.json = corrupt(&good.json, truth, &truth.replace("true", "false"));
        let err = verify(workload, &lost, &lost).expect_err("paper truth");
        assert!(err.contains("is not true"), "{err}");
    }
}

#[test]
fn exposition_values_are_read_by_metric_name() {
    let text = "# TYPE lazyeye_sim_polls counter\n\
                lazyeye_sim_polls{clock=\"virtual\"} 42\n\
                lazyeye_sim_polls_total{clock=\"virtual\"} 7\n\
                lazyeye_fastpath_fallbacks{clock=\"virtual\",reason=\"tie\"} 3\n\
                lazyeye_fastpath_fallbacks{clock=\"virtual\"} 5\n";
    assert_eq!(exposition_value(text, "lazyeye_sim_polls"), 42.0);
    assert_eq!(exposition_value(text, "lazyeye_fastpath_fallbacks"), 5.0);
    assert_eq!(exposition_value(text, "lazyeye_missing"), 0.0);
}
