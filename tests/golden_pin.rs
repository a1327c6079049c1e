//! Golden determinism regression: the byte-exact hash of a fixed-seed
//! campaign report and fleet grid report is pinned here.
//!
//! These constants were recorded on the *pre-overhaul* scheduler (HashMap
//! slab + BinaryHeap timers + single `Arc<Mutex>`): the slab/timer-wheel
//! executor and the `SimPool` arena reuse must reproduce the exact same
//! schedules, so the hashes must never move. They are also asserted
//! identical across `--jobs 1/4/8`, which pins worker-count independence
//! at the same time.
//!
//! If a change legitimately alters measurement *semantics* (not scheduling),
//! re-pin the constants in the same commit and say why in the message.

use std::collections::BTreeMap;
use std::sync::Mutex;

use lazy_eye_inspection::campaign::{
    build_report_with, forensics, run_campaign, CampaignOptions, CampaignSpec, Checkpoint,
    NetemSpec, RunContext, SelectionPlan,
};
use lazy_eye_inspection::fleet::{run_fleet, FleetSpec};
use lazy_eye_inspection::json::ToJson;
use lazy_eye_inspection::obs::bundle::Bundle;
use lazy_eye_inspection::obs::trigger;
use lazy_eye_inspection::testbed::{CadCaseConfig, ResolverCaseConfig, SweepSpec};
use lazy_eye_inspection::trace::TraceSet;

/// The trigger engine is process-global: a campaign that runs while
/// another test has it armed boxes its anomalies into that test's
/// directory. Every test here that runs a campaign holds this lock.
static TRIGGER_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a 64-bit over the raw report bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A small but representative campaign: two clients, one resolver, CAD +
/// selection + resolver cases, with a refinement pass inside the CAD
/// switchover bracket.
fn pinned_campaign_spec() -> CampaignSpec {
    CampaignSpec {
        name: "golden-pin".into(),
        seed: 0xE7E5EED,
        clients: vec!["chrome-130.0".into(), "curl-7.88.1".into()],
        resolvers: vec!["BIND".into()],
        netem: vec![NetemSpec::baseline()],
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 300, 100),
            repetitions: 1,
        }),
        rd: None,
        selection: Some(SelectionPlan {
            repetitions: 1,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 400, 200),
            repetitions: 1,
        }),
        refine_step_ms: Some(25),
    }
}

/// A small fleet: one browser id (3 Table-5 OS variants) × two conditions.
fn pinned_fleet_spec() -> FleetSpec {
    FleetSpec {
        name: "golden-pin".into(),
        seed: 0xF1EE7,
        population: vec!["firefox-131.0".into()],
        cad_sessions: 1,
        rd_sessions: 1,
        repetitions: 1,
        resolver_checks: 1,
        ..FleetSpec::default()
    }
}

const CAMPAIGN_JSON_HASH: u64 = 0x0d94_9804_797c_3174;
const CAMPAIGN_CSV_HASH: u64 = 0xf781_206e_6f45_9456;
const FLEET_JSON_HASH: u64 = 0xa375_c8cb_8b58_89ac;
const FLEET_CSV_HASH: u64 = 0x938c_eb15_bd08_b813;
/// Traces of every run (both passes) of [`pinned_campaign_spec`].
const CAMPAIGN_TRACES_HASH: u64 = 0x6db3_055e_abef_53ca;
/// Bundle names and virtual sections of the flight-recorder campaign.
const BUNDLE_VIRTUAL_HASH: u64 = 0xca08_dd3f_062a_45ee;

#[test]
fn campaign_report_bytes_are_pinned_across_jobs() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = pinned_campaign_spec();
    for jobs in [1usize, 4, 8] {
        let report = run_campaign(&spec, jobs, |_, _| {}).unwrap();
        let json = report.to_json();
        let csv = report.to_csv();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            CAMPAIGN_JSON_HASH,
            "campaign JSON hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(json.as_bytes())
        );
        assert_eq!(
            fnv1a64(csv.as_bytes()),
            CAMPAIGN_CSV_HASH,
            "campaign CSV hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(csv.as_bytes())
        );
    }
}

#[test]
fn fleet_report_bytes_are_pinned_across_jobs() {
    let spec = pinned_fleet_spec();
    for jobs in [1usize, 4, 8] {
        let report = run_fleet(&spec, jobs, |_, _| {}).unwrap();
        let json = report.to_json();
        let csv = report.to_csv();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            FLEET_JSON_HASH,
            "fleet JSON hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(json.as_bytes())
        );
        assert_eq!(
            fnv1a64(csv.as_bytes()),
            FLEET_CSV_HASH,
            "fleet CSV hash moved at --jobs {jobs} (got {:#x})",
            fnv1a64(csv.as_bytes())
        );
    }
}

/// Every run of the pinned campaign, re-captured with its trace, hashes
/// to a pinned value: a change that moved every trace the same way
/// would still pass the across-`--jobs` checks, but not this one. A
/// traced run measures exactly what the campaign's untraced run did,
/// and replay's provenance path re-captures the same trace.
#[test]
fn campaign_traces_are_pinned() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = pinned_campaign_spec();
    let run = Checkpoint::fresh(spec.clone(), None)
        .unwrap()
        .run_passes(2, &CampaignOptions::default(), |_, _| {}, |_, _| {})
        .unwrap();
    let ctx = RunContext::new_with(&spec, &run.plan, false).unwrap();
    let mut traces = TraceSet::default();
    for (r, untraced) in run.plan.iter().zip(&run.outputs) {
        let (traced, trace) = ctx.dispatch(r, true);
        assert_eq!(
            ToJson::to_json(&traced),
            ToJson::to_json(untraced),
            "run {}: traced and untraced samples differ",
            r.index
        );
        // Replay's path: provenance back to a run and its own context.
        let (replay_ctx, replayed) = forensics::provenance(&spec, r).to_run().unwrap();
        let trace = trace.expect("traced");
        assert_eq!(trace, forensics::capture_trace(&replay_ctx, &replayed));
        traces.push(trace);
    }
    let hash = fnv1a64(traces.to_json_string().as_bytes());
    assert_eq!(
        hash, CAMPAIGN_TRACES_HASH,
        "campaign trace hash moved (got {hash:#x})"
    );
}

/// The flight-recorder campaign of `tests/obs_determinism.rs`: its
/// bundle names and virtual sections (trigger, provenance, trace) hash
/// to a pinned value.
#[test]
fn bundle_virtual_sections_are_pinned() {
    let _g = TRIGGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = CampaignSpec {
        name: "bundle-pin".into(),
        seed: 7,
        clients: vec!["chrome-130.0".into(), "wget-1.21.3".into()],
        rd: None,
        selection: None,
        resolver: None,
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(280, 320, 20),
            repetitions: 1,
        }),
        refine_step_ms: Some(5),
        ..CampaignSpec::default()
    };
    let dir = std::env::temp_dir().join(format!("lazyeye-golden-bundles-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    trigger::arm(&dir).expect("arm trigger engine");
    let fast = CampaignOptions {
        fast_path: true,
        classify: false,
    };
    let run = Checkpoint::fresh(spec.clone(), None)
        .unwrap()
        .run_passes(1, &fast, |_, _| {}, |_, _| {})
        .unwrap();
    build_report_with(&spec, &run.plan, &run.outputs, true);
    trigger::disarm();
    let mut bundles = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("bundle dir").flatten() {
        let text = std::fs::read_to_string(entry.path()).expect("read bundle");
        let bundle = Bundle::from_json_str(&text).expect("parse bundle");
        let name = entry.file_name().to_string_lossy().into_owned();
        bundles.insert(name, bundle.virtual_json_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(bundles.len() >= 3, "{:?}", bundles.keys());
    let mut bytes = String::new();
    for (name, virt) in &bundles {
        bytes.push_str(name);
        bytes.push('\n');
        bytes.push_str(virt);
    }
    let hash = fnv1a64(bytes.as_bytes());
    assert_eq!(
        hash, BUNDLE_VIRTUAL_HASH,
        "bundle virtual-section hash moved (got {hash:#x})"
    );
}
