//! Observability determinism: every metric in the virtual clock domain
//! must be a pure function of (spec, seed) — byte-identical Prometheus
//! exposition whatever the worker count. Wall-domain metrics (pool
//! behaviour, host timings) are allowed to move; that is exactly why the
//! exporter can filter by clock.

use std::collections::BTreeMap;
use std::sync::Mutex;

use lazy_eye_inspection::campaign::{
    build_report_with, run_campaign, CampaignOptions, CampaignSpec, Checkpoint,
};
use lazy_eye_inspection::fleet::{run_fleet, FleetSpec};
use lazy_eye_inspection::obs::bundle::Bundle;
use lazy_eye_inspection::obs::registry;
use lazy_eye_inspection::obs::{trigger, Clock};
use lazy_eye_inspection::testbed::{CadCaseConfig, SweepSpec};

/// The obs registry is process-global; serialize the tests in this
/// binary so one test's reset does not clobber another's reading.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn virtual_snapshot(run: impl Fn()) -> String {
    registry::reset_all();
    run();
    registry::render_prometheus(Some(Clock::Virtual))
}

#[test]
fn campaign_virtual_metrics_are_byte_identical_across_jobs() {
    let _g = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = CampaignSpec {
        seed: 0xE7E5EED,
        ..CampaignSpec::default()
    };
    let baseline = virtual_snapshot(|| {
        run_campaign(&spec, 1, |_, _| {}).unwrap();
    });
    assert!(
        baseline.contains("lazyeye_campaign_runs{clock=\"virtual\"}"),
        "campaign run counter missing from the virtual exposition:\n{baseline}"
    );
    assert!(
        baseline.contains("lazyeye_sim_polls{clock=\"virtual\"}"),
        "scheduler poll counter missing from the virtual exposition:\n{baseline}"
    );
    assert!(
        !baseline.contains("clock=\"wall\""),
        "wall-domain metric leaked through the virtual filter:\n{baseline}"
    );
    for jobs in [4usize, 8] {
        let snap = virtual_snapshot(|| {
            run_campaign(&spec, jobs, |_, _| {}).unwrap();
        });
        assert_eq!(
            snap, baseline,
            "virtual-domain metrics moved between --jobs 1 and --jobs {jobs}"
        );
    }
}

/// The flight recorder's black boxes obey the same contract as the
/// report: for an armed campaign, the bundle *set* (file names) and
/// every bundle file, byte for byte, are identical across worker counts.
#[test]
fn flight_recorder_bundles_are_byte_identical_across_jobs() {
    let _g = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
    let bundle_bytes = |jobs: usize| -> BTreeMap<String, String> {
        let dir =
            std::env::temp_dir().join(format!("lazyeye-bundle-pin-{}-{jobs}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        trigger::arm(&dir).expect("arm trigger engine");
        let fast = CampaignOptions {
            fast_path: true,
            classify: false,
        };
        let run = Checkpoint::fresh(spec.clone(), None)
            .unwrap()
            .run_passes(jobs, &fast, |_, _| {}, |_, _| {})
            .unwrap();
        let (runs, outputs) = (run.plan, run.outputs);
        build_report_with(&spec, &runs, &outputs, true);
        trigger::disarm();
        let mut out = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).expect("bundle dir").flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(entry.path()).expect("read bundle");
            Bundle::from_json_str(&text).expect("parse bundle");
            out.insert(name, text);
        }
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let baseline = bundle_bytes(1);
    assert!(
        baseline.keys().any(|k| k.starts_with("fastpath-fallback")),
        "expected a fastpath-fallback bundle: {:?}",
        baseline.keys().collect::<Vec<_>>()
    );
    assert!(
        baseline.keys().any(|k| k.starts_with("refinement-bracket")),
        "expected a refinement-bracket bundle: {:?}",
        baseline.keys().collect::<Vec<_>>()
    );
    for jobs in [4usize, 8] {
        assert_eq!(
            bundle_bytes(jobs),
            baseline,
            "bundle set or bundle bytes moved between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn fleet_virtual_metrics_are_byte_identical_across_jobs() {
    let _g = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = FleetSpec {
        name: "obs-pin".into(),
        seed: 0xF1EE7,
        population: vec!["firefox-131.0".into(), "opera-114.0.0".into()],
        cad_sessions: 1,
        rd_sessions: 1,
        rd_a_sessions: 1,
        repetitions: 1,
        resolver_checks: 1,
        ..FleetSpec::default()
    };
    let baseline = virtual_snapshot(|| {
        run_fleet(&spec, 1, |_, _| {}).unwrap();
    });
    assert!(
        baseline.contains("lazyeye_fleet_sessions{clock=\"virtual\"}"),
        "fleet session counter missing from the virtual exposition:\n{baseline}"
    );
    assert!(
        baseline.contains("lazyeye_fleet_sessions_rd_a{clock=\"virtual\"}"),
        "delayed-A session counter missing from the virtual exposition:\n{baseline}"
    );
    for jobs in [4usize, 8] {
        let snap = virtual_snapshot(|| {
            run_fleet(&spec, jobs, |_, _| {}).unwrap();
        });
        assert_eq!(
            snap, baseline,
            "virtual-domain metrics moved between --jobs 1 and --jobs {jobs}"
        );
    }
}
