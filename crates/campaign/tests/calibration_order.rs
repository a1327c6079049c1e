//! A `--fast-path` context calibrates its models in plan order, so the
//! flight recorder's ring — a bundle's wall section — reads the same from
//! one process to the next.
//!
//! The ring is process-global; this binary holds this one test, so no
//! other calibration interleaves with the events it reads.

use lazyeye_campaign::{expand, CampaignSpec, RdPlan, RunContext};
use lazyeye_obs::recorder::recorder;
use lazyeye_testbed::{delayed_record_label, CadCaseConfig, DelayedRecord, SweepSpec};

#[test]
fn calibration_events_come_in_plan_order() {
    let spec = CampaignSpec {
        clients: [
            "wget-1.21.3",
            "chrome-130.0",
            "curl-7.88.1",
            "firefox-132.0",
        ]
        .map(String::from)
        .to_vec(),
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 200, 100),
            repetitions: 1,
        }),
        rd: Some(RdPlan {
            records: vec![DelayedRecord::A, DelayedRecord::Aaaa],
            sweep: SweepSpec::new(0, 100, 100),
            repetitions: 1,
        }),
        selection: None,
        resolver: None,
        ..CampaignSpec::default()
    };
    let runs = expand(&spec).unwrap();
    // Every CAD and RD cell, at its first run in the plan.
    let mut expected: Vec<String> = Vec::new();
    for run in &runs {
        let c = run.kind.coords();
        let cell = format!(
            "{} {}",
            c.subject,
            c.record.map_or("cad", delayed_record_label)
        );
        if !expected.contains(&cell) {
            expected.push(cell);
        }
    }
    assert_eq!(expected.len(), 12);
    let calibrations = || -> Vec<String> {
        let after = recorder().snapshot().last().map_or(0, |e| e.seq + 1);
        RunContext::new_with(&spec, &runs, true).unwrap();
        recorder()
            .snapshot()
            .into_iter()
            .filter(|e| e.seq >= after && e.name == "fastpath.calibrate")
            .map(|e| e.detail)
            .collect()
    };
    assert_eq!(calibrations(), expected);
    assert_eq!(calibrations(), expected, "a second build, the same order");
}
