//! Golden inference test: the default campaign spec's inferred profiles
//! are pinned for the built-in clients, and the inference-derived feature
//! matrix must agree with the summary-derived Table 2 roll-up —
//! deterministically across worker counts.

use lazyeye_campaign::{
    build_report_with, CampaignOptions, CampaignSpec, Checkpoint, InferredClientReport,
};
use lazyeye_infer::{SortingPolicy, Verdict};

fn classified_default(jobs: usize) -> lazyeye_campaign::CampaignReport {
    let spec = CampaignSpec::default();
    let run = Checkpoint::fresh(spec.clone(), None)
        .unwrap()
        .run_passes(jobs, &CampaignOptions::default(), |_, _| {}, |_, _| {})
        .unwrap();
    let (runs, outputs) = (run.plan, run.outputs);
    build_report_with(&spec, &runs, &outputs, true)
}

fn client<'a>(report: &'a lazyeye_campaign::CampaignReport, id: &str) -> &'a InferredClientReport {
    report
        .inference
        .as_ref()
        .unwrap()
        .profiles
        .iter()
        .find(|p| p.profile.subject == id)
        .unwrap_or_else(|| panic!("no inferred profile for {id}"))
}

fn verdict(r: &InferredClientReport, feature: &str) -> Verdict {
    r.conformance
        .iter()
        .find(|e| e.feature == feature)
        .unwrap()
        .verdict
}

#[test]
fn default_spec_inferred_profiles_are_pinned() {
    let report = classified_default(8);
    let section = report.inference.as_ref().unwrap();
    assert!(
        section.matrix_agrees,
        "inference must agree with the summary roll-up: {:?}",
        section.disagreements
    );
    assert_eq!(section.matrix, report.features);

    // Chrome: 300 ms CAD, pinned to the 5 ms refinement bracket.
    let chrome = client(&report, "chrome-130.0");
    assert_eq!(chrome.profile.cad.implemented, Some(true));
    assert_eq!(chrome.profile.cad.last_v6_delay_ms, Some(300));
    assert_eq!(chrome.profile.cad.first_v4_delay_ms, Some(305));
    let est = chrome.profile.cad.estimate_ms.unwrap();
    assert!((299.0..303.0).contains(&est), "chrome CAD {est}");
    assert_eq!(chrome.profile.cad.misfits, 0);
    assert_eq!(chrome.profile.aaaa_first, Some(true));
    assert_eq!(chrome.profile.rd.implemented, Some(false));
    assert_eq!(chrome.profile.rd.waits_for_all_answers, Some(true));
    assert_eq!(chrome.profile.sorting, SortingPolicy::SingleFallback);
    assert_eq!(
        verdict(chrome, "connection-attempt-delay"),
        Verdict::Conformant
    );
    assert_eq!(verdict(chrome, "resolution-delay"), Verdict::Deviates);
    assert_eq!(verdict(chrome, "no-lookup-stall"), Verdict::Deviates);

    // curl: the smallest fixed CAD (200 ms).
    let curl = client(&report, "curl-7.88.1");
    assert_eq!(curl.profile.cad.last_v6_delay_ms, Some(200));
    assert_eq!(curl.profile.cad.first_v4_delay_ms, Some(205));
    let est = curl.profile.cad.estimate_ms.unwrap();
    assert!((199.0..203.0).contains(&est), "curl CAD {est}");

    // Firefox: 250 ms CAD, A before AAAA.
    let firefox = client(&report, "firefox-132.0");
    assert_eq!(firefox.profile.cad.last_v6_delay_ms, Some(250));
    assert_eq!(firefox.profile.cad.first_v4_delay_ms, Some(255));
    assert_eq!(firefox.profile.aaaa_first, Some(false));
    assert_eq!(verdict(firefox, "query-order"), Verdict::Deviates);

    // Safari: no fallback within the 400 ms sweep (its fresh-state CAD is
    // 2 s) but Resolution Delay implemented and no lookup stall.
    let safari = client(&report, "safari-17.6");
    assert_eq!(safari.profile.cad.implemented, Some(false));
    assert_eq!(safari.profile.rd.implemented, Some(true));
    assert_eq!(safari.profile.rd.waits_for_all_answers, Some(false));
    assert_eq!(verdict(safari, "resolution-delay"), Verdict::Conformant);
    assert_eq!(verdict(safari, "no-lookup-stall"), Verdict::Conformant);

    // wget: nothing at all.
    let wget = client(&report, "wget-1.21.3");
    assert_eq!(wget.profile.cad.implemented, Some(false));
    assert_eq!(wget.profile.sorting, SortingPolicy::NoFallback);
    assert_eq!(verdict(wget, "address-sorting"), Verdict::Deviates);
    assert_eq!(verdict(wget, "connection-attempt-delay"), Verdict::Deviates);
}

#[test]
fn classified_report_is_byte_identical_across_jobs() {
    let a = classified_default(1);
    let b = classified_default(8);
    assert_eq!(a.to_json(), b.to_json());
}
