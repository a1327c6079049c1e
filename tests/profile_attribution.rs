//! End-to-end guarantees of the causal profiling layer:
//!
//! * every established run of the **default campaign spec** attributes
//!   its latency into phases that sum exactly to the measured total;
//! * the same holds for every probe of the **default fleet spec**;
//! * profiling is a pure function of the spec — repeated runs produce
//!   byte-identical budget tables and flame graphs (the `--jobs`
//!   independence the CLI byte-compares in CI);
//! * golden per-quirk profiles: the attribution names the right
//!   dominant phase for three known client behaviours from the paper.

use lazy_eye_inspection::campaign::{expand, forensics, profile_runs, CampaignSpec, RunContext};
use lazy_eye_inspection::clients::all_measured_clients;
use lazy_eye_inspection::fleet::{profile_fleet, FleetSpec};
use lazy_eye_inspection::testbed::{run_cad, run_rd, DelayedRecord};
use lazy_eye_inspection::trace::profile::{attribute, Attribution};

fn client(id: &str) -> lazy_eye_inspection::clients::ClientProfile {
    all_measured_clients()
        .into_iter()
        .find(|c| c.id() == id)
        .unwrap_or_else(|| panic!("unknown client {id}"))
}

#[test]
fn every_default_campaign_run_attributes_exactly() {
    let spec = CampaignSpec::default();
    let runs = expand(&spec).expect("default spec expands");
    let ctx = RunContext::new_with(&spec, &runs, false).expect("default spec resolves");
    let mut established = 0u64;
    for run in &runs {
        let p = forensics::provenance(&spec, run);
        if p.case == "resolver" {
            continue; // no client-side timeline to attribute
        }
        let trace = forensics::capture_trace(&ctx, run);
        if let Some(attr) = attribute(&trace) {
            established += 1;
            assert_eq!(
                attr.phase_values().iter().sum::<u64>(),
                attr.total_ms,
                "run {} ({} {} {} d{}): phases must sum exactly, got {:?}",
                run.index,
                p.case,
                p.subject,
                p.condition,
                p.delay_ms,
                attr
            );
        }
    }
    assert!(
        established > 100,
        "default campaign should establish plenty of runs, got {established}"
    );
}

#[test]
fn every_default_fleet_probe_attributes_exactly() {
    let spec = FleetSpec::default();
    let (budget, flame) = profile_fleet(&spec).expect("default fleet spec expands");
    assert!(!budget.rows.is_empty());
    let mut attributed = 0u64;
    for row in &budget.rows {
        assert_eq!(
            row.phase_ms.iter().sum::<u64>(),
            row.total_ms,
            "member {} probe {}: phases must sum exactly",
            row.member,
            row.probe
        );
        attributed += row.total_ms;
    }
    assert_eq!(flame.total_weight(), attributed);
}

#[test]
fn profiling_is_a_pure_function_of_the_spec() {
    let spec = CampaignSpec::default();
    let runs = expand(&spec).expect("default spec expands");
    let (b1, f1) = profile_runs(&spec, &runs);
    let (b2, f2) = profile_runs(&spec, &runs);
    assert_eq!(b1, b2);
    assert_eq!(f1.render_collapsed(), f2.render_collapsed());
    assert_eq!(b1.render_text(), b2.render_text());
}

fn assert_exact(attr: &Attribution) {
    assert_eq!(attr.phase_values().iter().sum::<u64>(), attr.total_ms);
}

/// §5.2 pathology: Chromium waits for *all* answers even though the
/// AAAA is already in hand — the delayed A shows up as a dominant
/// `stall` phase of exactly the configured answer delay.
#[test]
fn golden_chrome_stalls_on_delayed_a() {
    let chrome = client("chrome-130.0");
    let (_, trace, _) = run_rd(&chrome, DelayedRecord::A, 400, 0, 1, &[], Some("delayed-a"));
    let attr = attribute(&trace.unwrap()).expect("run establishes");
    assert_exact(&attr);
    assert_eq!(attr.dominant_phase(), "stall");
    assert_eq!(attr.stall_ms, 400);
    assert_eq!(attr.total_ms, 400);
    assert!(
        attr.critical_path
            .iter()
            .any(|s| s.starts_with("dns_answer(A)")),
        "the delayed A answer gates the run: {:?}",
        attr.critical_path
    );
}

/// Safari arms a 50 ms Resolution Delay when the AAAA is late and then
/// proceeds over IPv4 — the wait is attributed to `resolution`, not
/// `stall`, because an RD timer explains it.
#[test]
fn golden_safari_resolution_delay_counts_as_resolution() {
    let safari = client("safari-17.6");
    let (_, trace, _) = run_rd(
        &safari,
        DelayedRecord::Aaaa,
        400,
        0,
        1,
        &[],
        Some("delayed-aaaa"),
    );
    let attr = attribute(&trace.unwrap()).expect("run establishes");
    assert_exact(&attr);
    assert_eq!(attr.dominant_phase(), "resolution");
    assert_eq!(attr.resolution_ms, 50);
    assert_eq!(attr.stall_ms, 0);
    assert_eq!(attr.total_ms, 50);
}

/// A 400 ms IPv6 path delay exceeds Chromium's 300 ms CAD, so the
/// fallback IPv4 attempt wins; the 300 ms the client spent staggered
/// behind the doomed IPv6 attempt lands in the `cad` phase.
#[test]
fn golden_chrome_cad_stagger_dominates_past_the_cad_threshold() {
    let chrome = client("chrome-130.0");
    let (_, trace, _) = run_cad(&chrome, 400, 0, 1, &[], Some("baseline"));
    let attr = attribute(&trace.unwrap()).expect("run establishes");
    assert_exact(&attr);
    assert_eq!(attr.dominant_phase(), "cad");
    assert_eq!(attr.cad_ms, 300);
}
