//! Fleet-report diffing for longitudinal population tracking — the
//! QUIC-tracker use case ("Observing the Evolution of QUIC
//! Implementations") applied to the Happy Eyeballs population: run the
//! fleet periodically, keep the reports, and diff neighbouring snapshots
//! to see which members changed behaviour.
//!
//! Reuses `lazyeye-infer`'s typed [`FieldDelta`] machinery, like
//! `lazyeye campaign --diff` does for campaign reports.

use lazyeye_infer::{
    diff_profiles, fmt_opt, match_keyed, push_delta, push_fields, BehaviourDiff, Field, FieldDelta,
};

use crate::report::{FleetReport, FleetSummary, MemberReport, ResolverCheckReport};

/// The behaviour changes between two fleet reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetDiff {
    /// Member keys (`member [condition]`) present only in the new report.
    pub added: Vec<String>,
    /// Member keys present only in the old report.
    pub removed: Vec<String>,
    /// Field-level changes of members present in both, prefixed with the
    /// member key.
    pub changed: Vec<FieldDelta>,
    /// Field-level changes of the resolver checks, prefixed with the
    /// stack label.
    pub resolver_changed: Vec<FieldDelta>,
    /// Changes in the population-level summary booleans/counters.
    pub summary_changed: Vec<FieldDelta>,
}

lazyeye_json::impl_json_struct!(FleetDiff {
    added,
    removed,
    changed,
    resolver_changed,
    summary_changed,
});

fn member_key(m: &MemberReport) -> String {
    format!("{} [{}]", m.member, m.condition)
}

const MEMBER_FIELDS: &[Field<MemberReport>] = &[
    ("grid", |m| m.grid.clone()),
    ("rd_grid", |m| m.rd_grid.clone()),
    ("cad_last_v6_ms", |m| fmt_opt(&m.cad_last_v6_ms)),
    ("cad_first_v4_ms", |m| fmt_opt(&m.cad_first_v4_ms)),
    ("cad_point_ms", |m| fmt_opt(&m.cad_point_ms)),
    ("cad_dynamic", |m| m.cad_dynamic.to_string()),
    ("rd_verdict", |m| m.rd_verdict.clone()),
    ("agrees_with_known", |m| m.agreement.agrees.to_string()),
];

/// Pushes one member's behaviour deltas, prefixed with its key: the
/// Figure-4 grid, the CAD bracket/point, the RD verdict, the inferred
/// profile (via [`diff_profiles`]) and the per-feature RFC 8305 verdicts.
fn diff_member(out: &mut Vec<FieldDelta>, old: &MemberReport, new: &MemberReport) {
    let prefix = format!("{}.", member_key(old));
    push_fields(out, &prefix, MEMBER_FIELDS, old, new);
    for delta in diff_profiles(&old.inferred, &new.inferred) {
        out.push(FieldDelta {
            field: format!("{prefix}inferred.{}", delta.field),
            ..delta
        });
    }
    // Conformance verdicts, matched by feature name (symmetric: a
    // feature present on either side only still produces a delta).
    diff_conformance(out, &prefix, &old.conformance, &new.conformance);
}

/// Pushes a delta per conformance feature that changed, appeared (`-` →
/// verdict) or disappeared (verdict → `-`), prefixed with `prefix`.
fn diff_conformance(
    out: &mut Vec<FieldDelta>,
    prefix: &str,
    old: &[lazyeye_infer::ConformanceEntry],
    new: &[lazyeye_infer::ConformanceEntry],
) {
    for e_new in new {
        let old_v = old
            .iter()
            .find(|e| e.feature == e_new.feature)
            .map(|e| e.render())
            .unwrap_or_else(|| "-".to_string());
        push_delta(
            out,
            format!("{prefix}conformance.{}", e_new.feature),
            old_v,
            e_new.render(),
        );
    }
    for e_old in old {
        if !new.iter().any(|e| e.feature == e_old.feature) {
            push_delta(
                out,
                format!("{prefix}conformance.{}", e_old.feature),
                e_old.render(),
                "-".to_string(),
            );
        }
    }
}

const RESOLVER_FIELDS: &[Field<ResolverCheckReport>] = &[
    ("capable_share", |r| format!("{}/{}", r.capable, r.runs)),
    ("aaaa_first_share_pct", |r| fmt_opt(&r.aaaa_first_share_pct)),
];

const SUMMARY_FIELDS: &[Field<FleetSummary>] = &[
    ("all_fixed_cad_bracketed", |s| {
        s.all_fixed_cad_bracketed.to_string()
    }),
    ("all_dynamic_cad_flagged", |s| {
        s.all_dynamic_cad_flagged.to_string()
    }),
    ("agreeing_members", |s| {
        format!("{}/{}", s.agreeing_members, s.members)
    }),
];

/// Diffs two fleet reports: membership changes, per-member behaviour
/// deltas, resolver-check deltas and summary deltas.
pub fn diff_fleet_reports(old: &FleetReport, new: &FleetReport) -> FleetDiff {
    let mut diff = FleetDiff::default();
    let identity = |m: &MemberReport| (m.member.clone(), m.condition.clone());
    let (added, removed) = match_keyed(&old.members, &new.members, identity, |o, n| {
        diff_member(&mut diff.changed, o, n)
    });
    diff.added = added.into_iter().map(member_key).collect();
    diff.removed = removed.into_iter().map(member_key).collect();
    for o in &old.resolver_checks {
        match new.resolver_checks.iter().find(|n| n.stack == o.stack) {
            Some(n) => {
                let prefix = format!("{}.", o.stack);
                let out = &mut diff.resolver_changed;
                push_fields(out, &prefix, RESOLVER_FIELDS, o, n);
                diff_conformance(out, &prefix, &o.conformance, &n.conformance);
            }
            // A stack that stopped being checked is itself a change.
            None => push_delta(
                &mut diff.resolver_changed,
                format!("{}.present", o.stack),
                "true".to_string(),
                "-".to_string(),
            ),
        }
    }
    for n in &new.resolver_checks {
        if !old.resolver_checks.iter().any(|o| o.stack == n.stack) {
            push_delta(
                &mut diff.resolver_changed,
                format!("{}.present", n.stack),
                "-".to_string(),
                "true".to_string(),
            );
        }
    }
    let out = &mut diff.summary_changed;
    push_fields(out, "", SUMMARY_FIELDS, &old.summary, &new.summary);
    diff
}

impl BehaviourDiff for FleetDiff {
    const NOUN: &'static str = "member";

    fn keys(&self) -> (&[String], &[String]) {
        (&self.added, &self.removed)
    }

    fn sections(&self) -> Vec<(&'static str, &[FieldDelta])> {
        vec![
            ("", &self.changed),
            ("resolver ", &self.resolver_changed),
            ("summary ", &self.summary_changed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_fleet, FleetSpec};

    fn small_spec(seed: u64) -> FleetSpec {
        FleetSpec {
            population: vec!["firefox-131.0".to_string()],
            seed,
            cad_sessions: 1,
            rd_sessions: 1,
            repetitions: 1,
            resolver_checks: 1,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn identical_reports_diff_empty() {
        let report = run_fleet(&small_spec(5), 2, |_, _| {}).unwrap();
        let diff = diff_fleet_reports(&report, &report);
        assert!(diff.is_empty(), "self-diff must be empty: {diff:?}");
        assert_eq!(diff.render(false), "no behaviour changes\n");
        // JSON round trip of the diff itself.
        let back: FleetDiff = lazyeye_json::FromJson::from_json(
            &lazyeye_json::Json::parse(&diff.render(true)).unwrap(),
        )
        .unwrap();
        assert_eq!(back, diff);
    }

    #[test]
    fn changed_member_behaviour_is_surfaced() {
        let report = run_fleet(&small_spec(5), 2, |_, _| {}).unwrap();
        let mut tweaked = report.clone();
        // Pick a verdict different from whatever was measured.
        let flipped = if tweaked.members[0].rd_verdict == "stall" {
            "armed"
        } else {
            "stall"
        };
        tweaked.members[0].rd_verdict = flipped.to_string();
        tweaked.members[0].agreement.agrees = false;
        let diff = diff_fleet_reports(&report, &tweaked);
        assert!(diff
            .changed
            .iter()
            .any(|d| d.field.ends_with(".rd_verdict") && d.new == flipped));
        assert!(diff
            .changed
            .iter()
            .any(|d| d.field.ends_with(".agrees_with_known")));
        let text = diff.render(false);
        assert!(text.contains("rd_verdict"), "{text}");
    }

    #[test]
    fn resolver_stack_membership_changes_are_surfaced() {
        let report = run_fleet(&small_spec(5), 2, |_, _| {}).unwrap();
        let mut shrunk = report.clone();
        let gone = shrunk.resolver_checks.pop().unwrap();
        let diff = diff_fleet_reports(&report, &shrunk);
        assert!(
            diff.resolver_changed
                .iter()
                .any(|d| d.field == format!("{}.present", gone.stack) && d.new == "-"),
            "dropped stack must show: {diff:?}"
        );
        let diff = diff_fleet_reports(&shrunk, &report);
        assert!(diff
            .resolver_changed
            .iter()
            .any(|d| d.field == format!("{}.present", gone.stack) && d.new == "true"));
    }

    #[test]
    fn disappeared_conformance_feature_is_surfaced() {
        let report = run_fleet(&small_spec(5), 2, |_, _| {}).unwrap();
        let mut shrunk = report.clone();
        let gone = shrunk.members[0].conformance.pop().unwrap();
        let diff = diff_fleet_reports(&report, &shrunk);
        assert!(
            diff.changed
                .iter()
                .any(
                    |d| d.field.ends_with(&format!("conformance.{}", gone.feature)) && d.new == "-"
                ),
            "a verdict that stopped being emitted must show as a delta: {diff:?}"
        );
    }

    #[test]
    fn membership_changes_are_listed() {
        let report = run_fleet(&small_spec(5), 2, |_, _| {}).unwrap();
        let mut shrunk = report.clone();
        let gone = shrunk.members.pop().unwrap();
        let diff = diff_fleet_reports(&report, &shrunk);
        assert_eq!(diff.removed, vec![member_key(&gone)]);
        let diff = diff_fleet_reports(&shrunk, &report);
        assert_eq!(diff.added, vec![member_key(&gone)]);
    }

    #[test]
    fn json_report_strings_roundtrip_through_diff() {
        let report = run_fleet(&small_spec(5), 2, |_, _| {}).unwrap();
        let text = report.to_json();
        let old = FleetReport::from_json_str(&text).unwrap();
        let new = FleetReport::from_json_str(&text).unwrap();
        let diff = diff_fleet_reports(&old, &new);
        assert!(diff.is_empty());
    }
}
