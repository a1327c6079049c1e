//! Fleet-level latency attribution.
//!
//! Fleet sessions run through the 18-tier web tool, which reports
//! tier-grid aggregates rather than per-session Happy Eyeballs event
//! logs — there is nothing to attribute in a session output. So the
//! fleet profiler characterises each *member* instead: it drives the
//! member's client profile through three fixed baseline-path probes in
//! the instrumented testbed and attributes those timelines exactly:
//!
//! * `cad` — 300 ms IPv6 path delay, inside the paper's sweep range:
//!   exposes the Connection Attempt Delay stagger.
//! * `rd-aaaa` — AAAA answer delayed 400 ms: exposes Resolution Delay
//!   (or plain resolution wait) behaviour.
//! * `rd-a` — A answer delayed 400 ms, the §5.2 scenario: clients that
//!   wait for all answers show a dominant `stall` phase.
//!
//! Probe seeds derive from the fleet seed and the member key, so the
//! whole profile is a pure function of (spec, seed) and byte-identical
//! across worker counts, like every other virtual-domain output.

use lazyeye_obs::profile::FlameGraph;
use lazyeye_testbed::{run_cad, run_rd, DelayedRecord, Table};
use lazyeye_trace::profile::{attribute, dominant};
use lazyeye_trace::Trace;

use crate::plan::FleetPlan;
use crate::spec::{FleetSpec, Member};

/// Seed-domain separator for fleet profiling probes.
const PROBE_SEED_TAG: u64 = 0x7072_6f66_696c_6500; // "profile\0"

/// One member × probe budget row (integer virtual ms, exact).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberBudgetRow {
    /// Member key (`<client id>@<os>`).
    pub member: String,
    /// The member's condition label.
    pub condition: String,
    /// Probe name: `cad`, `rd-aaaa` or `rd-a`.
    pub probe: String,
    /// Whether the probe's run established (attributable).
    pub established: bool,
    /// Establishment latency (ms); 0 when not established.
    pub total_ms: u64,
    /// Per-phase attribution, in
    /// [`PHASES`](lazyeye_trace::profile::PHASES) order.
    pub phase_ms: [u64; 5],
}

impl MemberBudgetRow {
    /// The dominant phase of the probe (`-` when it never established).
    pub fn dominant(&self) -> &'static str {
        if !self.established {
            return "-";
        }
        dominant(&self.phase_ms)
    }
}

/// The fleet's latency budget: one row per member × probe, in member
/// order of the plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetBudget {
    /// Rows in (plan member, probe) order.
    pub rows: Vec<MemberBudgetRow>,
}

impl FleetBudget {
    /// Renders the budget as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut t = Table::new(
            "Fleet latency budget (per-member probes, exact attribution, ms)",
            vec![
                "member",
                "condition",
                "probe",
                "total",
                "resolution",
                "stall",
                "cad",
                "fallback",
                "connect",
                "dominant",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.member.clone(),
                r.condition.clone(),
                r.probe.clone(),
                r.total_ms.to_string(),
                r.phase_ms[0].to_string(),
                r.phase_ms[1].to_string(),
                r.phase_ms[2].to_string(),
                r.phase_ms[3].to_string(),
                r.phase_ms[4].to_string(),
                r.dominant().to_string(),
            ]);
        }
        t.render()
    }
}

fn key_word(key: &str) -> u64 {
    // FNV-1a over the member key: a stable, platform-free word for the
    // seed mixer.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn probe_seed(fleet_seed: u64, member: &Member, probe_index: u64) -> u64 {
    rand::mix_words(
        fleet_seed ^ PROBE_SEED_TAG,
        &[key_word(&member.key), probe_index],
    )
}

fn probe_trace(member: &Member, probe: &str, seed: u64) -> Trace {
    let (profile, condition) = (&member.profile, Some(member.condition.as_str()));
    let trace = match probe {
        "cad" => run_cad(profile, 300, 0, seed, &[], condition).1,
        "rd-aaaa" => run_rd(profile, DelayedRecord::Aaaa, 400, 0, seed, &[], condition).1,
        "rd-a" => run_rd(profile, DelayedRecord::A, 400, 0, seed, &[], condition).1,
        other => unreachable!("unknown probe {other}"),
    };
    trace.expect("a traced run returns its trace")
}

/// The fixed probe set, in execution order.
pub const PROBES: [&str; 3] = ["cad", "rd-aaaa", "rd-a"];

/// Profiles every member of the plan: three probes each, folded into a
/// budget table plus a flame graph with
/// `fleet;member;condition;probe;phase` stacks weighted by attributed
/// milliseconds.
pub fn profile_fleet_plan(spec: &FleetSpec, plan: &FleetPlan) -> (FleetBudget, FlameGraph) {
    let mut budget = FleetBudget::default();
    let mut flame = FlameGraph::new();
    for member in &plan.members {
        for (pi, probe) in PROBES.iter().enumerate() {
            let seed = probe_seed(spec.seed, member, pi as u64);
            let mut row = MemberBudgetRow {
                member: member.key.clone(),
                condition: member.condition.clone(),
                probe: (*probe).to_string(),
                established: false,
                total_ms: 0,
                phase_ms: [0; 5],
            };
            if let Some(a) = attribute(&probe_trace(member, probe, seed)) {
                row.established = true;
                a.fold(&mut row.total_ms, &mut row.phase_ms, |phase, ms| {
                    flame.add(["fleet", &member.key, &member.condition, probe, phase], ms)
                });
            }
            budget.rows.push(row);
        }
    }
    (budget, flame)
}

/// Expands the spec and profiles the resulting member population.
pub fn profile_fleet(spec: &FleetSpec) -> Result<(FleetBudget, FlameGraph), String> {
    let plan = crate::plan::expand(spec)?;
    Ok(profile_fleet_plan(spec, &plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetSpec {
        FleetSpec {
            name: "fleet-profile-test".into(),
            seed: 11,
            population: vec!["firefox-131.0".into(), "opera-114.0.0".into()],
            cad_sessions: 1,
            rd_sessions: 1,
            rd_a_sessions: 1,
            repetitions: 1,
            resolver_checks: 0,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn member_probes_attribute_exactly_and_deterministically() {
        let spec = small_spec();
        let (budget, flame) = profile_fleet(&spec).unwrap();
        assert!(!budget.rows.is_empty());
        assert_eq!(budget.rows.len() % PROBES.len(), 0);
        let mut attributed = 0u64;
        for r in &budget.rows {
            assert_eq!(
                r.phase_ms.iter().sum::<u64>(),
                r.total_ms,
                "phases must sum exactly for {} probe {}",
                r.member,
                r.probe
            );
            attributed += r.total_ms;
        }
        assert_eq!(flame.total_weight(), attributed);
        let (b2, f2) = profile_fleet(&spec).unwrap();
        assert_eq!(b2, budget);
        assert_eq!(f2.render_collapsed(), flame.render_collapsed());
    }
}
