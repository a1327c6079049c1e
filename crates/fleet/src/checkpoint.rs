//! Fleet shard state: the fleet as a run-kernel [`Matrix`], powering
//! `--shard i/n` + `--merge` multi-machine runs through the kernel's one
//! partial format ([`FleetCheckpoint`], `total_sessions` on disk).
//!
//! A partial is small by construction: a session output is a few dozen
//! bytes (per-tier family characters), so shipping shard partials
//! between machines costs kilobytes even for large populations.
//!
//! As an [`Engine`] the fleet also folds a finished run into its report
//! and per-member probe profile; it has no later passes.

use lazyeye_exec::{Engine, Matrix, Partial, Profile, Run};

use crate::plan::{expand, FleetPlan, SessionKind, SessionSpec};
use crate::profile::profile_fleet_plan;
use crate::report::{build_report, FleetReport};
use crate::session::{run_session, SessionContext, SessionOutput};
use crate::spec::FleetSpec;

/// The fleet as a resumable, shardable sweep of sessions.
#[derive(Clone, Copy, Debug)]
pub struct FleetMatrix;

/// Serialisable fleet progress: spec identity + completed session
/// outputs.
pub type FleetCheckpoint = Partial<FleetMatrix>;

impl Matrix for FleetMatrix {
    type Spec = FleetSpec;
    type Plan = FleetPlan;
    type Item = SessionSpec;
    type Output = SessionOutput;
    type Context<'a> = SessionContext<'a>;
    type Error = String;
    type Options = ();
    const COUNT_KEY: &'static str = "total_sessions";
    const ITEM: &'static str = "session";

    fn plan(spec: &FleetSpec) -> Result<FleetPlan, String> {
        expand(spec)
    }

    fn items(plan: &FleetPlan) -> &[SessionSpec] {
        &plan.sessions
    }

    fn extend(plan: &mut FleetPlan, later: Vec<SessionSpec>) {
        plan.sessions.extend(later);
    }

    fn context<'a>(
        spec: &'a FleetSpec,
        plan: &'a FleetPlan,
        _: &(),
    ) -> Result<SessionContext<'a>, String> {
        Ok(SessionContext::new(spec, &plan.members))
    }

    fn run(ctx: &SessionContext<'_>, session: &SessionSpec) -> SessionOutput {
        run_session(ctx, session)
    }

    fn index(session: &SessionSpec) -> u64 {
        session.index
    }

    fn matches(session: &SessionSpec, output: &SessionOutput) -> bool {
        matches!(
            (&session.kind, output),
            (
                SessionKind::Cad { .. } | SessionKind::Rd { .. } | SessionKind::RdA { .. },
                SessionOutput::Web(_)
            ) | (
                SessionKind::ResolverCheck { .. },
                SessionOutput::Resolver(_)
            )
        )
    }
}

impl Engine for FleetMatrix {
    const NAME: &'static str = "fleet";
    type Report = FleetReport;

    fn report(spec: &FleetSpec, run: &Run<Self>, _: &()) -> FleetReport {
        build_report(spec, &run.plan, &run.outputs)
    }

    /// Per-member probe attribution: a pure function of (spec, seed).
    fn profile(spec: &FleetSpec, plan: &FleetPlan) -> Profile {
        let (budget, flame) = profile_fleet_plan(spec, plan);
        (budget.render_text(), flame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ResolverCheckOutput;
    use lazyeye_exec::{merge, Shard};
    use lazyeye_net::Family;
    use lazyeye_webtool::{TierObservation, WebSessionResult};

    fn sample_outputs() -> Vec<(u64, SessionOutput)> {
        vec![
            (
                0,
                SessionOutput::Web(WebSessionResult {
                    tiers: vec![TierObservation {
                        delay_ms: 300,
                        families: vec![Some(Family::V6), Some(Family::V4), None],
                        fetch_us: vec![700, 950, 5_000_000],
                    }],
                }),
            ),
            (
                3,
                SessionOutput::Resolver(ResolverCheckOutput {
                    capable: true,
                    aaaa_first: Some(true),
                    resolution_ms: 8.125,
                }),
            ),
        ]
    }

    #[test]
    fn partial_roundtrips_byte_identically() {
        let mut ckpt =
            FleetCheckpoint::new(FleetSpec::default(), 10, Some(Shard { index: 1, count: 2 }));
        for (index, output) in sample_outputs() {
            ckpt.record(index, output);
        }
        let text = ckpt.to_json_string();
        let back = FleetCheckpoint::from_json_str(&text).unwrap();
        assert_eq!(back.spec, ckpt.spec);
        assert_eq!(back.shard, Some(Shard { index: 1, count: 2 }));
        assert_eq!(back.completed_count(), 2);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn merge_unions_disjoint_partials_and_rejects_mismatches() {
        let spec = FleetSpec::default();
        let mut a = FleetCheckpoint::new(spec.clone(), 10, Some(Shard { index: 0, count: 2 }));
        let mut b = FleetCheckpoint::new(spec.clone(), 10, Some(Shard { index: 1, count: 2 }));
        for (index, output) in sample_outputs() {
            if index % 2 == 0 {
                a.record(index, output);
            } else {
                b.record(index, output);
            }
        }
        let merged = merge([a.clone(), b]).unwrap();
        assert_eq!(merged.completed_count(), 2);
        assert_eq!(merged.shard, None);
        assert_eq!(merged.missing().len(), 8);

        let mut other = spec.clone();
        other.seed = 999;
        assert!(merge([a.clone(), FleetCheckpoint::new(other, 10, None)]).is_err());
        assert!(merge([a.clone(), FleetCheckpoint::new(spec, 11, None)]).is_err());
        assert!(a.validate_shape(11).is_err());
    }

    #[test]
    fn corrupt_partials_error_cleanly() {
        assert!(FleetCheckpoint::from_json_str("{").is_err());
        assert!(FleetCheckpoint::from_json_str(r#"{"version": 99}"#).is_err());
    }
}
