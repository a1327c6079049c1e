//! Resumable campaign state: the campaign as a run-kernel [`Matrix`].
//!
//! A [`Checkpoint`] is the kernel's [`Partial`] over campaign runs: the
//! spec, the first-pass run count (`pass1_runs` on disk), an optional
//! [`Shard`], and a completed-run map `index → RunOutput`. Because a
//! [`RunOutput`] is already the per-run reduction of the raw capture,
//! checkpoints stay small — a few hundred bytes per completed run — and
//! resuming folds stored outputs in run-index order exactly as an
//! uninterrupted campaign would, so the resumed report is byte-identical.
//!
//! The same format serves three flows:
//! - `--checkpoint f.json`: periodic saves while a campaign runs;
//! - `--resume f.json`: skip completed runs, finish, re-report;
//! - `--shard i/n` + `--merge a.json b.json …`: each shard emits its
//!   completed slice as a partial, and the merge unions the disjoint
//!   partials back into one state before finishing the campaign.
//!
//! This module contributes only what is campaign-specific: the plan, the
//! refinement pass, the run context, the kind check, and (as an
//! [`Engine`]) the report fold and profile. A [`RunOutput`] carries its
//! own JSON. The kernel's one driver runs both passes and finishes every
//! flow.

use lazyeye_exec::{Engine, Matrix, Partial, Profile, Run};

pub use lazyeye_exec::{merge, Shard};

use crate::executor::{run_one, RunContext, RunOutput};
use crate::plan::{expand, RunKind, RunSpec, SpecError};
use crate::report::CampaignReport;
use crate::spec::CampaignSpec;
use crate::{build_report_with, forensics, profile, refine};

/// The campaign's run options; the kernel passes them through unread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Run baseline-netem CAD cells through the calibrated analytic
    /// models wherever they verify (see [`RunContext::new_with`]). The
    /// report is byte-identical either way.
    pub fast_path: bool,
    /// Add the inference section to the report (see
    /// [`build_report_with`]).
    pub classify: bool,
}

/// The campaign as a resumable, shardable sweep: first-pass runs plus
/// the refinement pass planned from them.
#[derive(Clone, Copy, Debug)]
pub struct CampaignMatrix;

/// Serialisable campaign progress: spec identity + completed run outputs.
pub type Checkpoint = Partial<CampaignMatrix>;

impl Matrix for CampaignMatrix {
    type Spec = CampaignSpec;
    type Plan = Vec<RunSpec>;
    type Item = RunSpec;
    type Output = RunOutput;
    type Context<'a> = RunContext;
    type Error = SpecError;
    type Options = CampaignOptions;
    const COUNT_KEY: &'static str = "pass1_runs";
    const ITEM: &'static str = "run";
    const PASS_SPANS: &'static [&'static str] = &["campaign.pass1", "campaign.refine"];

    fn plan(spec: &CampaignSpec) -> Result<Vec<RunSpec>, SpecError> {
        expand(spec)
    }

    fn items(plan: &Vec<RunSpec>) -> &[RunSpec] {
        plan
    }

    fn extend(plan: &mut Vec<RunSpec>, later: Vec<RunSpec>) {
        plan.extend(later);
    }

    fn context<'a>(
        spec: &'a CampaignSpec,
        plan: &'a Vec<RunSpec>,
        opts: &CampaignOptions,
    ) -> Result<RunContext, SpecError> {
        RunContext::new_with(spec, plan, opts.fast_path)
    }

    /// One refinement pass after the first, planned from its outputs
    /// (boxed for the flight recorder as it is planned).
    fn next_pass(
        spec: &CampaignSpec,
        plan: &Vec<RunSpec>,
        passes: usize,
        outputs: &[RunOutput],
    ) -> Option<Vec<RunSpec>> {
        (passes == 1).then(|| {
            let refinement = refine::plan_refinement(spec, plan, outputs);
            forensics::on_refinement_brackets(spec, &refinement);
            refinement
        })
    }

    fn run(ctx: &RunContext, run: &RunSpec) -> RunOutput {
        run_one(ctx, run)
    }

    fn index(run: &RunSpec) -> u64 {
        run.index
    }

    fn matches(run: &RunSpec, output: &RunOutput) -> bool {
        matches!(
            (&run.kind, output),
            (RunKind::Cad { .. }, RunOutput::Cad(_))
                | (RunKind::Rd { .. }, RunOutput::Rd(_))
                | (RunKind::Selection { .. }, RunOutput::Selection(_))
                | (RunKind::Resolver { .. }, RunOutput::Resolver(_))
        )
    }
}

impl Engine for CampaignMatrix {
    const NAME: &'static str = "campaign";
    type Report = CampaignReport;

    fn report(spec: &CampaignSpec, run: &Run<Self>, opts: &CampaignOptions) -> CampaignReport {
        build_report_with(spec, &run.plan, &run.outputs, opts.classify)
    }

    /// Attributes the executed run list (first pass + refinement).
    fn profile(spec: &CampaignSpec, runs: &Vec<RunSpec>) -> Profile {
        let (budget, flame) = profile::profile_runs(spec, runs);
        (budget.render_text(), flame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_net::Family;
    use lazyeye_testbed::{CadSample, RdSample, ResolverSample, SelectionResult};

    fn sample_outputs() -> Vec<(u64, RunOutput)> {
        vec![
            (
                0,
                RunOutput::Cad(CadSample {
                    configured_delay_ms: 300,
                    rep: 1,
                    family: Some(Family::V6),
                    observed_cad_ms: Some(299.875),
                    aaaa_first: Some(true),
                }),
            ),
            (
                3,
                RunOutput::Rd(RdSample {
                    configured_delay_ms: 400,
                    rep: 0,
                    family: None,
                    first_attempt_ms: None,
                    used_rd: true,
                }),
            ),
            (
                5,
                RunOutput::Selection(SelectionResult {
                    order: vec![Family::V6, Family::V6, Family::V4],
                    v6_used: 2,
                    v4_used: 1,
                }),
            ),
            (
                9,
                RunOutput::Resolver(ResolverSample {
                    configured_delay_ms: 800,
                    rep: 2,
                    first_query_family: Some(Family::V4),
                    v6_packets: 0,
                    observed_cad_ms: None,
                    v6_retry_gap_ms: Some(376.5),
                    resolved: true,
                    served_over_v6: false,
                }),
            ),
        ]
    }

    #[test]
    fn shape_mismatch_refuses_to_resume() {
        // A checkpoint written when the spec expanded to 10 first-pass
        // runs must not stitch onto a matrix that now expands differently
        // (e.g. after an expansion-rule change added an axis).
        let ckpt = Checkpoint::new(CampaignSpec::default(), 10, None);
        assert!(ckpt.validate_shape(10).is_ok());
        let err = ckpt.validate_shape(20).unwrap_err();
        assert!(err.message.contains("10-run"), "{err}");
        assert!(
            ckpt.finish(1, &CampaignOptions::default(), false, |_, _| {}, |_, _| {})
                .is_err(),
            "finish must reject the stale shape (default spec expands to 100s of runs)"
        );
    }

    #[test]
    fn checkpoint_roundtrips_every_output_kind() {
        let mut ckpt = Checkpoint::new(
            CampaignSpec::default(),
            10,
            Some(Shard::parse("1/3").unwrap()),
        );
        for (index, output) in sample_outputs() {
            ckpt.record(index, output);
        }
        let text = ckpt.to_json_string();
        let back = Checkpoint::from_json_str(&text).unwrap();
        assert_eq!(back.spec, ckpt.spec);
        assert_eq!(back.planned, 10);
        assert_eq!(back.shard, Some(Shard { index: 1, count: 3 }));
        assert_eq!(back.completed_count(), 4);
        // Exact field fidelity, including the f64s the report depends on.
        assert_eq!(back.to_json_string(), text);
        match &back.completed()[&0] {
            RunOutput::Cad(s) => assert_eq!(s.observed_cad_ms, Some(299.875)),
            _ => panic!("kind mismatch"),
        }
        match &back.completed()[&5] {
            RunOutput::Selection(r) => {
                assert_eq!(r.order, vec![Family::V6, Family::V6, Family::V4])
            }
            _ => panic!("kind mismatch"),
        }
    }

    #[test]
    fn merge_unions_disjoint_partials_and_rejects_mismatches() {
        let spec = CampaignSpec::default();
        let mut a = Checkpoint::new(spec.clone(), 10, Some(Shard { index: 0, count: 2 }));
        let mut b = Checkpoint::new(spec.clone(), 10, Some(Shard { index: 1, count: 2 }));
        for (index, output) in sample_outputs() {
            if index % 2 == 0 {
                a.record(index, output);
            } else {
                b.record(index, output);
            }
        }
        let merged = merge([a.clone(), b]).unwrap();
        assert_eq!(merged.completed_count(), 4);
        assert_eq!(merged.shard, None);

        let mut other_spec = spec;
        other_spec.seed = 999;
        let c = Checkpoint::new(other_spec, 10, None);
        assert!(merge([a.clone(), c]).is_err());
        let d = Checkpoint::new(a.spec.clone(), 11, None);
        assert!(merge([a, d]).is_err());
    }

    #[test]
    fn missing_pass1_honours_the_shard() {
        let mut ckpt = Checkpoint::new(
            CampaignSpec::default(),
            6,
            Some(Shard { index: 0, count: 2 }),
        );
        assert_eq!(ckpt.missing(), vec![0, 2, 4]);
        ckpt.record(
            2,
            RunOutput::Cad(CadSample {
                configured_delay_ms: 0,
                rep: 0,
                family: None,
                observed_cad_ms: None,
                aaaa_first: None,
            }),
        );
        assert_eq!(ckpt.missing(), vec![0, 4]);
    }

    #[test]
    fn corrupt_checkpoints_error_cleanly() {
        assert!(Checkpoint::from_json_str("{").is_err());
        assert!(Checkpoint::from_json_str(r#"{"version": 99}"#).is_err());
        let valid = Checkpoint::new(CampaignSpec::default(), 1, None).to_json_string();
        let broken = valid.replace("\"cad\"", "\"warp\"");
        let _ = Checkpoint::from_json_str(&broken); // must not panic
    }
}
