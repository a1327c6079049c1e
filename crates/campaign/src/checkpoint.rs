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
//! refinement pass, the run context, the kind check, the [`RunOutput`]
//! JSON codec, and (as an [`Engine`]) the report fold and profile. The
//! kernel's one driver runs both passes and finishes every flow.

use lazyeye_exec::{Engine, Matrix, Partial, Profile, Run};
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::Family;
use lazyeye_testbed::{CadSample, RdSample, ResolverSample, SelectionResult};

pub use lazyeye_exec::{merge, Shard};

use crate::executor::{run_one, RunContext, RunOutput};
use crate::plan::{expand, RunKind, RunSpec, SpecError};
use crate::report::CampaignReport;
use crate::spec::CampaignSpec;
use crate::{build_report_with, forensics, profile, refine};

/// The campaign's run options; the kernel passes them through unread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Run baseline-netem CAD/RD cells through the calibrated analytic
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

    fn output_to_json(output: &RunOutput) -> Json {
        output_to_json(output)
    }

    fn output_from_json(v: &Json) -> Result<RunOutput, JsonError> {
        output_from_json(v)
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

// ---------------------------------------------------------------------------
// RunOutput (de)serialisation
// ---------------------------------------------------------------------------
// `RunOutput` wraps testbed sample types whose fields include
// `lazyeye_net::Family`; the JSON mapping lives here (tagged by `kind`)
// rather than as trait impls so the wire format stays a campaign concern.

fn family_to_json(f: &Option<Family>) -> Json {
    match f {
        Some(Family::V6) => Json::Str("v6".into()),
        Some(Family::V4) => Json::Str("v4".into()),
        None => Json::Null,
    }
}

fn family_from_json(v: &Json) -> Result<Option<Family>, JsonError> {
    match v {
        Json::Null => Ok(None),
        Json::Str(s) if s == "v6" => Ok(Some(Family::V6)),
        Json::Str(s) if s == "v4" => Ok(Some(Family::V4)),
        other => Err(JsonError::new(format!("expected v6|v4|null, got {other}"))),
    }
}

fn output_to_json(output: &RunOutput) -> Json {
    match output {
        RunOutput::Cad(s) => Json::obj(vec![
            ("kind", "cad".to_json()),
            ("configured_delay_ms", s.configured_delay_ms.to_json()),
            ("rep", s.rep.to_json()),
            ("family", family_to_json(&s.family)),
            ("observed_cad_ms", s.observed_cad_ms.to_json()),
            ("aaaa_first", s.aaaa_first.to_json()),
        ]),
        RunOutput::Rd(s) => Json::obj(vec![
            ("kind", "rd".to_json()),
            ("configured_delay_ms", s.configured_delay_ms.to_json()),
            ("rep", s.rep.to_json()),
            ("family", family_to_json(&s.family)),
            ("first_attempt_ms", s.first_attempt_ms.to_json()),
            ("used_rd", s.used_rd.to_json()),
        ]),
        RunOutput::Selection(r) => Json::obj(vec![
            ("kind", "selection".to_json()),
            (
                "order",
                Json::Str(
                    r.order
                        .iter()
                        .map(|f| if *f == Family::V6 { '6' } else { '4' })
                        .collect(),
                ),
            ),
            ("v6_used", r.v6_used.to_json()),
            ("v4_used", r.v4_used.to_json()),
        ]),
        RunOutput::Resolver(s) => Json::obj(vec![
            ("kind", "resolver".to_json()),
            ("configured_delay_ms", s.configured_delay_ms.to_json()),
            ("rep", s.rep.to_json()),
            ("first_query_family", family_to_json(&s.first_query_family)),
            ("v6_packets", s.v6_packets.to_json()),
            ("observed_cad_ms", s.observed_cad_ms.to_json()),
            ("v6_retry_gap_ms", s.v6_retry_gap_ms.to_json()),
            ("resolved", s.resolved.to_json()),
            ("served_over_v6", s.served_over_v6.to_json()),
        ]),
    }
}

fn output_from_json(v: &Json) -> Result<RunOutput, JsonError> {
    match v["kind"].as_str() {
        Some("cad") => Ok(RunOutput::Cad(CadSample {
            configured_delay_ms: u64::from_json(&v["configured_delay_ms"])?,
            rep: u32::from_json(&v["rep"])?,
            family: family_from_json(&v["family"])?,
            observed_cad_ms: Option::<f64>::from_json(&v["observed_cad_ms"])?,
            aaaa_first: Option::<bool>::from_json(&v["aaaa_first"])?,
        })),
        Some("rd") => Ok(RunOutput::Rd(RdSample {
            configured_delay_ms: u64::from_json(&v["configured_delay_ms"])?,
            rep: u32::from_json(&v["rep"])?,
            family: family_from_json(&v["family"])?,
            first_attempt_ms: Option::<f64>::from_json(&v["first_attempt_ms"])?,
            used_rd: bool::from_json(&v["used_rd"])?,
        })),
        Some("selection") => {
            let order = v["order"]
                .as_str()
                .ok_or_else(|| JsonError::new("selection order: expected string"))?
                .chars()
                .map(|c| match c {
                    '6' => Ok(Family::V6),
                    '4' => Ok(Family::V4),
                    other => Err(JsonError::new(format!(
                        "selection order: expected 6|4, got {other:?}"
                    ))),
                })
                .collect::<Result<Vec<Family>, JsonError>>()?;
            Ok(RunOutput::Selection(SelectionResult {
                order,
                v6_used: usize::from_json(&v["v6_used"])?,
                v4_used: usize::from_json(&v["v4_used"])?,
            }))
        }
        Some("resolver") => Ok(RunOutput::Resolver(ResolverSample {
            configured_delay_ms: u64::from_json(&v["configured_delay_ms"])?,
            rep: u32::from_json(&v["rep"])?,
            first_query_family: family_from_json(&v["first_query_family"])?,
            v6_packets: usize::from_json(&v["v6_packets"])?,
            observed_cad_ms: Option::<f64>::from_json(&v["observed_cad_ms"])?,
            v6_retry_gap_ms: Option::<f64>::from_json(&v["v6_retry_gap_ms"])?,
            resolved: bool::from_json(&v["resolved"])?,
            served_over_v6: bool::from_json(&v["served_over_v6"])?,
        })),
        other => Err(JsonError::new(format!(
            "run output: unknown kind {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
