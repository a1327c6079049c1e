//! Anomaly forensics: the campaign-side payloads of the flight
//! recorder's [trigger engine](lazyeye_obs::trigger).
//!
//! The obs crate owns the mechanism (trigger dedup, bundle schema);
//! this module owns the *meaning*: what full provenance looks like for a
//! campaign run ([`RunProvenance`]), how to turn provenance
//! back into a run ([`RunProvenance::to_run`]) and re-execute it with
//! tracing on ([`capture_trace`]), and the per-anomaly hooks the
//! executor, refinement planner and inference pass call. Every bundle's
//! trace and every replay's regenerated one come from the executor's own
//! dispatch ([`RunContext::dispatch`]), so a bundle replays
//! byte-identically unless the simulation itself has become
//! nondeterministic — which is exactly the regression the replay gate
//! exists to catch.

use lazyeye_infer::{canonical_condition, detect_switchover, CaseKind, Observation, Verdict};
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::Family;
use lazyeye_obs::bundle::Bundle;
use lazyeye_obs::trigger::{self, TriggerKind};
use lazyeye_testbed::{delayed_record_label, delayed_record_of};
use lazyeye_trace::Trace;

use crate::executor::{RunContext, RunOutput};
use crate::inference::InferenceSection;
use crate::plan::{validate, RunKind, RunSpec, SpecError};
use crate::spec::{CampaignSpec, NetemSpec, SelectionPlan};

/// Everything needed to re-execute one campaign run outside the
/// campaign: the cell coordinates plus the *resolved* netem condition
/// and selection plan (a bundle must stay self-contained when the spec
/// file is gone).
#[derive(Clone, Debug, PartialEq)]
pub struct RunProvenance {
    /// Case family label (`cad` / `rd` / `selection` / `resolver`).
    pub case: String,
    /// Subject id (client profile id or resolver name).
    pub subject: String,
    /// Cell condition, as [`RunKind::condition`] renders it.
    pub condition: String,
    /// The resolved netem condition (full spec, not just the label).
    pub netem: NetemSpec,
    /// The delayed-record label for RD runs (`delayed-aaaa` /
    /// `delayed-a`), `None` otherwise.
    pub record: Option<String>,
    /// Configured delay of the run (ms); 0 for selection runs.
    pub delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// The run's derived simulation seed.
    pub seed: u64,
    /// The resolved selection plan, for selection runs.
    pub selection: Option<SelectionPlan>,
    /// Campaign name (context only; replay never reads it).
    pub campaign: String,
    /// Campaign seed the run seed was derived from.
    pub campaign_seed: u64,
}

lazyeye_json::impl_json_struct!(RunProvenance {
    case,
    subject,
    condition,
    netem,
    record,
    delay_ms,
    rep,
    seed,
    selection,
    campaign,
    campaign_seed,
});

/// Stamps a run's full provenance: cell coordinates plus the resolved
/// netem condition and selection plan from the spec.
pub fn provenance(spec: &CampaignSpec, run: &RunSpec) -> RunProvenance {
    let c = run.kind.coords();
    RunProvenance {
        case: c.case.to_string(),
        subject: c.subject.to_string(),
        condition: run.kind.condition(),
        netem: spec
            .netem
            .iter()
            .find(|n| n.label == c.netem)
            .cloned()
            .unwrap_or_else(NetemSpec::baseline),
        record: c.record.map(|r| delayed_record_label(r).to_string()),
        delay_ms: c.delay_ms,
        rep: c.rep,
        seed: run.seed,
        selection: spec.selection.clone().filter(|_| c.case == "selection"),
        campaign: spec.name.clone(),
        campaign_seed: spec.seed,
    }
}

impl RunProvenance {
    /// The run this provenance describes, and a context that resolves it:
    /// the inverse of [`provenance`], in one fallible step. Refuses an
    /// unknown case or delayed record, a condition that does not match
    /// the run, and netem or selection fields a spec could not hold. An
    /// unknown subject is not refused: the run then panics exactly as the
    /// executor does on it, which is what a `run-panic` bundle records
    /// ([`replay`] refuses it in every other bundle).
    pub fn to_run(&self) -> Result<(RunContext, RunSpec), SpecError> {
        let (subject, netem) = (self.subject.clone(), self.netem.label.clone());
        let (delay_ms, rep) = (self.delay_ms, self.rep);
        let kind = match self.case.as_str() {
            "cad" => RunKind::Cad {
                client: subject,
                netem,
                delay_ms,
                rep,
            },
            "rd" => {
                let label = self.record.as_deref().unwrap_or_default();
                RunKind::Rd {
                    client: subject,
                    netem,
                    record: delayed_record_of(label)
                        .ok_or_else(|| format!("unknown delayed record {label:?}"))?,
                    delay_ms,
                    rep,
                }
            }
            "selection" => RunKind::Selection {
                client: subject,
                netem,
                rep,
            },
            "resolver" => RunKind::Resolver {
                resolver: subject,
                netem,
                delay_ms,
                rep,
            },
            other => return Err(format!("unknown case {other:?}").into()),
        };
        if kind.condition() != self.condition {
            return Err(format!(
                "condition {:?} does not match the run's {:?}",
                self.condition,
                kind.condition()
            )
            .into());
        }
        let spec = CampaignSpec {
            name: self.campaign.clone(),
            seed: self.campaign_seed,
            netem: vec![self.netem.clone()],
            selection: self.selection.clone(),
            ..CampaignSpec::default()
        };
        validate(&spec)?;
        let clients = lazyeye_clients::all_measured_clients()
            .into_iter()
            .filter(|c| c.id() == self.subject)
            .collect();
        let resolvers = lazyeye_resolver::all_profiles()
            .into_iter()
            .filter(|p| p.name == self.subject)
            .collect();
        let run = RunSpec {
            index: 0,
            seed: self.seed,
            kind,
            refined: false,
        };
        Ok((RunContext::resolved(&spec, clients, resolvers), run))
    }
}

/// The trigger deduplication key of a run: its full cell coordinates,
/// so the bundle *set* is a pure function of (spec, seed).
fn run_key(run: &RunSpec) -> String {
    let c = run.kind.coords();
    let condition = run.kind.condition();
    format!(
        "{}:{}:{condition}:d{}:r{}",
        c.case, c.subject, c.delay_ms, c.rep
    )
}

/// Re-executes `run` with tracing on and returns its full event trace.
/// Pure in the run's provenance: the same run always yields the same
/// trace — both a bundle's recorded trace and [`replay`]'s regenerated
/// one come from here.
pub fn capture_trace(ctx: &RunContext, run: &RunSpec) -> Trace {
    ctx.dispatch(run, true)
        .1
        .expect("a traced run returns its trace")
}

/// The context the report-time hooks capture traces in: the spec was
/// resolved when it was planned, so this cannot fail.
pub(crate) fn planned_context(spec: &CampaignSpec) -> RunContext {
    RunContext::new_with(spec, &[], false).expect("a planned spec resolves")
}

/// Fires `kind` for `run`: a bundle with the run's provenance and its
/// re-captured trace (captured only when the key is new).
fn fire_traced(ctx: &RunContext, kind: TriggerKind, key: &str, detail: &str, run: &RunSpec) {
    trigger::fire(kind, key, || {
        Bundle::new(
            kind.label(),
            key,
            detail,
            ToJson::to_json(&provenance(&ctx.spec, run)),
            ToJson::to_json(&capture_trace(ctx, run)),
        )
    });
}

/// Extracts the human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executor hook: the compiled fast path refused `run` (`reason` is one
/// of `tie` / `unknown_candidate` / `cached_path` / `quic`) and the
/// campaign fell back to full simulation.
pub(crate) fn on_fastpath_fallback(ctx: &RunContext, run: &RunSpec, reason: &'static str) {
    if trigger::armed() {
        fire_traced(
            ctx,
            TriggerKind::FastPathFallback,
            &run_key(run),
            reason,
            run,
        );
    }
}

/// Executor hook: `run` panicked on a worker. No trace can be captured
/// (re-running would panic again); the bundle carries provenance and
/// the panic message, and [`replay`] verifies the panic reproduces.
pub(crate) fn on_run_panic(spec: &CampaignSpec, run: &RunSpec, message: &str) {
    if !trigger::armed() {
        return;
    }
    let key = run_key(run);
    trigger::fire(TriggerKind::RunPanic, &key, || {
        Bundle::new(
            TriggerKind::RunPanic.label(),
            key.clone(),
            message,
            ToJson::to_json(&provenance(spec, run)),
            Json::Null,
        )
    });
}

/// Planner hook: the refinement pass scheduled fine sweeps. One bundle
/// per refined cell, keyed by the cell coordinates; the representative
/// run is the cell's lowest-index refined run.
pub(crate) fn on_refinement_brackets(spec: &CampaignSpec, pass2: &[RunSpec]) {
    if pass2.is_empty() || !trigger::armed() {
        return;
    }
    let ctx = planned_context(spec);
    let mut cells: std::collections::BTreeMap<String, Vec<&RunSpec>> =
        std::collections::BTreeMap::new();
    for run in pass2 {
        let c = run.kind.coords();
        let key = format!("{}:{}:{}", c.case, c.subject, run.kind.condition());
        cells.entry(key).or_default().push(run);
    }
    for (key, runs) in cells {
        let delays: Vec<u64> = runs.iter().map(|r| r.kind.coords().delay_ms).collect();
        let detail = format!(
            "{} refined runs in [{}, {}] ms",
            runs.len(),
            delays.iter().min().expect("non-empty cell"),
            delays.iter().max().expect("non-empty cell"),
        );
        // pass2 is index-ordered, so the first entry is the
        // lowest-index (deterministic) representative.
        fire_traced(&ctx, TriggerKind::RefinementBracket, &key, &detail, runs[0]);
    }
}

/// Report hook: walks the inference section for changepoint misfits and
/// `DEVIATES(..)` verdicts, and fires one bundle per anomaly with a
/// deterministic representative run.
pub(crate) fn on_inference(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    outputs: &[RunOutput],
    section: &InferenceSection,
) {
    if !trigger::armed() {
        return;
    }
    debug_assert_eq!(runs.len(), outputs.len());
    let ctx = planned_context(spec);
    let observations: Vec<Observation> = runs
        .iter()
        .zip(outputs)
        .map(|(r, o)| crate::inference::observation(r, o))
        .collect();

    for report in &section.profiles {
        let profile = &report.profile;

        // --- changepoint misfits: the step model disagrees with runs --
        if profile.cad.misfits > 0 {
            fire_misfit(&ctx, runs, &observations, &profile.subject);
        }

        // --- DEVIATES verdicts --------------------------------------
        for entry in &report.conformance {
            if entry.verdict != Verdict::Deviates {
                continue;
            }
            let (case, preferred) = match entry.feature.as_str() {
                "resolution-delay" => (CaseKind::Rd, "delayed-aaaa"),
                "no-lookup-stall" => (CaseKind::Rd, "delayed-a"),
                "address-sorting" => (CaseKind::Selection, "-"),
                // family-preference, query-order, connection-attempt-delay.
                _ => (CaseKind::Cad, "baseline"),
            };
            let of_case: Vec<&Observation> = observations
                .iter()
                .filter(|o| o.subject == profile.subject && o.case == case)
                .collect();
            let Some(cond) = canonical_condition(&of_case, preferred).map(str::to_string) else {
                continue;
            };
            let Some(rep_idx) = observations.iter().position(|o| {
                o.subject == profile.subject && o.case == case && o.condition == cond
            }) else {
                continue;
            };
            let key = format!("{}:{}", entry.feature, profile.subject);
            let detail = entry.render();
            fire_traced(&ctx, TriggerKind::Deviates, &key, &detail, &runs[rep_idx]);
        }
    }

    // --- §5.2 stall verdicts vs. causal attribution ------------------
    // The profiler re-derives "does this client stall?" from the
    // attributed stall phase of a representative delayed-A run; a
    // disagreement with the inference verdict is a bug in one of the
    // two layers and gets its own black box.
    for check in crate::profile::stall_cross_checks(&ctx, runs, section) {
        if check.agrees() {
            continue;
        }
        let key = format!("no-lookup-stall:{}", check.subject);
        let run = &runs[check.run_index];
        fire_traced(
            &ctx,
            TriggerKind::AttributionMismatch,
            &key,
            &check.detail(),
            run,
        );
    }
}

/// Fires the inference-misfit trigger for one subject's canonical CAD
/// cell: refits the changepoint over the cell's points and picks the
/// first misclassified run (in run-index order) as representative.
fn fire_misfit(ctx: &RunContext, runs: &[RunSpec], observations: &[Observation], subject: &str) {
    let cad_obs: Vec<&Observation> = observations
        .iter()
        .filter(|o| o.subject == subject && o.case == CaseKind::Cad)
        .collect();
    let Some(cond) = canonical_condition(&cad_obs, "baseline").map(str::to_string) else {
        return;
    };
    // (run index, point) pairs for the canonical cell, in run order.
    let cell: Vec<(usize, (u64, Family))> = observations
        .iter()
        .enumerate()
        .filter(|(_, o)| o.subject == subject && o.case == CaseKind::Cad && o.condition == cond)
        .filter_map(|(i, o)| o.family.map(|f| (i, (o.delay_ms, f))))
        .collect();
    let points: Vec<(u64, Family)> = cell.iter().map(|(_, pt)| *pt).collect();
    let fit = detect_switchover(&points);
    let misfit = fit.misfit_points(&points);
    let Some((rep_idx, _)) = cell.iter().find(|(_, pt)| misfit.contains(pt)) else {
        return;
    };
    let key = format!("cad:{subject}:{cond}");
    let threshold = match fit.threshold_ms {
        Some(t) => format!("{t} ms"),
        None => "-inf".to_string(),
    };
    let detail = format!(
        "{} of {} observations misfit the fitted threshold {threshold}",
        fit.misfits, fit.total
    );
    fire_traced(
        ctx,
        TriggerKind::InferenceMisfit,
        &key,
        &detail,
        &runs[*rep_idx],
    );
}

/// The outcome of replaying one bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// Trigger kind label of the bundle.
    pub kind: String,
    /// The bundle's deduplication key.
    pub key: String,
    /// The bundle's detail line (refusal reason, verdict, panic message).
    pub detail: String,
    /// Whether the regenerated execution matched the recording exactly.
    pub identical: bool,
    /// First divergence, when not identical.
    pub divergence: Option<String>,
    /// Event count of the recorded trace (0 for run-panic bundles).
    pub recorded_events: u64,
    /// Event count of the regenerated trace (0 for run-panic bundles).
    pub regenerated_events: u64,
}

lazyeye_json::impl_json_struct!(ReplayReport {
    kind,
    key,
    detail,
    identical,
    divergence,
    recorded_events,
    regenerated_events,
});

impl ReplayReport {
    /// One-paragraph human rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "replay {} [{}]\n  detail: {}\n  recorded {} events, regenerated {}\n",
            self.kind, self.key, self.detail, self.recorded_events, self.regenerated_events
        );
        match &self.divergence {
            None => out.push_str("  verdict: byte-identical\n"),
            Some(d) => out.push_str(&format!("  verdict: DIVERGED\n  {d}\n")),
        }
        out
    }
}

/// First event-level divergence between two traces (as compact JSON),
/// assuming they are known to differ.
fn first_divergence(recorded: &Trace, regenerated: &Trace) -> String {
    if recorded.meta != regenerated.meta {
        return format!(
            "trace meta differs: recorded {}, regenerated {}",
            ToJson::to_json(&recorded.meta),
            ToJson::to_json(&regenerated.meta)
        );
    }
    for (i, (a, b)) in recorded.events.iter().zip(&regenerated.events).enumerate() {
        if a != b {
            return format!(
                "event {i} differs: recorded {}, regenerated {}",
                ToJson::to_json(a),
                ToJson::to_json(b)
            );
        }
    }
    format!(
        "event count differs: recorded {}, regenerated {}",
        recorded.events.len(),
        regenerated.events.len()
    )
}

/// Replays a bundle: re-executes the run from provenance alone and
/// diffs the regenerated trace against the recorded one. For run-panic
/// bundles the run is expected to panic with the recorded message.
///
/// Errors only on malformed bundles, including provenance that does not
/// describe a run (see [`RunProvenance::to_run`]); a divergent (but
/// well-formed) replay returns `identical: false` with the first
/// divergence.
pub fn replay(bundle: &Bundle) -> Result<ReplayReport, JsonError> {
    let p = RunProvenance::from_json(&bundle.provenance)?;
    let kind = TriggerKind::parse(&bundle.kind)
        .ok_or_else(|| JsonError::new(format!("replay: unknown trigger kind {:?}", bundle.kind)))?;
    let (ctx, run) = p
        .to_run()
        .map_err(|e| JsonError::new(format!("bundle provenance: {e}")))?;
    // Only a run-panic bundle may name a subject nothing resolves: its
    // run panics on the lookup exactly as the executor's did.
    if kind != TriggerKind::RunPanic && !ctx.resolves_subject(&run) {
        return Err(JsonError::new(format!(
            "bundle provenance: unknown subject {:?}",
            p.subject
        )));
    }
    let mut report = ReplayReport {
        kind: bundle.kind.clone(),
        key: bundle.key.clone(),
        detail: bundle.detail.clone(),
        identical: false,
        divergence: None,
        recorded_events: 0,
        regenerated_events: 0,
    };

    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| capture_trace(&ctx, &run)));
    if kind == TriggerKind::RunPanic {
        match outcome {
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if message == bundle.detail {
                    report.identical = true;
                } else {
                    report.divergence = Some(format!(
                        "panic message changed: recorded {:?}, regenerated {message:?}",
                        bundle.detail
                    ));
                }
            }
            Ok(trace) => {
                report.regenerated_events = trace.events.len() as u64;
                report.divergence = Some(
                    "recorded panic did not reproduce; the run completed normally".to_string(),
                );
            }
        }
        return Ok(report);
    }

    let recorded = Trace::from_json(&bundle.trace)?;
    report.recorded_events = recorded.events.len() as u64;
    match outcome {
        Err(payload) => {
            report.divergence = Some(format!(
                "replay panicked: {}",
                panic_message(payload.as_ref())
            ));
        }
        Ok(regenerated) => {
            report.regenerated_events = regenerated.events.len() as u64;
            if regenerated == recorded {
                report.identical = true;
            } else {
                report.divergence = Some(first_divergence(&recorded, &regenerated));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::expand;

    fn cad_spec() -> CampaignSpec {
        CampaignSpec {
            name: "forensics-unit".into(),
            clients: vec!["chrome-130.0".into()],
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn provenance_roundtrips_and_resolves_netem() {
        let spec = cad_spec();
        let runs = expand(&spec).unwrap();
        let p = provenance(&spec, &runs[0]);
        assert_eq!(p.case, "cad");
        assert_eq!(p.subject, "chrome-130.0");
        assert_eq!(p.netem.label, "baseline");
        assert_eq!(p.seed, runs[0].seed);
        assert_eq!(p.campaign_seed, spec.seed);
        let back = RunProvenance::from_json(&ToJson::to_json(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn capture_trace_is_reproducible() {
        let spec = cad_spec();
        let runs = expand(&spec).unwrap();
        let p = provenance(&spec, &runs[1]);
        let (ctx, run) = p.to_run().unwrap();
        assert_eq!(provenance(&spec, &run), p, "to_run inverts provenance");
        let a = capture_trace(&ctx, &run);
        let b = capture_trace(&ctx, &run);
        assert_eq!(a, b, "same provenance must yield the same trace");
        assert_eq!(a, capture_trace(&planned_context(&spec), &runs[1]));
        assert!(!a.events.is_empty());
        assert_eq!(a.meta.subject, "chrome-130.0");
        assert_eq!(a.meta.seed, p.seed);
    }

    #[test]
    fn replay_flags_a_tampered_trace() {
        let spec = cad_spec();
        let runs = expand(&spec).unwrap();
        let p = provenance(&spec, &runs[0]);
        let mut trace = capture_trace(&planned_context(&spec), &runs[0]);
        let bundle_ok = Bundle::new(
            "fastpath-fallback",
            "k",
            "tie",
            ToJson::to_json(&p),
            ToJson::to_json(&trace),
        );
        let ok = replay(&bundle_ok).unwrap();
        assert!(ok.identical, "{:?}", ok.divergence);

        // Tamper with one event timestamp: replay must spot it.
        trace.events[0].at_ns += 1;
        let bundle_bad = Bundle::new(
            "fastpath-fallback",
            "k",
            "tie",
            ToJson::to_json(&p),
            ToJson::to_json(&trace),
        );
        let bad = replay(&bundle_bad).unwrap();
        assert!(!bad.identical);
        assert!(bad.divergence.unwrap().contains("event 0"));
    }

    /// Provenance that names no run among the known cases, records,
    /// address ranges or subjects is an error before anything runs, never
    /// a panic.
    #[test]
    fn replay_refuses_malformed_provenance() {
        let spec = CampaignSpec {
            clients: vec!["chrome-130.0".into()],
            ..CampaignSpec::default()
        };
        let runs = expand(&spec).unwrap();
        let of_case = |case: &str| {
            let run = runs.iter().find(|r| r.kind.coords().case == case).unwrap();
            provenance(&spec, run)
        };
        let mut bogus = of_case("cad");
        bogus.case = "bogus".into();
        let mut record = of_case("rd");
        record.record = Some("delayed-zzz".into());
        let mut condition = of_case("cad");
        condition.condition = "lossy".into();
        let mut v4 = of_case("selection");
        v4.selection.as_mut().unwrap().v4_addresses = 255;
        let mut v6 = of_case("selection");
        v6.selection.as_mut().unwrap().v6_addresses = 10_000;
        // Outside a run-panic bundle, a subject nothing resolves.
        let mut client = of_case("cad");
        client.subject = "nosuch-1.0".into();
        let mut resolver = of_case("resolver");
        resolver.subject = "nosuch-1.0".into();
        let unknown = "bundle provenance: unknown subject \"nosuch-1.0\"";
        for (p, expected) in [
            (bogus, "unknown case \"bogus\""),
            (record, "unknown delayed record \"delayed-zzz\""),
            (condition, "condition \"lossy\" does not match"),
            (v4, "selection.v4_addresses must be at most 254, got 255"),
            (v6, "selection.v6_addresses must be at most 9999, got 10000"),
            (client, unknown),
            (resolver, unknown),
        ] {
            let bundle = Bundle::new("deviates", "k", "d", ToJson::to_json(&p), Json::Null);
            let err = replay(&bundle).expect_err(expected);
            assert!(err.to_string().contains(expected), "{err}");
        }
    }
}
