//! The sharded executor: fans campaign runs out across worker threads.
//!
//! Each worker owns fresh `Sim` instances per run — the in-process
//! equivalent of the paper's container reset — so runs are isolated and
//! their outputs independent of scheduling. The scheduling itself (the
//! work-stealing pool with index-ordered results) is the shared
//! [`lazyeye_exec`] layer; this module contributes the campaign-specific
//! glue: resolving spec ids into profiles once ([`RunContext`]), the one
//! dispatch from a run to the testbed ([`RunContext::dispatch`]), and
//! reducing each run to a small [`RunOutput`] on the worker.
//!
//! With `--fast-path`, the context also holds a `FastCache`: one
//! calibrated [`FastPath`] model per baseline CAD cell of the plan.
//! A run its cell's model serves skips simulation; a run it refuses
//! simulates through the same dispatch and feeds the fastpath-fallback
//! trigger. Without `--fast-path` the cache is empty and costs each run
//! one map lookup.

use std::collections::{BTreeMap, HashMap};

use lazyeye_clients::ClientProfile;
use lazyeye_exec::execute_indexed_with;
use lazyeye_net::NetemRule;
use lazyeye_resolver::ResolverProfile;
use lazyeye_testbed::{
    run_cad, run_rd, run_resolver, run_selection, CadSample, FastPath, RdSample, ResolverSample,
    SelectionCaseConfig, SelectionResult,
};
use lazyeye_trace::Trace;

use crate::plan::{resolve_clients, resolve_resolvers, RunKind, RunSpec, SpecError};
use crate::spec::{CampaignSpec, SelectionPlan};

/// Registry handles for campaign-level metrics. Run counts are a pure
/// function of `(spec, seed)` and live on the virtual clock.
struct CampaignMetrics {
    runs: &'static lazyeye_obs::Counter,
    runs_refined: &'static lazyeye_obs::Counter,
}

fn metrics() -> &'static CampaignMetrics {
    static METRICS: std::sync::OnceLock<CampaignMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CampaignMetrics {
        runs: lazyeye_obs::counter("campaign.runs", lazyeye_obs::Clock::Virtual),
        runs_refined: lazyeye_obs::counter("campaign.runs_refined", lazyeye_obs::Clock::Virtual),
    })
}

/// Human-readable cell label for progress display and timeline spans.
fn run_label(run: &RunSpec) -> String {
    match &run.kind {
        RunKind::Cad {
            client,
            delay_ms,
            rep,
            ..
        } => format!("cad {client} delay={delay_ms}ms rep={rep}"),
        RunKind::Rd {
            client,
            record,
            delay_ms,
            rep,
            ..
        } => format!("rd {client} {record:?} delay={delay_ms}ms rep={rep}"),
        RunKind::Selection { client, .. } => format!("selection {client}"),
        RunKind::Resolver {
            resolver,
            delay_ms,
            rep,
            ..
        } => format!("resolver {resolver} delay={delay_ms}ms rep={rep}"),
    }
}

/// The measured outcome of one run (a per-run reduction of the raw packet
/// capture — raw samples never leave the worker).
#[derive(Clone, Debug)]
pub enum RunOutput {
    /// CAD run outcome.
    Cad(CadSample),
    /// RD run outcome.
    Rd(RdSample),
    /// Selection run outcome.
    Selection(SelectionResult),
    /// Resolver run outcome.
    Resolver(ResolverSample),
}

// The partial wire format: the sample's fields after a `kind` tag.
lazyeye_json::impl_json_tagged!(RunOutput, "kind" {
    Cad = "cad" (CadSample),
    Rd = "rd" (RdSample),
    Selection = "selection" (SelectionResult),
    Resolver = "resolver" (ResolverSample),
});

/// Pre-resolved lookup tables the workers need: profile objects and netem
/// rules by name. Shared immutably across all workers.
pub struct RunContext {
    /// The spec the context was built from. The forensics layer needs it
    /// on the worker to stamp full provenance into trigger bundles.
    pub(crate) spec: CampaignSpec,
    clients: HashMap<String, ClientProfile>,
    resolvers: HashMap<String, ResolverProfile>,
    netem: HashMap<String, Vec<NetemRule>>,
    selection: SelectionCaseConfig,
    fast: FastCache,
}

/// Calibrated CAD fast-path models by client. Empty unless the campaign
/// opted into `--fast-path`. Calibration runs eagerly at context build
/// time — before workers exist — so the cache is shared immutably
/// afterwards (the models hold only owned data; `RunContext` must stay
/// `Sync`).
#[derive(Default)]
struct FastCache {
    models: HashMap<String, FastPath>,
}

impl FastCache {
    /// Calibrates a model per baseline CAD cell of the expanded plan,
    /// verifying each against the real first-pass runs at the sweep
    /// endpoints (rep 0, the runs' own seeds). A cell whose model fails
    /// verification simply stays out of the cache and simulates normally.
    fn build(ctx: &RunContext, spec: &CampaignSpec, runs: &[RunSpec]) -> FastCache {
        // (delay -> seed) per cell, baseline netem and rep 0 only.
        let mut cells: BTreeMap<&str, BTreeMap<u64, u64>> = BTreeMap::new();
        for run in runs {
            let c = run.kind.coords();
            if c.case != "cad" || c.rep != 0 || !ctx.netem(c.netem).is_empty() {
                continue;
            }
            cells
                .entry(c.subject)
                .or_default()
                .insert(c.delay_ms, run.seed);
        }
        let mut fast = FastCache::default();
        for (client, cell) in cells {
            let mut endpoints: Vec<(u64, u64)> = cell
                .first_key_value()
                .into_iter()
                .chain(cell.last_key_value())
                .map(|(d, s)| (*d, *s))
                .collect();
            endpoints.dedup();
            let profile = ctx.client(client);
            if let Some(model) = FastPath::calibrate(profile, spec.seed, &endpoints) {
                fast.models.insert(client.to_string(), model);
            }
        }
        fast
    }

    /// The fast-path outcome of a run: `None` when no verified model
    /// covers it (other cases, shaped netem, no model), else the
    /// modelled output or the reason the model refused the run.
    fn run(&self, ctx: &RunContext, kind: &RunKind) -> Option<Result<RunOutput, &'static str>> {
        let c = kind.coords();
        if c.case != "cad" {
            return None;
        }
        let model = self.models.get(c.subject)?;
        if !ctx.netem(c.netem).is_empty() {
            return None;
        }
        Some(model.run(c.delay_ms, c.rep).map(RunOutput::Cad))
    }
}

impl RunContext {
    /// Builds the context for a spec, resolving ids up front so workers
    /// never fail on lookups.
    ///
    /// With `fast_path`, CAD models are calibrated against the
    /// expanded plan's own endpoint runs and used for every
    /// baseline-netem cell they verify on. Cells the models refuse (ties,
    /// QUIC profiles, shaped netem, failed verification) simulate as
    /// usual, so the resulting report stays byte-identical either way.
    pub fn new_with(
        spec: &CampaignSpec,
        runs: &[RunSpec],
        fast_path: bool,
    ) -> Result<RunContext, SpecError> {
        let mut ctx = Self::resolved(spec, resolve_clients(spec)?, resolve_resolvers(spec)?);
        if fast_path {
            ctx.fast = FastCache::build(&ctx, spec, runs);
        }
        Ok(ctx)
    }

    /// A context over already-resolved profiles, without the fast path.
    pub(crate) fn resolved(
        spec: &CampaignSpec,
        clients: Vec<ClientProfile>,
        resolvers: Vec<ResolverProfile>,
    ) -> RunContext {
        let mut netem: HashMap<String, Vec<NetemRule>> = spec
            .netem
            .iter()
            .map(|n| (n.label.clone(), n.rules()))
            .collect();
        netem
            .entry(crate::spec::NetemSpec::baseline().label)
            .or_default();
        let selection = spec
            .selection
            .as_ref()
            .map(SelectionPlan::case_config)
            .unwrap_or_default();
        RunContext {
            spec: spec.clone(),
            clients: clients.into_iter().map(|c| (c.id(), c)).collect(),
            resolvers: resolvers
                .into_iter()
                .map(|p| (p.name.to_string(), p))
                .collect(),
            netem,
            selection,
            fast: FastCache::default(),
        }
    }

    /// Whether the subject `run` measures resolves here; dispatching a
    /// run whose subject does not panics on the lookup.
    pub(crate) fn resolves_subject(&self, run: &RunSpec) -> bool {
        match &run.kind {
            RunKind::Cad { client, .. }
            | RunKind::Rd { client, .. }
            | RunKind::Selection { client, .. } => self.clients.contains_key(client),
            RunKind::Resolver { resolver, .. } => self.resolvers.contains_key(resolver),
        }
    }

    fn client(&self, id: &str) -> &ClientProfile {
        self.clients
            .get(id)
            .unwrap_or_else(|| panic!("run references unresolved client {id:?}"))
    }

    fn resolver(&self, name: &str) -> &ResolverProfile {
        self.resolvers
            .get(name)
            .unwrap_or_else(|| panic!("run references unresolved resolver {name:?}"))
    }

    fn netem(&self, label: &str) -> &[NetemRule] {
        self.netem
            .get(label)
            .unwrap_or_else(|| panic!("run references unresolved netem {label:?}"))
    }

    /// Runs `run` in a fresh simulation: the one place a campaign run
    /// reaches the testbed. With `traced`, the run's event trace comes
    /// back too, labelled with the run's cell condition. The executor
    /// runs untraced; bundles, replay and profiling run traced
    /// ([`crate::forensics::capture_trace`]).
    pub fn dispatch(&self, run: &RunSpec, traced: bool) -> (RunOutput, Option<Trace>) {
        let condition = traced.then(|| run.kind.condition());
        let trace = condition.as_deref();
        let c = run.kind.coords();
        let (rules, seed) = (self.netem(c.netem), run.seed);
        match &run.kind {
            RunKind::Cad { .. } => {
                let profile = self.client(c.subject);
                let (sample, trace, _) = run_cad(profile, c.delay_ms, c.rep, seed, rules, trace);
                (RunOutput::Cad(sample), trace)
            }
            RunKind::Rd { record, .. } => {
                let profile = self.client(c.subject);
                let (sample, trace, _) =
                    run_rd(profile, *record, c.delay_ms, c.rep, seed, rules, trace);
                (RunOutput::Rd(sample), trace)
            }
            RunKind::Selection { .. } => {
                let profile = self.client(c.subject);
                let (result, trace) =
                    run_selection(profile, &self.selection, c.rep, seed, rules, trace);
                (RunOutput::Selection(result), trace)
            }
            RunKind::Resolver { .. } => {
                let profile = self.resolver(c.subject);
                let (sample, trace) = run_resolver(profile, c.delay_ms, c.rep, seed, rules, trace);
                (RunOutput::Resolver(sample), trace)
            }
        }
    }
}

/// Executes a single run in a fresh simulation.
///
/// Worker panics are forwarded unchanged, but when the flight recorder's
/// trigger engine is armed, a `run-panic` bundle (provenance + panic
/// message, no trace) is written first — the black box survives the
/// crash it describes.
pub fn run_one(ctx: &RunContext, run: &RunSpec) -> RunOutput {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one_inner(ctx, run))) {
        Ok(out) => out,
        Err(payload) => {
            crate::forensics::on_run_panic(
                &ctx.spec,
                run,
                &crate::forensics::panic_message(payload.as_ref()),
            );
            std::panic::resume_unwind(payload)
        }
    }
}

fn run_one_inner(ctx: &RunContext, run: &RunSpec) -> RunOutput {
    let m = metrics();
    m.runs.inc();
    if run.refined {
        m.runs_refined.inc();
    }
    lazyeye_obs::progress::annotate(|| run_label(run));
    let _span = if lazyeye_obs::trace::enabled() {
        lazyeye_obs::trace::wall_span(run_label(run))
    } else {
        None
    };
    // A fast-path refusal falls back to full simulation, then feeds the
    // fastpath-fallback trigger.
    let (out, refusal) = match ctx.fast.run(ctx, &run.kind) {
        Some(Ok(out)) => (out, None),
        refused => (ctx.dispatch(run, false).0, refused.and_then(Result::err)),
    };
    if let Some(reason) = refusal {
        crate::forensics::on_fastpath_fallback(ctx, run, reason);
    }
    out
}

/// Executes every run, fanning out over `jobs` worker threads, and
/// returns the outputs **in run-index order**.
///
/// `progress` is invoked on the calling thread after every finished run
/// with `(finished_so_far, total)` — wire it to a progress bar or ETA
/// display; it has no effect on the results. `on_result(position,
/// output)` fires on the calling thread as each run finishes, where
/// `position` is the run's position in the `runs` slice. Completion order
/// is scheduling-dependent — the hook is for side channels (checkpoints,
/// logs), never for anything that feeds the report.
pub fn execute_with(
    ctx: &RunContext,
    runs: &[RunSpec],
    jobs: usize,
    progress: impl FnMut(usize, usize),
    on_result: impl FnMut(usize, &RunOutput),
) -> Vec<RunOutput> {
    execute_indexed_with(
        runs.len(),
        jobs,
        |position| run_one(ctx, &runs[position]),
        progress,
        on_result,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            clients: vec!["curl-7.88.1".to_string(), "wget-1.21.3".to_string()],
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(0, 300, 150),
                repetitions: 1,
            }),
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn sharded_matches_sequential() {
        let spec = small_spec();
        let runs = crate::plan::expand(&spec).unwrap();
        let ctx = RunContext::new_with(&spec, &runs, false).unwrap();
        let seq = execute_with(&ctx, &runs, 1, |_, _| {}, |_, _| {});
        let par = execute_with(&ctx, &runs, 4, |_, _| {}, |_, _| {});
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            match (a, b) {
                (RunOutput::Cad(x), RunOutput::Cad(y)) => {
                    assert_eq!(x.family, y.family);
                    assert_eq!(x.observed_cad_ms, y.observed_cad_ms);
                }
                _ => panic!("unexpected output kind"),
            }
        }
    }

    #[test]
    fn progress_reaches_total() {
        let spec = small_spec();
        let runs = crate::plan::expand(&spec).unwrap();
        let ctx = RunContext::new_with(&spec, &runs, false).unwrap();
        let mut last = 0;
        let on_progress = |done, total| {
            assert!(done <= total);
            last = done;
        };
        let _ = execute_with(&ctx, &runs, 3, on_progress, |_, _| {});
        assert_eq!(last, runs.len());
    }

    fn assert_matches_sequential(spec: &CampaignSpec, jobs: usize) {
        let runs = crate::plan::expand(spec).unwrap();
        let ctx = RunContext::new_with(spec, &runs, false).unwrap();
        let seq = execute_with(&ctx, &runs, 1, |_, _| {}, |_, _| {});
        let par = execute_with(&ctx, &runs, jobs, |_, _| {}, |_, _| {});
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            match (a, b) {
                (RunOutput::Cad(x), RunOutput::Cad(y)) => {
                    assert_eq!(x.family, y.family);
                    assert_eq!(x.observed_cad_ms, y.observed_cad_ms);
                }
                _ => panic!("unexpected output kind"),
            }
        }
    }

    #[test]
    fn more_workers_than_runs() {
        // 3 runs across 64 requested workers: the pool clamps to the run
        // count and every run still executes exactly once.
        let spec = CampaignSpec {
            clients: vec!["curl-7.88.1".to_string()],
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(0, 300, 150),
                repetitions: 1,
            }),
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        assert_matches_sequential(&spec, 64);
    }

    #[test]
    fn zero_runs_executes_to_empty() {
        let spec = CampaignSpec {
            cad: None,
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let runs = crate::plan::expand(&spec).unwrap();
        assert!(runs.is_empty());
        let ctx = RunContext::new_with(&spec, &runs, false).unwrap();
        let mut calls = 0;
        let outputs = execute_with(&ctx, &runs, 8, |_, _| calls += 1, |_, _| {});
        assert!(outputs.is_empty());
        assert_eq!(calls, 0, "no progress callbacks for an empty campaign");
    }

    #[test]
    fn steal_path_with_single_run_stripes() {
        // total == jobs gives every worker a 1-run stripe (nothing to
        // steal); total == jobs + 1 forces exactly one steal attempt race.
        let mut spec = small_spec();
        spec.clients = vec![
            "chrome-130.0".to_string(),
            "firefox-132.0".to_string(),
            "curl-7.88.1".to_string(),
        ];
        let runs = crate::plan::expand(&spec).unwrap();
        assert_eq!(runs.len(), 9);
        assert_matches_sequential(&spec, 9);
        assert_matches_sequential(&spec, 8);
        // Heavily oversubscribed stealing: 2-run stripes, many thieves.
        assert_matches_sequential(&spec, 5);
    }

    #[test]
    fn on_result_fires_once_per_run_with_matching_positions() {
        let spec = small_spec();
        let runs = crate::plan::expand(&spec).unwrap();
        let ctx = RunContext::new_with(&spec, &runs, false).unwrap();
        let mut seen = vec![0u32; runs.len()];
        let outputs = execute_with(
            &ctx,
            &runs,
            4,
            |_, _| {},
            |pos, out| {
                seen[pos] += 1;
                // The hook's output must be the one the result vector keeps.
                match out {
                    RunOutput::Cad(s) => {
                        assert_eq!(
                            s.configured_delay_ms,
                            match &runs[pos].kind {
                                crate::plan::RunKind::Cad { delay_ms, .. } => *delay_ms,
                                _ => unreachable!(),
                            }
                        );
                    }
                    _ => panic!("unexpected output kind"),
                }
            },
        );
        assert_eq!(outputs.len(), runs.len());
        assert!(seen.iter().all(|&c| c == 1), "hook fired {seen:?}");
    }
}
