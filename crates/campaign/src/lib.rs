//! # lazyeye-campaign — adaptive, sharded, deterministic campaigns
//!
//! Turns the testbed from a one-case runner into a campaign engine, the
//! paper's measurement methodology at matrix scale:
//!
//! 1. **[`spec`]** — a declarative [`CampaignSpec`]: {clients × sweeps ×
//!    netem conditions × resolver profiles × repetitions} as one JSON
//!    value.
//! 2. **[`plan`]** — deterministic expansion into concrete [`RunSpec`]s,
//!    each with a seed derived from the campaign seed ([`derive_seed`]).
//! 3. **[`executor`]** — a work-stealing thread pool; every run gets a
//!    fresh simulation (the paper's container reset) and reduces its raw
//!    capture to a small [`RunOutput`] on the worker.
//! 4. **[`refine`]** — the paper's coarse→fine workflow (§5.1): every
//!    CAD/RD cell whose first pass detected a switchover bracket gets a
//!    second, fine sweep inside the bracket at `refine_step_ms`
//!    resolution.
//! 5. **[`aggregate`]** — a streaming fold into per-cell summaries
//!    (exact min/max/mean, P² median/p95, switchover detection, feature
//!    flags) in run-index order.
//! 6. **[`report`]** — JSON/CSV/text emitters plus a Table-2 style
//!    feature-matrix roll-up.
//! 7. **[`checkpoint`]** — the campaign as a run-kernel engine
//!    ([`lazyeye_exec::Matrix`] + [`lazyeye_exec::Engine`]): its plan,
//!    refinement rule, report fold and profile. The kernel's one
//!    multi-pass driver runs both passes; resumable progress
//!    (`--checkpoint`/`--resume`), multi-machine sharding (`--shard i/n`
//!    and `--merge`) and fresh runs all finish through
//!    [`lazyeye_exec::Partial::finish`]. [`run_campaign`] is the one-call
//!    convenience; [`build_report_with`] folds a finished run.
//!
//! **Determinism contract:** the report is a pure function of
//! `(CampaignSpec, seed)`. Worker count, scheduling, steal patterns,
//! kills/resumes and shard splits never leak into it — `--jobs 1`,
//! `--jobs 8`, a resumed run and a merged shard set all yield
//! byte-identical JSON and CSV.
//!
//! ```
//! use lazyeye_campaign::{run_campaign, CampaignSpec};
//!
//! let mut spec = CampaignSpec::default();
//! spec.clients = vec!["curl-7.88.1".into()];
//! spec.cad = Some(lazyeye_testbed::CadCaseConfig {
//!     sweep: lazyeye_testbed::SweepSpec::new(150, 250, 50),
//!     repetitions: 1,
//! });
//! spec.rd = None;
//! spec.selection = None;
//! spec.resolver = None;
//! let report = run_campaign(&spec, 2, |_done, _total| {}).unwrap();
//! // Coarse pass: 150/200/250 brackets curl's 200 ms CAD at (200, 250);
//! // the automatic 5 ms fine pass pins the switchover to 205.
//! assert_eq!(report.total_runs, 3 + 9);
//! assert_eq!(report.refined_runs, 9);
//! assert_eq!(report.cells[0].last_v6_delay_ms, Some(200));
//! assert_eq!(report.cells[0].first_v4_delay_ms, Some(205));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod checkpoint;
pub mod executor;
pub mod forensics;
pub mod inference;
pub mod plan;
pub mod profile;
pub mod refine;
pub mod report;
pub mod spec;

pub use aggregate::{Aggregator, CellReport, FeatureSummary, P2Quantile, StreamStats};
pub use checkpoint::{merge, CampaignMatrix, CampaignOptions, Checkpoint, Shard};
pub use executor::{execute_with, run_one, RunContext, RunOutput};
pub use forensics::{replay, ReplayReport, RunProvenance};
pub use inference::{build_inference, InferenceSection, InferredClientReport};
pub use plan::{derive_seed, expand, split_rd_condition, RunKind, RunSpec, SpecError};
pub use profile::{profile_runs, stall_cross_checks, BudgetRow, LatencyBudget, StallCrossCheck};
pub use refine::{derive_refine_seed, plan_refinement};
pub use report::{diff_reports, CampaignReport, ReportDiff};
pub use spec::{CampaignSpec, NetemSpec, RdPlan, SelectionPlan};

/// Expands, executes (both passes) and aggregates a campaign in one call,
/// through the run kernel ([`lazyeye_exec::run`]) with default
/// [`CampaignOptions`].
///
/// `jobs` is the worker-thread count (clamped to at least 1); `progress`
/// receives `(finished, total)` after every run, on the calling thread.
/// The total grows once the first pass completes and the refinement pass
/// is planned.
pub fn run_campaign(
    spec: &CampaignSpec,
    jobs: usize,
    progress: impl FnMut(usize, usize),
) -> Result<CampaignReport, SpecError> {
    lazyeye_exec::run::<CampaignMatrix>(spec, jobs, &CampaignOptions::default(), progress)
}

/// Folds `(run, output)` pairs in run-index order — a finished
/// [`lazyeye_exec::Run`]'s plan and outputs — into the final report.
/// When `classify` is set, the report additionally carries the
/// changepoint-inferred per-client profiles, their RFC 8305 conformance
/// verdicts, and the agreement diff between the inference-derived and the
/// summary-derived feature matrices.
pub fn build_report_with(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    outputs: &[RunOutput],
    classify: bool,
) -> CampaignReport {
    let mut agg = Aggregator::new();
    for (run, output) in runs.iter().zip(outputs) {
        agg.fold(run, output);
    }
    let (cells, features) = agg.finish();
    lazyeye_obs::counter("campaign.cells", lazyeye_obs::Clock::Virtual).add(cells.len() as u64);
    let inference = classify.then(|| build_inference(runs, outputs, &features));
    if let Some(section) = &inference {
        forensics::on_inference(spec, runs, outputs, section);
    }
    CampaignReport {
        name: spec.name.clone(),
        seed: spec.seed,
        total_runs: runs.len() as u64,
        refined_runs: runs.iter().filter(|r| r.refined).count() as u64,
        cells,
        features,
        inference,
    }
}

// Send-safety audit: the executor moves run specs into worker threads and
// their outputs back out. These bounds are load-bearing — a regression
// (an Rc or raw Sim handle creeping into a spec/output type) must fail to
// compile here, not deadlock at runtime.
#[allow(dead_code)]
fn send_audit() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<RunSpec>();
    assert_send::<RunOutput>();
    assert_send::<CampaignSpec>();
    assert_send::<CampaignReport>();
    assert_sync::<RunContext>();
    assert_send::<lazyeye_clients::ClientProfile>();
    assert_send::<lazyeye_resolver::ResolverProfile>();
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: CampaignOptions = CampaignOptions {
        fast_path: true,
        classify: false,
    };

    /// The ISSUE's agreement gate: the default CAD-sweep campaign must
    /// produce a byte-identical report with the fast path on. Every
    /// divergence between the analytic model and the simulator — timing,
    /// ordering, sample conversion — surfaces here as a JSON diff.
    #[test]
    fn fast_path_report_byte_identical_cad() {
        let spec = CampaignSpec {
            rd: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let slow = run_campaign(&spec, 4, |_, _| {}).unwrap();
        let fast = lazyeye_exec::run::<CampaignMatrix>(&spec, 4, &FAST, |_, _| {}).unwrap();
        assert_eq!(slow.to_json(), fast.to_json());
        assert_eq!(slow.to_csv(), fast.to_csv());
    }

    /// Same gate for the RD plan (both delayed-record variants), which
    /// the fast path must leave to the simulator untouched.
    #[test]
    fn fast_path_report_byte_identical_rd() {
        let spec = CampaignSpec {
            cad: None,
            selection: None,
            resolver: None,
            ..CampaignSpec::default()
        };
        let slow = run_campaign(&spec, 4, |_, _| {}).unwrap();
        let fast = lazyeye_exec::run::<CampaignMatrix>(&spec, 4, &FAST, |_, _| {}).unwrap();
        assert_eq!(slow.to_json(), fast.to_json());
    }

    #[test]
    fn tiny_campaign_end_to_end() {
        let spec = CampaignSpec {
            name: "tiny".into(),
            seed: 7,
            clients: vec!["chrome-130.0".into(), "wget-1.21.3".into()],
            resolvers: vec!["BIND".into()],
            netem: vec![NetemSpec::baseline()],
            cad: Some(lazyeye_testbed::CadCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(280, 320, 20),
                repetitions: 1,
            }),
            rd: Some(RdPlan {
                records: vec![lazyeye_testbed::DelayedRecord::Aaaa],
                sweep: lazyeye_testbed::SweepSpec::new(300, 300, 1),
                repetitions: 1,
            }),
            selection: Some(SelectionPlan {
                repetitions: 1,
                ..SelectionPlan::default()
            }),
            resolver: Some(lazyeye_testbed::ResolverCaseConfig {
                sweep: lazyeye_testbed::SweepSpec::new(0, 0, 1),
                repetitions: 2,
            }),
            refine_step_ms: Some(5),
        };
        let report = run_campaign(&spec, 4, |_, _| {}).unwrap();
        // Chrome's coarse CAD bracket (300, 320) refines at 5 ms: 3 extra
        // runs (305/310/315); wget never falls back, so nothing else does.
        assert_eq!(report.refined_runs, 3);
        assert_eq!(report.total_runs, 6 + 2 + 2 + 2 + 3);

        // Chromium's 300 ms CAD: v6 still wins at 300; the fine pass pins
        // the first v4 fallback to 305 (the coarse pass alone said 320).
        let chrome_cad = report
            .cells
            .iter()
            .find(|c| c.case == "cad" && c.subject == "chrome-130.0")
            .unwrap();
        assert_eq!(chrome_cad.last_v6_delay_ms, Some(300));
        assert_eq!(chrome_cad.first_v4_delay_ms, Some(305));
        assert_eq!(chrome_cad.implements_cad, Some(true));

        // wget never falls back.
        let wget_cad = report
            .cells
            .iter()
            .find(|c| c.case == "cad" && c.subject == "wget-1.21.3")
            .unwrap();
        assert_eq!(wget_cad.implements_cad, Some(false));

        // Feature roll-up covers both clients.
        assert_eq!(report.features.len(), 2);
        let wget = report
            .features
            .iter()
            .find(|f| f.client == "wget-1.21.3")
            .unwrap();
        assert!(!wget.cad_impl && !wget.rd_impl && !wget.addr_selection);

        // BIND prefers IPv6 at zero delay.
        let bind = report
            .cells
            .iter()
            .find(|c| c.case == "resolver" && c.subject == "BIND")
            .unwrap();
        assert_eq!(bind.v6_share_pct, Some(100.0));
    }
}
