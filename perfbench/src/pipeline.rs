//! One pass of a workload through the program's layers, spec to report
//! bytes, with a span around each call into a layer.
//!
//! Campaigns: `expand` → `RunContext::new_with` → execute pass 1 →
//! `plan_refinement` → execute pass 2 → `build_report_with` (classified)
//! → `to_json_into` / `to_csv_into`. Fleets: `expand` →
//! `SessionContext::new` → execute → `build_report` → `to_json_into` /
//! `to_csv_into`. These are the calls `lazyeye campaign --classify` and
//! `lazyeye fleet` make, less checkpoint resumption.
//!
//! The untraced pass calls `execute_with` (campaigns) and
//! `execute_indexed_with` over `run_session` (fleets). The traced pass
//! calls `execute_indexed_with` with a timer around each `run_one` /
//! `run_session`, which is what `execute_with` does less the timer, and
//! splits `build_report_with` into its aggregate and its inference share.

use std::time::{Duration, Instant};

use lazyeye_campaign::{
    build_inference, build_report_with, execute_with, expand, plan_refinement, run_one, RunContext,
    RunKind, RunOutput, RunSpec,
};
use lazyeye_exec::execute_indexed_with;
use lazyeye_fleet::{
    build_report, run_session, SessionContext, SessionKind, SessionOutput, SessionSpec,
};

use crate::host::allocs_during;
use crate::ledger::Ledger;
use crate::workload::Target;

/// The report bytes the CLI would print (`--format json`) and write
/// (`--out`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outputs {
    /// The JSON report.
    pub json: String,
    /// The CSV report.
    pub csv: String,
}

/// The result of one pass.
#[derive(Debug)]
pub struct Pass {
    /// Report bytes.
    pub outputs: Outputs,
    /// Items executed: runs (both passes) or sessions.
    pub items: u64,
    /// Wall time from spec to report bytes.
    pub wall: Duration,
}

/// Runs `target` once over `jobs` workers. `fast_path` turns on the
/// compiled CAD/RD fast path (campaigns only). Spans, item timings and
/// allocation counts go to `led` when it is on.
pub fn run(target: &Target, jobs: usize, fast_path: bool, led: &mut Ledger) -> Pass {
    let started = Instant::now();
    led.enter("pipeline");
    let (outputs, items) = match target {
        Target::Campaign(spec) => campaign(spec, jobs, fast_path, led),
        Target::Fleet(spec) => fleet(spec, jobs, led),
    };
    led.exit();
    Pass {
        outputs,
        items,
        wall: started.elapsed(),
    }
}

/// Times the set-up share of a pass alone: `expand` plus context build.
pub fn setup(target: &Target) -> Duration {
    match target {
        Target::Campaign(spec) => {
            let started = Instant::now();
            let runs = expand(spec).expect("generated spec is valid");
            let ctx = RunContext::new_with(spec, &runs, false).expect("generated spec is valid");
            let took = started.elapsed();
            drop((runs, ctx));
            took
        }
        Target::Fleet(spec) => {
            let started = Instant::now();
            let plan = lazyeye_fleet::expand(spec).expect("generated spec is valid");
            let ctx = SessionContext::new(spec, &plan.members);
            let took = started.elapsed();
            drop(ctx);
            took
        }
    }
}

fn campaign(
    spec: &lazyeye_campaign::CampaignSpec,
    jobs: usize,
    fast_path: bool,
    led: &mut Ledger,
) -> (Outputs, u64) {
    let pass1 = led.stage("plan", || expand(spec).expect("generated spec is valid"));
    let ctx = led.stage("setup", || {
        RunContext::new_with(spec, &pass1, fast_path).expect("generated spec is valid")
    });
    let out1 = execute_runs(&ctx, &pass1, jobs, led);
    led.enter("refine");
    let pass2 = plan_refinement(spec, &pass1, &out1);
    led.note("refine.runs", pass2.len() as f64);
    let out2 = execute_runs(&ctx, &pass2, jobs, led);
    led.exit();

    let mut runs = pass1;
    runs.extend(pass2);
    let mut outputs = out1;
    outputs.extend(out2);
    let report = if led.is_on() {
        let mut report = led.stage("aggregate", || {
            build_report_with(spec, &runs, &outputs, false)
        });
        report.inference = Some(led.stage("infer", || {
            build_inference(&runs, &outputs, &report.features)
        }));
        report
    } else {
        build_report_with(spec, &runs, &outputs, true)
    };
    let bytes = led.stage("serialise", || {
        let mut out = Outputs::default();
        report.to_json_into(&mut out.json);
        report.to_csv_into(&mut out.csv);
        out
    });
    led.note(
        "serialise.bytes",
        (bytes.json.len() + bytes.csv.len()) as f64,
    );
    (bytes, runs.len() as u64)
}

fn execute_runs(
    ctx: &RunContext,
    runs: &[RunSpec],
    jobs: usize,
    led: &mut Ledger,
) -> Vec<RunOutput> {
    led.enter("exec");
    let outputs = if led.is_on() {
        execute_timed(runs, jobs, led, run_kind, |run| run_one(ctx, run))
    } else {
        execute_with(ctx, runs, jobs, |_, _| {}, |_, _| {})
    };
    led.exit();
    outputs
}

/// `execute_indexed_with` over `items` with a timer and an allocation
/// count around each call. Allocations are those of the items plus the
/// calling thread's.
fn execute_timed<S: Sync, O: Send>(
    items: &[S],
    jobs: usize,
    led: &mut Ledger,
    kind: fn(&S) -> &'static str,
    run: impl Fn(&S) -> O + Sync,
) -> Vec<O> {
    let (timed, caller_allocs) = allocs_during(|| {
        execute_indexed_with(
            items.len(),
            jobs,
            |i| {
                let started = Instant::now();
                let (out, allocs) = allocs_during(|| run(&items[i]));
                (out, started.elapsed(), allocs)
            },
            |_, _| {},
            |_, _| {},
        )
    });
    led.note("exec.allocs", caller_allocs as f64);
    timed
        .into_iter()
        .zip(items)
        .map(|((out, took, allocs), item)| {
            led.item(kind(item), took);
            led.note("exec.allocs", allocs as f64);
            out
        })
        .collect()
}

/// The ledger's item kind of a campaign run.
fn run_kind(run: &RunSpec) -> &'static str {
    match run.kind {
        RunKind::Cad { .. } => "testbed.cad",
        RunKind::Rd { .. } => "testbed.rd",
        RunKind::Selection { .. } => "testbed.selection",
        RunKind::Resolver { .. } => "testbed.resolver",
    }
}

fn fleet(spec: &lazyeye_fleet::FleetSpec, jobs: usize, led: &mut Ledger) -> (Outputs, u64) {
    let plan = led.stage("plan", || {
        lazyeye_fleet::expand(spec).expect("generated spec is valid")
    });
    let ctx = led.stage("setup", || SessionContext::new(spec, &plan.members));
    let sessions = &plan.sessions;
    led.enter("exec");
    let outputs: Vec<SessionOutput> = if led.is_on() {
        execute_timed(sessions, jobs, led, session_kind, |s| run_session(&ctx, s))
    } else {
        execute_indexed_with(
            sessions.len(),
            jobs,
            |i| run_session(&ctx, &sessions[i]),
            |_, _| {},
            |_, _| {},
        )
    };
    led.exit();
    let report = led.stage("report", || build_report(spec, &plan, &outputs));
    let bytes = led.stage("serialise", || {
        let mut out = Outputs::default();
        report.to_json_into(&mut out.json);
        report.to_csv_into(&mut out.csv);
        out
    });
    led.note(
        "serialise.bytes",
        (bytes.json.len() + bytes.csv.len()) as f64,
    );
    (bytes, sessions.len() as u64)
}

/// The ledger's item kind of a fleet session.
fn session_kind(session: &SessionSpec) -> &'static str {
    match session.kind {
        SessionKind::Cad { .. } => "session.cad",
        SessionKind::Rd { .. } => "session.rd",
        SessionKind::RdA { .. } => "session.rd_a",
        SessionKind::ResolverCheck { .. } => "session.resolver",
    }
}
