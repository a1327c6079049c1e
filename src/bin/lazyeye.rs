//! `lazyeye` — the testbed's command-line front end.
//!
//! The paper's framework is config-driven (App. B, Figure 3): a single
//! configuration selects test cases, sweep ranges and clients. This binary
//! is that interface:
//!
//! ```sh
//! lazyeye clients                       # list client profiles
//! lazyeye resolvers                     # list resolver profiles
//! lazyeye cad --client chrome-130.0    # CAD sweep for one client
//! lazyeye rd  --client safari-17.6 --record a
//! lazyeye selection --client safari-17.6
//! lazyeye resolver --profile Unbound
//! lazyeye config                        # print a default JSON config
//! lazyeye run --config testbed.json    # run every enabled case
//! lazyeye campaign --print-spec        # print the default campaign spec
//! lazyeye campaign --config spec.json --jobs 8 --seed 7 --out results
//! lazyeye campaign --config spec.json --checkpoint ckpt.json
//! lazyeye campaign --resume ckpt.json  # continue a killed campaign
//! lazyeye campaign --config spec.json --shard 0/4 --out part0
//! lazyeye campaign --merge part0.json part1.json part2.json part3.json
//! lazyeye campaign --default --timeline t.json --metrics-out m.prom --progress
//! lazyeye campaign --default --classify --flamegraph flame.collapsed
//! lazyeye fleet --merge part0.json --merge part1.json --flamegraph f.collapsed
//! lazyeye profile traces.json --flamegraph flame.collapsed
//! ```
//!
//! Campaigns and fleets run through one driver ([`drive`]) over the
//! shared run kernel (`lazyeye_exec::Partial`, `lazyeye_exec::Engine`):
//! shard, merge, resume, periodic saves, the finish into a report and
//! profile, partial and report emission, and `--diff` exist once for
//! both. An engine's only CLI code is its flag table.
//!
//! Unknown flags are hard errors — a typo must never silently run a
//! different measurement than asked for.

use std::collections::HashMap;
use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lazy_eye_inspection::campaign::{
    CampaignMatrix, CampaignOptions, CampaignReport, CampaignSpec, Checkpoint,
    InferredClientReport, LatencyBudget,
};
use lazy_eye_inspection::clients::{all_measured_clients, ClientProfile};
use lazy_eye_inspection::exec::{check_plan_budget, merge, Engine, Matrix, Partial, Report, Shard};
use lazy_eye_inspection::fleet::{FleetMatrix, FleetReport, FleetSpec};
use lazy_eye_inspection::infer::{
    fmt_opt, infer_resolver_traces, infer_traces, profiles_from_json, score_profile, BehaviourDiff,
    InferredResolverReport, ProfileSetDiff,
};
use lazy_eye_inspection::json::{FromJson, Json, ToJson};
use lazy_eye_inspection::net::strip;
use lazy_eye_inspection::obs::profile::FlameGraph;
use lazy_eye_inspection::resolver::all_profiles;
use lazy_eye_inspection::testbed::{
    delayed_record_label, run_cad, run_cad_case, run_rd, run_rd_case, run_resolver,
    run_resolver_case, run_selection, run_selection_case, summarize_cad, summarize_rd,
    summarize_resolver, sweep, DelayedRecord, SelectionCaseConfig, SweepSpec, Table, TestbedConfig,
    CAD_SEED_TAG, RD_SEED_TAG, RESOLVER_SEED_TAG,
};
use lazy_eye_inspection::trace::profile::{attribute, Attribution};
use lazy_eye_inspection::trace::{Trace, TraceSet};

/// Completed runs between periodic checkpoint saves.
const CHECKPOINT_EVERY: u64 = 32;

fn find_client(id: &str) -> Option<ClientProfile> {
    all_measured_clients().into_iter().find(|c| c.id() == id)
}

/// How a flag consumes arguments.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    /// Boolean presence flag.
    Switch,
    /// Takes one value; a repeat overrides (last wins).
    Value,
    /// Takes one value per occurrence; repeats accumulate.
    Multi,
}

/// One flag's shape: name and how it consumes arguments.
struct Flag {
    name: &'static str,
    kind: FlagKind,
}

const fn val(name: &'static str) -> Flag {
    Flag {
        name,
        kind: FlagKind::Value,
    }
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        kind: FlagKind::Switch,
    }
}

const fn multi(name: &'static str) -> Flag {
    Flag {
        name,
        kind: FlagKind::Multi,
    }
}

/// Parsed command-line flags.
struct Flags(HashMap<String, Vec<String>>);

impl Flags {
    /// The flag's value (last occurrence), if present.
    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).and_then(|v| v.last()).map(String::as_str)
    }

    /// Every occurrence of a `Multi` flag, in order.
    fn get_all(&self, name: &str) -> &[String] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the flag appeared at all.
    fn contains(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Parses `args` against an allowlist. Unknown flags, missing values and
/// stray positionals are errors — never silently ignored.
fn parse_flags(args: &[String], allowed: &[Flag]) -> Result<Flags, String> {
    let mut out: HashMap<String, Vec<String>> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(spec) = allowed.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown flag {arg:?}"));
        };
        match spec.kind {
            FlagKind::Switch => {
                out.entry(arg.clone()).or_default();
                i += 1;
            }
            FlagKind::Value | FlagKind::Multi => {
                let Some(value) = args.get(i + 1) else {
                    return Err(format!("flag {arg} requires a value"));
                };
                let entry = out.entry(arg.clone()).or_default();
                if spec.kind == FlagKind::Value {
                    entry.clear();
                }
                entry.push(value.clone());
                i += 2;
            }
        }
    }
    Ok(Flags(out))
}

fn parse_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag {name}: invalid value {v:?}")),
    }
}

/// Output format shared by the table-printing commands.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

/// `--format` for the commands that print text or JSON only.
fn parse_text_json(flags: &Flags) -> Result<Format, String> {
    match flags.get("--format") {
        None | Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some(other) => Err(format!("flag --format: expected text|json, got {other:?}")),
    }
}

fn parse_format(flags: &Flags) -> Result<Format, String> {
    match flags.get("--format") {
        None | Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some("csv") => Ok(Format::Csv),
        Some(other) => Err(format!(
            "flag --format: expected text|json|csv, got {other:?}"
        )),
    }
}

fn print_table(t: &Table, format: Format) {
    match format {
        Format::Text => println!("{}", t.render()),
        Format::Json => println!("{}", t.to_json()),
        Format::Csv => print!("{}", t.to_csv()),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lazyeye <command> [options]\n\
         commands:\n\
           clients   [--format text|json|csv]        list client profiles (ids)\n\
           resolvers [--format text|json|csv]        list resolver profiles\n\
           cad       --client <id> [--from ms --to ms --step ms --reps n --seed s\n\
                     --emit-trace <file.json>]\n\
           rd        --client <id> [--record aaaa|a] [--delay ms] [--seed s]\n\
                     [--emit-trace <file.json>]\n\
           selection --client <id> [--seed s] [--emit-trace <file.json>]\n\
           resolver  --profile <name> [--reps n] [--seed s] [--emit-trace <file.json>]\n\
           config                                    print a default JSON config\n\
           run       --config <file.json>            run all enabled cases\n\
           infer     --trace <traces.json> [--format text|json]\n\
                   | --campaign <spec.json> [--jobs n --seed s --format text|json]\n\
                   | --diff <old.json> <new.json> [--format text|json]\n\
                                                     infer HE state + RFC 8305 verdicts\n\
           campaign  --config <spec.json> | --default [--jobs n --seed s\n\
                     --format text|json|csv --classify --fast-path\n\
                     --out <basename> --checkpoint <ckpt.json> --shard i/n]\n\
                   | --resume <ckpt.json> [--jobs n --classify --format ... --out ...]\n\
                   | --merge <part.json> [--merge <part.json> ...] [--jobs n --classify ...]\n\
                   | --diff <old.json> <new.json> [--format text|json]\n\
                   | --print-spec\n\
                                                     run a full two-pass measurement campaign\n\
           fleet     --spec <fleet.json> | --default [--sessions n --reps n --jobs n\n\
                     --seed s --format text|json|csv --out <basename> --shard i/n]\n\
                   | --merge <part.json> [--merge <part.json> ...] [--jobs n ...]\n\
                   | --diff <old.json> <new.json> [--format text|json]\n\
                   | --print-spec\n\
                                                     population-scale web-tool fleet\n\
           replay    <bundle.json|dir> [--format text|json]\n\
                                                     re-execute flight-recorder bundle(s)\n\
                                                     and diff against the recording\n\
           profile   <traces.json|bundle.json|dir> [--format text|json]\n\
                     [--flamegraph <file>]           causal latency attribution: critical\n\
                                                     path + exact per-phase budget\n\
         observability (campaign, fleet, infer, replay):\n\
           --timeline <trace.json>     Chrome trace-event / Perfetto timeline\n\
           --metrics-out <m.prom>      Prometheus text exposition of all metrics\n\
           --flight-record <dir>       write anomaly black-box bundles (campaign/fleet)\n\
           --progress                  live status line (rate, ETA, idle %, slowest);\n\
                                       on by default when stderr is a terminal\n\
           --flamegraph <file>         collapsed-stack latency flame graph plus a\n\
                                       per-cell budget table (campaign/fleet/profile)"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("lazyeye: {msg}");
    ExitCode::FAILURE
}

/// What a subcommand returns: its exit code, or the message of an error
/// that ends it with exit 1.
type Cmd = Result<ExitCode, String>;

/// Reads a whole file, naming it in the error.
fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `path` itself or, for a directory, every `*.json` in it, sorted by
/// name; `what` names the files in the error for an empty directory.
fn json_files(path: &str, what: &str) -> Result<Vec<PathBuf>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !meta.is_dir() {
        return Ok(vec![path.into()]);
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no {what} (*.json) found"));
    }
    Ok(files)
}

/// Splits `--diff <old> <new> [--format text|json]` into the two paths
/// and the format; `files` names them in the usage error.
fn diff_args<'a>(rest: &'a [String], files: &str) -> Result<(&'a [String], Format), String> {
    if rest.len() < 3 {
        return Err(format!(
            "--diff needs two {files} files: --diff old.json new.json"
        ));
    }
    let flags = parse_flags(&rest[3..], &[val("--format")])?;
    Ok((&rest[1..3], parse_text_json(&flags)?))
}

fn fmt_share(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.1} %")).unwrap_or_else(|| "-".into())
}

/// Splits traced runs into their samples, writing the traces as one set
/// to the `--emit-trace` path when one was given.
fn emit_traces<S>(flags: &Flags, runs: Vec<(S, Option<Trace>)>) -> Result<Vec<S>, String> {
    let mut traces = TraceSet::default();
    let mut samples = Vec::new();
    for (sample, trace) in runs {
        samples.push(sample);
        traces.push(trace.expect("a traced run returns its trace"));
    }
    if let Some(path) = flags.get("--emit-trace") {
        std::fs::write(path, traces.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[trace] wrote {} trace(s) to {path}", traces.traces.len());
    }
    Ok(samples)
}

/// Text rendering of inferred profiles + verdicts (the `infer` command).
fn render_inferred(reports: &[InferredClientReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let p = &r.profile;
        out.push_str(&format!("{} ({} runs)\n", p.subject, p.runs));
        out.push_str(&format!(
            "  CAD: impl {}, estimate {} ms, bracket ({}, {}), misfits {}\n",
            fmt_opt(&p.cad.implemented),
            fmt_opt(&p.cad.estimate_ms),
            fmt_opt(&p.cad.last_v6_delay_ms),
            fmt_opt(&p.cad.first_v4_delay_ms),
            p.cad.misfits,
        ));
        out.push_str(&format!(
            "  RD: impl {}, delay {} ms, waits-for-all {}\n",
            fmt_opt(&p.rd.implemented),
            fmt_opt(&p.rd.delay_ms),
            fmt_opt(&p.rd.waits_for_all_answers),
        ));
        out.push_str(&format!(
            "  preference: v6 share {}, AAAA first {}, sorting {:?}, addrs {}/{}\n",
            fmt_share(p.v6_share_pct),
            fmt_opt(&p.aaaa_first),
            p.sorting,
            fmt_opt(&p.v6_addrs_used),
            fmt_opt(&p.v4_addrs_used),
        ));
        out.push_str("  RFC 8305:");
        for e in &r.conformance {
            out.push_str(&format!(" {}={}", e.feature, e.render()));
        }
        out.push('\n');
    }
    out
}

/// Text rendering of inferred resolver profiles + verdicts.
fn render_inferred_resolvers(reports: &[InferredResolverReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let p = &r.profile;
        out.push_str(&format!("{} ({} runs, resolver)\n", p.subject, p.runs));
        out.push_str(&format!(
            "  v6 first: {} %, last v6 {} ms, first v4 {} ms, falls back {}, v6-only capable {}\n",
            fmt_opt(&p.v6_first_share_pct),
            fmt_opt(&p.last_v6_delay_ms),
            fmt_opt(&p.first_v4_delay_ms),
            fmt_opt(&p.falls_back),
            fmt_opt(&p.ipv6_only_capable),
        ));
        out.push_str("  verdicts:");
        for e in &r.conformance {
            out.push_str(&format!(" {}={}", e.feature, e.render()));
        }
        out.push('\n');
    }
    out
}

/// Parses `--jobs` (default: available parallelism), rejecting 0.
fn parse_jobs(flags: &Flags) -> Result<usize, String> {
    let default_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match parse_num(flags, "--jobs", default_jobs) {
        Ok(0) => Err("flag --jobs: must be at least 1".to_string()),
        other => other,
    }
}

/// Loads the campaign spec at `path` (the built-in default without one)
/// and applies a `--seed` override.
fn load_spec(flags: &Flags, path: Option<&str>) -> Result<CampaignSpec, String> {
    let mut spec = match path {
        Some(path) => {
            CampaignSpec::from_json(&read(path)?).map_err(|e| format!("bad spec: {e}"))?
        }
        None => CampaignSpec::default(),
    };
    spec.seed = parse_num(flags, "--seed", spec.seed)?;
    Ok(spec)
}

/// Runs `cmd` inside an observability session (`--timeline`,
/// `--metrics-out`, `--flight-record`, `--progress`) over `jobs` workers.
/// The session's files are written even when the command fails.
fn with_obs(flags: &Flags, jobs: usize, unit: &'static str, cmd: impl FnOnce() -> Cmd) -> Cmd {
    let obs = Obs::start(flags, jobs, unit)?;
    let code = cmd().unwrap_or_else(|e| fail(&e));
    obs.finish()?;
    Ok(code)
}

fn cmd_infer_dispatch(flags: &Flags, jobs: usize) -> Cmd {
    let format = parse_text_json(flags)?;
    match (flags.get("--trace"), flags.get("--campaign")) {
        (Some(_), Some(_)) => Err("--trace and --campaign are mutually exclusive".into()),
        (Some(path), None) => {
            let set = TraceSet::from_json_str(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            let resolvers = infer_resolver_traces(&set);
            let resolver_subjects: std::collections::BTreeSet<&str> = resolvers
                .iter()
                .map(|r| r.profile.subject.as_str())
                .collect();
            let reports: Vec<InferredClientReport> = infer_traces(&set)
                .into_iter()
                .filter(|profile| !resolver_subjects.contains(profile.subject.as_str()))
                .map(|profile| {
                    let conformance = score_profile(&profile);
                    InferredClientReport {
                        profile,
                        conformance,
                    }
                })
                .collect();
            match format {
                Format::Json => {
                    let doc = Json::obj(vec![
                        ("clients", ToJson::to_json(&reports)),
                        ("resolvers", ToJson::to_json(&resolvers)),
                    ]);
                    println!("{}", doc.to_string_pretty());
                }
                _ => {
                    print!("{}", render_inferred(&reports));
                    print!("{}", render_inferred_resolvers(&resolvers));
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        (None, Some(path)) => {
            let spec = load_spec(flags, Some(path))?;
            let opts = CampaignOptions {
                classify: true,
                ..CampaignOptions::default()
            };
            let (report, _) = Checkpoint::fresh(spec, None)
                .and_then(|part| part.finish(jobs, &opts, false, track_total, |_, _| {}))
                .map_err(|e| format!("campaign failed: {e}"))?;
            let section = report.inference.expect("classify builds the section");
            match format {
                Format::Json => print!("{}", section.to_json()),
                _ => print!("{}", section.render_text()),
            }
            Ok(ExitCode::SUCCESS)
        }
        (None, None) => Err("infer needs --trace <traces.json> or --campaign <spec.json>".into()),
    }
}

/// CLI-side observability session: arms the span recorder and the live
/// progress reporter per the `--timeline`/`--metrics-out`/`--progress`
/// flags, and writes the exporter files when the run finishes. Everything
/// here goes to side files or stderr — never into report bytes.
struct Obs {
    timeline: Option<String>,
    metrics_out: Option<String>,
    flight_record: bool,
    reporter: Option<(
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<()>,
    )>,
}

/// Virtual-time tracks exported per timeline: the first N runs each get
/// their own Perfetto track of poll/timer/spawn instants.
const TIMELINE_SAMPLED_RUNS: u32 = 16;

impl Obs {
    fn start(flags: &Flags, jobs: usize, unit: &'static str) -> Result<Obs, String> {
        let timeline = flags.get("--timeline").map(String::from);
        let metrics_out = flags.get("--metrics-out").map(String::from);
        if timeline.is_some() {
            lazy_eye_inspection::obs::trace::enable(TIMELINE_SAMPLED_RUNS);
        }
        let flight_record = match flags.get("--flight-record") {
            Some(dir) => {
                lazy_eye_inspection::obs::trigger::arm(std::path::Path::new(dir))
                    .map_err(|e| format!("cannot arm flight recorder at {dir}: {e}"))?;
                true
            }
            None => false,
        };
        // The status line is on under `--progress`, and by default
        // whenever stderr is a terminal: redirected runs stay quiet.
        let progress = flags.contains("--progress") || std::io::stderr().is_terminal();
        let reporter = progress.then(|| {
            lazy_eye_inspection::obs::progress::begin(0, jobs as u64);
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let seen = std::sync::Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                let mut ticks = 0u32;
                while !seen.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    ticks += 1;
                    if !ticks.is_multiple_of(5) {
                        continue;
                    }
                    if let Some(snap) = lazy_eye_inspection::obs::progress::snapshot() {
                        eprintln!("[progress] {}", snap.status_line(unit));
                    }
                }
            });
            (stop, handle)
        });
        Ok(Obs {
            timeline,
            metrics_out,
            flight_record,
            reporter,
        })
    }

    /// Stops the reporter, disarms the flight recorder and writes the
    /// timeline / metrics files.
    fn finish(self) -> Result<(), String> {
        if self.flight_record {
            let n = lazy_eye_inspection::obs::trigger::bundles_written();
            let failed = lazy_eye_inspection::obs::trigger::write_failures();
            lazy_eye_inspection::obs::trigger::disarm();
            eprintln!("[obs] flight recorder wrote {n} bundle(s), {failed} failed");
        }
        if let Some((stop, handle)) = self.reporter {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let _ = handle.join();
            lazy_eye_inspection::obs::progress::end();
        }
        if let Some(path) = &self.timeline {
            let events = lazy_eye_inspection::obs::trace::take_events();
            lazy_eye_inspection::obs::trace::disable();
            let n = events.len();
            let doc = lazy_eye_inspection::obs::timeline::render_chrome_trace(events);
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[obs] wrote timeline {path} ({n} events)");
        }
        if let Some(path) = &self.metrics_out {
            let doc = lazy_eye_inspection::obs::registry::render_prometheus(None);
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[obs] wrote metrics {path}");
        }
        Ok(())
    }
}

/// The engines' progress hook: keeps the status line's denominator
/// current (the refinement pass grows the total). A relaxed store, free
/// when the reporter is off.
fn track_total(_done: usize, total: usize) {
    lazy_eye_inspection::obs::progress::set_total(total as u64);
}

/// Saves a growing partial every [`CHECKPOINT_EVERY`] completed items and
/// once more at the end; a no-op without a path. One serialisation
/// buffer serves every save. A failed save only warns: losing a
/// checkpoint must not kill the run producing it.
struct Saver {
    path: Option<String>,
    unsaved: u64,
    buf: String,
}

impl Saver {
    fn new(path: Option<String>) -> Saver {
        Saver {
            path,
            unsaved: 0,
            buf: String::new(),
        }
    }

    fn tick<M: Matrix>(&mut self, part: &Partial<M>) {
        self.unsaved += 1;
        if self.unsaved >= CHECKPOINT_EVERY {
            self.flush(part);
        }
    }

    fn flush<M: Matrix>(&mut self, part: &Partial<M>) {
        self.unsaved = 0;
        if let Some(path) = &self.path {
            if let Err(e) = part.save(path, &mut self.buf) {
                eprintln!("lazyeye: warning: cannot write checkpoint {path}: {e}");
            }
        }
    }
}

/// The command-line options of one campaign or fleet run.
struct RunOpts<'a, E: Engine> {
    jobs: usize,
    format: Format,
    out: Option<&'a str>,
    flamegraph: Option<&'a str>,
    /// The engine's own options (campaign: `--fast-path`, `--classify`).
    engine: E::Options,
}

/// The one driver behind every campaign and fleet run. A sharded partial
/// runs its shard's slice of the first pass and emits the partial. An
/// unsharded one (fresh, resumed or merged) runs to completion through
/// the kernel's finish and emits the report, plus the flame graph under
/// `--flamegraph`. The growing partial is saved to `save` as it goes.
fn drive<E: Engine>(part: Partial<E>, save: Option<String>, opts: &RunOpts<E>) -> Cmd {
    let mut saver = Saver::new(save);
    if let Some(shard) = part.shard {
        let spec = part.spec.clone();
        let part = Partial::run_shard(&spec, opts.jobs, shard, Some(part), track_total, |part| {
            saver.tick(part)
        })
        .map_err(|e| format!("{} failed: {e}", E::NAME))?;
        saver.flush(&part);
        emit_partial(&part, shard, opts.out)?;
        return Ok(ExitCode::SUCCESS);
    }
    // Outputs are kept only when there is somewhere to save them.
    let mut grown = saver.path.is_some().then(|| part.clone());
    let profile = opts.flamegraph.is_some();
    let finished = part.finish(
        opts.jobs,
        &opts.engine,
        profile,
        track_total,
        |item, output| {
            if let Some(grown) = &mut grown {
                grown.record(E::index(item), output.clone());
                saver.tick(grown);
            }
        },
    );
    let (report, profile) = finished.map_err(|e| format!("{} failed: {e}", E::NAME))?;
    if let Some(grown) = &grown {
        saver.flush(grown);
    }
    emit_report::<E>(&report, opts)?;
    if let (Some(path), Some((budget, flame))) = (opts.flamegraph, profile) {
        write_flamegraph(path, &flame)?;
        print_budget(&budget, opts.format);
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints a report in the chosen format and writes `<out>.json` and
/// `<out>.csv` under `--out`.
fn emit_report<E: Engine>(report: &E::Report, opts: &RunOpts<E>) -> Result<(), String> {
    // Render each format at most once; stdout and --out reuse the bytes.
    let (format, out) = (opts.format, opts.out);
    let mut json = String::new();
    let mut csv = String::new();
    if format == Format::Json || out.is_some() {
        report.json_into(&mut json);
    }
    if format == Format::Csv || out.is_some() {
        report.csv_into(&mut csv);
    }
    match format {
        Format::Text => print!("{}", report.text()),
        Format::Json => print!("{json}"),
        Format::Csv => print!("{csv}"),
    }
    if let Some(base) = out {
        let json_path = format!("{base}.json");
        let csv_path = format!("{base}.csv");
        std::fs::write(&json_path, &json).map_err(|e| format!("cannot write {json_path}: {e}"))?;
        std::fs::write(&csv_path, &csv).map_err(|e| format!("cannot write {csv_path}: {e}"))?;
        eprintln!("[{}] wrote {json_path} and {csv_path}", E::NAME);
    }
    Ok(())
}

/// Writes a shard's partial to `<out>.json` (atomically), or to stdout.
fn emit_partial<E: Engine>(
    part: &Partial<E>,
    shard: Shard,
    out: Option<&str>,
) -> Result<(), String> {
    let Some(base) = out else {
        print!("{}", part.to_json_string());
        return Ok(());
    };
    let path = format!("{base}.json");
    part.save(&path, &mut String::new())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "[{}] shard {}/{}: {} {}s completed, wrote {path}",
        E::NAME,
        shard.index,
        shard.count,
        part.completed_count(),
        E::ITEM
    );
    Ok(())
}

/// Rejects flags a shard run cannot honour. `runs` names the run in the
/// `--format` message.
fn shard_conflicts(flags: &Flags, runs: &str) -> Result<(), String> {
    if flags.contains("--format") {
        return Err(format!(
            "--format does not apply to {runs}; partials are always JSON"
        ));
    }
    let refused = [
        (
            "--classify",
            "--classify does not apply to shard runs; classify at --merge",
        ),
        ("--fast-path", "--fast-path does not apply to shard runs"),
        (
            "--flamegraph",
            "--flamegraph does not apply to shard runs; profile the merge",
        ),
    ];
    match refused.iter().find(|(flag, _)| flags.contains(flag)) {
        Some((_, message)) => Err(message.to_string()),
        None => Ok(()),
    }
}

/// `--merge a.json b.json …`: unions the partials and finishes the run,
/// executing whatever they lack locally. `conflicts` are the flags that
/// would name a spec: it comes from the partials.
fn cmd_merge<E: Engine>(flags: &Flags, conflicts: &[&str], opts: &RunOpts<E>) -> Cmd {
    if let Some(conflicting) = conflicts.iter().find(|f| flags.contains(f)) {
        return Err(format!("--merge cannot be combined with {conflicting}"));
    }
    let parts: Result<Vec<Partial<E>>, String> = flags
        .get_all("--merge")
        .iter()
        .map(|path| Partial::load(path))
        .collect();
    let merged = merge(parts?).map_err(|e| format!("merge failed: {e}"))?;
    let missing = merged.missing().len();
    if missing > 0 {
        eprintln!(
            "[{}] warning: {missing} {}s missing from the partials; \
             executing them locally",
            E::NAME,
            E::ITEM
        );
    }
    drive(merged, None, opts)
}

/// A fresh run of `spec`: one shard of it under `--shard i/n`, else the
/// whole run. A shard saves periodically to `save` or, without one, to
/// its `--out` partial.
fn cmd_start<E: Engine>(
    flags: &Flags,
    spec: E::Spec,
    save: Option<String>,
    opts: &RunOpts<E>,
) -> Cmd {
    let shard = flags.get("--shard").map(Shard::parse).transpose()?;
    if shard.is_some() {
        shard_conflicts(flags, "--shard runs")?;
    }
    let save = save.or_else(|| shard.and(opts.out).map(|base| format!("{base}.json")));
    let part = Partial::<E>::fresh(spec, shard).map_err(|e| format!("{} failed: {e}", E::NAME))?;
    drive(part, save, opts)
}

/// Writes a collapsed-stack flame graph (one `frame;frame weight` line
/// per stack) to `path` — the format `flamegraph.pl` / speedscope /
/// inferno consume. Pure virtual-domain bytes: identical across --jobs.
fn write_flamegraph(path: &str, flame: &FlameGraph) -> Result<(), String> {
    std::fs::write(path, flame.render_collapsed())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "[profile] wrote flame graph {path} ({} stacks, {} ms attributed)",
        flame.len(),
        flame.total_weight()
    );
    Ok(())
}

/// Prints a latency-budget table: to stdout alongside a text report, to
/// stderr otherwise so machine-readable stdout stays parseable.
fn print_budget(text: &str, format: Format) {
    match format {
        Format::Text => println!("{text}"),
        _ => eprintln!("{text}"),
    }
}

/// `campaign|fleet|infer --diff old.json new.json`: loads two snapshots
/// with `parse` and prints their behaviour changes as text or JSON — per
/// cell and feature for campaigns; per member, resolver and summary for
/// fleets (the longitudinal population-tracking view); per subject for
/// inferred-profile sets.
fn cmd_diff<T, E: std::fmt::Display>(
    rest: &[String],
    files: &str,
    parse: impl Fn(&str) -> Result<T, E>,
    diff: impl Fn(&T, &T, bool) -> String,
) -> Cmd {
    let (paths, format) = diff_args(rest, files)?;
    let mut snapshots = Vec::new();
    for path in paths {
        snapshots.push(parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    print!(
        "{}",
        diff(&snapshots[0], &snapshots[1], format == Format::Json)
    );
    Ok(ExitCode::SUCCESS)
}

/// `lazyeye replay <bundle.json|dir>`: re-executes the run(s) a flight
/// recorder bundle captured, from provenance alone, and diffs the
/// regenerated trace against the recording. A directory replays every
/// `*.json` bundle in it (sorted by name). Exits non-zero if any replay
/// diverges — the CI determinism gate.
fn cmd_replay(path: &str, format: Format) -> Cmd {
    let mut reports = Vec::new();
    for file in json_files(path, "bundles")? {
        let bundle = lazy_eye_inspection::obs::bundle::Bundle::from_json_str(&read(&file)?)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let report = lazy_eye_inspection::campaign::replay(&bundle)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        reports.push(report);
    }
    let divergent = reports.iter().filter(|r| !r.identical).count();
    match format {
        Format::Json => println!("{}", ToJson::to_json(&reports).to_string_pretty()),
        _ => {
            for r in &reports {
                print!("{}", r.render_text());
            }
            eprintln!(
                "[replay] {} bundle(s), {} divergent",
                reports.len(),
                divergent
            );
        }
    }
    Ok(if divergent == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `lazyeye profile <traces.json|bundle.json|dir>`: causal latency
/// attribution of recorded traces. Each run's establishment latency is
/// cut into exhaustive phases (resolution / stall / cad / fallback /
/// connect) that sum exactly to the measured total, alongside the
/// critical path through the run's causal DAG. Accepts trace-set files
/// (`--emit-trace` output), flight-recorder bundles, or a directory of
/// either (`*.json`, sorted by name).
fn cmd_profile(path: &str, flags: &Flags, format: Format) -> Cmd {
    let mut traces: Vec<Trace> = Vec::new();
    for file in json_files(path, "trace files")? {
        let text = read(&file)?;
        match TraceSet::from_json_str(&text) {
            Ok(set) => traces.extend(set.traces),
            // Not a trace set — a flight-recorder bundle carries the
            // run's trace under its "trace" key.
            Err(set_err) => match lazy_eye_inspection::obs::bundle::Bundle::from_json_str(&text) {
                Ok(bundle) => match Trace::from_json(&bundle.trace) {
                    Ok(t) => traces.push(t),
                    Err(e) => eprintln!(
                        "[profile] {}: bundle has no usable trace ({e}); skipped",
                        file.display()
                    ),
                },
                Err(_) => return Err(format!("{}: {set_err}", file.display())),
            },
        }
    }
    if traces.is_empty() {
        return Err(format!("{path}: no attributable traces found"));
    }
    let mut budget = LatencyBudget::default();
    let mut flame = FlameGraph::new();
    let attributed: Vec<(&Trace, Option<Attribution>)> = traces
        .iter()
        .map(|trace| {
            let attr = attribute(trace);
            let m = &trace.meta;
            let key = (&*m.case, &*m.subject, &*m.condition, m.configured_delay_ms);
            budget.add(&mut flame, key, attr.as_ref());
            (trace, attr)
        })
        .collect();
    match format {
        Format::Json => {
            let traces = attributed.iter().map(|(trace, attr)| {
                Json::obj(vec![
                    ("meta", trace.meta.to_json()),
                    ("attribution", attr.to_json()),
                ])
            });
            let doc = Json::obj(vec![("traces", Json::Arr(traces.collect()))]);
            println!("{}", doc.to_string_pretty());
        }
        _ => {
            for (trace, attr) in &attributed {
                let m = &trace.meta;
                match attr {
                    Some(a) => {
                        println!(
                            "{} {} {} d{} r{}: {} ms = resolution {} + stall {} + cad {} \
                             + fallback {} + connect {} (dominant: {})",
                            m.case,
                            m.subject,
                            m.condition,
                            m.configured_delay_ms,
                            m.rep,
                            a.total_ms,
                            a.resolution_ms,
                            a.stall_ms,
                            a.cad_ms,
                            a.fallback_ms,
                            a.connect_ms,
                            a.dominant_phase(),
                        );
                        println!("  critical path: {}", a.critical_path.join(" -> "));
                    }
                    None => println!(
                        "{} {} {} d{} r{}: no establishment timeline (skipped)",
                        m.case, m.subject, m.condition, m.configured_delay_ms, m.rep
                    ),
                }
            }
            println!();
            println!("{}", budget.render_text());
        }
    }
    if let Some(out) = flags.get("--flamegraph") {
        write_flamegraph(out, &flame)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_campaign_dispatch(flags: &Flags, jobs: usize) -> Cmd {
    let opts = RunOpts::<CampaignMatrix> {
        jobs,
        format: parse_format(flags)?,
        out: flags.get("--out"),
        flamegraph: flags.get("--flamegraph"),
        engine: CampaignOptions {
            fast_path: flags.contains("--fast-path"),
            classify: flags.contains("--classify"),
        },
    };

    if flags.contains("--merge") {
        if opts.engine.fast_path {
            return Err("--fast-path does not apply to --merge; it only affects local runs".into());
        }
        let conflicts = [
            "--config",
            "--default",
            "--seed",
            "--shard",
            "--resume",
            "--checkpoint",
        ];
        return cmd_merge(flags, &conflicts, &opts);
    }

    let save = flags.get("--checkpoint").map(String::from);

    if let Some(resume_path) = flags.get("--resume") {
        if flags.contains("--config") || flags.contains("--seed") || flags.contains("--default") {
            return Err(
                "--resume reads spec and seed from the checkpoint; drop --config/--default/--seed"
                    .into(),
            );
        }
        let ckpt = Checkpoint::load(resume_path)?;
        match ckpt.shard {
            Some(shard) => {
                if let Some(s) = flags.get("--shard").map(Shard::parse).transpose()? {
                    if s != shard {
                        return Err(format!(
                            "--shard {}/{} disagrees with the checkpoint's {}/{}",
                            s.index, s.count, shard.index, shard.count
                        ));
                    }
                }
                shard_conflicts(flags, "shard runs")?;
            }
            None if flags.contains("--shard") => {
                return Err("--shard cannot be added to a whole-campaign checkpoint".into())
            }
            None => {}
        }
        if ckpt.completed_count() > 0 {
            eprintln!(
                "[campaign] resuming: {} runs already completed",
                ckpt.completed_count()
            );
        }
        // Keep checkpointing where we left off unless redirected.
        return drive(ckpt, save.or_else(|| Some(resume_path.to_string())), &opts);
    }

    let path = match (flags.contains("--default"), flags.get("--config")) {
        (true, Some(_)) => return Err("--config and --default are mutually exclusive".into()),
        (true, None) => None,
        (false, Some(path)) => Some(path),
        (false, None) => {
            return Err("campaign needs --config <spec.json> or --default \
                 (or --print-spec / --resume / --merge)"
                .into())
        }
    };
    cmd_start(flags, load_spec(flags, path)?, save, &opts)
}

/// Loads a fleet spec from `--spec`/`--default` and applies `--seed`,
/// `--sessions` and `--reps` overrides.
fn load_fleet_spec(flags: &Flags) -> Result<FleetSpec, String> {
    let mut spec = match (flags.get("--spec"), flags.contains("--default")) {
        (Some(_), true) => return Err("--spec and --default are mutually exclusive".to_string()),
        (Some(path), false) => {
            FleetSpec::from_json(&read(path)?).map_err(|e| format!("bad fleet spec: {e}"))?
        }
        (None, true) => FleetSpec::default(),
        (None, false) => {
            return Err(
                "fleet needs --spec <fleet.json> or --default (or --print-spec / --merge)"
                    .to_string(),
            )
        }
    };
    spec.seed = parse_num(flags, "--seed", spec.seed)?;
    if flags.contains("--sessions") {
        spec.cad_sessions = parse_num(flags, "--sessions", spec.cad_sessions)?;
        if spec.cad_sessions == 0 {
            return Err("flag --sessions: must be at least 1".to_string());
        }
    }
    if flags.contains("--reps") {
        spec.repetitions = parse_num(flags, "--reps", spec.repetitions)?;
        if spec.repetitions == 0 {
            return Err("flag --reps: must be at least 1".to_string());
        }
    }
    Ok(spec)
}

fn cmd_fleet_dispatch(flags: &Flags, jobs: usize) -> Cmd {
    let opts = RunOpts::<FleetMatrix> {
        jobs,
        format: parse_format(flags)?,
        out: flags.get("--out"),
        flamegraph: flags.get("--flamegraph"),
        engine: (),
    };
    if flags.contains("--merge") {
        let conflicts = [
            "--spec",
            "--default",
            "--seed",
            "--sessions",
            "--reps",
            "--shard",
        ];
        return cmd_merge(flags, &conflicts, &opts);
    }
    cmd_start(flags, load_fleet_spec(flags)?, None, &opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| fail(&e))
}

fn run(args: &[String]) -> Cmd {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "clients" => {
            let flags = parse_flags(rest, &[val("--format")])?;
            let format = parse_format(&flags)?;
            let mut t = Table::new("Client profiles", vec!["id", "engine", "CAD", "RD"]);
            for c in all_measured_clients() {
                t.row(vec![
                    c.id(),
                    format!("{:?}", c.engine),
                    c.fixed_cad()
                        .map(|d| format!("{} ms", d.as_millis()))
                        .unwrap_or_else(|| "dynamic".into()),
                    c.he.resolution_delay
                        .map(|d| format!("{} ms", d.as_millis()))
                        .unwrap_or_else(|| "-".into()),
                ]);
            }
            print_table(&t, format);
            Ok(ExitCode::SUCCESS)
        }
        "resolvers" => {
            let flags = parse_flags(rest, &[val("--format")])?;
            let format = parse_format(&flags)?;
            let mut t = Table::new(
                "Resolver profiles",
                vec!["name", "kind", "timeout", "v6 pref", "notes"],
            );
            for p in all_profiles() {
                t.row(vec![
                    p.name.into(),
                    format!("{:?}", p.kind),
                    format!("{} ms", p.policy.server_timeout.as_millis()),
                    format!("{:?}", p.policy.v6_preference),
                    p.notes.into(),
                ]);
            }
            print_table(&t, format);
            Ok(ExitCode::SUCCESS)
        }
        "cad" => {
            let flags = parse_flags(
                rest,
                &[
                    val("--client"),
                    val("--from"),
                    val("--to"),
                    val("--step"),
                    val("--reps"),
                    val("--seed"),
                    val("--emit-trace"),
                ],
            )?;
            let Some(id) = flags.get("--client") else {
                return Ok(usage());
            };
            let Some(profile) = find_client(id) else {
                return Err(format!("unknown client {id:?} (try `lazyeye clients`)"));
            };
            let from = parse_num(&flags, "--from", 0)?;
            let to = parse_num(&flags, "--to", 400)?;
            let step = parse_num(&flags, "--step", 25)?;
            let reps = parse_num(&flags, "--reps", 1)?;
            let seed = parse_num(&flags, "--seed", 1u64)?;
            if step == 0 {
                return Err("flag --step: must be > 0".into());
            }
            let grid = SweepSpec::new(from, to, step);
            check_plan_budget(grid.runs(reps), "runs")?;
            let runs = sweep("cad", CAD_SEED_TAG, &grid, reps, seed, |d, rep, s| {
                let (sample, trace, _) = run_cad(&profile, d, rep, s, &[], Some("baseline"));
                (sample, trace)
            });
            let samples = emit_traces(&flags, runs)?;
            let families: Vec<_> = samples.iter().map(|s| s.family).collect();
            println!("{}  {}", profile.figure2_label(), strip::render(&families));
            let s = summarize_cad(&samples);
            println!(
                "last v6: {:?} ms, first v4: {:?} ms, measured CAD: {:?} ms",
                s.last_v6_delay_ms, s.first_v4_delay_ms, s.measured_cad_ms
            );
            Ok(ExitCode::SUCCESS)
        }
        "rd" => {
            let flags = parse_flags(
                rest,
                &[
                    val("--client"),
                    val("--record"),
                    val("--delay"),
                    val("--seed"),
                    val("--emit-trace"),
                ],
            )?;
            let Some(id) = flags.get("--client") else {
                return Ok(usage());
            };
            let Some(profile) = find_client(id) else {
                return Err(format!("unknown client {id:?}"));
            };
            let record = match flags.get("--record") {
                Some("a") => DelayedRecord::A,
                Some("aaaa") | None => DelayedRecord::Aaaa,
                Some(other) => {
                    return Err(format!("flag --record: expected aaaa|a, got {other:?}"))
                }
            };
            let delay = parse_num(&flags, "--delay", 400)?;
            let seed = parse_num(&flags, "--seed", 1u64)?;
            let label = Some(delayed_record_label(record));
            let grid = SweepSpec::new(delay, delay, 1);
            let runs = sweep("rd", RD_SEED_TAG, &grid, 3, seed, |d, rep, s| {
                let (sample, trace, _) = run_rd(&profile, record, d, rep, s, &[], label);
                (sample, trace)
            });
            let samples = emit_traces(&flags, runs)?;
            for s in &samples {
                println!(
                    "delay {} ms rep {}: family {:?}, first SYN at {:?} ms, RD used: {}",
                    s.configured_delay_ms, s.rep, s.family, s.first_attempt_ms, s.used_rd
                );
            }
            let sum = summarize_rd(&samples);
            println!("implements RD: {}", sum.implements_rd);
            Ok(ExitCode::SUCCESS)
        }
        "selection" => {
            let flags = parse_flags(rest, &[val("--client"), val("--seed"), val("--emit-trace")])?;
            let Some(id) = flags.get("--client") else {
                return Ok(usage());
            };
            let Some(profile) = find_client(id) else {
                return Err(format!("unknown client {id:?}"));
            };
            let seed = parse_num(&flags, "--seed", 1u64)?;
            let cfg = SelectionCaseConfig::default();
            let run = run_selection(&profile, &cfg, 0, seed, &[], Some("-"));
            let r = emit_traces(&flags, vec![run])?.remove(0);
            println!("attempt order: {}", strip::render(&r.order));
            println!("addresses used: {} IPv6, {} IPv4", r.v6_used, r.v4_used);
            Ok(ExitCode::SUCCESS)
        }
        "resolver" => {
            let flags = parse_flags(
                rest,
                &[
                    val("--profile"),
                    val("--reps"),
                    val("--seed"),
                    val("--emit-trace"),
                ],
            )?;
            let Some(name) = flags.get("--profile") else {
                return Ok(usage());
            };
            let Some(profile) = all_profiles().into_iter().find(|p| p.name == name) else {
                return Err(format!(
                    "unknown resolver {name:?} (try `lazyeye resolvers`)"
                ));
            };
            let reps = parse_num(&flags, "--reps", 20)?;
            let seed = parse_num(&flags, "--seed", 1u64)?;
            let grid = SweepSpec::new(
                0,
                profile.policy.server_timeout.as_millis() as u64 + 400,
                200,
            );
            check_plan_budget(grid.runs(reps), "runs")?;
            let runs = sweep(
                "resolver",
                RESOLVER_SEED_TAG,
                &grid,
                reps,
                seed,
                |d, rep, s| run_resolver(&profile, d, rep, s, &[], Some("-")),
            );
            let samples = emit_traces(&flags, runs)?;
            let stats = summarize_resolver(&samples);
            println!(
                "{}: IPv6 share {}, max v6 delay {:?} ms, per-try timeout {:?} ms, max v6 packets {}",
                profile.name,
                fmt_share(stats.v6_share_pct),
                stats.max_v6_delay_ms,
                stats.observed_cad_ms,
                stats.max_v6_packets
            );
            Ok(ExitCode::SUCCESS)
        }
        "config" => {
            parse_flags(rest, &[])?;
            println!("{}", TestbedConfig::default().to_json());
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let flags = parse_flags(rest, &[val("--config")])?;
            let Some(path) = flags.get("--config") else {
                return Ok(usage());
            };
            let Ok(text) = std::fs::read_to_string(path) else {
                return Err(format!("cannot read {path}"));
            };
            let cfg = TestbedConfig::from_json(&text).map_err(|e| format!("bad config: {e}"))?;
            let chrome = find_client("chrome-130.0").expect("builtin profile");
            if let Some(c) = &cfg.cad {
                let s = summarize_cad(&run_cad_case(&chrome, c, cfg.seed));
                println!("[cad] switchover at {:?} ms", s.first_v4_delay_ms);
            }
            if let Some(c) = &cfg.rd {
                let s = summarize_rd(&run_rd_case(&chrome, c, cfg.seed));
                println!("[rd] implements RD: {}", s.implements_rd);
            }
            if let Some(c) = &cfg.selection {
                let s = run_selection_case(&chrome, c, cfg.seed);
                println!("[selection] {} v6 + {} v4 used", s.v6_used, s.v4_used);
            }
            if let Some(c) = &cfg.resolver {
                let p = lazy_eye_inspection::resolver::unbound();
                let s = summarize_resolver(&run_resolver_case(&p, c, cfg.seed));
                println!("[resolver] Unbound v6 share {}", fmt_share(s.v6_share_pct));
            }
            Ok(ExitCode::SUCCESS)
        }
        "infer" => {
            // `--diff old.json new.json` is its own sub-mode with
            // positional profile-set paths, like `campaign --diff`.
            if rest.first().map(String::as_str) == Some("--diff") {
                let parse = |text: &str| {
                    Json::parse(text)
                        .map_err(|e| e.to_string())
                        .and_then(|v| profiles_from_json(&v))
                };
                return cmd_diff(rest, "profile", parse, |old, new, json| {
                    ProfileSetDiff::new(old, new).render(json)
                });
            }
            let flags = parse_flags(
                rest,
                &[
                    val("--trace"),
                    val("--campaign"),
                    val("--jobs"),
                    val("--seed"),
                    val("--format"),
                    val("--timeline"),
                    val("--metrics-out"),
                    switch("--progress"),
                ],
            )?;
            let jobs = parse_jobs(&flags)?;
            with_obs(&flags, jobs, "runs", || cmd_infer_dispatch(&flags, jobs))
        }
        "fleet" => {
            // `--diff old.json new.json` is its own sub-mode with
            // positional report paths, like `campaign --diff`.
            if rest.first().map(String::as_str) == Some("--diff") {
                return cmd_diff(rest, "report", FleetReport::parse, FleetReport::diff);
            }
            let flags = parse_flags(
                rest,
                &[
                    val("--spec"),
                    val("--sessions"),
                    val("--reps"),
                    val("--jobs"),
                    val("--seed"),
                    val("--format"),
                    val("--out"),
                    val("--shard"),
                    val("--timeline"),
                    val("--metrics-out"),
                    val("--flight-record"),
                    val("--flamegraph"),
                    multi("--merge"),
                    switch("--default"),
                    switch("--progress"),
                    switch("--print-spec"),
                ],
            )?;
            if flags.contains("--print-spec") {
                println!("{}", FleetSpec::default().to_json());
                return Ok(ExitCode::SUCCESS);
            }
            let jobs = parse_jobs(&flags)?;
            with_obs(&flags, jobs, "sessions", || {
                cmd_fleet_dispatch(&flags, jobs)
            })
        }
        "campaign" => {
            // `--diff old.json new.json` is its own sub-mode with
            // positional report paths.
            if rest.first().map(String::as_str) == Some("--diff") {
                return cmd_diff(rest, "report", CampaignReport::parse, CampaignReport::diff);
            }
            let flags = parse_flags(
                rest,
                &[
                    val("--config"),
                    val("--jobs"),
                    val("--seed"),
                    val("--format"),
                    val("--out"),
                    val("--checkpoint"),
                    val("--resume"),
                    val("--shard"),
                    val("--timeline"),
                    val("--metrics-out"),
                    val("--flight-record"),
                    val("--flamegraph"),
                    multi("--merge"),
                    switch("--default"),
                    switch("--classify"),
                    switch("--fast-path"),
                    switch("--progress"),
                    switch("--print-spec"),
                ],
            )?;
            if flags.contains("--print-spec") {
                println!("{}", CampaignSpec::default().to_json());
                return Ok(ExitCode::SUCCESS);
            }
            let jobs = parse_jobs(&flags)?;
            with_obs(&flags, jobs, "runs", || cmd_campaign_dispatch(&flags, jobs))
        }
        "replay" => {
            let Some(path) = rest.first() else {
                return Err(
                    "replay needs a bundle file or directory: replay <bundle.json|dir>".into(),
                );
            };
            let flags = parse_flags(
                &rest[1..],
                &[val("--format"), val("--timeline"), val("--metrics-out")],
            )?;
            let format = parse_text_json(&flags)?;
            with_obs(&flags, 1, "bundles", || cmd_replay(path, format))
        }
        "profile" => {
            let Some(path) = rest.first() else {
                return Err("profile needs traces, a bundle or a directory: \
                     profile <traces.json|bundle.json|dir>"
                    .into());
            };
            let flags = parse_flags(&rest[1..], &[val("--format"), val("--flamegraph")])?;
            let format = parse_text_json(&flags)?;
            cmd_profile(path, &flags, format)
        }
        _ => Ok(usage()),
    }
}
