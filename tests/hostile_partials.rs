//! The partial-ingest path of `campaign --merge` / `fleet --merge`.
//!
//! The checked-in shard partials under `tests/fixtures/partials/` were
//! written by the binary that preceded the shared run kernel, so they pin
//! the on-disk format: they must load, merge and re-serialise byte for
//! byte, and a fresh `--shard` run must reproduce them exactly.
//!
//! Every hostile variant of them — an oversized planned count, a stored
//! index outside the shard's plan, an output whose kind does not match
//! its planned item, a malformed shard, an embedded spec that plans past
//! the kernel's item budget — must exit 1 with an error, never a panic or
//! an out-of-memory abort, and within 5 s under a 1.5 GB address-space
//! limit. So must a fresh run of such a spec or testbed config, a `cad`
//! or `resolver` sweep over the budget, or a spec asking for more dead
//! selection addresses than a run can number.
//!
//! Below the CLI, every truncation prefix and a fixed-seed set of
//! single-byte mutations of the fixtures, and of an emitted trace set,
//! must load (or parse) or fail with an error, never panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use lazy_eye_inspection::campaign::{CampaignSpec, Checkpoint, SelectionPlan};
use lazy_eye_inspection::clients::all_measured_clients;
use lazy_eye_inspection::fleet::{FleetCheckpoint, FleetSpec};
use lazy_eye_inspection::testbed::{run_cad, SweepSpec, TestbedConfig};
use lazy_eye_inspection::trace::TraceSet;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/partials")
        .join(name)
}

fn read(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("fixture is readable")
}

/// Runs the CLI under `ulimit -v 1500000` (1.5 GB of address space), so
/// an unbounded allocation aborts instead of swapping.
fn lazyeye(args: &[&str]) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 1500000; exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_lazyeye"))
        .args(args)
        .output()
        .expect("lazyeye runs")
}

/// Writes `text` to a scratch file named after `name` and returns its
/// path.
fn scratch(name: &str, text: &str) -> String {
    scratch_bytes(name, text.as_bytes())
}

/// [`scratch`] for bytes that need not be UTF-8.
fn scratch_bytes(name: &str, bytes: &[u8]) -> String {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("hostile-{}-{name}.json", std::process::id()));
    std::fs::write(&path, bytes).expect("scratch file is writable");
    path.to_string_lossy().into_owned()
}

/// The fixture `name` with `from` replaced by `to` (which must occur).
fn edit(name: &str, from: &str, to: &str) -> String {
    let text = read(name);
    assert!(text.contains(from), "{name} lacks {from:?}");
    text.replace(from, to)
}

/// `subcommand --merge <hostile>` must fail cleanly; returns the error
/// output. Merging the hostile partial alone means nothing else can
/// refuse it first.
fn assert_rejected(subcommand: &str, name: &str, hostile: &str) -> String {
    let path = scratch(name, hostile);
    let stderr = assert_fails(name, &[subcommand, "--merge", &path, "--jobs", "1"]);
    let _ = std::fs::remove_file(&path);
    stderr
}

/// `args` must exit 1 with an error line, no panic, within 5 s; returns
/// the error output.
fn assert_fails(name: &str, args: &[&str]) -> String {
    let started = Instant::now();
    let out = lazyeye(args);
    let took = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{name}: {}\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains("lazyeye: "),
        "{name}: no error line\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{name}: panicked\n{stderr}");
    assert!(took < Duration::from_secs(5), "{name}: took {took:?}");
    stderr
}

/// The fixture `name` with the stored outputs of items `a` and `b`
/// swapped (matching output entries only, not the shard's `index`).
fn swap_outputs(name: &str, a: u64, b: u64) -> String {
    let entry = |i: u64| format!("\"index\": {i},\n      \"kind\"");
    edit(name, &entry(a), "SWAP")
        .replace(&entry(b), &entry(a))
        .replace("SWAP", &entry(b))
}

#[test]
fn parent_format_fixtures_load_and_reserialise_byte_identically() {
    for name in ["campaign-shard-0of2.json", "campaign-shard-1of2.json"] {
        let part = Checkpoint::load(fixture(name).to_str().unwrap()).unwrap();
        assert_eq!(part.to_json_string(), read(name), "{name}");
    }
    for name in ["fleet-shard-0of2.json", "fleet-shard-1of2.json"] {
        let part = FleetCheckpoint::load(fixture(name).to_str().unwrap()).unwrap();
        assert_eq!(part.to_json_string(), read(name), "{name}");
    }
}

#[test]
fn shard_runs_reproduce_the_parent_format_fixtures() {
    for (subcommand, spec_flag, prefix) in [
        ("campaign", "--config", "campaign"),
        ("fleet", "--spec", "fleet"),
    ] {
        let spec = fixture(&format!("{prefix}-spec.json"));
        for shard in ["0/2", "1/2"] {
            let out = lazyeye(&[
                subcommand,
                spec_flag,
                spec.to_str().unwrap(),
                "--shard",
                shard,
                "--jobs",
                "1",
            ]);
            assert!(out.status.success(), "{subcommand} --shard {shard}");
            let name = format!("{prefix}-shard-{}of2.json", &shard[..1]);
            assert_eq!(String::from_utf8_lossy(&out.stdout), read(&name), "{name}");
        }
    }
}

#[test]
fn merged_fixtures_match_a_single_process_run() {
    for (subcommand, spec_flag, prefix) in [
        ("campaign", "--config", "campaign"),
        ("fleet", "--spec", "fleet"),
    ] {
        let spec = fixture(&format!("{prefix}-spec.json"));
        let single = lazyeye(&[
            subcommand,
            spec_flag,
            spec.to_str().unwrap(),
            "--format",
            "json",
        ]);
        let merged = lazyeye(&[
            subcommand,
            "--merge",
            fixture(&format!("{prefix}-shard-0of2.json"))
                .to_str()
                .unwrap(),
            "--merge",
            fixture(&format!("{prefix}-shard-1of2.json"))
                .to_str()
                .unwrap(),
            "--format",
            "json",
        ]);
        assert!(
            single.status.success() && merged.status.success(),
            "{subcommand}"
        );
        assert!(!single.stdout.is_empty());
        assert_eq!(merged.stdout, single.stdout, "{subcommand} merge != single");
    }
}

#[test]
fn oversized_planned_counts_fail_cleanly() {
    let campaign = edit(
        "campaign-shard-1of2.json",
        "\"pass1_runs\": 4,",
        "\"pass1_runs\": 10000000000000,",
    );
    assert_rejected("campaign", "campaign-count", &campaign);
    let fleet = edit(
        "fleet-shard-1of2.json",
        "\"total_sessions\": 4,",
        "\"total_sessions\": 10000000000000,",
    );
    assert_rejected("fleet", "fleet-count", &fleet);
}

#[test]
fn out_of_range_indices_fail_cleanly() {
    // Index 5 is shard 1/2's, but lies past the 4-item plan.
    for (subcommand, prefix) in [("campaign", "campaign"), ("fleet", "fleet")] {
        let hostile = edit(
            &format!("{prefix}-shard-1of2.json"),
            "\"index\": 3,\n      \"kind\"",
            "\"index\": 5,\n      \"kind\"",
        );
        assert_rejected(subcommand, &format!("{prefix}-index"), &hostile);
        // Index 2 is inside the plan but belongs to shard 0/2.
        let foreign = edit(
            &format!("{prefix}-shard-1of2.json"),
            "\"index\": 3,\n      \"kind\"",
            "\"index\": 2,\n      \"kind\"",
        );
        assert_rejected(subcommand, &format!("{prefix}-foreign"), &foreign);
        // Unsharded, an index past the first pass may name a later-pass
        // item, so it is refused once the whole run is planned.
        let unsharded = edit(
            &format!("{prefix}-shard-1of2.json"),
            "\"shard\": {\n    \"index\": 1,\n    \"count\": 2\n  }",
            "\"shard\": null",
        )
        .replace(
            "\"index\": 3,\n      \"kind\"",
            "\"index\": 10000000000000,\n      \"kind\"",
        );
        assert_rejected(subcommand, &format!("{prefix}-unplanned"), &unsharded);
    }
}

#[test]
fn mismatched_output_kinds_fail_cleanly() {
    // Item 1 is a CAD run / web session and item 3 a resolver run /
    // resolver check: swapping their outputs mismatches both.
    for (subcommand, prefix) in [("campaign", "campaign"), ("fleet", "fleet")] {
        let hostile = swap_outputs(&format!("{prefix}-shard-1of2.json"), 1, 3);
        assert_rejected(subcommand, &format!("{prefix}-kind"), &hostile);
    }
}

#[test]
fn malformed_shards_fail_cleanly() {
    for (subcommand, prefix) in [("campaign", "campaign"), ("fleet", "fleet")] {
        let hostile = edit(
            &format!("{prefix}-shard-1of2.json"),
            "\"index\": 1,\n    \"count\": 2",
            "\"index\": 1,\n    \"count\": 0",
        );
        assert_rejected(subcommand, &format!("{prefix}-shard"), &hostile);
    }
}

/// A campaign spec for curl alone with the given CAD sweep: it passes
/// every field check.
fn campaign_spec(client: &str, end_ms: u64, step_ms: u64) -> String {
    format!(
        r#"{{"name":"hostile","seed":7,"clients":["{client}"],"resolvers":[],"netem":[],
"cad":{{"sweep":{{"start_ms":0,"end_ms":{end_ms},"step_ms":{step_ms}}},"repetitions":1}},
"rd":null,"selection":null,"resolver":null,"refine_step_ms":5}}"#
    )
}

/// Asserts `stderr` carries the plan-budget error.
fn assert_budget(name: &str, stderr: &str) {
    assert!(
        stderr.contains("over the budget of 10000000"),
        "{name}: no budget error\n{stderr}"
    );
}

#[test]
fn specs_over_the_plan_budget_fail_cleanly() {
    // A 10^12-value first pass.
    let sweep = scratch("sweep", &campaign_spec("curl-7.88.1", 1_000_000_000_000, 1));
    // Two first-pass runs whose refinement could plan 2·10^7 more.
    let refine = scratch(
        "refine",
        &campaign_spec("chrome-130.0", 100_000_000, 100_000_000),
    );
    // Four billion sessions per member.
    let fleet = FleetSpec {
        cad_sessions: 4_000_000_000,
        repetitions: 4_000_000_000,
        ..FleetSpec::default()
    };
    let fleet = scratch("fleet-sessions", &fleet.to_json());
    // More dead addresses than one selection run can number: refused by
    // their own field limit rather than the budget.
    let selection = |v4_addresses, v6_addresses| CampaignSpec {
        clients: vec!["chrome-130.0".into()],
        cad: None,
        rd: None,
        resolver: None,
        selection: Some(SelectionPlan {
            v4_addresses,
            v6_addresses,
            ..SelectionPlan::default()
        }),
        ..CampaignSpec::default()
    };
    let v4 = scratch("selection-v4", &selection(255, 10).to_json());
    let v6 = scratch("selection-v6", &selection(10, 10_000).to_json());
    let budget = "over the budget of 10000000";
    for (name, args, error) in [
        (
            "sweep",
            ["campaign", "--config", &sweep, "--jobs", "1"],
            budget,
        ),
        (
            "refine",
            ["campaign", "--config", &refine, "--jobs", "1"],
            budget,
        ),
        (
            "fleet-sessions",
            ["fleet", "--spec", &fleet, "--jobs", "1"],
            budget,
        ),
        (
            "selection-v4",
            ["campaign", "--config", &v4, "--jobs", "1"],
            "selection.v4_addresses must be at most 254, got 255",
        ),
        (
            "selection-v6",
            ["campaign", "--config", &v6, "--jobs", "1"],
            "selection.v6_addresses must be at most 9999, got 10000",
        ),
    ] {
        let stderr = assert_fails(name, &args);
        assert!(
            stderr.contains(error),
            "{name}: expected {error:?}\n{stderr}"
        );
    }
    for path in [sweep, refine, fleet, v4, v6] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn hostile_testbed_configs_fail_cleanly() {
    // More dead IPv4 addresses than a run can number, refused by the
    // selection limit campaign specs share.
    let mut selection = TestbedConfig::default();
    selection.selection.as_mut().unwrap().v4_addresses = 300;
    // A 10^12-value CAD sweep, refused against the plan budget.
    let mut sweep = TestbedConfig::default();
    sweep.cad.as_mut().unwrap().sweep = SweepSpec {
        start_ms: 0,
        end_ms: 1_000_000_000_000,
        step_ms: 1,
    };
    // The whole u64 range: its value count must saturate, not wrap to 0.
    let mut full_range = TestbedConfig::default();
    full_range.cad.as_mut().unwrap().sweep = SweepSpec {
        start_ms: 0,
        end_ms: u64::MAX,
        step_ms: 1,
    };
    for (name, cfg, error) in [
        (
            "config-selection",
            selection,
            "bad config: selection.v4_addresses must be at most 254, got 300",
        ),
        ("config-sweep", sweep, "over the budget of 10000000"),
        (
            "config-full-range",
            full_range,
            "over the budget of 10000000",
        ),
    ] {
        let path = scratch(name, &cfg.to_json());
        let stderr = assert_fails(name, &["run", "--config", &path]);
        assert!(
            stderr.contains(error),
            "{name}: expected {error:?}\n{stderr}"
        );
        let _ = std::fs::remove_file(&path);
    }
    // Single-case sweeps from the command line plan against the same
    // budget: a 10^14-value CAD sweep, four billion repetitions.
    for (name, args) in [
        (
            "cad-sweep",
            &[
                "cad",
                "--client",
                "curl-7.88.1",
                "--from",
                "0",
                "--to",
                "100000000000000",
                "--step",
                "1",
            ][..],
        ),
        (
            "cad-reps",
            &["cad", "--client", "curl-7.88.1", "--reps", "4000000000"][..],
        ),
        (
            "resolver-reps",
            &["resolver", "--profile", "Unbound", "--reps", "4000000000"][..],
        ),
    ] {
        let stderr = assert_fails(name, args);
        assert_budget(name, &stderr);
    }
}

#[test]
fn partials_embedding_specs_over_the_plan_budget_fail_cleanly() {
    let campaign = edit(
        "campaign-shard-1of2.json",
        "\"end_ms\": 250,\n        \"step_ms\": 50",
        "\"end_ms\": 1000000000000,\n        \"step_ms\": 1",
    );
    let stderr = assert_rejected("campaign", "campaign-spec-budget", &campaign);
    assert_budget("campaign-spec-budget", &stderr);
    let fleet = edit(
        "fleet-shard-1of2.json",
        "\"cad_sessions\": 1,",
        "\"cad_sessions\": 4000000000,",
    );
    let stderr = assert_rejected("fleet", "fleet-spec-budget", &fleet);
    assert_budget("fleet-spec-budget", &stderr);
}

#[test]
fn csv_diffs_are_refused() {
    let report = fixture("campaign-shard-0of2.json");
    let report = report.to_str().unwrap();
    for subcommand in ["campaign", "fleet"] {
        let stderr = assert_fails(
            subcommand,
            &[subcommand, "--diff", report, report, "--format", "csv"],
        );
        assert!(stderr.contains("expected text|json"), "{stderr}");
    }
}

/// Single-byte mutations per input, drawn from a fixed seed.
const MUTATIONS: usize = 256;

/// Every truncation prefix of `text`, then [`MUTATIONS`] copies of it with
/// one byte replaced, from a fixed-seed xorshift stream. The replacement
/// bytes are the ones JSON and the wire formats give meaning to, plus one
/// that is not UTF-8.
fn hostile_variants(text: &str, seed: u64) -> Vec<Vec<u8>> {
    const BYTES: &[u8] = b"0123456789-+.eE\"\\{}[],: nultrfasxv\xff";
    let bytes = text.as_bytes();
    let mut state = seed;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let mut variants: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for _ in 0..MUTATIONS {
        let mut mutated = bytes.to_vec();
        let at = next() % mutated.len();
        mutated[at] = BYTES[next() % BYTES.len()];
        variants.push(mutated);
    }
    variants
}

/// Runs `ingest` on every hostile variant of `text`; each must return
/// (`Ok` or `Err`), never panic.
fn assert_never_panics(name: &str, text: &str, ingest: impl Fn(&[u8])) {
    for (i, variant) in hostile_variants(text, 0x5EED_0000 + text.len() as u64)
        .iter()
        .enumerate()
    {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ingest(variant)));
        assert!(
            outcome.is_ok(),
            "{name} variant {i} panicked:\n{}",
            String::from_utf8_lossy(variant)
        );
    }
}

#[test]
fn truncated_and_mutated_partials_load_or_fail_cleanly() {
    for name in [
        "campaign-shard-0of2.json",
        "campaign-shard-1of2.json",
        "fleet-shard-0of2.json",
        "fleet-shard-1of2.json",
    ] {
        let campaign = name.starts_with("campaign");
        assert_never_panics(name, &read(name), |variant| {
            let path = scratch_bytes(&format!("mutated-{name}"), variant);
            // A partial that loads must also re-serialise.
            let _ = if campaign {
                Checkpoint::load(&path).map(|p| p.to_json_string())
            } else {
                FleetCheckpoint::load(&path).map(|p| p.to_json_string())
            };
            let _ = std::fs::remove_file(&path);
        });
    }
}

#[test]
fn truncated_and_mutated_traces_parse_or_fail_cleanly() {
    let chrome = all_measured_clients()
        .into_iter()
        .find(|c| c.id() == "chrome-130.0")
        .expect("builtin profile");
    let (_, trace, _) = run_cad(&chrome, 300, 0, 7, &[], Some("baseline"));
    let mut set = TraceSet::default();
    set.push(trace.expect("traced"));
    let text = set.to_json_string();
    // Nesting past the parser's depth limit is an error, not a stack
    // overflow.
    let deep = format!("{}{}", "[".repeat(1_000_000), "]".repeat(1_000_000));
    assert!(TraceSet::from_json_str(&deep).is_err());
    assert_never_panics("trace set", &text, |variant| {
        // A trace set that parses must also re-emit.
        if let Ok(parsed) = TraceSet::from_json_str(&String::from_utf8_lossy(variant)) {
            let _ = parsed.to_json_string();
        }
    });
}
