//! The partial-ingest path of `campaign --merge` / `fleet --merge`.
//!
//! The checked-in shard partials under `tests/fixtures/partials/` were
//! written by the binary that preceded the shared run kernel, so they pin
//! the on-disk format: they must load, merge and re-serialise byte for
//! byte, and a fresh `--shard` run must reproduce them exactly.
//!
//! Every hostile variant of them — an oversized planned count, a stored
//! index outside the shard's plan, an output whose kind does not match
//! its planned item, a malformed shard — must exit 1 with an error, never
//! a panic or an out-of-memory abort, and within 5 s under a 1.5 GB
//! address-space limit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use lazy_eye_inspection::campaign::Checkpoint;
use lazy_eye_inspection::fleet::FleetCheckpoint;

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
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("hostile-{}-{name}.json", std::process::id()));
    std::fs::write(&path, text).expect("scratch file is writable");
    path.to_string_lossy().into_owned()
}

/// The fixture `name` with `from` replaced by `to` (which must occur).
fn edit(name: &str, from: &str, to: &str) -> String {
    let text = read(name);
    assert!(text.contains(from), "{name} lacks {from:?}");
    text.replace(from, to)
}

/// `subcommand --merge <hostile>` must fail cleanly. Merging the hostile
/// partial alone means nothing else can refuse it first.
fn assert_rejected(subcommand: &str, name: &str, hostile: &str) {
    let path = scratch(name, hostile);
    let started = Instant::now();
    let out = lazyeye(&[subcommand, "--merge", &path, "--jobs", "1"]);
    let took = started.elapsed();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
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
