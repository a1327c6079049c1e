//! Correctness: every pass's report must be the shipped CLI's report for
//! the same spec, byte for byte, and must keep the paper's findings.

use std::path::Path;
use std::process::Command;

use lazyeye_json::Json;

use crate::pipeline::Outputs;
use crate::workload::{Target, Workload};

/// Runs the `lazyeye` binary at `cli` on `target` over `jobs` workers
/// and returns the report bytes it writes. Files go under `scratch` and
/// are removed again.
pub fn cli_reference(
    cli: &Path,
    scratch: &Path,
    workload: Workload,
    target: &Target,
    jobs: usize,
) -> Result<Outputs, String> {
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let stem = scratch.join(format!("{}-{}", workload.name(), std::process::id()));
    let spec_path = stem.with_extension("spec.json");
    std::fs::write(&spec_path, target.spec_json())
        .map_err(|e| format!("cannot write {}: {e}", spec_path.display()))?;
    let mut cmd = Command::new(cli);
    match target {
        Target::Campaign(_) => cmd.args(["campaign", "--classify", "--config"]),
        Target::Fleet(_) => cmd.args(["fleet", "--spec"]),
    };
    cmd.arg(&spec_path)
        .args(["--jobs", &jobs.to_string(), "--format", "json", "--out"])
        .arg(&stem);
    let run = cmd.output();
    let read = |ext: &str| {
        let path = stem.with_extension(ext);
        let text = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        text.map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let (json, csv) = (read("json"), read("csv"));
    let _ = std::fs::remove_file(&spec_path);
    let run = run.map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    if !run.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            cli.display(),
            run.status,
            String::from_utf8_lossy(&run.stderr).trim()
        ));
    }
    if run.stdout != json.as_deref().unwrap_or_default().as_bytes() {
        return Err("the CLI's stdout differs from its --out JSON".to_string());
    }
    Ok(Outputs {
        json: json?,
        csv: csv?,
    })
}

/// Checks one pass's report against the CLI's and the paper's findings.
pub fn verify(workload: Workload, reference: &Outputs, got: &Outputs) -> Result<(), String> {
    same("report JSON", &reference.json, &got.json)?;
    same("report CSV", &reference.csv, &got.csv)?;
    paper_truth(workload, &got.json)
}

fn same(what: &str, want: &str, got: &str) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let at = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    Err(format!(
        "{what} differs from the CLI's at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

/// The report booleans that must hold on each workload: Table 2's
/// inferred feature matrix agrees with the summary roll-up; the fleet
/// brackets every fixed CAD, flags every dynamic one, agrees with every
/// known profile and sees exactly the known §5.2 stalls.
fn required(workload: Workload) -> &'static [&'static [&'static str]] {
    match workload {
        Workload::CadSweep | Workload::ResolverMix => &[&["inference", "matrix_agrees"]],
        Workload::FleetWebtool => &[
            &["summary", "all_members_agree"],
            &["summary", "all_fixed_cad_bracketed"],
            &["summary", "all_dynamic_cad_flagged"],
            &["summary", "all_rd_a_stalls_match_known"],
        ],
    }
}

/// Checks the paper-truth booleans of a report.
pub fn paper_truth(workload: Workload, json: &str) -> Result<(), String> {
    let doc = Json::parse(json).map_err(|e| format!("report is not JSON: {e}"))?;
    for path in required(workload) {
        let value = path.iter().try_fold(&doc, |node, key| node.get(key));
        if value.and_then(Json::as_bool) != Some(true) {
            return Err(format!("{} is not true", path.join(".")));
        }
    }
    Ok(())
}
