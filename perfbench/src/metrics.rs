//! The metric table (mirrored by `BENCHMARK.json`) and the result line.

use std::fmt::Write as _;

/// One metric: name, unit and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Printed by every untraced run. Items are runs for campaigns and
/// sessions for the fleet; `wall_s`/`items_per_s` are at jobs = the
/// host's available parallelism, `_j1` at one worker.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    higher("items_per_s", "1/s"),
    lower("wall_s_j1", "s"),
    higher("items_per_s_j1", "1/s"),
    higher("parallel_eff", "ratio"),
    lower("peak_heap_mb", "MiB"),
];

/// Printed by every traced run. Metrics of a layer a workload does not
/// reach (a fleet has no `testbed` runs, a campaign no `session`s; only
/// `cad-sweep` makes the `fastpath` side pass) read 0.
pub const PER_LAYER: &[Metric] = &[
    lower("plan.busy_s", "s"),
    lower("setup.busy_s", "s"),
    lower("exec.busy_s", "s"),
    lower("exec.idle_frac", "ratio"),
    lower("exec.steal_hits", "count"),
    lower("exec.allocs_per_item", "count"),
    lower("testbed.cad_us_p50", "us"),
    lower("testbed.cad_us_p99", "us"),
    lower("testbed.rd_us_p50", "us"),
    lower("testbed.selection_us_p50", "us"),
    lower("testbed.resolver_us_p50", "us"),
    lower("testbed.resolver_us_p99", "us"),
    lower("session.cad_us_p50", "us"),
    lower("session.rd_us_p50", "us"),
    lower("session.rd_a_us_p50", "us"),
    lower("session.resolver_us_p50", "us"),
    lower("sim.polls_per_item", "count"),
    lower("sim.tasks_per_item", "count"),
    lower("sim.timers_armed_per_item", "count"),
    lower("sim.timers_fired_per_item", "count"),
    lower("refine.busy_s", "s"),
    lower("refine.runs", "count"),
    lower("aggregate.busy_s", "s"),
    lower("infer.busy_s", "s"),
    lower("report.busy_s", "s"),
    lower("serialise.busy_s", "s"),
    lower("serialise.bytes", "bytes"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead", "ratio"),
    higher("fastpath.fast_share", "ratio"),
    lower("fastpath.calibrate_s", "s"),
    lower("fastpath.cad_us_p50", "us"),
    lower("failed_frac", "ratio"),
];

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Items attempted over every measured pass.
    pub attempted: u64,
    /// Items of passes that panicked or failed their check.
    pub failed: u64,
    /// Values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `table` with its unit. Errs if a metric of `table` is missing,
    /// unknown to it, given twice or not finite.
    pub fn result_line(&self, table: &[Metric]) -> Result<String, String> {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, metric) in table.iter().enumerate() {
            let mut given = self.values.iter().filter(|(n, _)| *n == metric.name);
            let (Some((_, value)), None) = (given.next(), given.next()) else {
                return Err(format!("metric {} must be given once", metric.name));
            };
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", metric.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        if let Some((name, _)) = self
            .values
            .iter()
            .find(|(n, _)| !table.iter().any(|m| m.name == *n))
        {
            return Err(format!("metric {name} is not in the table"));
        }
        line.push_str("}}");
        Ok(line)
    }
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_rejects_missing_duplicate_and_unknown_metrics() {
        let table = &[lower("a", "s"), higher("b", "1/s")];
        let ok = Outcome {
            attempted: 3,
            failed: 0,
            values: vec![("b", 2.5), ("a", 0.125)],
        };
        assert_eq!(
            ok.result_line(table).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"1/s\"}}}"
        );
        for values in [
            vec![("a", 1.0)],
            vec![("a", 1.0), ("b", 1.0), ("a", 2.0)],
            vec![("a", 1.0), ("b", 1.0), ("c", 1.0)],
            vec![("a", f64::NAN), ("b", 1.0)],
        ] {
            let bad = Outcome {
                attempted: 1,
                failed: 0,
                values,
            };
            assert!(bad.result_line(table).is_err());
        }
    }
}
