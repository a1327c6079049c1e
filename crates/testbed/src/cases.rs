//! Declarative test-case configuration, mirroring the paper's framework
//! (App. B, Figure 3): test cases, sweep ranges and repetition counts are
//! data, not code, so coarse initial runs and fine-grained follow-ups are
//! plain config edits.

use lazyeye_json::{FromJson, Json, JsonError, ToJson};

/// An inclusive millisecond sweep: `start..=end` stepping by `step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// First delay value (ms).
    pub start_ms: u64,
    /// Last delay value (ms), inclusive.
    pub end_ms: u64,
    /// Step (ms); must be non-zero.
    pub step_ms: u64,
}

impl SweepSpec {
    /// A new sweep.
    pub fn new(start_ms: u64, end_ms: u64, step_ms: u64) -> SweepSpec {
        assert!(step_ms > 0, "sweep step must be non-zero");
        SweepSpec {
            start_ms,
            end_ms,
            step_ms,
        }
    }

    /// The paper's fine CAD sweep: 0–400 ms in 5 ms steps.
    pub fn paper_fine() -> SweepSpec {
        SweepSpec::new(0, 400, 5)
    }

    /// A fine sweep strictly inside the open switchover bracket
    /// `(last_v6, first_v4)`: values `last_v6 + step, last_v6 + 2·step, …`
    /// up to (excluding) `first_v4`. Returns `None` when the bracket is
    /// already no wider than one step — there is nothing left to refine.
    ///
    /// This is the paper's coarse→fine workflow (§5.1): a coarse sweep
    /// locates the bracket, then this sweep pins the switchover down to
    /// `step_ms` resolution.
    pub fn refine_within(last_v6: u64, first_v4: u64, step_ms: u64) -> Option<SweepSpec> {
        if step_ms == 0 || first_v4 <= last_v6 {
            return None;
        }
        let start = last_v6.checked_add(step_ms)?;
        if start >= first_v4 {
            return None;
        }
        Some(SweepSpec::new(start, first_v4 - 1, step_ms))
    }

    /// The number of runs a sweep of `repetitions` per value makes,
    /// counted without materialising the values (saturating): a hostile
    /// sweep is refused before anything is allocated.
    pub fn runs(&self, repetitions: u32) -> u64 {
        let values = match self.step_ms {
            0 => 1,
            step => self
                .end_ms
                .checked_sub(self.start_ms)
                .map_or(0, |span| (span / step).saturating_add(1)),
        };
        values.saturating_mul(repetitions.into())
    }

    /// Materialises the delay values. A zero step (possible only via
    /// deserialized configs, [`SweepSpec::new`] rejects it) yields just the
    /// start value instead of looping forever.
    pub fn values(&self) -> Vec<u64> {
        if self.step_ms == 0 {
            return vec![self.start_ms];
        }
        let mut out = Vec::new();
        let mut v = self.start_ms;
        while v <= self.end_ms {
            out.push(v);
            match v.checked_add(self.step_ms) {
                Some(next) => v = next,
                None => break,
            }
        }
        out
    }
}

/// Connection Attempt Delay case: delay IPv6 on the server side, sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CadCaseConfig {
    /// The sweep of configured IPv6 delays.
    pub sweep: SweepSpec,
    /// Repetitions per delay value (paper: ≥ 20 samples per client).
    pub repetitions: u32,
}

impl Default for CadCaseConfig {
    fn default() -> Self {
        CadCaseConfig {
            sweep: SweepSpec::paper_fine(),
            repetitions: 3,
        }
    }
}

/// Which DNS record type a Resolution Delay case delays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DelayedRecord {
    /// Delay the AAAA answer (the classic RD test).
    Aaaa,
    /// Delay the A answer (the paper's §5.2 stall scenario).
    A,
}

/// Resolution Delay case: delay one record type at the DNS server, sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RdCaseConfig {
    /// Which record type to delay.
    pub delayed: DelayedRecord,
    /// The sweep of DNS answer delays.
    pub sweep: SweepSpec,
    /// Repetitions per delay value.
    pub repetitions: u32,
}

impl Default for RdCaseConfig {
    fn default() -> Self {
        RdCaseConfig {
            delayed: DelayedRecord::Aaaa,
            sweep: SweepSpec::new(0, 400, 25),
            repetitions: 3,
        }
    }
}

/// Address-selection case: N unresponsive addresses per family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectionCaseConfig {
    /// Number of (dead) IPv6 addresses offered.
    pub v6_addresses: usize,
    /// Number of (dead) IPv4 addresses offered.
    pub v4_addresses: usize,
    /// Per-attempt give-up (keeps runs bounded).
    pub attempt_timeout_ms: u64,
}

impl SelectionCaseConfig {
    /// Most dead IPv4 addresses a run can offer: `203.0.113.1` to
    /// `203.0.113.254`.
    pub const MAX_V4_ADDRESSES: usize = 254;
    /// Most dead IPv6 addresses a run can offer: `2001:db8:dead::1` to
    /// `2001:db8:dead::9999` (the index is written into one hextet).
    pub const MAX_V6_ADDRESSES: usize = 9999;

    /// Checks the address counts against what one run can number. The
    /// one check for campaign specs, run provenance and testbed configs.
    pub fn validate(&self) -> Result<(), String> {
        for (field, count, max) in [
            ("v4_addresses", self.v4_addresses, Self::MAX_V4_ADDRESSES),
            ("v6_addresses", self.v6_addresses, Self::MAX_V6_ADDRESSES),
        ] {
            if count > max {
                return Err(format!(
                    "selection.{field} must be at most {max}, got {count}"
                ));
            }
        }
        Ok(())
    }
}

impl Default for SelectionCaseConfig {
    fn default() -> Self {
        // The paper's setup: ten addresses per family, none responding.
        SelectionCaseConfig {
            v6_addresses: 10,
            v4_addresses: 10,
            attempt_timeout_ms: 3000,
        }
    }
}

/// Resolver case: per-delay dedicated zones, shaping on the authoritative
/// server's IPv6 path (§4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolverCaseConfig {
    /// The sweep of IPv6-path delays towards the authoritative NS.
    pub sweep: SweepSpec,
    /// Repetitions per delay value.
    pub repetitions: u32,
}

impl Default for ResolverCaseConfig {
    fn default() -> Self {
        ResolverCaseConfig {
            sweep: SweepSpec::new(0, 1400, 100),
            repetitions: 8,
        }
    }
}

/// A complete testbed configuration (serializable; the framework's single
/// config file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestbedConfig {
    /// Base RNG seed; run `i` of a case uses `seed + i`.
    pub seed: u64,
    /// CAD case, if enabled.
    pub cad: Option<CadCaseConfig>,
    /// RD case, if enabled.
    pub rd: Option<RdCaseConfig>,
    /// Selection case, if enabled.
    pub selection: Option<SelectionCaseConfig>,
    /// Resolver case, if enabled.
    pub resolver: Option<ResolverCaseConfig>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 42,
            cad: Some(CadCaseConfig::default()),
            rd: Some(RdCaseConfig::default()),
            selection: Some(SelectionCaseConfig::default()),
            resolver: Some(ResolverCaseConfig::default()),
        }
    }
}

lazyeye_json::impl_json_struct!(SweepSpec {
    start_ms,
    end_ms,
    step_ms,
});
lazyeye_json::impl_json_struct!(CadCaseConfig { sweep, repetitions });
lazyeye_json::impl_json_unit_enum!(DelayedRecord { Aaaa, A });
lazyeye_json::impl_json_struct!(RdCaseConfig {
    delayed,
    sweep,
    repetitions,
});
lazyeye_json::impl_json_struct!(SelectionCaseConfig {
    v6_addresses,
    v4_addresses,
    attempt_timeout_ms,
});
lazyeye_json::impl_json_struct!(ResolverCaseConfig { sweep, repetitions });
lazyeye_json::impl_json_struct!(TestbedConfig {
    seed,
    cad,
    rd,
    selection,
    resolver,
});

impl TestbedConfig {
    /// Loads a config from JSON and checks it before anything runs:
    /// selection address counts a run can number, and at most
    /// [`lazyeye_exec::MAX_PLANNED_ITEMS`] runs in all.
    pub fn from_json(s: &str) -> Result<TestbedConfig, JsonError> {
        let cfg: TestbedConfig = FromJson::from_json(&Json::parse(s)?)?;
        cfg.validate().map_err(JsonError::new)?;
        Ok(cfg)
    }

    /// The checks of [`TestbedConfig::from_json`]; runs are counted from
    /// the sweep sizes, before any sweep is expanded.
    fn validate(&self) -> Result<(), String> {
        let selection = self.selection.as_ref();
        selection.map_or(Ok(()), SelectionCaseConfig::validate)?;
        let swept = [
            self.cad.as_ref().map(|c| c.sweep.runs(c.repetitions)),
            self.rd.as_ref().map(|c| c.sweep.runs(c.repetitions)),
            self.resolver.as_ref().map(|c| c.sweep.runs(c.repetitions)),
        ];
        let total = swept
            .into_iter()
            .flatten()
            .fold(selection.is_some().into(), u64::saturating_add);
        lazyeye_exec::check_plan_budget(total, "runs")
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_values_inclusive() {
        assert_eq!(SweepSpec::new(0, 20, 5).values(), vec![0, 5, 10, 15, 20]);
        assert_eq!(SweepSpec::new(10, 10, 5).values(), vec![10]);
        assert_eq!(SweepSpec::new(0, 9, 5).values(), vec![0, 5]);
        // `runs` counts the same values without materialising them.
        for sweep in [
            SweepSpec::new(0, 20, 5),
            SweepSpec::new(10, 10, 5),
            SweepSpec::new(0, 9, 5),
            SweepSpec::new(20, 10, 5),
            SweepSpec::new(u64::MAX - 3, u64::MAX, 2),
            SweepSpec {
                start_ms: 3,
                end_ms: 100,
                step_ms: 0,
            },
        ] {
            assert_eq!(sweep.runs(3), 3 * sweep.values().len() as u64, "{sweep:?}");
        }
        assert_eq!(SweepSpec::new(0, u64::MAX, 1).runs(2), u64::MAX);
    }

    #[test]
    fn refine_within_stays_inside_the_bracket() {
        // Coarse bracket (200, 300) at 5 ms: strictly between the ends.
        let sweep = SweepSpec::refine_within(200, 300, 5).unwrap();
        let values = sweep.values();
        assert_eq!(values.first(), Some(&205));
        assert_eq!(values.last(), Some(&295));
        assert!(values.iter().all(|&v| v > 200 && v < 300));

        // A bracket exactly one coarse step wide at the same step: nothing
        // between the ends.
        assert!(SweepSpec::refine_within(200, 205, 5).is_none());
        // Degenerate and inverted brackets refine to nothing.
        assert!(SweepSpec::refine_within(200, 200, 5).is_none());
        assert!(SweepSpec::refine_within(300, 200, 5).is_none());
        assert!(SweepSpec::refine_within(200, 300, 0).is_none());
        // Near-overflow start must not panic.
        assert!(SweepSpec::refine_within(u64::MAX - 2, u64::MAX, 5).is_none());
    }

    #[test]
    fn paper_fine_sweep_has_81_points() {
        // 0..=400 step 5 → 81 configurations, as in §5.1.
        assert_eq!(SweepSpec::paper_fine().values().len(), 81);
    }

    #[test]
    fn hostile_configs_are_refused_before_running() {
        let mut cfg = TestbedConfig::default();
        cfg.selection.as_mut().unwrap().v4_addresses = 300;
        let err = TestbedConfig::from_json(&cfg.to_json()).unwrap_err();
        assert!(
            err.message.contains("v4_addresses must be at most 254"),
            "{err}"
        );
        let mut cfg = TestbedConfig::default();
        cfg.cad.as_mut().unwrap().sweep = SweepSpec::new(0, 1_000_000_000_000, 1);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("over the budget"), "{err}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_step_panics() {
        SweepSpec::new(0, 10, 0);
    }

    #[test]
    fn config_json_roundtrip() {
        let cfg = TestbedConfig::default();
        let json = cfg.to_json();
        let back = TestbedConfig::from_json(&json).unwrap();
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.cad.unwrap().sweep, cfg.cad.unwrap().sweep);
        assert_eq!(back.rd.unwrap().delayed, DelayedRecord::Aaaa);
    }

    #[test]
    fn partial_config_parses() {
        let cfg = TestbedConfig::from_json(
            r#"{"seed": 7, "cad": {"sweep": {"start_ms":0,"end_ms":100,"step_ms":50}, "repetitions": 2},
                "rd": null, "selection": null, "resolver": null}"#,
        )
        .unwrap();
        assert_eq!(cfg.seed, 7);
        assert!(cfg.rd.is_none());
        assert_eq!(cfg.cad.unwrap().sweep.values(), vec![0, 50, 100]);
    }
}
