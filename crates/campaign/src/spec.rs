//! Declarative campaign specifications: the full measurement matrix
//! — {clients × sweeps × netem conditions × resolver profiles ×
//! repetitions} — as one JSON-serializable value.

use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::{Netem, NetemRule};
use lazyeye_testbed::{
    CadCaseConfig, DelayedRecord, ResolverCaseConfig, SelectionCaseConfig, SweepSpec,
};
use std::time::Duration;

/// An additional path condition applied (on top of the configured IPv6
/// delay) to the server egress during CAD runs — the campaign analogue of
/// extra `tc-netem` knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct NetemSpec {
    /// Condition name, used as the cell axis in reports.
    pub label: String,
    /// Handshake-packet loss probability in percent (both families).
    pub loss_pct: f64,
    /// Uniform jitter added to every packet (ms).
    pub jitter_ms: u64,
    /// Packet duplication probability in percent.
    pub duplicate_pct: f64,
}

lazyeye_json::impl_json_struct!(NetemSpec {
    label,
    loss_pct,
    jitter_ms,
    duplicate_pct,
});

impl NetemSpec {
    /// The unshaped path (the paper's local testbed default).
    pub fn baseline() -> NetemSpec {
        NetemSpec {
            label: "baseline".to_string(),
            loss_pct: 0.0,
            jitter_ms: 0,
            duplicate_pct: 0.0,
        }
    }

    /// `true` when the condition adds nothing beyond the delay sweep.
    pub fn is_baseline(&self) -> bool {
        self.loss_pct == 0.0 && self.jitter_ms == 0 && self.duplicate_pct == 0.0
    }

    /// Materialises the condition as netem rules for the server egress.
    pub fn rules(&self) -> Vec<NetemRule> {
        if self.is_baseline() {
            return Vec::new();
        }
        let effect = Netem::default()
            .with_loss(self.loss_pct / 100.0)
            .with_jitter(Duration::from_millis(self.jitter_ms))
            .with_duplicate(self.duplicate_pct / 100.0);
        vec![NetemRule::all(effect)]
    }
}

/// The campaign's Resolution-Delay block: which record types to delay,
/// over which DNS answer delays, how often.
#[derive(Clone, Debug, PartialEq)]
pub struct RdPlan {
    /// Record types to delay (each is its own cell axis value).
    pub records: Vec<DelayedRecord>,
    /// DNS answer delay sweep.
    pub sweep: SweepSpec,
    /// Repetitions per (record, delay).
    pub repetitions: u32,
}

lazyeye_json::impl_json_struct!(RdPlan {
    records,
    sweep,
    repetitions,
});

/// The campaign's address-selection block.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectionPlan {
    /// Number of (dead) IPv6 addresses offered.
    pub v6_addresses: usize,
    /// Number of (dead) IPv4 addresses offered.
    pub v4_addresses: usize,
    /// Per-attempt give-up (ms).
    pub attempt_timeout_ms: u64,
    /// Repetitions per client.
    pub repetitions: u32,
}

lazyeye_json::impl_json_struct!(SelectionPlan {
    v6_addresses,
    v4_addresses,
    attempt_timeout_ms,
    repetitions,
});

impl SelectionPlan {
    /// The testbed case one run of this plan executes.
    pub(crate) fn case_config(&self) -> SelectionCaseConfig {
        SelectionCaseConfig {
            v6_addresses: self.v6_addresses,
            v4_addresses: self.v4_addresses,
            attempt_timeout_ms: self.attempt_timeout_ms,
        }
    }
}

impl Default for SelectionPlan {
    fn default() -> SelectionPlan {
        SelectionPlan {
            v6_addresses: 10,
            v4_addresses: 10,
            attempt_timeout_ms: 3000,
            repetitions: 2,
        }
    }
}

/// A complete campaign: the declarative form of "re-measure the paper".
///
/// Empty `clients` means every locally measurable client profile; empty
/// `resolvers` means every resolver profile; empty `netem` means the
/// baseline condition only. Disable a whole case family by setting its
/// block to `null`.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (report metadata).
    pub name: String,
    /// Campaign seed: every run's seed derives deterministically from it.
    pub seed: u64,
    /// Client profile ids (`lazyeye clients`); empty = all.
    pub clients: Vec<String>,
    /// Resolver profile names (`lazyeye resolvers`); empty = all.
    pub resolvers: Vec<String>,
    /// Path conditions for CAD cells; empty = baseline only.
    pub netem: Vec<NetemSpec>,
    /// CAD block (clients × netem × sweep × reps), if enabled.
    pub cad: Option<CadCaseConfig>,
    /// RD block (clients × records × sweep × reps), if enabled.
    pub rd: Option<RdPlan>,
    /// Selection block (clients × reps), if enabled.
    pub selection: Option<SelectionPlan>,
    /// Resolver block (resolvers × sweep × reps), if enabled.
    pub resolver: Option<ResolverCaseConfig>,
    /// Step of the second, fine sweep scheduled inside every detected
    /// CAD/RD switchover bracket (ms) — the paper's coarse→fine workflow
    /// (§5.1). `None` (or absent in JSON) disables the refinement pass.
    pub refine_step_ms: Option<u64>,
}

lazyeye_json::impl_json_struct!(CampaignSpec {
    name,
    seed,
    clients,
    resolvers,
    netem,
    cad,
    rd,
    selection,
    resolver,
    refine_step_ms,
});

impl Default for CampaignSpec {
    /// The default campaign: five representative clients across all four
    /// case families plus every resolver profile — a ≥700-run matrix
    /// reproducing the paper's headline numbers in one invocation.
    fn default() -> CampaignSpec {
        CampaignSpec {
            name: "default".to_string(),
            seed: 42,
            clients: vec![
                "chrome-130.0".to_string(),
                "firefox-132.0".to_string(),
                "curl-7.88.1".to_string(),
                "wget-1.21.3".to_string(),
                "safari-17.6".to_string(),
            ],
            resolvers: Vec::new(),
            netem: vec![NetemSpec::baseline()],
            cad: Some(CadCaseConfig {
                sweep: SweepSpec::new(0, 400, 20),
                repetitions: 3,
            }),
            rd: Some(RdPlan {
                records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
                sweep: SweepSpec::new(0, 400, 100),
                repetitions: 2,
            }),
            selection: Some(SelectionPlan::default()),
            resolver: Some(ResolverCaseConfig {
                sweep: SweepSpec::new(0, 800, 200),
                repetitions: 2,
            }),
            refine_step_ms: Some(5),
        }
    }
}

impl CampaignSpec {
    /// Loads a spec from JSON.
    pub fn from_json(s: &str) -> Result<CampaignSpec, JsonError> {
        FromJson::from_json(&Json::parse(s)?)
    }

    /// Serialises the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_roundtrip() {
        let spec = CampaignSpec::default();
        let text = spec.to_json();
        let back = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn missing_blocks_parse_as_disabled() {
        let spec = CampaignSpec::from_json(
            r#"{"name": "mini", "seed": 7, "clients": ["curl-7.88.1"], "resolvers": [],
                "netem": [], "cad": {"sweep": {"start_ms":0,"end_ms":100,"step_ms":50},
                "repetitions": 1}}"#,
        )
        .unwrap();
        assert!(spec.rd.is_none() && spec.selection.is_none() && spec.resolver.is_none());
        assert!(
            spec.refine_step_ms.is_none(),
            "absent refine_step_ms = single-pass campaign"
        );
        assert_eq!(spec.cad.unwrap().sweep.values(), vec![0, 50, 100]);
    }

    #[test]
    fn netem_rules_only_for_shaped_conditions() {
        assert!(NetemSpec::baseline().rules().is_empty());
        let lossy = NetemSpec {
            label: "lossy".into(),
            loss_pct: 10.0,
            jitter_ms: 5,
            duplicate_pct: 0.0,
        };
        let rules = lossy.rules();
        assert_eq!(rules.len(), 1);
        assert!((rules[0].effect.loss - 0.10).abs() < 1e-12);
        assert_eq!(rules[0].effect.jitter, Duration::from_millis(5));
    }
}
