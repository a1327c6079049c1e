//! The benchmark's workloads: each is a spec generated from the seed.
//!
//! The seed only becomes the spec's own `seed`, so every seed runs the
//! same shape (same run or session count, same mix of kinds) through
//! different per-run randomness. The program under test sees only the
//! generated spec.

use lazyeye_campaign::{CampaignSpec, NetemSpec, RdPlan, SelectionPlan};
use lazyeye_fleet::{FleetCondition, FleetSpec};
use lazyeye_testbed::{CadCaseConfig, DelayedRecord, ResolverCaseConfig, SweepSpec};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The scaled Table-2 CAD campaign, classified.
    CadSweep,
    /// The Table-5 web-tool fleet with delayed-A sessions.
    FleetWebtool,
    /// Resolver, RD and selection cases under loss.
    ResolverMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CadSweep,
        Workload::FleetWebtool,
        Workload::ResolverMix,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CadSweep => "cad-sweep",
            Workload::FleetWebtool => "fleet-webtool",
            Workload::ResolverMix => "resolver-mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The program input for `seed`.
    pub fn target(self, seed: u64) -> Target {
        match self {
            Workload::CadSweep => Target::Campaign(cad_sweep(seed)),
            Workload::FleetWebtool => Target::Fleet(fleet_webtool(seed)),
            Workload::ResolverMix => Target::Campaign(resolver_mix(seed)),
        }
    }
}

/// What a workload feeds the program. Campaigns always run with
/// `--classify`, so the inference layer is on the measured path.
#[derive(Clone, Debug)]
pub enum Target {
    /// A campaign spec (`lazyeye campaign --config <spec> --classify`).
    Campaign(CampaignSpec),
    /// A fleet spec (`lazyeye fleet --spec <spec>`).
    Fleet(FleetSpec),
}

impl Target {
    /// The spec as the CLI reads it.
    pub fn spec_json(&self) -> String {
        match self {
            Target::Campaign(spec) => spec.to_json(),
            Target::Fleet(spec) => spec.to_json(),
        }
    }
}

fn baseline_and_lossy() -> Vec<NetemSpec> {
    vec![
        NetemSpec::baseline(),
        NetemSpec {
            label: "lossy".to_string(),
            loss_pct: 10.0,
            jitter_ms: 20,
            duplicate_pct: 0.0,
        },
    ]
}

/// Every client, CAD 0–400 ms in 5 ms steps × 20 reps, baseline + lossy,
/// refined at 1 ms: 79,120 cheap runs, so per-run fixed cost, the
/// executor's serial share and the pass-1/refine barrier dominate.
fn cad_sweep(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "cad-sweep".to_string(),
        seed,
        clients: Vec::new(),
        resolvers: Vec::new(),
        netem: baseline_and_lossy(),
        cad: Some(CadCaseConfig {
            sweep: SweepSpec::new(0, 400, 5),
            repetitions: 20,
        }),
        rd: None,
        selection: None,
        resolver: None,
        refine_step_ms: Some(1),
    }
}

/// Every resolver profile (0–1600 ms in 50 ms steps × 20 reps) plus RD
/// and selection for one Chromium and one WebKit client, baseline +
/// lossy: many short UDP DNS exchanges with loss-driven retries, no CAD.
fn resolver_mix(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "resolver-mix".to_string(),
        seed,
        clients: vec!["chrome-130.0".to_string(), "safari-17.6".to_string()],
        resolvers: Vec::new(),
        netem: baseline_and_lossy(),
        cad: None,
        rd: Some(RdPlan {
            records: vec![DelayedRecord::Aaaa, DelayedRecord::A],
            sweep: SweepSpec::new(0, 400, 25),
            repetitions: 10,
        }),
        selection: Some(SelectionPlan {
            repetitions: 20,
            ..SelectionPlan::default()
        }),
        resolver: Some(ResolverCaseConfig {
            sweep: SweepSpec::new(0, 1600, 50),
            repetitions: 20,
        }),
        refine_step_ms: Some(1),
    }
}

/// The Table-5 population under `home` and `dsl`, with 4 CAD, 2 RD and
/// 1 delayed-A session per member: few, heavy sessions whose cost is
/// the per-packet task/timer path.
fn fleet_webtool(seed: u64) -> FleetSpec {
    FleetSpec {
        name: "fleet-webtool".to_string(),
        seed,
        population: Vec::new(),
        cad_sessions: 4,
        rd_sessions: 2,
        rd_a_sessions: 1,
        repetitions: 3,
        resolver_checks: 2,
        conditions: vec![
            FleetCondition {
                label: "home".to_string(),
                base_delay_ms: 8,
                jitter_ms: 3,
            },
            FleetCondition {
                label: "dsl".to_string(),
                base_delay_ms: 15,
                jitter_ms: 5,
            },
        ],
    }
}
