//! Differential check of the two `HeMachine` drivers on randomised
//! campaign specs: a fixed-seed generator draws small CAD + RD campaigns
//! (1–3 Table 2 clients, random sweep bounds and step, 1–2 repetitions,
//! one or both delayed records, the baseline plus a random lossy/jitter
//! condition, a random refinement step), and each must report
//! byte-identically whether every run is simulated or the compiled fast
//! path models the CAD runs it can.

use lazy_eye_inspection::campaign::{
    run_campaign, CampaignMatrix, CampaignOptions, CampaignSpec, NetemSpec, RdPlan,
};
use lazy_eye_inspection::clients::{all_measured_clients, table2_clients};
use lazy_eye_inspection::obs::{counter, Clock};
use lazy_eye_inspection::testbed::{CadCaseConfig, DelayedRecord, SweepSpec};

/// SplitMix64: a self-contained, fixed-seed draw sequence.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A sweep of two to four values within 0–400 ms.
    fn sweep(&mut self) -> SweepSpec {
        let step = 10 * (1 + self.below(10));
        let start = 5 * self.below(60);
        SweepSpec::new(start, start + step * (1 + self.below(3)), step)
    }
}

fn random_spec(draws: &mut Draws, index: u64, clients: &[String]) -> CampaignSpec {
    let mut picked: Vec<String> = Vec::new();
    while picked.len() < 1 + draws.below(3) as usize {
        let id = &clients[draws.below(clients.len() as u64) as usize];
        if !picked.contains(id) {
            picked.push(id.clone());
        }
    }
    let records = match draws.below(3) {
        0 => vec![DelayedRecord::Aaaa],
        1 => vec![DelayedRecord::A],
        _ => vec![DelayedRecord::Aaaa, DelayedRecord::A],
    };
    let shaped = NetemSpec {
        label: "shaped".into(),
        loss_pct: draws.below(15) as f64,
        jitter_ms: draws.below(20),
        duplicate_pct: 0.0,
    };
    CampaignSpec {
        name: format!("differential-{index}"),
        seed: draws.next(),
        clients: picked,
        resolvers: Vec::new(),
        netem: vec![NetemSpec::baseline(), shaped],
        cad: Some(CadCaseConfig {
            sweep: draws.sweep(),
            repetitions: 1 + draws.below(2) as u32,
        }),
        rd: Some(RdPlan {
            records,
            sweep: draws.sweep(),
            repetitions: 1 + draws.below(2) as u32,
        }),
        selection: None,
        resolver: None,
        refine_step_ms: Some(5 * (1 + draws.below(4))),
    }
}

#[test]
fn fast_path_reports_match_simulation_on_random_specs() {
    let measured: Vec<String> = all_measured_clients().iter().map(|c| c.id()).collect();
    let clients: Vec<String> = table2_clients()
        .iter()
        .map(|c| c.id())
        .filter(|id| measured.contains(id))
        .collect();
    let fast = CampaignOptions {
        fast_path: true,
        classify: false,
    };
    let fast_runs = counter("fastpath.runs", Clock::Virtual);
    let before = fast_runs.get();
    let mut draws = Draws(0x1A2E_7E5E);
    for index in 0..16 {
        let spec = random_spec(&mut draws, index, &clients);
        let simulated = run_campaign(&spec, 2, |_, _| {}).unwrap();
        let modelled =
            lazy_eye_inspection::exec::run::<CampaignMatrix>(&spec, 2, &fast, |_, _| {}).unwrap();
        assert_eq!(
            simulated.to_json(),
            modelled.to_json(),
            "JSON differs for {}",
            spec.to_json()
        );
        assert_eq!(
            simulated.to_csv(),
            modelled.to_csv(),
            "CSV differs for {}",
            spec.to_json()
        );
    }
    assert!(fast_runs.get() > before, "the fast path modelled no run");
}
