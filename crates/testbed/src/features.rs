//! The Table 2 feature matrix: evaluates one client profile's Happy
//! Eyeballs features through black-box testbed runs.

use lazyeye_clients::ClientProfile;
use lazyeye_net::Family;

use crate::cases::{CadCaseConfig, DelayedRecord, RdCaseConfig, SelectionCaseConfig, SweepSpec};
use crate::runner::{
    aaaa_before_a, run_cad_case, run_rd_case, run_selection_case, summarize_cad, summarize_rd,
};
use crate::topology::{default_local_topology, resolver_addr, www};

/// One row of the Table 2 feature matrix.
#[derive(Clone, Debug)]
pub struct FeatureRow {
    /// Client label ("Chrome 130.0").
    pub client: String,
    /// Prefers IPv6 on a healthy dual-stack path.
    pub prefers_v6: bool,
    /// Implements a Connection Attempt Delay (falls back when v6 is slow).
    pub cad_impl: bool,
    /// Sends the AAAA query before the A query.
    pub aaaa_first: bool,
    /// Implements the Resolution Delay.
    pub rd_impl: bool,
    /// Distinct IPv4 addresses attempted in the selection test ("-" when
    /// none).
    pub v4_addrs_used: usize,
    /// Distinct IPv6 addresses attempted.
    pub v6_addrs_used: usize,
    /// Shows real address selection (goes beyond one address per family).
    pub addr_selection: bool,
}

impl FeatureRow {
    /// Renders a cell: `•` observed / `◦` not observed (ASCII variants).
    pub fn mark(v: bool) -> &'static str {
        if v {
            "yes"
        } else {
            "no"
        }
    }
}

/// Evaluates all Table 2 features for one client profile.
pub fn evaluate_client_features(profile: &ClientProfile, seed: u64) -> FeatureRow {
    // (1) Prefers IPv6: healthy dual-stack run.
    let mut topo = default_local_topology(seed);
    let client =
        lazyeye_clients::Client::new(profile.clone(), topo.client.clone(), vec![resolver_addr()]);
    let auth = topo.auth.clone();
    let healthy = topo
        .sim
        .block_on(async move { client.connect_only(&www(), 80).await });
    let prefers_v6 = healthy.connection.as_ref().ok().map(|c| c.family()) == Some(Family::V6);

    // (2) AAAA first: wire order at the DNS server.
    let aaaa_first = aaaa_before_a(&auth.query_log()) == Some(true);

    // (3) CAD: does a large IPv6 delay provoke IPv4 fallback?
    let cad_cfg = CadCaseConfig {
        sweep: SweepSpec::new(6000, 6000, 1),
        repetitions: 1,
    };
    let cad = summarize_cad(&run_cad_case(profile, &cad_cfg, seed + 1));
    let cad_impl = cad.implements_cad;

    // (4) RD: delayed AAAA — does the client arm a resolution-delay timer?
    let rd_cfg = RdCaseConfig {
        delayed: DelayedRecord::Aaaa,
        sweep: SweepSpec::new(400, 400, 1),
        repetitions: 1,
    };
    let rd = summarize_rd(&run_rd_case(profile, &rd_cfg, seed + 2));
    let rd_impl = rd.implements_rd;

    // (5) Address selection: 10 + 10 dead addresses.
    let sel = run_selection_case(profile, &SelectionCaseConfig::default(), seed + 3);

    FeatureRow {
        client: format!("{} {}", profile.name, profile.version),
        prefers_v6,
        cad_impl,
        aaaa_first,
        rd_impl,
        v4_addrs_used: sel.v4_used,
        v6_addrs_used: sel.v6_used,
        addr_selection: sel.v6_used > 1 || sel.v4_used > 1,
    }
}
