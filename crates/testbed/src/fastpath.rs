//! Compiled fast path for CAD sweeps.
//!
//! A CAD sweep runs the same statically-known topology dozens of times,
//! varying only the configured IPv6 egress delay. Under the latency-only
//! network model every per-run timing is a pure function of that delay:
//! it adds exactly to the IPv6 handshake duration. So instead of
//! simulating every `(delay, rep)` cell, one [`FastPath`] model per
//! client:
//!
//! 1. **calibrates** once — a probe run at delay 0 records the DNS answer
//!    timeline and per-endpoint handshake durations;
//! 2. **models** each cell by shifting the calibrated IPv6 handshake
//!    analytically;
//! 3. **verifies** the model against full simulation at the sweep
//!    endpoints (byte-comparing the `HeLog` event streams and the
//!    samples); and
//! 4. **drives** the pure [`HeMachine`](lazyeye_core::HeMachine) over the
//!    modelled timeline via [`lazyeye_core::fastpath::drive`].
//!
//! Any crack in the model — an endpoint verification mismatch, a
//! same-instant tie the analytic driver refuses to order, a cached-path
//! run, a QUIC profile — is a refusal: the caller (the campaign
//! executor's `FastCache`) simulates that run, or the whole cell, in
//! full. The refusal discipline is what keeps fast-path results
//! byte-identical to simulated ones rather than merely close.
//!
//! RD sweeps always simulate: the measured ones start at 0 ms, where both
//! answers arrive at one instant — a tie the analytic driver cannot
//! order — so an RD model failed endpoint verification on every
//! checked-in spec and only cost a probe and an endpoint simulation per
//! cell.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Duration;

use lazyeye_clients::ClientProfile;
use lazyeye_core::fastpath::{drive, AttemptOutcome, Timeline};
use lazyeye_core::{CandidateProto, HeConfig, HeLog};
use lazyeye_dns::RrType;
use lazyeye_resolver::{DnsAnswer, StubConfig, StubResolver};
use lazyeye_sim::SimTime;

use crate::runner::{aaaa_before_a, run_cad, CadSample};
use crate::topology::{
    default_local_topology, resolver_addr, server_v4, server_v6, www, LocalTopology,
};

fn counter(name: &'static str) -> &'static lazyeye_obs::Counter {
    lazyeye_obs::counter(name, lazyeye_obs::Clock::Virtual)
}

/// Books one fallback: the aggregate `fastpath.fallbacks` stays the sum
/// of the per-reason `fastpath.fallbacks{reason=..}` breakdown.
fn note_fallback(reason: &'static str) {
    counter("fastpath.fallbacks").inc();
    lazyeye_obs::counter_labeled(
        "fastpath.fallbacks",
        "reason",
        reason,
        lazyeye_obs::Clock::Virtual,
    )
    .inc();
}

/// Replicates [`lazyeye_clients::Client`]'s stub configuration for a
/// non-QUIC profile (the fast path refuses QUIC profiles before this is
/// called — their HTTPS-record flow adds a query the model doesn't carry,
/// and QUIC handshakes are invisible to the SYN-based pcap estimators).
fn stub_config_for(profile: &ClientProfile) -> StubConfig {
    let mut cfg = StubConfig {
        servers: vec![resolver_addr()],
        ..StubConfig::default()
    };
    cfg.order = profile.stub_order;
    cfg
}

/// One calibration probe: resolves the web server's name through the
/// profile's stub configuration and handshakes each server endpoint once, recording the
/// event [`Timeline`] a delay-0 run exhibits. Runs on a fresh topology so
/// the probe's absolute times are run-relative (the pooled sim starts at
/// virtual zero, like every sweep run).
fn probe(profile: &ClientProfile, topo: &mut LocalTopology) -> Timeline {
    let host = topo.client.clone();
    let stub = Rc::new(StubResolver::new(host.clone(), stub_config_for(profile)));
    let attempt_timeout = profile.he.attempt_timeout;
    topo.sim.block_on(async move {
        let mut dns: Vec<(SimTime, DnsAnswer)> = Vec::new();
        {
            let mut rx = stub.resolve_streaming(&www());
            while let Some(ans) = rx.recv().await {
                dns.push((lazyeye_sim::now(), ans));
            }
        }
        let mut connect = HashMap::new();
        for addr in [server_v6(), server_v4()] {
            let t0 = lazyeye_sim::now();
            let dst = SocketAddr::new(addr, 80);
            let outcome = match lazyeye_sim::timeout(attempt_timeout, host.tcp_connect(dst)).await {
                Ok(Ok(_stream)) => AttemptOutcome {
                    duration: lazyeye_sim::now() - t0,
                    result: Ok(()),
                },
                Ok(Err(e)) => AttemptOutcome {
                    duration: lazyeye_sim::now() - t0,
                    result: Err(e.label()),
                },
                // Past the timeout the exact duration is unobservable and
                // irrelevant; anything beyond it makes the driver time out.
                Err(lazyeye_sim::Elapsed) => AttemptOutcome {
                    duration: attempt_timeout + Duration::from_nanos(1),
                    result: Err("timeout"),
                },
            };
            connect.insert((addr, CandidateProto::Tcp), outcome);
        }
        Timeline { dns, connect }
    })
}

/// Calibrated analytic model of one client's CAD sweep.
pub struct FastPath {
    cfg: HeConfig,
    qtypes: Vec<RrType>,
    base: Timeline,
    aaaa_first: Option<bool>,
}

impl FastPath {
    /// Calibrates the model of `profile`'s CAD sweep and verifies it
    /// against full simulation at each `(delay_ms, run_seed)` pair in
    /// `verify` — normally the sweep endpoints at rep 0, under the seeds
    /// those runs really use. Returns `None` — meaning "simulate
    /// everything" — on a QUIC profile or any verification mismatch.
    /// `probe_seed` seeds the calibration topology only; the model itself
    /// is seed-free.
    pub fn calibrate(
        profile: &ClientProfile,
        probe_seed: u64,
        verify: &[(u64, u64)],
    ) -> Option<FastPath> {
        if profile.he.use_quic {
            note_fallback("quic");
            return None;
        }
        counter("fastpath.calibrations").inc();
        let mut topo = default_local_topology(probe_seed);
        let base = probe(profile, &mut topo);
        // The DNS exchange rides IPv4, untouched by the swept delay, so
        // the probe's query wire order holds for every cell.
        let fp = FastPath {
            cfg: profile.he.clone(),
            qtypes: StubConfig::default().qtypes,
            base,
            aaaa_first: aaaa_before_a(&topo.auth.query_log()),
        };
        for &(delay_ms, run_seed) in verify {
            let (actual, _, actual_log) = run_cad(profile, delay_ms, 0, run_seed, &[], None);
            let Ok((predicted, predicted_log)) = fp.model(delay_ms, 0) else {
                return None;
            };
            if predicted_log.events != actual_log.events || predicted != actual {
                return None;
            }
        }
        Some(fp)
    }

    /// One modelled cell, counted as a fast run; `Err` names why the
    /// model refused — `tie`, `unknown_candidate` or `cached_path` — and
    /// counts it as a fallback: the caller simulates the run instead.
    pub fn run(&self, delay_ms: u64, rep: u32) -> Result<CadSample, &'static str> {
        match self.model(delay_ms, rep) {
            Ok((sample, _)) => {
                counter("fastpath.runs").inc();
                Ok(sample)
            }
            Err(reason) => {
                note_fallback(reason);
                Err(reason)
            }
        }
    }

    fn model(&self, delay_ms: u64, rep: u32) -> Result<(CadSample, HeLog), &'static str> {
        let mut timeline = self.base.clone();
        timeline
            .connect
            .get_mut(&(server_v6(), CandidateProto::Tcp))
            .ok_or("unknown_candidate")?
            .duration += Duration::from_millis(delay_ms);
        let run = drive(&self.cfg, self.qtypes.clone(), SimTime::ZERO, &timeline)
            .map_err(|r| r.label())?;
        let sample = CadSample {
            configured_delay_ms: delay_ms,
            rep,
            family: run.result.as_ref().ok().map(|w| w.family),
            observed_cad_ms: run.log.observed_cad().map(|d| d.as_secs_f64() * 1000.0),
            aaaa_first: self.aaaa_first,
        };
        Ok((sample, run.log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::SweepSpec;
    use crate::runner::{derive_case_seed, sweep, CAD_SEED_TAG};
    use lazyeye_clients::table2_clients;

    /// Calibrates each Table 2 client's model, verified at the sweep
    /// endpoints as a campaign does, and checks every cell the model
    /// serves against its full simulation. Returns how many cells the
    /// models served.
    fn modelled_cells_match_simulation(grid: SweepSpec, seed: u64) -> usize {
        let values = grid.values();
        let mut verify: Vec<(u64, u64)> = [values[0], values[values.len() - 1]]
            .into_iter()
            .map(|d| (d, derive_case_seed(seed, CAD_SEED_TAG, d, 0)))
            .collect();
        verify.dedup();
        let mut modelled = 0;
        for profile in table2_clients() {
            let Some(fp) = FastPath::calibrate(&profile, seed, &verify) else {
                continue;
            };
            sweep("cad", CAD_SEED_TAG, &grid, 2, seed, |d, rep, s| {
                if let Ok(sample) = fp.run(d, rep) {
                    let (simulated, _, _) = run_cad(&profile, d, rep, s, &[], None);
                    assert_eq!(sample, simulated, "{} at {d} ms rep {rep}", profile.id());
                    modelled += 1;
                }
            });
        }
        modelled
    }

    #[test]
    fn cad_fast_matches_simulated_sweep() {
        for grid in [SweepSpec::new(0, 400, 100), SweepSpec::new(0, 360, 90)] {
            let modelled = modelled_cells_match_simulation(grid, 7);
            assert!(modelled > 0, "no CAD cell was modelled on {grid:?}");
        }
    }

    #[test]
    fn quic_profile_refuses_calibration() {
        // No shipped profile races QUIC by default; flip the knob on one.
        let mut p = table2_clients().remove(0);
        p.he.use_quic = true;
        let aggregate = counter("fastpath.fallbacks");
        let quic = lazyeye_obs::counter_labeled(
            "fastpath.fallbacks",
            "reason",
            "quic",
            lazyeye_obs::Clock::Virtual,
        );
        let (agg_before, quic_before) = (aggregate.get(), quic.get());
        assert!(FastPath::calibrate(&p, 1, &[]).is_none());
        // Only this test refuses on `quic`; concurrent tests may book
        // other fallbacks on the aggregate meanwhile.
        assert_eq!(quic.get(), quic_before + 1, "quic refusal labeled");
        assert!(aggregate.get() > agg_before, "aggregate counts it");
    }
}
