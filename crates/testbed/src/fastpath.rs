//! Compiled fast path for CAD and RD sweeps.
//!
//! A sweep runs the same statically-known topology dozens of times,
//! varying only one delay parameter. Under the latency-only network
//! model every per-run timing is a pure function of that parameter: the
//! configured IPv6 egress delay adds exactly to the IPv6 handshake
//! duration (CAD case), and the configured answer delay adds exactly to
//! the delayed record's arrival (RD case). So instead of simulating every
//! `(delay, rep)` cell, this module:
//!
//! 1. **calibrates** once — a probe run at delay 0 records the DNS answer
//!    timeline and per-endpoint handshake durations;
//! 2. **models** each cell by shifting the calibrated timeline
//!    analytically;
//! 3. **verifies** the model against full simulation at the sweep
//!    endpoints (byte-comparing the `HeLog` event streams); and
//! 4. **drives** the pure [`HeMachine`](lazyeye_core::HeMachine) over the
//!    modelled timeline via [`lazyeye_core::fastpath::drive`].
//!
//! Any crack in the model — an endpoint verification mismatch, a
//! same-instant tie the analytic driver refuses to order, a cached-path
//! run — falls back to full simulation, per run or for the whole sweep.
//! The fallback discipline is what keeps fast-path results byte-identical
//! to simulated ones rather than merely close.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Duration;

use lazyeye_clients::ClientProfile;
use lazyeye_core::fastpath::{drive, AttemptOutcome, Timeline};
use lazyeye_core::{CandidateProto, HeLog};
use lazyeye_dns::RrType;
use lazyeye_net::Family;
use lazyeye_resolver::{DnsAnswer, StubConfig, StubResolver};
use lazyeye_sim::SimTime;

use crate::cases::{CadCaseConfig, DelayedRecord, RdCaseConfig};
use crate::runner::{
    derive_case_seed, run_cad, run_rd, sweep, CadSample, RdSample, CAD_SEED_TAG, RD_SEED_TAG,
};
use crate::topology::{
    default_local_topology, resolver_addr, server_v4, server_v6, test_domain_topology, www,
    LocalTopology,
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

/// The delays a sweep's model is verified at: both endpoints. The shift
/// model is affine in the delay, so agreeing at the extremes (plus the
/// analytic driver's refusal of every ordering tie in between) covers the
/// interior cells.
pub fn verify_endpoints(sweep_values: &[u64]) -> Vec<u64> {
    let mut v: Vec<u64> = sweep_values
        .first()
        .into_iter()
        .chain(sweep_values.last())
        .copied()
        .collect();
    v.dedup();
    v
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

/// One calibration probe: resolves `qname` through the profile's stub
/// configuration and handshakes each server endpoint once, recording the
/// event [`Timeline`] a delay-0 run exhibits. Runs on a fresh topology so
/// the probe's absolute times are run-relative (the pooled sim starts at
/// virtual zero, like every sweep run).
fn probe(profile: &ClientProfile, topo: &mut LocalTopology, qname: &lazyeye_dns::Name) -> Timeline {
    let host = topo.client.clone();
    let stub = Rc::new(StubResolver::new(host.clone(), stub_config_for(profile)));
    let attempt_timeout = profile.he.attempt_timeout;
    let qname = qname.clone();
    topo.sim.block_on(async move {
        let mut dns: Vec<(SimTime, DnsAnswer)> = Vec::new();
        {
            let mut rx = stub.resolve_streaming(&qname);
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

fn cad_samples_agree(a: &CadSample, b: &CadSample) -> bool {
    a.family == b.family && a.observed_cad_ms == b.observed_cad_ms && a.aaaa_first == b.aaaa_first
}

fn rd_samples_agree(a: &RdSample, b: &RdSample) -> bool {
    a.family == b.family && a.first_attempt_ms == b.first_attempt_ms && a.used_rd == b.used_rd
}

// ---------------------------------------------------------------------------
// CAD fast path
// ---------------------------------------------------------------------------

/// Calibrated analytic model of one client's CAD sweep.
pub struct CadFastPath {
    cfg: lazyeye_core::HeConfig,
    qtypes: Vec<RrType>,
    base: Timeline,
    aaaa_first: Option<bool>,
}

impl CadFastPath {
    /// Calibrates the model for `profile` and verifies it against full
    /// simulation at each `(delay_ms, run_seed)` pair in `verify` —
    /// normally the sweep endpoints at rep 0, under the seeds those runs
    /// really use. Returns `None` — meaning "simulate everything" — on a
    /// QUIC profile or any verification mismatch. `probe_seed` seeds the
    /// calibration topology only; the model itself is seed-free.
    pub fn calibrate(
        profile: &ClientProfile,
        probe_seed: u64,
        verify: &[(u64, u64)],
    ) -> Option<CadFastPath> {
        if profile.he.use_quic {
            note_fallback("quic");
            return None;
        }
        counter("fastpath.calibrations").inc();
        let mut topo = default_local_topology(probe_seed);
        let base = probe(profile, &mut topo, &www());
        let log = topo.auth.query_log();
        let first_aaaa = log.iter().position(|e| e.qtype == RrType::Aaaa);
        let first_a = log.iter().position(|e| e.qtype == RrType::A);
        let aaaa_first = match (first_aaaa, first_a) {
            (Some(x), Some(y)) => Some(x < y),
            _ => None,
        };
        let fp = CadFastPath {
            cfg: profile.he.clone(),
            qtypes: StubConfig::default().qtypes,
            base,
            aaaa_first,
        };
        for &(delay_ms, run_seed) in verify {
            let (actual, _, actual_log) = run_cad(profile, delay_ms, 0, run_seed, &[], None);
            let Ok((predicted, predicted_log)) = fp.run_logged(delay_ms, 0) else {
                return None;
            };
            if predicted_log.events != actual_log.events || !cad_samples_agree(&predicted, &actual)
            {
                return None;
            }
        }
        Some(fp)
    }

    /// One modelled cell: the configured IPv6 egress delay adds to the
    /// IPv6 handshake duration (SYN-ACKs traverse the delayed egress; the
    /// DNS exchange rides IPv4 and is untouched). `None` means this cell
    /// must be simulated.
    pub fn run(&self, delay_ms: u64, rep: u32) -> Option<CadSample> {
        self.run_detailed(delay_ms, rep).ok()
    }

    /// Like [`CadFastPath::run`], but surfaces *why* the model refused —
    /// one of `tie`, `unknown_candidate`, `cached_path` — for the
    /// per-reason fallback counters and the trigger engine.
    pub fn run_detailed(&self, delay_ms: u64, rep: u32) -> Result<CadSample, &'static str> {
        match self.run_logged(delay_ms, rep) {
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

    fn run_logged(&self, delay_ms: u64, rep: u32) -> Result<(CadSample, HeLog), &'static str> {
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

/// [`crate::runner::run_cad_case`] through the fast path: calibrate once,
/// model every cell, simulate only what the model refuses. Produces the
/// exact sample sequence of the simulated sweep.
pub fn run_cad_case_fast(
    profile: &ClientProfile,
    cfg: &CadCaseConfig,
    seed: u64,
) -> Vec<CadSample> {
    let verify: Vec<(u64, u64)> = verify_endpoints(&cfg.sweep.values())
        .into_iter()
        .map(|d| (d, derive_case_seed(seed, CAD_SEED_TAG, d, 0)))
        .collect();
    let fp = CadFastPath::calibrate(profile, seed, &verify);
    sweep(
        "cad",
        CAD_SEED_TAG,
        &cfg.sweep,
        cfg.repetitions,
        seed,
        |d, rep, s| {
            fp.as_ref()
                .and_then(|fp| fp.run(d, rep))
                .unwrap_or_else(|| run_cad(profile, d, rep, s, &[], None).0)
        },
    )
}

// ---------------------------------------------------------------------------
// RD fast path
// ---------------------------------------------------------------------------

/// Calibrated analytic model of one client's Resolution-Delay sweep.
pub struct RdFastPath {
    cfg: lazyeye_core::HeConfig,
    qtypes: Vec<RrType>,
    base: Timeline,
    target: RrType,
}

impl RdFastPath {
    /// Calibrates the model for `profile` with `delayed` record type and
    /// verifies as [`CadFastPath::calibrate`] does.
    pub fn calibrate(
        profile: &ClientProfile,
        delayed: DelayedRecord,
        probe_seed: u64,
        verify: &[(u64, u64)],
    ) -> Option<RdFastPath> {
        if profile.he.use_quic {
            note_fallback("quic");
            return None;
        }
        counter("fastpath.calibrations").inc();
        let target = match delayed {
            DelayedRecord::Aaaa => lazyeye_authns::DelayTarget::Aaaa,
            DelayedRecord::A => lazyeye_authns::DelayTarget::A,
        };
        let mut topo = test_domain_topology(
            probe_seed,
            "rd.test",
            vec!["192.0.2.1".parse().unwrap()],
            vec!["2001:db8::1".parse().unwrap()],
        );
        // Delay-0 probe name; the engine log carries no names, so the
        // calibration nonce never leaks into modelled runs.
        let params = lazyeye_authns::TestParams::delay(0, target, "cal");
        let qname = lazyeye_dns::Name::parse(&format!("{}.rd.test", params.to_label())).unwrap();
        let base = probe(profile, &mut topo, &qname);
        let fp = RdFastPath {
            cfg: profile.he.clone(),
            qtypes: StubConfig::default().qtypes,
            base,
            target: match delayed {
                DelayedRecord::Aaaa => RrType::Aaaa,
                DelayedRecord::A => RrType::A,
            },
        };
        for &(delay_ms, run_seed) in verify {
            let (actual, _, actual_log) =
                run_rd(profile, delayed, delay_ms, 0, run_seed, &[], None);
            let Ok((predicted, predicted_log)) = fp.run_logged(delay_ms, 0) else {
                return None;
            };
            if predicted_log.events != actual_log.events || !rd_samples_agree(&predicted, &actual) {
                return None;
            }
        }
        Some(fp)
    }

    /// One modelled cell: the configured answer delay shifts the delayed
    /// record's arrival; the channel re-sorts by arrival time. A shifted
    /// answer landing at the same instant as an unshifted one makes the
    /// channel order simulator-dependent, so that cell refuses.
    pub fn run(&self, delay_ms: u64, rep: u32) -> Option<RdSample> {
        self.run_detailed(delay_ms, rep).ok()
    }

    /// Like [`RdFastPath::run`], but surfaces the refusal reason; see
    /// [`CadFastPath::run_detailed`].
    pub fn run_detailed(&self, delay_ms: u64, rep: u32) -> Result<RdSample, &'static str> {
        match self.run_logged(delay_ms, rep) {
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

    fn run_logged(&self, delay_ms: u64, rep: u32) -> Result<(RdSample, HeLog), &'static str> {
        let shift = Duration::from_millis(delay_ms);
        let mut entries: Vec<(SimTime, bool, DnsAnswer)> = self
            .base
            .dns
            .iter()
            .map(|(t, ans)| {
                if ans.qtype == self.target {
                    let mut ans = ans.clone();
                    ans.at += shift;
                    (*t + shift, true, ans)
                } else {
                    (*t, false, ans.clone())
                }
            })
            .collect();
        // Stable by time: equally-shifted answers keep their calibrated
        // channel order; a cross-shift tie is ambiguous.
        entries.sort_by_key(|(t, _, _)| *t);
        if entries
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
        {
            return Err("tie");
        }
        let timeline = Timeline {
            dns: entries.into_iter().map(|(t, _, ans)| (t, ans)).collect(),
            connect: self.base.connect.clone(),
        };
        let run = drive(&self.cfg, self.qtypes.clone(), SimTime::ZERO, &timeline)
            .map_err(|r| r.label())?;
        let first_attempt_ms = [Family::V6, Family::V4]
            .iter()
            .filter_map(|f| run.log.first_attempt(*f))
            .min()
            .map(|t| t.as_nanos() as f64 / 1e6);
        let sample = RdSample {
            configured_delay_ms: delay_ms,
            rep,
            family: run.result.as_ref().ok().map(|w| w.family),
            first_attempt_ms,
            used_rd: run.log.used_resolution_delay(),
        };
        Ok((sample, run.log))
    }
}

/// [`crate::runner::run_rd_case`] through the fast path; see
/// [`run_cad_case_fast`].
pub fn run_rd_case_fast(profile: &ClientProfile, cfg: &RdCaseConfig, seed: u64) -> Vec<RdSample> {
    let verify: Vec<(u64, u64)> = verify_endpoints(&cfg.sweep.values())
        .into_iter()
        .map(|d| (d, derive_case_seed(seed, RD_SEED_TAG, d, 0)))
        .collect();
    let fp = RdFastPath::calibrate(profile, cfg.delayed, seed, &verify);
    sweep(
        "rd",
        RD_SEED_TAG,
        &cfg.sweep,
        cfg.repetitions,
        seed,
        |d, rep, s| {
            fp.as_ref()
                .and_then(|fp| fp.run(d, rep))
                .unwrap_or_else(|| run_rd(profile, cfg.delayed, d, rep, s, &[], None).0)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::SweepSpec;
    use crate::runner::{run_cad_case, run_rd_case};
    use lazyeye_clients::table2_clients;

    fn cad_eq(a: &CadSample, b: &CadSample) {
        assert_eq!(a.configured_delay_ms, b.configured_delay_ms);
        assert_eq!(a.rep, b.rep);
        assert!(cad_samples_agree(a, b), "{a:?} vs {b:?}");
    }

    fn rd_eq(a: &RdSample, b: &RdSample) {
        assert_eq!(a.configured_delay_ms, b.configured_delay_ms);
        assert_eq!(a.rep, b.rep);
        assert!(rd_samples_agree(a, b), "{a:?} vs {b:?}");
    }

    #[test]
    fn cad_fast_matches_simulated_sweep() {
        let cfg = CadCaseConfig {
            sweep: SweepSpec {
                start_ms: 0,
                end_ms: 400,
                step_ms: 100,
            },
            repetitions: 2,
        };
        for profile in table2_clients() {
            let slow = run_cad_case(&profile, &cfg, 7);
            let fast = run_cad_case_fast(&profile, &cfg, 7);
            assert_eq!(slow.len(), fast.len());
            for (a, b) in fast.iter().zip(&slow) {
                cad_eq(a, b);
            }
        }
    }

    #[test]
    fn rd_fast_matches_simulated_sweep() {
        let cfg = RdCaseConfig {
            delayed: DelayedRecord::Aaaa,
            sweep: SweepSpec {
                start_ms: 0,
                end_ms: 120,
                step_ms: 40,
            },
            repetitions: 2,
        };
        for profile in table2_clients() {
            let slow = run_rd_case(&profile, &cfg, 11);
            let fast = run_rd_case_fast(&profile, &cfg, 11);
            assert_eq!(slow.len(), fast.len());
            for (a, b) in fast.iter().zip(&slow) {
                rd_eq(a, b);
            }
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
        assert!(CadFastPath::calibrate(&p, 1, &[]).is_none());
        assert_eq!(quic.get(), quic_before + 1, "quic refusal labeled");
        assert_eq!(aggregate.get(), agg_before + 1, "aggregate stays the sum");
    }
}
