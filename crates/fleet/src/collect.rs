//! Server-side ingestion: the collector streams session submissions into
//! per-(member, case) Figure-4 grid aggregates.
//!
//! This is the point of the fleet's scale story: sessions are folded the
//! moment they arrive and **raw sessions are never retained** — the
//! collector's memory is `O(population × tiers)`, not `O(sessions)`, so
//! the same aggregates work for 10 sessions or 10 million.
//!
//! Determinism: the collector is a pure fold. The fleet feeds it session
//! outputs in session-index order (the executor returns them that way
//! whatever the worker count), so every downstream rendering is
//! byte-identical across `--jobs` and shard/merge.

use lazyeye_net::strip::Cell;
use lazyeye_net::Family;
use lazyeye_webtool::WebSessionResult;

use crate::plan::SessionKind;
use crate::session::SessionOutput;
use lazyeye_webtool::ResolverStack;

/// Aggregated per-tier counts across every ingested session.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TierCell {
    /// Configured tier delay (ms).
    pub delay_ms: u64,
    /// Fetches answered from the IPv6 address.
    pub v6: u64,
    /// Fetches answered from the IPv4 address.
    pub v4: u64,
    /// Failed fetches.
    pub failed: u64,
    /// Sessions whose repetitions disagreed within this tier.
    pub mixed_sessions: u64,
}

lazyeye_json::impl_json_struct!(TierCell {
    delay_ms,
    v6,
    v4,
    failed,
    mixed_sessions,
});

impl TierCell {
    /// Majority family over all counted fetches (ties go to IPv6, like
    /// the per-session majority).
    pub fn majority(&self) -> Option<Family> {
        match (self.v6, self.v4) {
            (0, 0) => None,
            (a, b) if a >= b => Some(Family::V6),
            _ => Some(Family::V4),
        }
    }

    /// The Figure-4 grid character of this cell: a clean tier's family
    /// strip character (`6`/`4`, or `x` when every fetch failed), `m` for
    /// mixed outcomes, `.` for no data.
    pub fn grid_char(&self) -> char {
        match (self.v6, self.v4, self.failed) {
            (0, 0, 0) => '.',
            (v6, 0, _) => (v6 > 0).then_some(Family::V6).to_char(),
            (0, _, _) => Family::V4.to_char(),
            _ => 'm',
        }
    }
}

/// Keeping majority-IPv6 past this answer delay, with fetch times
/// tracking the delay, means the client stalled waiting for the answer
/// instead of arming an RD (§5.2).
pub const RD_STALL_MIN_MS: u64 = 2000;

/// The streamed aggregate of one case family (CAD or RD sessions) for
/// one member.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaseAggregate {
    /// Sessions folded in.
    pub sessions: u64,
    /// Per-tier counts (ascending delay; built from the first session).
    pub tiers: Vec<TierCell>,
    /// Smallest per-session `last majority-IPv6 delay` seen.
    pub min_last_v6: Option<u64>,
    /// Largest per-session `last majority-IPv6 delay` seen.
    pub max_last_v6: Option<u64>,
    /// Smallest per-session `first majority-IPv4 delay` seen.
    pub min_first_v4: Option<u64>,
    /// Largest per-session `first majority-IPv4 delay` seen.
    pub max_first_v4: Option<u64>,
    /// Total mixed tiers across all sessions.
    pub mixed_tiers: u64,
    /// Sessions whose fetch **timing** exposed the §5.2
    /// wait-for-all-answers stall: some tier at or past
    /// [`RD_STALL_MIN_MS`] took ≈ its configured delay to fetch. Family
    /// grids cannot show this — a stalled client still connects over
    /// IPv6 once the withheld answer arrives.
    pub stall_sessions: u64,
}

lazyeye_json::impl_json_struct!(CaseAggregate {
    sessions,
    tiers,
    min_last_v6,
    max_last_v6,
    min_first_v4,
    max_first_v4,
    mixed_tiers,
    stall_sessions,
});

fn fold_min(slot: &mut Option<u64>, v: Option<u64>) {
    if let Some(v) = v {
        *slot = Some(slot.map_or(v, |s| s.min(v)));
    }
}

fn fold_max(slot: &mut Option<u64>, v: Option<u64>) {
    if let Some(v) = v {
        *slot = Some(slot.map_or(v, |s| s.max(v)));
    }
}

impl CaseAggregate {
    /// Folds one session's result in (and forgets it).
    pub fn ingest(&mut self, result: &WebSessionResult) {
        if self.tiers.is_empty() {
            self.tiers = result
                .tiers
                .iter()
                .map(|t| TierCell {
                    delay_ms: t.delay_ms,
                    ..TierCell::default()
                })
                .collect();
        }
        for (cell, obs) in self.tiers.iter_mut().zip(&result.tiers) {
            debug_assert_eq!(cell.delay_ms, obs.delay_ms, "tier grids must align");
            for family in &obs.families {
                match family {
                    Some(Family::V6) => cell.v6 += 1,
                    Some(Family::V4) => cell.v4 += 1,
                    None => cell.failed += 1,
                }
            }
            if obs.is_mixed() {
                cell.mixed_sessions += 1;
            }
        }
        let (last_v6, first_v4) = result.cad_interval();
        fold_min(&mut self.min_last_v6, last_v6);
        fold_max(&mut self.max_last_v6, last_v6);
        fold_min(&mut self.min_first_v4, first_v4);
        fold_max(&mut self.max_first_v4, first_v4);
        self.mixed_tiers += result.mixed_tiers() as u64;
        let stalled = result.tiers.iter().any(|t| {
            t.delay_ms >= RD_STALL_MIN_MS && t.max_fetch_us() >= t.delay_ms.saturating_mul(900)
        });
        if stalled {
            self.stall_sessions += 1;
        }
        self.sessions += 1;
    }

    /// The aggregate switchover interval: `(last majority-IPv6 delay,
    /// first majority-IPv4 delay]` over the folded counts — the member's
    /// App. Figure 4 bracket.
    pub fn bracket(&self) -> (Option<u64>, Option<u64>) {
        let last_v6 = self
            .tiers
            .iter()
            .filter(|t| t.majority() == Some(Family::V6))
            .map(|t| t.delay_ms)
            .max();
        let first_v4 = self
            .tiers
            .iter()
            .filter(|t| t.majority() == Some(Family::V4))
            .map(|t| t.delay_ms)
            .min();
        (last_v6, first_v4)
    }

    /// One Figure-4 grid row: one character per tier.
    pub fn grid_row(&self) -> String {
        self.tiers.iter().map(TierCell::grid_char).collect()
    }

    fn tier_position(&self, delay_ms: u64) -> Option<usize> {
        self.tiers.iter().position(|t| t.delay_ms == delay_ms)
    }

    /// Whether the aggregate looks **dynamic** (a history-driven CAD à la
    /// Safari) rather than a fixed switchover: the per-session switch
    /// tier drifted across non-adjacent tiers, or the aggregate grid is
    /// non-monotone (an IPv4-majority tier below an IPv6-majority one —
    /// the paper's "inconsistent repetitions").
    pub fn is_dynamic(&self) -> bool {
        let drifted = |lo: Option<u64>, hi: Option<u64>| match (lo, hi) {
            (Some(lo), Some(hi)) => match (self.tier_position(lo), self.tier_position(hi)) {
                (Some(a), Some(b)) => b.saturating_sub(a) > 1,
                _ => false,
            },
            _ => false,
        };
        if drifted(self.min_first_v4, self.max_first_v4)
            || drifted(self.min_last_v6, self.max_last_v6)
        {
            return true;
        }
        match self.bracket() {
            (Some(last_v6), Some(first_v4)) => last_v6 > first_v4,
            _ => false,
        }
    }
}

/// Aggregated resolver-check outcomes for one resolver stack.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResolverCheckAggregate {
    /// Checks folded in.
    pub runs: u64,
    /// Checks that resolved the IPv6-only delegation.
    pub capable: u64,
    /// Checks whose NS AAAA query preceded the A query.
    pub aaaa_first: u64,
    /// Checks where the ordering was observable at all.
    pub aaaa_known: u64,
}

lazyeye_json::impl_json_struct!(ResolverCheckAggregate {
    runs,
    capable,
    aaaa_first,
    aaaa_known,
});

/// Per-member accumulated state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemberAggregate {
    /// CAD web sessions.
    pub cad: CaseAggregate,
    /// RD web sessions (AAAA answers delayed).
    pub rd: CaseAggregate,
    /// Delayed-**A** web sessions (the §5.2 wait-for-all-answers probe).
    pub rd_a: CaseAggregate,
}

/// The fleet's streaming collector: one [`MemberAggregate`] per
/// population member plus the resolver-check tallies.
pub struct Collector {
    /// Per-member aggregates, index-aligned with the plan's member list.
    pub members: Vec<MemberAggregate>,
    /// Dual-stack resolver checks.
    pub dual_stack: ResolverCheckAggregate,
    /// IPv4-only resolver checks.
    pub v4_only: ResolverCheckAggregate,
}

impl Collector {
    /// A collector for `member_count` population members.
    pub fn new(member_count: usize) -> Collector {
        Collector {
            members: vec![MemberAggregate::default(); member_count],
            dual_stack: ResolverCheckAggregate::default(),
            v4_only: ResolverCheckAggregate::default(),
        }
    }

    /// Folds one session's submission in.
    pub fn ingest(&mut self, kind: &SessionKind, output: &SessionOutput) {
        lazyeye_obs::counter("fleet.submissions", lazyeye_obs::Clock::Virtual).inc();
        match (kind, output) {
            (SessionKind::Cad { member }, SessionOutput::Web(result)) => {
                self.members[*member].cad.ingest(result);
            }
            (SessionKind::Rd { member }, SessionOutput::Web(result)) => {
                self.members[*member].rd.ingest(result);
            }
            (SessionKind::RdA { member }, SessionOutput::Web(result)) => {
                self.members[*member].rd_a.ingest(result);
            }
            (SessionKind::ResolverCheck { stack }, SessionOutput::Resolver(r)) => {
                let agg = match stack {
                    ResolverStack::DualStack => &mut self.dual_stack,
                    ResolverStack::V4Only => &mut self.v4_only,
                };
                agg.runs += 1;
                if r.capable {
                    agg.capable += 1;
                }
                if let Some(first) = r.aaaa_first {
                    agg.aaaa_known += 1;
                    if first {
                        agg.aaaa_first += 1;
                    }
                }
            }
            (kind, _) => panic!("session kind/output mismatch for {kind:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_webtool::TierObservation;

    fn session(rows: &[(u64, &str)]) -> WebSessionResult {
        WebSessionResult {
            tiers: rows
                .iter()
                .map(|(delay, cells)| TierObservation {
                    delay_ms: *delay,
                    families: lazyeye_net::strip::from_json(&lazyeye_json::Json::Str(
                        cells.to_string(),
                    ))
                    .unwrap(),
                    fetch_us: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn fixed_switchover_aggregates_to_a_stable_bracket() {
        let mut agg = CaseAggregate::default();
        agg.ingest(&session(&[(250, "666"), (300, "664"), (350, "444")]));
        agg.ingest(&session(&[(250, "666"), (300, "644"), (350, "444")]));
        assert_eq!(agg.sessions, 2);
        assert_eq!(agg.bracket(), (Some(300), Some(350)));
        // Tier 300 flips between sessions: majority differs but stays
        // adjacent, so the aggregate is not "dynamic".
        assert!(!agg.is_dynamic(), "{agg:?}");
        assert_eq!(agg.grid_row(), "6m4");
        assert_eq!(agg.tiers[1].mixed_sessions, 2);
    }

    #[test]
    fn drifting_switch_tier_is_dynamic() {
        let mut agg = CaseAggregate::default();
        agg.ingest(&session(&[
            (100, "6"),
            (200, "4"),
            (1000, "4"),
            (2000, "4"),
        ]));
        agg.ingest(&session(&[
            (100, "6"),
            (200, "6"),
            (1000, "6"),
            (2000, "4"),
        ]));
        // first_v4 drifted 200 → 2000: far beyond adjacent tiers.
        assert!(agg.is_dynamic());
    }

    #[test]
    fn non_monotone_aggregate_grid_is_dynamic() {
        let mut agg = CaseAggregate::default();
        agg.ingest(&session(&[(100, "44"), (200, "66"), (300, "44")]));
        assert_eq!(agg.bracket(), (Some(200), Some(100)));
        assert!(agg.is_dynamic());
    }

    #[test]
    fn failed_and_empty_cells_render_x_and_dot() {
        let mut agg = CaseAggregate::default();
        agg.ingest(&session(&[(0, "xx"), (100, "66")]));
        assert_eq!(agg.grid_row(), "x6");
        assert_eq!(TierCell::default().grid_char(), '.');
    }

    #[test]
    fn stall_detection_needs_both_a_deep_tier_and_tracking_fetch_times() {
        let stalled = WebSessionResult {
            tiers: vec![
                TierObservation {
                    delay_ms: 250,
                    families: vec![Some(Family::V6)],
                    fetch_us: vec![900],
                },
                TierObservation {
                    delay_ms: 2000,
                    families: vec![Some(Family::V6)],
                    fetch_us: vec![2_000_400],
                },
            ],
        };
        let mut agg = CaseAggregate::default();
        agg.ingest(&stalled);
        assert_eq!(agg.stall_sessions, 1);

        // Fast fetches at a deep tier (an armed RD): no stall.
        let armed = WebSessionResult {
            tiers: vec![TierObservation {
                delay_ms: 2000,
                families: vec![Some(Family::V6)],
                fetch_us: vec![1200],
            }],
        };
        let mut agg = CaseAggregate::default();
        agg.ingest(&armed);
        assert_eq!(agg.stall_sessions, 0);

        // A slow fetch at a shallow tier (just a laggy page): no stall.
        let shallow = WebSessionResult {
            tiers: vec![TierObservation {
                delay_ms: 500,
                families: vec![Some(Family::V6)],
                fetch_us: vec![480_000],
            }],
        };
        let mut agg = CaseAggregate::default();
        agg.ingest(&shallow);
        assert_eq!(agg.stall_sessions, 0);
    }

    #[test]
    fn collector_routes_rd_a_sessions_to_their_own_aggregate() {
        let mut c = Collector::new(1);
        c.ingest(
            &SessionKind::RdA { member: 0 },
            &SessionOutput::Web(session(&[(0, "6")])),
        );
        assert_eq!(c.members[0].rd_a.sessions, 1);
        assert_eq!(c.members[0].rd.sessions, 0);
        assert_eq!(c.members[0].cad.sessions, 0);
    }

    #[test]
    fn collector_routes_by_kind_and_tallies_resolver_checks() {
        let mut c = Collector::new(2);
        c.ingest(
            &SessionKind::Cad { member: 1 },
            &SessionOutput::Web(session(&[(0, "6")])),
        );
        c.ingest(
            &SessionKind::Rd { member: 1 },
            &SessionOutput::Web(session(&[(0, "4")])),
        );
        assert_eq!(c.members[1].cad.sessions, 1);
        assert_eq!(c.members[1].rd.sessions, 1);
        assert_eq!(c.members[0].cad.sessions, 0);

        c.ingest(
            &SessionKind::ResolverCheck {
                stack: ResolverStack::DualStack,
            },
            &SessionOutput::Resolver(crate::session::ResolverCheckOutput {
                capable: true,
                aaaa_first: Some(true),
                resolution_ms: 4.0,
            }),
        );
        c.ingest(
            &SessionKind::ResolverCheck {
                stack: ResolverStack::V4Only,
            },
            &SessionOutput::Resolver(crate::session::ResolverCheckOutput {
                capable: false,
                aaaa_first: None,
                resolution_ms: 3000.0,
            }),
        );
        assert_eq!(c.dual_stack.capable, 1);
        assert_eq!(c.dual_stack.aaaa_known, 1);
        assert_eq!(c.v4_only.capable, 0);
        assert_eq!(c.v4_only.aaaa_known, 0);
    }
}
