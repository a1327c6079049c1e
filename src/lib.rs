//! # Lazy Eye Inspection — a Happy Eyeballs measurement testbed
//!
//! A Rust reproduction of *"Lazy Eye Inspection: Capturing the State of
//! Happy Eyeballs Implementations"* (Sattler et al., IMC 2025): a
//! deterministic, virtual-time testbed that measures how clients implement
//! Happy Eyeballs — the Connection Attempt Delay, the Resolution Delay,
//! address selection, and the IPv6 preference of recursive resolvers.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `lazyeye-sim` | deterministic virtual-time async runtime |
//! | [`net`] | `lazyeye-net` | simulated dual-stack network + netem + capture |
//! | [`dns`] | `lazyeye-dns` | DNS wire format, records, zones |
//! | [`authns`] | `lazyeye-authns` | delay-injecting authoritative server |
//! | [`resolver`] | `lazyeye-resolver` | stub + recursive resolvers with profiles |
//! | [`he`] | `lazyeye-core` | the Happy Eyeballs v1/v2/v3 engine |
//! | [`clients`] | `lazyeye-clients` | browser/tool behaviour models, HTTP, iCPR |
//! | [`testbed`] | `lazyeye-testbed` | test cases, runners, analyzers, tables |
//! | [`campaign`] | `lazyeye-campaign` | sharded, deterministic campaign orchestration |
//! | [`exec`] | `lazyeye-exec` | shared work-stealing executor + resumable, shardable run kernel |
//! | [`trace`] | `lazyeye-trace` | structured, serialisable event traces of runs |
//! | [`infer`] | `lazyeye-infer` | trace → inferred client state + RFC 8305 verdicts |
//! | [`webtool`] | `lazyeye-webtool` | the 18-tier web-based testing tool |
//! | [`fleet`] | `lazyeye-fleet` | population-scale web-tool service + Figure 4 grids |
//! | [`obs`] | `lazyeye-obs` | spans, metrics registry, timeline/Prometheus exporters |
//! | [`json`] | `lazyeye-json` | dependency-free JSON layer used throughout |
//!
//! ## Quickstart
//!
//! ```
//! use lazy_eye_inspection::prelude::*;
//!
//! // A dual-stack server whose IPv6 path is 400 ms slow, and an
//! // RFC 8305 client: Happy Eyeballs falls back to IPv4 after 250 ms.
//! let mut topo = lazy_eye_inspection::testbed::topology::default_local_topology(7);
//! topo.server.add_egress(NetemRule::family(Family::V6, Netem::delay_ms(400)));
//! let profile = lazy_eye_inspection::clients::figure2_clients()
//!     .into_iter()
//!     .find(|c| c.name == "Firefox")
//!     .unwrap();
//! let client = Client::new(
//!     profile,
//!     topo.client.clone(),
//!     vec![lazy_eye_inspection::testbed::topology::resolver_addr()],
//! );
//! let res = topo.sim.block_on(async move {
//!     client
//!         .connect_only(&lazy_eye_inspection::testbed::topology::www(), 80)
//!         .await
//! });
//! assert_eq!(res.connection.unwrap().family(), Family::V4);
//! assert_eq!(res.log.observed_cad().unwrap().as_millis(), 250);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use lazyeye_authns as authns;
pub use lazyeye_campaign as campaign;
pub use lazyeye_clients as clients;
pub use lazyeye_core as he;
pub use lazyeye_dns as dns;
pub use lazyeye_exec as exec;
pub use lazyeye_fleet as fleet;
pub use lazyeye_infer as infer;
pub use lazyeye_json as json;
pub use lazyeye_net as net;
pub use lazyeye_obs as obs;
pub use lazyeye_resolver as resolver;
pub use lazyeye_sim as sim;
pub use lazyeye_testbed as testbed;
pub use lazyeye_trace as trace;
pub use lazyeye_webtool as webtool;

/// The most commonly used items in one import.
pub mod prelude {
    pub use lazyeye_campaign::{run_campaign, CampaignReport, CampaignSpec};
    pub use lazyeye_clients::{Client, ClientProfile};
    pub use lazyeye_core::{
        CadMode, HappyEyeballs, HeConfig, HeError, HeLog, HeVersion, HistoryStore,
        InterlaceStrategy, Quirks,
    };
    pub use lazyeye_dns::{Message, Name, RData, Record, RrType, Zone, ZoneSet};
    pub use lazyeye_fleet::{run_fleet, FleetReport, FleetSpec};
    pub use lazyeye_net::{
        Capture, ClosedPortPolicy, Family, Host, Netem, NetemRule, Network, TcpListener, TcpStream,
        UdpSocket,
    };
    pub use lazyeye_resolver::{
        RecursiveConfig, RecursiveResolver, ResolverProfile, StubConfig, StubResolver,
    };
    pub use lazyeye_sim::{now, race, sleep, spawn, timeout, Sim, SimTime};
}
