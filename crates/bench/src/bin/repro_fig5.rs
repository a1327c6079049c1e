//! Reproduces **Figure 5**: the address family used at the n-th
//! connection attempt when DNS offers ten unresponsive addresses per
//! family.

use lazyeye_bench::{emit, fresh};
use lazyeye_clients::{figure2_clients, safari_clients};
use lazyeye_net::strip;
use lazyeye_testbed::{run_selection_case, SelectionCaseConfig, Table};

fn main() {
    fresh("fig5");
    emit(
        "fig5",
        "Figure 5 — address family at the n-th connection attempt\n\
         (10 IPv6 + 10 IPv4 addresses offered, none responding)\n",
    );

    let mut clients = Vec::new();
    for name in ["wget", "curl"] {
        clients.push(
            figure2_clients()
                .into_iter()
                .rfind(|c| c.name == name)
                .unwrap(),
        );
    }
    clients.push(safari_clients().into_iter().find(|c| !c.mobile).unwrap());
    for name in ["Firefox", "Edge", "Chromium", "Chrome"] {
        clients.push(
            figure2_clients()
                .into_iter()
                .rfind(|c| c.name == name)
                .unwrap(),
        );
    }

    let mut t = Table::new(
        "Figure 5 — attempt order",
        vec!["Client", "attempts (6/4 per position)", "#v6", "#v4"],
    );
    for (i, profile) in clients.iter().enumerate() {
        let r = run_selection_case(profile, &SelectionCaseConfig::default(), 6000 + i as u64);
        t.row(vec![
            profile.figure2_label(),
            strip::render(&r.order),
            r.v6_used.to_string(),
            r.v4_used.to_string(),
        ]);
    }
    emit("fig5", &t.render());
    emit(
        "fig5",
        "Paper check: only Safari retries as often as there are addresses,\n\
         with its FAFC=2 interleaving (6 6 4, then remaining v6, then\n\
         remaining v4). Everything else that implements a CAD tries one\n\
         IPv6 and one IPv4 address and stops; wget tries IPv6 only —\n\
         matching Figure 5 and App. D.",
    );
}
