//! Reproduces **Figure 2**: the address family of the established
//! connection at each configured IPv6 delay, for all 17 local-testbed
//! clients (plus Safari, which the paper omits from the figure for scale).

use lazyeye_bench::{emit, fast_mode, fresh};
use lazyeye_clients::{figure2_clients, safari_clients};
use lazyeye_net::strip;
use lazyeye_testbed::{run_cad_case, summarize_cad, CadCaseConfig, SweepSpec, Table};

fn main() {
    fresh("fig2");
    let step = if fast_mode() { 25 } else { 10 };
    let sweep = SweepSpec::new(0, 400, step);
    let cfg = CadCaseConfig {
        sweep,
        repetitions: 1,
    };

    emit(
        "fig2",
        &format!(
            "Figure 2 — established connection family vs configured IPv6 delay\n\
             (sweep 0..=400 ms step {step} ms; 6 = IPv6, 4 = IPv4, x = failed)\n"
        ),
    );

    let mut summary = Table::new(
        "Figure 2 summary — observed switchover per client",
        vec![
            "Client",
            "last IPv6 delay",
            "first IPv4 delay",
            "measured CAD",
        ],
    );

    let delays = sweep.values();
    let axis: String = delays
        .iter()
        .map(|d| if d % 100 == 0 { '|' } else { ' ' })
        .collect();
    emit("fig2", &format!("{:>28}  {}", "0ms .. 400ms:", axis));

    for (i, profile) in figure2_clients().into_iter().enumerate() {
        let samples = run_cad_case(&profile, &cfg, 1000 + i as u64);
        let cells: Vec<Option<lazyeye_net::Family>> = samples.iter().map(|s| s.family).collect();
        emit(
            "fig2",
            &format!("{:>28}  {}", profile.figure2_label(), strip::render(&cells)),
        );
        let s = summarize_cad(&samples);
        summary.row(vec![
            profile.figure2_label(),
            s.last_v6_delay_ms
                .map(|v| format!("{v} ms"))
                .unwrap_or_else(|| "> 400 ms (never fell back)".into()),
            s.first_v4_delay_ms
                .map(|v| format!("{v} ms"))
                .unwrap_or_else(|| "-".into()),
            s.measured_cad_ms
                .map(|v| format!("{v:.1} ms"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }

    // Safari, separately (2 s fresh-state CAD, as the paper notes).
    let safari = safari_clients().into_iter().find(|c| !c.mobile).unwrap();
    let safari_cfg = CadCaseConfig {
        sweep: SweepSpec::new(1800, 2200, 100),
        repetitions: 1,
    };
    let samples = run_cad_case(&safari, &safari_cfg, 99);
    let s = summarize_cad(&samples);
    summary.row(vec![
        format!("{} (omitted from Fig. 2)", safari.figure2_label()),
        s.last_v6_delay_ms
            .map(|v| format!("{v} ms"))
            .unwrap_or_else(|| "-".into()),
        s.first_v4_delay_ms
            .map(|v| format!("{v} ms"))
            .unwrap_or_else(|| "-".into()),
        s.measured_cad_ms
            .map(|v| format!("{v:.1} ms"))
            .unwrap_or_else(|| "-".into()),
    ]);

    emit("fig2", "");
    emit("fig2", &summary.render());
    emit(
        "fig2",
        "Paper check: Chromium-based browsers switch at 300 ms (all versions\n\
         back to Chrome 88/Edge 90), Firefox at 250 ms, curl at 200 ms, wget\n\
         never switches, Safari at 2 s with a fresh state — matching §5.1.",
    );
}
