//! A miniature Figure 2: sweep the configured IPv6 delay and print which
//! address family each client ends up using.
//!
//! ```sh
//! cargo run --example cad_sweep
//! ```

use lazy_eye_inspection::net::strip;
use lazy_eye_inspection::testbed::{run_cad_case, summarize_cad, CadCaseConfig, SweepSpec};

fn main() {
    let cfg = CadCaseConfig {
        sweep: SweepSpec::new(0, 400, 25),
        repetitions: 1,
    };

    println!("IPv6 delay sweep 0..=400 ms (step 25): 6 = IPv6, 4 = IPv4\n");
    for name in ["Chrome", "Firefox", "curl", "wget"] {
        let profile = lazy_eye_inspection::clients::figure2_clients()
            .into_iter()
            .rfind(|c| c.name == name)
            .unwrap();
        let samples = run_cad_case(&profile, &cfg, 1);
        let families: Vec<_> = samples.iter().map(|s| s.family).collect();
        let strip = strip::render(&families);
        let summary = summarize_cad(&samples);
        println!(
            "{:>22}  {}   switchover: {}",
            profile.figure2_label(),
            strip,
            summary
                .first_v4_delay_ms
                .map(|v| format!("{v} ms"))
                .unwrap_or_else(|| "never (no Happy Eyeballs)".into())
        );
    }
    println!(
        "\nChromium switches at 300 ms, Firefox at 250 ms, curl at 200 ms and\n\
         wget never does — Figure 2 of the paper in four lines."
    );
}
