//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --cli <path to lazyeye> --scratch <dir>` runs one workload and prints
//! its result as the last line of standard output. `perfbench
//! --print-spec <name> [--seed <n>]` prints the spec a workload feeds
//! the program.

use std::path::PathBuf;
use std::process::ExitCode;

use lazyeye_perfbench::bench::{end_to_end, per_layer, Config};
use lazyeye_perfbench::check::cli_reference;
use lazyeye_perfbench::metrics::{END_TO_END, PER_LAYER};
use lazyeye_perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    scratch: PathBuf,
}

fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    value(args, flag)?.ok_or_else(|| format!("missing {flag}"))
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })
}

fn parse(args: &[String]) -> Result<Args, String> {
    const FLAGS: [&str; 6] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--cli",
        "--scratch",
    ];
    for pair in args.chunks(2) {
        if !FLAGS.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {:?}", pair[0]));
        }
    }
    let seed = required(args, "--seed")?;
    let seconds = required(args, "--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("--seconds: expected a positive number, got {seconds:?}"))?;
    Ok(Args {
        workload: workload(required(args, "--workload")?)?,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed: expected an integer, got {seed:?}"))?,
        seconds,
        trace: match required(args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        cli: required(args, "--cli")?.into(),
        scratch: required(args, "--scratch")?.into(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Ok(Some(name)) = value(&argv, "--print-spec") {
        let seed = value(&argv, "--seed").ok().flatten().unwrap_or("1");
        return match (workload(name), seed.parse()) {
            (Ok(w), Ok(seed)) => {
                println!("{}", w.target(seed).spec_json());
                ExitCode::SUCCESS
            }
            (Err(e), _) => fail(&e),
            (_, Err(_)) => fail(&format!("--seed: expected an integer, got {seed:?}")),
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    if !args.cli.is_file() {
        return fail(&format!("no lazyeye binary at {}", args.cli.display()));
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target = args.workload.target(args.seed);
    let reference = cli_reference(&args.cli, &args.scratch, args.workload, &target, jobs);
    if let Err(e) = &reference {
        eprintln!("perfbench: no CLI reference: {e}");
    }
    let cfg = Config {
        workload: args.workload,
        target,
        seconds: args.seconds,
        jobs,
        reference,
    };
    eprintln!(
        "perfbench: {} seed {} at jobs {jobs} and 1, {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (outcome, table) = if args.trace {
        (per_layer(&cfg), PER_LAYER)
    } else {
        (end_to_end(&cfg), END_TO_END)
    };
    match outcome.result_line(table) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    ExitCode::from(2)
}
