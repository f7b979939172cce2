//! Command-line entry point:
//!
//! ```text
//! cosched-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! the arguments are invalid.

use cosched_perfbench::{run, Options, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: cosched-perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}, \
         held out {HELD_OUT_SEED})] [--seconds S (default 10)] [--trace 0|1 (default 0)]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        traced,
        scale: Scale::standard(),
        expect_digest: (seed == DEFAULT_SEED).then(|| workload.pinned_digest()),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let outcome = run(&opts);
    println!(
        "{} seed {} {}: attempted {}, failed {}, digest {:016x}",
        opts.workload.name(),
        opts.seed,
        if opts.traced { "traced" } else { "untraced" },
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.digest
    );
    for f in &outcome.tally.failures {
        println!("  FAILED: {f}");
    }
    for name in outcome.metrics.names() {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        println!(
            "  {name:<32} {value:>16.6} {}",
            outcome.metrics.unit(name).unwrap_or("")
        );
    }
    println!("{}", outcome.json());
}
