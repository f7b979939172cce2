//! Golden pin of the paper's tables: `cosched figures --scale smoke`, run
//! in-process through the CLI dispatcher, must print
//! `tests/fixtures/figures_smoke.md` byte for byte — every validation
//! table, both panels of Figs. 3–10 and the §V-B deadlock demonstration.
//! Any change to a sweep's workload, the simulator's outcomes, the fold or
//! the table layout shows up here.

use cosched_cli::{parse_with_flags, run_command, FLAGS};

#[test]
fn smoke_figures_match_the_golden_fixture() {
    let args: Vec<String> = ["figures", "--scale", "smoke"]
        .iter()
        .map(|a| a.to_string())
        .collect();
    let parsed = parse_with_flags(&args, FLAGS).expect("figures arguments parse");
    let mut out = Vec::new();
    run_command(&parsed, &mut out).expect("figures runs");
    let out = String::from_utf8(out).expect("figures output is UTF-8");
    let golden = include_str!("fixtures/figures_smoke.md");
    if out != golden {
        let line = out
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or("at the end".to_string(), |i| format!("at line {}", i + 1));
        panic!("figures output differs from the fixture {line}:\n{out}");
    }
}
