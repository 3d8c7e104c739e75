//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--nfi <path>] [--work-dir <dir>]`
//!
//! Prints a detail object, then the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` as the last
//! line of standard output. Exits non-zero, without a result line, when
//! the workload cannot run.

use perfbench::{Config, Workload};
use std::path::PathBuf;

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        workload: Workload::CampaignCold,
        seed: 1,
        seconds: 10.0,
        trace: false,
        nfi: None,
        work_dir: PathBuf::from(".bench_work"),
        setups: 5,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                cfg.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--nfi" => cfg.nfi = Some(PathBuf::from(value)),
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    cfg.workload =
        workload.ok_or("need --workload campaign_cold|campaign_edit|serve_mixed|nl_session")?;
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match perfbench::run(&cfg) {
        Ok(report) => {
            println!("{}", report.detail_line());
            println!("{}", report.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            std::process::exit(1);
        }
    }
}
