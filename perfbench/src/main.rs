//! `worlds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The full record (host, configuration, every metric,
//! sample counts) is written under `results/` beside this crate, and the
//! traced run's spans next to it.

use std::io::Write;

use worlds_perfbench::host::{self, Host};
use worlds_perfbench::metrics::{jstr, num, END_TO_END, PER_LAYER, UNGATED};
use worlds_perfbench::run::Outcome;
use worlds_perfbench::session_storm::SessionStorm;
use worlds_perfbench::trace::now_ns;
use worlds_perfbench::{execute, params_json, WORKLOADS};

/// Spans written per traced run; the metrics use all of them.
const SPANS_WRITTEN: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The full record of a run: host, configuration, outcome, metrics.
fn record(a: &Args, host: &Host, env: &[(String, String)], out: &Outcome) -> String {
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
        .collect();
    let params: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{}: {}", jstr(w), params_json(w)))
        .collect();
    let metrics: Vec<String> = END_TO_END
        .iter()
        .chain(UNGATED)
        .chain(PER_LAYER)
        .filter_map(|(n, u)| {
            out.metrics.get(n).map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(n),
                    num(v),
                    jstr(u)
                )
            })
        })
        .collect();
    let violations: Vec<String> = out.violations.iter().map(|v| jstr(v)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {{\"available_parallelism\": {}, \"cpu_model\": {}, \"kernel\": {}}},\n  \"worlds_env\": {{{}}},\n  \"params\": {{{}}},\n  \"session_storm_repeat_share\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_share\": {},\n  \"samples\": {},\n  \"violations\": [{}],\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
        jstr(&a.workload),
        a.seed,
        num(a.seconds),
        a.trace,
        host.available_parallelism,
        jstr(&host.cpu_model),
        jstr(&host.kernel),
        env_json.join(", "),
        params.join(", "),
        num(SessionStorm::default().repeat_share(a.seed, 1_000)),
        out.attempted,
        out.failed,
        num(out.failed_share),
        out.samples,
        violations.join(", "),
        metrics.join(",\n    "),
    )
}

fn write_results(a: &Args, record: &str, out: &Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, a.trace as u8);
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    if a.trace {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.tsv")),
        )?);
        out.trace.write_tsv(&mut f, SPANS_WRITTEN)?;
        f.flush()?;
    }
    Ok(())
}

fn main() {
    // The set-up clock starts at process start.
    now_ns();
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("worlds-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    let a = parse_args()?;
    let env = host::worlds_env();
    host::refuse_behaviour_env(&env)?;
    let host = Host::probe();
    let out = execute(&a.workload, a.seed, a.seconds, a.trace)?;
    let defs = if a.trace { PER_LAYER } else { END_TO_END };
    let metrics = out.metrics.json(defs)?;
    let rec = record(&a, &host, &env, &out);
    write_results(&a, &rec, &out).map_err(|e| format!("writing results: {e}"))?;
    for v in &out.violations {
        eprintln!("violation: {v}");
    }
    println!(
        "{} seed {} on {} CPUs ({}): {} ops attempted, {} failed, failed_share {}, {} latency samples",
        a.workload,
        a.seed,
        host.available_parallelism,
        host.cpu_model,
        out.attempted,
        out.failed,
        num(out.failed_share),
        out.samples
    );
    let ungated = if a.trace { &[][..] } else { UNGATED };
    for (name, unit) in defs.iter().chain(ungated) {
        if let Some(v) = out.metrics.get(name) {
            println!("  {name:<34} {v:>14.4} {unit}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    Ok(if out.correct() { 0 } else { 1 })
}
