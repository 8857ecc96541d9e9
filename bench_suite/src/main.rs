//! `bench_suite`: the repository's benchmark.
//!
//! ```text
//! bench_suite run --workload <name> --seed <n> --trace <0|1>
//!                 [--seconds <s>] [--out <dir>] [--smoke]
//! bench_suite compare <dirA> <dirB>
//! ```
//!
//! `run` prints every metric as `name value unit`, then — as the last
//! line of standard output — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`, and exits non-zero
//! when an output check failed. README.md defines every metric.

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod ops;
mod runfile;
mod spans;
mod stats;
mod truth;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{RunConfig, Workload};

const USAGE: &str = "usage:
  bench_suite run --workload <cold_mono|cold_planned|warm_restored|tcp_hot> --seed <n> \
--trace <0|1> [--seconds <s>] [--out <dir>] [--smoke]
  bench_suite compare <dirA> <dirB>";

/// `--flag value` pairs and bare words of one command line.
struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            flags: BTreeMap::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => out.switches.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.insert(name.to_string(), value.clone());
                }
                None => out.words.push(arg.clone()),
            }
        }
        Ok(out)
    }

    fn take(&mut self, name: &str) -> Option<String> {
        self.flags.remove(name)
    }

    fn number(&mut self, name: &str) -> Result<Option<u64>, String> {
        self.take(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: `{v}` is not a whole number"))
            })
            .transpose()
    }

    fn finish(self) -> Result<(), String> {
        match self.flags.keys().next() {
            Some(extra) => Err(format!("unknown option --{extra}")),
            None => Ok(()),
        }
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::parse(args, &["smoke"])?;
    if !args.words.is_empty() {
        return Err(format!("unexpected argument `{}`", args.words[0]));
    }
    let name = args.take("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.number("seed")?.ok_or("--seed is required")?;
    let trace = match args.number("trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let seconds = args.number("seconds")?.unwrap_or(workloads::RUN_SECONDS);
    let out_dir = args.take("out").map(PathBuf::from);
    let smoke = args.switches.iter().any(|s| s == "smoke");
    args.finish()?;

    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        scratch: workloads::default_scratch(),
    };
    let out = workloads::run(&cfg)?;
    let host = host::HostInfo::collect();

    println!(
        "# {} seed={seed} trace={} seconds={seconds}{}",
        workload.name(),
        u8::from(trace),
        if smoke { " smoke" } else { "" }
    );
    println!("# why: {}", workload.why());
    println!(
        "# host nproc={} rayon_threads={} kernel={} cpu=\"{}\" rustc=\"{}\"",
        host.nproc, host.rayon_threads, host.kernel, host.cpu_model, host.rustc
    );
    let table = metrics::END_TO_END.iter().chain(metrics::PER_LAYER);
    for m in table.clone() {
        if let Some(v) = out.metrics.get(m.name) {
            println!("{} {v} {}", m.name, m.unit);
        }
    }
    for m in table {
        if let Some(v) = out.diagnostics.get(m.name) {
            println!("# {} {v} {}", m.name, m.unit);
        }
    }
    for line in &out.pass_lines {
        println!("# {line}");
    }
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    if let Some(dir) = &out_dir {
        write_outputs(dir, &cfg, &out, &host)?;
    }
    println!("{}", runfile::result_line(&out).render());
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Write the run file, the raw pass timings and a traced run's spans
/// under `dir`.
fn write_outputs(
    dir: &Path,
    cfg: &RunConfig,
    out: &workloads::RunOutput,
    host: &host::HostInfo,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let stem = format!(
        "{}-seed{}-trace{}-{stamp}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let run = runfile::RunFile::from_run(cfg, out);
    write(format!("{stem}.json"), run.to_json(host).render() + "\n")?;
    write(format!("{stem}.passes.tsv"), out.pass_matrix.clone())?;
    if cfg.trace {
        write(format!("{stem}.spans.jsonl"), spans::to_jsonl(&out.spans))?;
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &[])?;
    let [dir_a, dir_b] = args.words.as_slice() else {
        return Err("compare takes two directories".into());
    };
    let (dir_a, dir_b) = (PathBuf::from(dir_a), PathBuf::from(dir_b));
    args.finish()?;

    let a = runfile::load_dir(&dir_a)?;
    let b = runfile::load_dir(&dir_b)?;
    if a.is_empty() || b.is_empty() {
        return Err("a set has no run files".into());
    }
    let report = compare::compare(&a, &b);
    print!("{}", report.render());
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench_suite: {message}");
            ExitCode::from(2)
        }
    }
}
