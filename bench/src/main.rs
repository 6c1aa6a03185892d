//! `geobench`: the GeoStreams benchmark. See `bench/README.md`.

mod harness;
mod inputs;
mod manifest;
mod probes;
mod proc;
mod report;
mod stats;
mod trace;
mod verify;
mod vfs;
mod workloads;

use harness::RunArgs;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage (from the repository root):
  geobench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
  geobench all [--seed <n>] [--seconds <s>]    check, verify, then every workload untraced and traced
  geobench verify [--seed <n>]                 every workload at 1/16 size against the slow oracle
  geobench check                               check BENCHMARK.json only
  geobench manifest                            print the BENCHMARK.json this binary expects
  geobench spread <runs-file> [<baseline>]     noise report over two sets of runs (see noise.sh)";

/// The command `BENCHMARK.json` declares; the driver appends the
/// `--workload … --trace …` arguments.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--offline",
    "--release",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];
const PATHS: [&str; 1] = ["bench"];
const RUN_SECONDS: u64 = 12;

/// Nothing is timed until `BENCHMARK.json` in the working directory
/// agrees with this binary and with the benchmark contract.
fn manifest_check() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let errors = manifest::check(&text, Path::new("."));
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("BENCHMARK.json is invalid:\n  {}", errors.join("\n  ")))
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run =
        RunArgs { workload: String::new(), seed: 1, seconds: RUN_SECONDS as f64, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => run.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(run)
}

fn run_verify(seed: u64) -> Result<bool, String> {
    let (checked, failures) = verify::run(seed, Path::new(harness::OUT_DIR))?;
    for f in &failures {
        eprintln!("geobench: verify: {f}");
    }
    println!("verify seed {seed}: {checked} operations checked, {} failed", failures.len());
    if failures.is_empty() {
        Ok(true)
    } else {
        Err("outputs differ from the oracle's".to_string())
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("check") => manifest_check().map(|()| true),
        Some("verify") => {
            let run = parse_run(&args[1..])?;
            manifest_check()?;
            run_verify(run.seed)
        }
        Some("all") => {
            let run = parse_run(&args[1..])?;
            manifest_check()?;
            Ok(run_verify(run.seed)? & report::all(run.seed, run.seconds)?)
        }
        Some("spread") => {
            let file = args.get(1).ok_or(USAGE)?;
            let lines = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let commit = std::env::var("GEOBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
            let (baseline, agree) = report::spread(&lines, cores, &commit)?;
            if let Some(path) = args.get(2) {
                std::fs::write(path, baseline).map_err(|e| format!("{path}: {e}"))?;
            }
            if agree {
                Ok(true)
            } else {
                Err("the two sets disagree by more than a metric's bound".to_string())
            }
        }
        Some("manifest") => {
            print!("{}", manifest::render(&COMMAND, &PATHS, RUN_SECONDS));
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => {
            let run = parse_run(args)?;
            manifest_check()?;
            match run.workload.as_str() {
                "archive_rw" => harness::run::<workloads::archive_rw::ArchiveRw>(&run),
                "oneshot_http" => harness::run::<workloads::oneshot_http::OneshotHttp>(&run),
                "live_mixed" => harness::run::<workloads::live_mixed::LiveMixed>(&run),
                "ops_kernels" => harness::run::<workloads::ops_kernels::OpsKernels>(&run),
                "swarm_shared" => harness::run::<workloads::swarm_shared::SwarmShared>(&run),
                other => Err(format!("unknown workload `{other}`")),
            }
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        // A printed result line carries `correct` itself; the exit code
        // only says whether there is one.
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("geobench: {e}");
            ExitCode::from(2)
        }
    }
}
