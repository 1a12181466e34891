//! `flowzip-benchmark run …` measures, `flowzip-benchmark compare A B`
//! reads two result files against each other. `benchmark/run.sh` builds
//! both binaries and calls `run`; see `benchmark/README.md`.

use flowzip_benchmark::alloc::CountingAlloc;
use flowzip_benchmark::cli::Ctx;
use flowzip_benchmark::json::Json;
use flowzip_benchmark::report::{self, Run};
use flowzip_benchmark::workloads::{self, Scale, Workload, WORKLOADS};
use flowzip_benchmark::{child, compare, e2e, layers};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  flowzip-benchmark run --flowzip PATH [--workload NAME] [--seed K] [--seconds S]
                        [--trace [0|1]] [--quick] [--out DIR]
      no --workload: all four; no --trace: untraced then traced;
      --quick: inputs ÷10 and 2 s per run, a smoke mode, never a baseline
  flowzip-benchmark compare A.json B.json [--bounds BENCHMARK.json]";

struct RunArgs {
    flowzip: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// Untraced and/or traced, in the order they run.
    modes: Vec<bool>,
    scale: Scale,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        flowzip: PathBuf::new(),
        workloads: WORKLOADS.to_vec(),
        seed: workloads::DEFAULT_SEED,
        seconds: 15.0,
        modes: vec![false, true],
        scale: Scale::STANDARD,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--flowzip" => parsed.flowzip = PathBuf::from(value()?),
            "--out" => parsed.out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                parsed.workloads =
                    vec![workloads::find(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
                seconds_given = true;
            }
            "--trace" => {
                parsed.modes = match it.next_if(|s| matches!(s.as_str(), "0" | "1")) {
                    Some(s) if s == "0" => vec![false],
                    _ => vec![true],
                };
            }
            "--quick" => parsed.scale = Scale::QUICK,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.scale == Scale::QUICK && !seconds_given {
        parsed.seconds = 2.0;
    }
    if parsed.flowzip.as_os_str().is_empty() {
        return Err("--flowzip PATH is required".into());
    }
    Ok(parsed)
}

fn run_one(args: &RunArgs, workload: Workload, traced: bool) -> std::io::Result<Run> {
    let work = args.out.join(format!(
        "work-{}-{}-{}",
        workload.name,
        u8::from(traced),
        std::process::id()
    ));
    std::fs::create_dir_all(&work)?;
    let ctx = Ctx {
        flowzip: args.flowzip.clone(),
        launcher: std::env::current_exe()?,
        work: work.clone(),
        workload,
        seed: args.seed,
        scale: args.scale,
    };
    let run = if traced {
        let (run, chrome_trace) = layers::run(&ctx, args.seconds)?;
        std::fs::write(
            args.out.join(format!("trace-{}.json", workload.name)),
            chrome_trace,
        )?;
        run
    } else {
        e2e::run(&ctx, args.seconds)?
    };
    if run.ops.failed > 0 {
        // Keep the children's stderr where a person can find it.
        std::fs::rename(
            ctx.log(),
            args.out.join(format!("stderr-{}.log", workload.name)),
        )
        .ok();
    }
    std::fs::remove_dir_all(&work)?;
    Ok(run)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &traced in &args.modes {
        for &workload in &args.workloads {
            let run = run_one(&args, workload, traced).map_err(|e| {
                format!(
                    "{} ({}): {e}",
                    workload.name,
                    if traced { "traced" } else { "untraced" }
                )
            })?;
            run.check_complete()?;
            run.print_table();
            println!("{}", run.result_line());
            all_correct &= run.correct();
            runs.push(run);
        }
    }
    let results = args.out.join("results.json");
    std::fs::write(
        &results,
        report::results_json(&runs, args.seed, args.scale.div, args.seconds, &args.out),
    )
    .map_err(|e| format!("{}: {e}", results.display()))?;
    eprintln!("wrote {}", results.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let (mut files, mut bounds) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds = PathBuf::from(it.next().ok_or("--bounds needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare wants exactly two result files".into());
    };
    let bounds = compare::bounds(&load(&bounds)?)?;
    let worse = compare::compare(&load(a)?, &load(b)?, &bounds)?;
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut os_args = std::env::args_os().skip(1);
    if os_args.next().as_deref() == Some(child::LAUNCH.as_ref()) {
        let Some(program) = os_args.next() else {
            eprintln!("launch wants a program");
            return ExitCode::FAILURE;
        };
        return match child::launch(&program, &os_args.collect::<Vec<_>>()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("launch {}: {e}", program.to_string_lossy());
                ExitCode::FAILURE
            }
        };
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("flowzip-benchmark: {e}");
        ExitCode::FAILURE
    })
}
