//! The repository's seeded end-to-end benchmark. See `README.md` beside
//! this package and `BENCHMARK.json` at the root of the repository.

#![allow(clippy::disallowed_macros)] // printing is this target's interface

mod common;
mod gen;
mod json;
mod report;
mod staged;
mod stats;
mod trace;
mod workloads;

use common::Params;
use json::Json;
use report::Spec;

fn usage() -> ! {
    eprintln!(
        "usage: xkw-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
         [--quick] [--check-repeat]"
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_args(spec: &Spec) -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        check_repeat: false,
    };
    let mut quick = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = Some(it.next().unwrap_or_else(|| usage())),
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seconds" => {
                args.seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            // `--trace 0|1` as the driver passes it; bare `--trace` = 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => quick = true,
            "--check-repeat" => args.check_repeat = true,
            _ => usage(),
        }
    }
    if quick {
        // A tenth of the operations, for smoke use.
        args.seconds /= 10.0;
    }
    args
}

impl Args {
    fn params(&self, workload: &str, trace: bool) -> Params {
        Params {
            workload: workload.to_owned(),
            seed: self.seed,
            seconds: self.seconds,
            trace,
        }
    }
}

fn run_workload(spec: &Spec, p: &Params) -> bool {
    let out = match p.workload.as_str() {
        "topk_hot" => workloads::topk_hot::run(p),
        "enum_all" => workloads::enum_all::run(p),
        "serve_open" => workloads::serve_open::run(p),
        "ingest_mixed" => workloads::ingest_mixed::run(p),
        other => {
            eprintln!(
                "unknown workload {other:?}; expected one of {:?}",
                spec.workloads
            );
            std::process::exit(2);
        }
    };
    out.print(spec, &p.workload, p.trace);
    out.correct()
}

/// The last line a workload run printed, parsed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric name → value, in printed order.
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a fresh child process of this binary (so no
/// workload inherits another's heap, caches or peak memory), echoes what
/// it printed and parses its result line.
fn run_child(p: &Params) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &p.workload])
        .args(["--seed", &p.seed.to_string()])
        .args(["--seconds", &p.seconds.to_string()])
        .args(["--trace", if p.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", p.workload))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{human}");
    let j =
        Json::parse(last).map_err(|e| format!("{}: unreadable result line: {e}", p.workload))?;
    let count = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let metrics = j
        .get("metrics")
        .map(Json::entries)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: j.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

fn json_object(metrics: &[(String, f64)]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// The default command: every workload, each in its own process, then one
/// summary. Returns whether every run was correct.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let plain = run_child(&args.params(workload, false))?;
        let mut row = format!(
            "\"{workload}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}",
            plain.attempted,
            plain.failed,
            json_object(&plain.metrics)
        );
        all_correct &= plain.correct;
        if args.trace {
            let traced = run_child(&args.params(workload, true))?;
            all_correct &= traced.correct;
            row.push_str(&format!(
                ", \"per_layer\": {}",
                json_object(&traced.metrics)
            ));
        }
        row.push('}');
        rows.push(row);
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let summary = format!(
        "{{\"benchmark\": \"xkw-benchmark\", \"seed\": {}, \"seconds\": {}, \"host_cores\": {cores}, \
         \"correct\": {all_correct},\n \"workloads\": {{\n  {}\n }},\n \"claim\": null}}",
        args.seed,
        args.seconds,
        rows.join(",\n  ")
    );
    let path = common::out_dir().join("summary.json");
    std::fs::create_dir_all(path.parent().expect("path has a parent"))
        .and_then(|()| std::fs::write(&path, format!("{summary}\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{summary}");
    Ok(all_correct)
}

/// `--check-repeat`: every workload twice with the same seed; each
/// end-to-end metric's relative difference is printed beside its bound.
/// Returns whether every difference stayed within its bound.
fn check_repeat(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for workload in &spec.workloads {
        let p = args.params(workload, false);
        let (first, second) = (run_child(&p)?, run_child(&p)?);
        ok &= first.correct && second.correct;
        for (m, ((name, a), (_, b))) in spec
            .end_to_end
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let bound = m.bound.unwrap_or(0.0);
            let diff = (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound { "ok" } else { "EXCEEDS" };
            ok &= diff <= bound;
            println!(
                "{workload:<13} {name:<16} {a:>14.4} {b:>14.4} {:<5} diff {:>6.2}%  bound {:>5.1}%  {verdict}",
                m.unit,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() {
    let spec = Spec::load();
    let args = parse_args(&spec);
    if let Some(workload) = &args.workload {
        if !run_workload(&spec, &args.params(workload, args.trace)) {
            std::process::exit(1);
        }
        return;
    }
    let verdict = if args.check_repeat {
        check_repeat(&spec, &args)
    } else {
        run_all(&spec, &args)
    };
    match verdict {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("xkw-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
