//! Bench-regression gate: compares two `BENCH_*.json` files emitted by
//! the `micro_hot_paths` bench and fails when any benchmark shared by
//! both files regressed by more than the tolerance.
//!
//! ```text
//! bench_check [--old BENCH_pr1.json] [--new BENCH_pr2.json] [--tolerance 1.25]
//!             [--min-speedup NAME:X]... [--max-speedup NAME:X]...
//! ```
//!
//! `--min-speedup`/`--max-speedup` gate the *new* file's recorded
//! comparison entries by name: `--min-speedup eval/foo:1.5` fails when
//! the comparison named `eval/foo` reports a speedup below 1.5x, and
//! `--max-speedup micro/bar:1.2` fails when it reports one above 1.2x
//! (the overhead form — the obs pair records enabled/disabled time as
//! its "speedup"). Both flags repeat; a named comparison that is
//! missing from the file is an error, not a pass.
//!
//! Exit status: 0 when every shared benchmark's `new/old` mean-time
//! ratio is at or under the tolerance and every speedup gate holds,
//! 1 otherwise, 2 on usage or parse errors. Benchmarks present in only
//! one file are listed but never gate (new optimizations add arms; old
//! ones may be retired).

use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct BenchFile {
    pr: u64,
    parallel_threads: u64,
    /// Runner-shape header fields added in PR 7; `None` when reading a
    /// file emitted before then (or when the env pin was unset).
    available_parallelism: Option<u64>,
    moloc_threads: Option<u64>,
    benchmarks: Vec<Benchmark>,
    comparisons: Vec<Comparison>,
}

/// Renders the runner-shape header of one file for the comparison
/// banner: machine parallelism plus the effective env pins.
fn describe_shape(f: &BenchFile) -> String {
    let opt = |v: Option<u64>| v.map_or("unset".to_string(), |n| n.to_string());
    format!(
        "{} threads, avail {}, MOLOC_THREADS {}",
        f.parallel_threads,
        opt(f.available_parallelism),
        opt(f.moloc_threads),
    )
}

#[derive(Debug, Deserialize)]
struct Benchmark {
    name: String,
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
    samples: u64,
    iters_per_sample: u64,
}

#[derive(Debug, Deserialize)]
struct Comparison {
    name: String,
    baseline: String,
    speedup: f64,
}

/// One `--min-speedup`/`--max-speedup` gate over a named comparison in
/// the new file.
struct SpeedupGate {
    name: String,
    bound: f64,
    /// `true`: the comparison's speedup must be >= `bound`;
    /// `false`: it must be <= `bound`.
    is_min: bool,
}

struct Args {
    old: String,
    new: String,
    tolerance: f64,
    gates: Vec<SpeedupGate>,
}

fn parse_gate(flag: &str, spec: &str, is_min: bool) -> Result<SpeedupGate, String> {
    let (name, bound) = spec
        .rsplit_once(':')
        .ok_or_else(|| format!("{flag} expects NAME:RATIO, got {spec}"))?;
    let bound: f64 = bound
        .parse()
        .map_err(|_| format!("{flag}: invalid ratio in {spec}"))?;
    if !(bound.is_finite() && bound > 0.0) || name.is_empty() {
        return Err(format!("{flag}: malformed gate {spec}"));
    }
    Ok(SpeedupGate {
        name: name.to_string(),
        bound,
        is_min,
    })
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        old: "BENCH_pr1.json".to_string(),
        new: "BENCH_pr2.json".to_string(),
        tolerance: 1.25,
        gates: Vec::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--old" => args.old = value("--old")?,
            "--new" => args.new = value("--new")?,
            "--tolerance" => {
                let v = value("--tolerance")?;
                args.tolerance = v.parse().map_err(|_| format!("invalid tolerance: {v}"))?;
            }
            "--min-speedup" => {
                let v = value("--min-speedup")?;
                args.gates.push(parse_gate("--min-speedup", &v, true)?);
            }
            "--max-speedup" => {
                let v = value("--max-speedup")?;
                args.gates.push(parse_gate("--max-speedup", &v, false)?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_check [--old FILE] [--new FILE] [--tolerance RATIO] \
                     [--min-speedup NAME:X]... [--max-speedup NAME:X]..."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !(args.tolerance.is_finite() && args.tolerance >= 1.0) {
        return Err(format!("tolerance must be >= 1.0, got {}", args.tolerance));
    }
    Ok(args)
}

fn load(path: &str) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e:?}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let (old, new) = match (load(&args.old), load(&args.new)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for e in [o.err(), n.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            std::process::exit(2);
        }
    };
    println!(
        "comparing PR {} ({}; {}) -> PR {} ({}; {}), tolerance {:.2}x",
        old.pr,
        args.old,
        describe_shape(&old),
        new.pr,
        args.new,
        describe_shape(&new),
        args.tolerance,
    );

    let mut regressions = 0usize;
    let mut shared = 0usize;
    for nb in &new.benchmarks {
        let Some(ob) = old.benchmarks.iter().find(|b| b.name == nb.name) else {
            println!("  NEW       {:<48} {:>12.1} ns", nb.name, nb.mean_ns);
            continue;
        };
        shared += 1;
        let ratio = nb.mean_ns / ob.mean_ns;
        let status = if ratio > args.tolerance {
            regressions += 1;
            "REGRESSED"
        } else if ratio < 1.0 {
            "faster"
        } else {
            "ok"
        };
        println!(
            "  {:<9} {:<48} {:>12.1} -> {:>12.1} ns ({:.2}x)",
            status, nb.name, ob.mean_ns, nb.mean_ns, ratio,
        );
        // Sanity: a benchmark with absurd sampling is a broken run, not
        // a measurement — refuse to certify it.
        if nb.samples == 0 || nb.iters_per_sample == 0 || nb.min_ns <= 0.0 || nb.median_ns <= 0.0 {
            eprintln!("error: malformed measurement for {}", nb.name);
            std::process::exit(2);
        }
    }
    for ob in &old.benchmarks {
        if !new.benchmarks.iter().any(|b| b.name == ob.name) {
            println!("  RETIRED   {:<48} {:>12.1} ns", ob.name, ob.mean_ns);
        }
    }
    for cmp in &new.comparisons {
        println!(
            "  speedup   {:<48} {:.2}x over {}",
            cmp.name, cmp.speedup, cmp.baseline
        );
    }

    let mut gate_failures = 0usize;
    for gate in &args.gates {
        let Some(cmp) = new.comparisons.iter().find(|c| c.name == gate.name) else {
            eprintln!(
                "error: gated comparison {} not found in {}",
                gate.name, args.new
            );
            std::process::exit(2);
        };
        let (op, holds) = if gate.is_min {
            (">=", cmp.speedup >= gate.bound)
        } else {
            ("<=", cmp.speedup <= gate.bound)
        };
        let status = if holds {
            "gate ok"
        } else {
            gate_failures += 1;
            "GATE FAIL"
        };
        println!(
            "  {:<9} {:<48} {:.3}x (required {op} {:.3}x)",
            status, gate.name, cmp.speedup, gate.bound
        );
    }

    if shared == 0 {
        eprintln!("error: the two files share no benchmark names");
        std::process::exit(2);
    }
    if gate_failures > 0 {
        eprintln!("{gate_failures} speedup gate(s) failed");
        std::process::exit(1);
    }
    if regressions > 0 {
        eprintln!(
            "{regressions} of {shared} shared benchmarks regressed beyond {:.2}x",
            args.tolerance
        );
        std::process::exit(1);
    }
    println!("all {shared} shared benchmarks within tolerance");
}
