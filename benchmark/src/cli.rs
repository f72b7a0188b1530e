//! The command line: run one workload (or all, one child process each),
//! `describe` the benchmark, or run the suite twice and compare (`aa`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::catalog::{self, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::json::{self, Json};
use crate::run::{self, Measured, Mode, Plan, PASSES_IN_TRACE_FILE};
use crate::scratch::Scratch;
use crate::stats::{low_decile, median, quartiles, tail};
use crate::trace::{self, Tracer};
use crate::workloads::{FULL, QUICK};

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       benchmark describe
       benchmark aa [--seed N] [--seconds S] [--quick]

Without --workload every workload runs, one child process each, one at a
time. --trace 1 makes the traced run that yields the per-layer metrics and
writes benchmark/out/trace-<workload>.json. --quick is a one-pass smoke at
reduced sizes. `describe` prints BENCHMARK.json. `aa` runs the whole suite
twice and fails unless every exact count and result_digest is identical and
every end-to-end metric agrees within its bound.";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a name")?.clone()),
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds is out of range".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "describe" | "aa" if args.command.is_none() => args.command = Some(arg.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("describe"), _) => {
            print!("{}", catalog::benchmark_json());
            ExitCode::SUCCESS
        }
        (Some("aa"), _) => aa(&args),
        (_, None | Some("all")) => all(&args),
        (_, Some(name)) => match catalog::workload(name) {
            Some(w) => one(w.name, &args),
            None => {
                eprintln!("benchmark: unknown workload `{name}`\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process.

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn one(workload: &'static str, args: &Args) -> ExitCode {
    let out = out_dir();
    let scratch = match Scratch::create(&out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: no scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sizes = if args.quick { &QUICK } else { &FULL };
    let plan = Plan {
        mode: if args.traced { Mode::Traced } else { Mode::Untraced },
        seconds: if args.quick { 0.0 } else { args.seconds },
        min_passes: match (args.quick, args.traced) {
            (true, false) => 1,
            (true, true) => 2,
            (false, false) => 3,
            (false, true) => 6,
        },
        setups: if args.quick { 1 } else { 3 },
        // The traced run reports no `setup_s`, and a set-up before every
        // other pass would bias its traced-against-untraced comparison.
        setup_share: if args.quick || args.traced { 0.0 } else { 0.1 },
    };
    let main = run::measure(workload, args.seed, sizes, &scratch, &plan);
    let peak_rss_mb = run::peak_rss_mb();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {workload}  seed {}  trace {}  sizes {}  scratch_fs {}",
        args.seed,
        u8::from(args.traced),
        if args.quick { "quick" } else { "full" },
        scratch.fs()
    );
    if scratch.fs() == "disk" && matches!(workload, "sim-durable" | "es-sync") {
        let _ = writeln!(
            text,
            "warning: scratch is on disk; {workload} numbers include write-back noise"
        );
    }
    let _ = writeln!(text, "result_digest {:016x}", main.reference.digest());
    let _ = writeln!(
        text,
        "passes {} attempted, {} failed (failed_share {})",
        main.attempted,
        main.failed,
        main.failed as f64 / main.attempted as f64
    );
    for f in &main.failures {
        let _ = writeln!(text, "FAILED {workload} {f}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.traced {
        let survey =
            Plan { mode: Mode::Survey, seconds: 0.0, min_passes: 1, setups: 1, setup_share: 0.0 };
        let surveys: Vec<Measured> = WORKLOADS
            .iter()
            .filter(|w| w.name != workload)
            .map(|w| run::measure(w.name, args.seed, sizes, &scratch, &survey))
            .collect();
        let probes = run::probes(args.seed, args.quick, &mut Tracer::new(false));
        render_layers(&mut text, &main);
        if let Err(e) = write_trace(&out, &main, args.seed) {
            eprintln!("benchmark: trace file not written: {e}");
            return ExitCode::FAILURE;
        }
        run::per_layer(&main, &surveys, &probes)
            .into_iter()
            .map(|(def, value)| (def.name, def.unit, value))
            .collect()
    } else {
        let pass_s = low_decile(main.timed());
        render_passes(&mut text, &main, pass_s);
        vec![
            ("pass_s", "s", pass_s),
            ("peak_rss_mb", "MB", peak_rss_mb),
            ("setup_s", "s", low_decile(&main.setup_s)),
        ]
    };
    for (name, unit, value) in &metrics {
        let _ = writeln!(text, "{name:<42} {value:>16.6} {unit}");
    }

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        main.failed == 0,
        main.attempted,
        main.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    print!("{text}");
    println!("{line}");
    drop(scratch);
    if main.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_passes(text: &mut String, m: &Measured, pass_s: f64) {
    let timed = m.timed();
    let (q1, q3) = quartiles(timed);
    let (pct, tail_s) = tail(timed);
    let (units, label) = m.work;
    let _ = writeln!(
        text,
        "pass: p10 {pass_s:.6} s of {} samples, q1 {q1:.6} median {:.6} q3 {q3:.6} p{pct} {tail_s:.6}; \
         {units:.0} {label} per pass, {:.0} {label}/s",
        timed.len(),
        median(timed),
        units / pass_s
    );
    let _ = writeln!(
        text,
        "setup: p10 of {} set-ups (median {:.6} s)",
        m.setup_s.len(),
        median(&m.setup_s)
    );
    let _ = write!(text, "pass_ms");
    for s in timed {
        let _ = write!(text, " {:.2}", s * 1e3);
    }
    text.push('\n');
}

fn render_layers(text: &mut String, m: &Measured) {
    let traced = low_decile(&m.traced_s);
    let covered: f64 = m.layer_self_s.values().sum();
    let _ = writeln!(
        text,
        "traced pass: p10 {traced:.6} s of {} samples (untraced p10 {:.6} s of {})",
        m.traced_s.len(),
        low_decile(&m.untraced_s),
        m.untraced_s.len()
    );
    let _ = writeln!(
        text,
        "self time per pass, by layer (mean over the fastest quarter of the traced passes):"
    );
    for (layer, secs) in &m.layer_self_s {
        let _ = writeln!(text, "  {layer:<24} {secs:>12.6} s {:>6.1}%", 100.0 * secs / covered);
    }
    let _ = writeln!(
        text,
        "  {:<24} {covered:>12.6} s = {:.1}% of the traced p10",
        "sum",
        100.0 * covered / traced
    );
}

fn write_trace(out: &std::path::Path, m: &Measured, seed: u64) -> std::io::Result<()> {
    // Set-up, the warm-up pass and the first few traced passes: a pass of
    // es-ingest alone is ~14 000 spans.
    let mut kept = vec![0u32];
    for s in m.tracer.spans() {
        if !kept.contains(&s.pass) && kept.len() <= PASSES_IN_TRACE_FILE as usize {
            kept.push(s.pass);
        }
    }
    let text = trace::render_json(m.workload, seed, m.tracer.spans(), |pass| kept.contains(&pass));
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join(format!("trace-{}.json", m.workload)), text)
}

// ---------------------------------------------------------------------------
// Child runs: all workloads, and the A/A comparison.

fn child(workload: &str, args: &Args, traced: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    cmd
}

fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        let status = child(w.name, args, args.traced).status();
        ok &= status.is_ok_and(|s| s.success());
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed.
struct Printed {
    digest: String,
    metrics: Vec<(String, f64)>,
}

fn run_child(workload: &str, args: &Args, traced: bool) -> Result<Printed, String> {
    let output = child(workload, args, traced)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} (trace {}) failed:\n{stdout}", u8::from(traced)));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("result_digest "))
        .ok_or(format!("{workload}: no result_digest line"))?
        .to_string();
    let doc = json::parse(stdout.lines().last().unwrap_or_default())?;
    let Some(Json::Obj(map)) = doc.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    let metrics = map
        .iter()
        .map(|(name, m)| (name.clone(), m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)))
        .collect();
    Ok(Printed { digest, metrics })
}

fn aa(args: &Args) -> ExitCode {
    let mut problems = Vec::new();
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B/A-1", "bound"
    );
    for w in &WORKLOADS {
        for traced in [false, true] {
            let pair = run_child(w.name, args, traced)
                .and_then(|a| Ok((a, run_child(w.name, args, traced)?)));
            let (a, b) = match pair {
                Ok(pair) => pair,
                Err(e) => {
                    problems.push(e);
                    continue;
                }
            };
            if a.digest != b.digest {
                problems.push(format!("{}: result_digest {} vs {}", w.name, a.digest, b.digest));
            }
            for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
                if let Some(def) = END_TO_END.iter().find(|m| m.name == name) {
                    let change = vb / va - 1.0;
                    println!(
                        "{:<14} {:<12} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>6.0}%",
                        w.name,
                        name,
                        100.0 * change,
                        100.0 * def.bound
                    );
                    if change.abs() > def.bound {
                        problems
                            .push(format!("{} {name}: {va} vs {vb} is past {}", w.name, def.bound));
                    }
                } else if catalog::per_layer(name).is_some_and(|m| m.exact) && va != vb {
                    problems.push(format!("{} {name}: exact count {va} vs {vb}", w.name));
                }
            }
        }
    }
    for p in &problems {
        println!("A/A MISMATCH {p}");
    }
    if problems.is_empty() {
        println!("A/A agrees: every exact count and result_digest identical, every end-to-end metric within its bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
