//! The repo benchmark: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as the last line of
//! standard output, one JSON object with the verified-op counts and every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`)
//! that `BENCHMARK.json` declares. See `README.md` beside `Cargo.toml`.

mod host;
mod ledger;
mod metrics;
mod trace;
mod workloads;

use host::SlowDown;
use matcha::tfhe::ParameterSet;
use metrics::{median, quantile, Report, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Approx38M3, Checker, GateLoop, ServeBitwise16, WireAdder4, Workload, F64M2};

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops run (and verified) inside every set-up, before the measured phase.
const WARMUP_OPS: usize = 5;
/// Probe samples after every op, per gate bootstrap the op cost: the probe
/// sees the host at the moments the workload does, for under 2 % of the
/// run's time.
const PROBES_PER_BOOTSTRAP: usize = 4;
/// Probe samples of either kind inside every set-up: key elements right
/// after the keys are built, steps in equal shares after the warm-up ops.
const SETUP_PROBES: usize = 300;
/// A traced run alternates traced and untraced blocks of this many gate
/// bootstraps, so host drift hits both sides of `trace.overhead_share`.
const TRACE_BLOCK_BOOTSTRAPS: usize = 10;
/// Share of `--seconds` a traced run gives the workload; the ledger gets
/// the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.5;

pub struct RunSpec {
    /// The paper's parameters for the benchmark, a fast insecure set for
    /// the smoke tests.
    pub params: ParameterSet,
    pub seed: u64,
    pub seconds: f64,
    /// Stop after this many ops instead of after `seconds` (smoke tests).
    pub max_ops: Option<usize>,
}

/// What the set-ups of a run took, by the kind of work it was, and how
/// much the host slowed each kind while they ran.
#[derive(Default)]
struct SetUps {
    /// Per set-up: keys from the seed, servers and sessions started.
    build_s: Vec<f64>,
    build_slow_down: SlowDown,
    /// Per set-up: the warm-up ops, run and verified.
    warm_up_s: Vec<f64>,
    warm_up_slow_down: SlowDown,
}

impl SetUps {
    /// One complete set-up, timed and probed.
    fn run<W: Workload>(&mut self, spec: &RunSpec, check: &mut Checker) -> W {
        let mut quiet = Recorder::new(false);
        let t0 = Instant::now();
        let mut workload = W::setup(spec.params, spec.seed);
        self.build_s.push(t0.elapsed().as_secs_f64());
        self.build_slow_down
            .sample(SETUP_PROBES, || workload.probe_setup());
        // Summed op times: checking an op's output is the harness's work.
        let mut warm_up_s = 0.0;
        for _ in 0..WARMUP_OPS {
            warm_up_s += workload.op(&mut quiet, check) / 1e3;
            self.warm_up_slow_down
                .sample(SETUP_PROBES / WARMUP_OPS, || workload.probe_op());
        }
        self.warm_up_s.push(warm_up_s);
        workload
    }

    /// Median set-up time as the clock read it.
    fn clock_s(&self) -> f64 {
        self.median_s(1.0, 1.0)
    }

    /// Median set-up time at the host's quiet speed.
    fn quiet_s(&self) -> f64 {
        self.median_s(
            self.build_slow_down.factor(),
            self.warm_up_slow_down.factor(),
        )
    }

    fn median_s(&self, build_slow_down: f64, warm_up_slow_down: f64) -> f64 {
        let each: Vec<f64> = self
            .build_s
            .iter()
            .zip(&self.warm_up_s)
            .map(|(build, warm_up)| build / build_slow_down + warm_up / warm_up_slow_down)
            .collect();
        median(&each)
    }
}

/// The measured phase of a run.
struct Phase {
    /// Per-op wall times in ms, by whether the op's block was traced.
    traced: Vec<f64>,
    untraced: Vec<f64>,
    /// How much the host slowed the ops, probed after every one of them.
    slow_down: SlowDown,
    host: host::Covariates,
}

impl Phase {
    fn host_rows(&self) -> [(&'static str, f64); 6] {
        [
            ("host.slow_down", self.slow_down.factor()),
            ("host.probe_us_quiet", self.slow_down.quiet_us()),
            ("host.probe_us_mean", self.slow_down.mean_us()),
            ("host.cpu_per_wall", self.host.cpu_per_wall),
            ("host.run_delay_share", self.host.run_delay_share),
            ("host.steal_share", self.host.steal_share),
        ]
    }
}

/// The closed loop: the next op starts when the previous one was answered
/// and checked. With `rec` on, blocks of ops alternate traced/untraced.
fn closed_loop<W: Workload>(
    workload: &mut W,
    spec: &RunSpec,
    seconds: f64,
    rec: &mut Recorder,
    check: &mut Checker,
) -> Phase {
    let tracing = rec.is_on();
    let block = (TRACE_BLOCK_BOOTSTRAPS / W::BOOTSTRAPS_PER_OP).max(1);
    // Both sides of the overhead ratio need at least one block.
    let min_ops = if tracing { 2 * block } else { 1 };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut slow_down = SlowDown::default();
    let window = host::Window::open();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops: usize = 0;
    loop {
        let on = tracing && (ops / block).is_multiple_of(2);
        rec.set_on(on);
        let ms = workload.op(rec, check);
        slow_down.sample(PROBES_PER_BOOTSTRAP * W::BOOTSTRAPS_PER_OP, || {
            workload.probe_op()
        });
        if on { &mut traced } else { &mut untraced }.push(ms);
        ops += 1;
        let enough = match spec.max_ops {
            Some(max) => ops >= max,
            None => Instant::now() >= deadline,
        };
        if enough && ops >= min_ops {
            break;
        }
    }
    rec.set_on(tracing);
    Phase {
        traced,
        untraced,
        slow_down,
        host: window.close(),
    }
}

/// `--trace 0`: three set-ups, then the closed loop for `seconds`. The
/// three time metrics are reported at the host's quiet speed: what the
/// clock read, divided by how much the host slowed that kind of work
/// while it ran (`host::SlowDown`). The clock's own values ride along.
fn run_end_to_end<W: Workload>(spec: &RunSpec) -> Report {
    let mut check = Checker::default();
    let mut setups = SetUps::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some(previous) = ready.as_mut() {
            // Key generation is one opaque call: probe right before it as
            // well as right after, on the keys about to be dropped.
            setups
                .build_slow_down
                .sample(SETUP_PROBES, || W::probe_setup(previous));
        }
        // Drop the previous set-up first: they must not overlap in memory.
        drop(ready.take());
        ready = Some(setups.run::<W>(spec, &mut check));
    }
    let mut workload: W = ready.expect("SETUPS > 0");
    let mut quiet = Recorder::new(false);
    let phase = closed_loop(&mut workload, spec, spec.seconds, &mut quiet, &mut check);
    drop(workload);

    let lat = &phase.untraced;
    let op_ms_p50 = median(lat);
    // Harness time between ops (checking, probing) is not the system's:
    // ops over the summed op times, i.e. 1 / mean latency.
    let ops_per_s = lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3);
    let (setup_s, quiet_setup_s) = (setups.clock_s(), setups.quiet_s());
    let op_slow_down = phase.slow_down.factor();

    // The result line holds exactly the end-to-end metrics; what the clock
    // read and the covariates go on a line of their own before it.
    let aside: Vec<String> = [
        ("clock.op_ms_p50", op_ms_p50),
        ("clock.ops_per_s", ops_per_s),
        ("clock.setup_s", setup_s),
        ("host.setup_slow_down", setup_s / quiet_setup_s),
    ]
    .into_iter()
    .chain(phase.host_rows())
    .chain([("ops", lat.len() as f64)])
    .map(|(name, value)| format!("\"{name}\": {value}"))
    .collect();
    println!("{{\"ungated\": {{{}}}}}", aside.join(", "));

    let mut report = Report {
        attempted: check.attempted,
        failed: check.failed,
        ..Report::default()
    };
    report.set("op_ms_p50", op_ms_p50 / op_slow_down);
    report.set("ops_per_s", ops_per_s * op_slow_down);
    report.set("setup_s", quiet_setup_s);
    report.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    report
}

/// `--trace 1`: one set-up, the closed loop in alternating traced and
/// untraced blocks, then the layer ledger; spans go to `trace_out`.
fn run_per_layer<W: Workload>(spec: &RunSpec, trace_out: &Path) -> std::io::Result<Report> {
    let mut check = Checker::default();
    let mut rec = Recorder::new(true);
    let mut workload: W = SetUps::default().run(spec, &mut check);
    let seconds = spec.seconds * TRACED_WORKLOAD_SHARE;
    let phase = closed_loop(&mut workload, spec, seconds, &mut rec, &mut check);
    // The ledger builds both key sets; free this one first.
    drop(workload);

    let mut report = Report::default();
    let all: Vec<f64> = phase
        .traced
        .iter()
        .chain(&phase.untraced)
        .copied()
        .collect();
    for (name, value) in phase.host_rows() {
        report.set(name, value);
    }
    report.set("tail.op_ms_p90", quantile(&all, 0.90));
    report.set("tail.op_ms_p99", quantile(&all, 0.99));
    report.set("tail.samples", all.len() as f64);
    report.set(
        "trace.overhead_share",
        median(&phase.traced) / median(&phase.untraced) - 1.0,
    );

    let budget = Duration::from_secs_f64(spec.seconds - seconds);
    ledger::run(
        spec.params,
        spec.seed,
        budget,
        &mut rec,
        &mut check,
        &mut report,
    );
    report.attempted = check.attempted;
    report.failed = check.failed;

    rec.write_jsonl(trace_out)?;
    eprintln!(
        "{} spans written to {}",
        rec.spans().len(),
        trace_out.display()
    );
    eprintln!(
        "{:<40} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in trace::summary(rec.spans()) {
        eprintln!(
            "{name:<40} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(report)
}

/// Runs `workload` by name; `trace_out` selects the per-layer mode.
/// `None` for a name `BENCHMARK.json` does not declare.
fn run_named(
    workload: &str,
    spec: &RunSpec,
    trace_out: Option<&Path>,
) -> Option<std::io::Result<Report>> {
    fn go<W: Workload>(spec: &RunSpec, trace_out: Option<&Path>) -> std::io::Result<Report> {
        match trace_out {
            Some(path) => run_per_layer::<W>(spec, path),
            None => Ok(run_end_to_end::<W>(spec)),
        }
    }
    let run = match workload {
        <GateLoop<F64M2> as Workload>::NAME => go::<GateLoop<F64M2>>,
        <GateLoop<Approx38M3> as Workload>::NAME => go::<GateLoop<Approx38M3>>,
        ServeBitwise16::NAME => go::<ServeBitwise16>,
        WireAdder4::NAME => go::<WireAdder4>,
        _ => return None,
    };
    Some(run(spec, trace_out))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// The build directory, which `.gitignore` already covers: where spans go
/// unless `--trace-out` says otherwise.
fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "{message}\nusage: benchmark --workload <{}> --seed <u64> --seconds <s> \
                 --trace <0|1> [--trace-out <file>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spec = RunSpec {
        params: ParameterSet::MATCHA,
        seed: args.seed,
        seconds: args.seconds,
        max_ops: None,
    };
    let trace_out = args.trace.then(|| {
        args.trace_out
            .unwrap_or_else(|| build_dir().join(format!("trace/{}.jsonl", args.workload)))
    });
    let report = match run_named(&args.workload, &spec, trace_out.as_deref()) {
        Some(Ok(report)) => report,
        Some(Err(error)) => {
            eprintln!("cannot write the trace: {error}");
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!(
                "unknown workload {}; one of {}",
                args.workload,
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        report.to_json(if args.trace { &PER_LAYER } else { &END_TO_END })
    );
    // An op that failed verification fails the run, after it is reported.
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> RunSpec {
        RunSpec {
            params: ParameterSet::TEST_FAST,
            seed,
            seconds: 0.2,
            max_ops: Some(3),
        }
    }

    #[test]
    fn every_workload_runs_end_to_end_with_outputs_verified() {
        for (i, name) in WORKLOADS.into_iter().enumerate() {
            let report = run_named(name, &smoke(11 + i as u64), None)
                .expect("declared workloads dispatch")
                .unwrap();
            // Three set-ups of five warm-up ops, then three measured ops.
            assert_eq!(report.attempted, (SETUPS * WARMUP_OPS + 3) as u64, "{name}");
            assert!(report.correct(), "{name}: {}", report.to_json(&END_TO_END));
            for def in &END_TO_END {
                assert!(report.get(def.name) > 0.0, "{name}: {}", def.name);
            }
        }
        assert!(run_named("no_such_workload", &smoke(1), None).is_none());
    }

    #[test]
    fn every_workload_runs_traced_and_prints_the_whole_ledger() {
        let dir = build_dir().join(format!("trace/test-{}", std::process::id()));
        for (i, name) in WORKLOADS.into_iter().enumerate() {
            let out = dir.join(format!("{name}.jsonl"));
            let report = run_named(name, &smoke(21 + i as u64), Some(&out))
                .expect("declared workloads dispatch")
                .unwrap();
            // `to_json` panics unless exactly the declared metrics are set.
            let line = report.to_json(&PER_LAYER);
            assert!(report.correct(), "{name}: {line}");
            assert_eq!(report.get("server.not_completed"), 0.0);
            assert_eq!(report.get("circuit.waves.bitwise16"), 1.0);
            assert_eq!(report.get("circuit.bootstraps.bitwise16"), 16.0);
            assert_eq!(report.get("server.dispatches_per_op.bitwise16"), 1.0);
            let spans = std::fs::read_to_string(&out).unwrap();
            for needle in ["\"name\":\"request\"", "\"name\":\"replay.wire_adder4\""] {
                assert!(spans.contains(needle), "{name}: no {needle} span");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wrong_expectation_is_a_failed_op_not_a_panic_and_not_a_pass() {
        fn one_flipped<W: Workload>() {
            let spec = smoke(31);
            let mut check = Checker::default();
            let mut workload: W = SetUps::default().run(&spec, &mut check);
            assert_eq!((check.attempted, check.failed), (WARMUP_OPS as u64, 0));
            check.flip_next = true;
            let mut quiet = Recorder::new(false);
            closed_loop(&mut workload, &spec, spec.seconds, &mut quiet, &mut check);
            assert_eq!(check.attempted, (WARMUP_OPS + 3) as u64, "{}", W::NAME);
            assert_eq!(check.failed, 1, "{}", W::NAME);
        }
        one_flipped::<GateLoop<F64M2>>();
        one_flipped::<GateLoop<Approx38M3>>();
        one_flipped::<ServeBitwise16>();
        one_flipped::<WireAdder4>();
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload wire_adder4 --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!((args.workload.as_str(), args.seed), ("wire_adder4", 7));
        assert!(args.trace && args.seconds == 20.0 && args.trace_out.is_none());
        assert!(parse("--workload w --seed 7 --seconds 20").is_err());
        assert!(parse("--workload w --seed -1 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload w --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload w --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload w --seed 1 --seconds 5 --trace 0 --bogus 1").is_err());
    }
}
