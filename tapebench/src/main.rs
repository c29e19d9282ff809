//! `tapebench`: the tapesim benchmark.
//!
//! ```text
//! tapebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times repetitions of one workload for `--seconds`
//! seconds with no instrumentation and reports the end-to-end metrics;
//! with `--trace 1` it splits the time between untraced repetitions,
//! repetitions under the span recorder, and repetitions with the
//! program's own trace on, reports the per-layer metrics, and writes the
//! spans of one repetition to `.bench_out/<workload>.spans.tsv`. Either way
//! it checks the simulated answers (see `check_*` below), prints a
//! readable table on stderr, and prints the result as one JSON line,
//! last on stdout. See `README.md` beside this package for the metrics.

mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tapesim::sim::check_trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Name;
use stats::{call_times, fastest, median};
use workloads::{batch_answer, run_rep, Answer, Probe, Rep, Workload};

const USAGE: &str = "usage: tapebench --workload <paper-envelope|fleet-service|writeback-mix> \
--seed <n> --seconds <s> --trace <0|1>";

/// Where a traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_out";

/// Fewest timed repetitions per measured set, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Shares of `--seconds` for the three passes of a traced run.
const UNTRACED_SHARE: f64 = 0.4;
const SPANS_SHARE: f64 = 0.4;
const PROGRAM_TRACE_SHARE: f64 = 0.2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    horizon_s: u64,
    /// Where a traced run writes its spans (nowhere in the tests).
    spans_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(bad("expected 0 < seconds <= 120"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload: Workload = workload.ok_or("--workload is required")?;
        let trace = trace.ok_or("--trace is required")?;
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            horizon_s: workload.horizon_s(),
            spans_out: trace
                .then(|| Path::new(SPANS_DIR).join(format!("{}.spans.tsv", workload.name()))),
        })
    }

    fn rep(&self, probe: Probe) -> Result<Rep, String> {
        run_rep(self.workload, self.horizon_s, self.seed, probe)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tapebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    // Simulated requests submitted across the measured repetitions.
    let mut attempted = 0;
    let measured = if args.trace {
        per_layer(&args, &mut attempted)
    } else {
        end_to_end(&args, &mut attempted)
    };
    let attempted = attempted.max(1);
    let (outcome, code) =
        match measured.and_then(|values| Outcome::new(true, attempted, 0, catalogue, &values)) {
            Ok(out) => (out, ExitCode::SUCCESS),
            Err(e) => {
                eprintln!("tapebench: {}: {e}", args.workload.name());
                let zeros = catalogue.iter().map(|&(n, _)| (n, 0.0)).collect();
                let out = Outcome::new(false, attempted, attempted, catalogue, &zeros)
                    .expect("every catalogue metric has a value");
                (out, ExitCode::FAILURE)
            }
        };
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:32} {value:>16.6} {unit}");
    }
    println!("{}", outcome.to_json());
    code
}

/// Runs `f` until `budget_s` seconds have passed and at least `min`
/// times.
fn repeat(
    budget_s: f64,
    min: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < budget_s {
        f()?;
        n += 1;
    }
    Ok(n)
}

/// An untimed repetition whose answer every later repetition must
/// reproduce. It must satisfy the conservation laws and, where the
/// workload has a batch entry point, equal that entry point's answer.
fn reference(args: &Args) -> Result<Answer, String> {
    let answer = args.rep(Probe::Off)?.answer;
    answer.check_conservation()?;
    if let Some(batch) = batch_answer(args.workload, args.horizon_s, args.seed)? {
        check_same(&answer, &batch, "the batch entry point")?;
    }
    Ok(answer)
}

fn check_same(reference: &Answer, got: &Answer, what: &str) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{what} gave a different simulated answer:\n  expected {:?}\n  got      {:?}",
            reference.report(),
            got.report()
        ))
    }
}

/// The program's own trace must satisfy every invariant `check_trace`
/// knows and agree with the report on arrivals and completions.
fn check_program_trace(rep: &Rep) -> Result<(), String> {
    let stats = check_trace(&rep.trace).map_err(|v| {
        let first = v.first().map(ToString::to_string).unwrap_or_default();
        format!("{} trace invariant violation(s); first: {first}", v.len())
    })?;
    let r = rep.answer.report();
    if stats.arrivals != r.admitted || stats.completions != r.served {
        return Err(format!(
            "trace counts disagree with the report: {} arrivals / {} completions traced, \
             {} admitted / {} served reported",
            stats.arrivals, stats.completions, r.admitted, r.served
        ));
    }
    Ok(())
}

fn write_spans(rep: &Rep, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans::write_spans(&rep.rec.spans(), &mut file)?;
    file.flush()
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn end_to_end(args: &Args, attempted: &mut u64) -> Result<BTreeMap<&'static str, f64>, String> {
    let answer = reference(args)?;
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    repeat(args.seconds, MIN_REPS, || {
        let rep = args.rep(Probe::Off)?;
        *attempted += rep.answer.submitted();
        check_same(&answer, &rep.answer, "a timed repetition")?;
        setup.push(rep.setup_s);
        run.push(rep.run_s);
        Ok(())
    })?;
    // Read before the probed passes below, whose buffers would count.
    let rss = peak_rss_mb()?;
    let spanned = args.rep(Probe::Spans)?;
    check_same(&answer, &spanned.answer, "the span-traced repetition")?;
    let traced = args.rep(Probe::ProgramTrace)?;
    check_same(&answer, &traced.answer, "the program-traced repetition")?;
    check_program_trace(&traced)?;

    let r = answer.report();
    // Every repetition does the same simulated work (checked above), so
    // the fastest is the one the host disturbed least.
    let run_s = fastest(&run);
    let submitted = answer.submitted().max(1) as f64;
    Ok(BTreeMap::from([
        ("run_s", run_s),
        ("host_req_per_s", answer.resolved() as f64 / run_s),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", rss),
        ("sim_kb_per_s", r.throughput_kb_per_s),
        ("sim_mean_delay_s", r.mean_delay_s),
        ("sim_p99_delay_s", r.p99_delay_s),
        ("ok_frac", 1.0 - answer.failed() as f64 / submitted),
    ]))
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host times of one span-traced repetition.
fn span_times(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let s = rep.rec.summarize();
    let run = s.get(Name::Run).total_ns.max(1);
    let sched = s.get(Name::SchedMajor).self_ns + s.get(Name::SchedArrival).self_ns;
    let engine = s.get(Name::EngineStep).self_ns;
    let service = s.get(Name::ServiceSubmit).self_ns + s.get(Name::ServiceRunUntil).self_ns;
    let finish = s.get(Name::MetricsFinish).self_ns;
    BTreeMap::from([
        ("sched.major.self_s", secs(s.get(Name::SchedMajor).self_ns)),
        (
            "sched.arrival.self_s",
            secs(s.get(Name::SchedArrival).self_ns),
        ),
        ("sim.engine.self_s", secs(engine)),
        (
            "sim.engine.ns_per_request",
            ratio(engine, rep.answer.resolved()),
        ),
        (
            "sim.service.submit.self_s",
            secs(s.get(Name::ServiceSubmit).self_ns),
        ),
        (
            "sim.service.run_until.self_s",
            secs(s.get(Name::ServiceRunUntil).self_ns),
        ),
        ("sim.metrics.finish_s", secs(finish)),
        ("layout.build_s", secs(s.get(Name::LayoutBuild).total_ns)),
        ("workload.gen_s", secs(s.get(Name::WorkloadGen).total_ns)),
        ("share.sched", ratio(sched, run)),
        ("share.sim.engine", ratio(engine, run)),
        ("share.sim.service", ratio(service, run)),
        ("share.sim.metrics", ratio(finish, run)),
        ("share.unattributed", ratio(s.get(Name::Run).self_ns, run)),
        ("bench.traced_run_s", secs(run)),
    ])
}

fn per_layer(args: &Args, attempted: &mut u64) -> Result<BTreeMap<&'static str, f64>, String> {
    let answer = reference(args)?;

    let mut untraced = Vec::new();
    repeat(args.seconds * UNTRACED_SHARE, MIN_REPS, || {
        let rep = args.rep(Probe::Off)?;
        *attempted += rep.answer.submitted();
        check_same(&answer, &rep.answer, "an untraced repetition")?;
        untraced.push(rep.run_s);
        Ok(())
    })?;
    let untraced_s = fastest(&untraced);

    // Layer times come from the fastest span-traced repetition, as
    // `run_s` does; call durations are pooled across repetitions; the
    // counters must repeat exactly.
    let (mut major_ns, mut submit_ns) = (Vec::new(), Vec::new());
    let mut best: Option<Rep> = None;
    let traced_reps = repeat(args.seconds * SPANS_SHARE, 1, || {
        let rep = args.rep(Probe::Spans)?;
        *attempted += rep.answer.submitted();
        check_same(&answer, &rep.answer, "a span-traced repetition")?;
        let s = rep.rec.summarize();
        major_ns.extend_from_slice(&s.get(Name::SchedMajor).durations_ns);
        submit_ns.extend_from_slice(&s.get(Name::ServiceSubmit).durations_ns);
        if let Some(b) = &best {
            if b.rec.counts() != rep.rec.counts() {
                return Err("span counters differ between repetitions".into());
            }
            if b.run_s <= rep.run_s {
                return Ok(());
            }
        }
        best = Some(rep);
        Ok(())
    })?;
    let best = best.ok_or("no span-traced repetition ran")?;
    if let Some(path) = &args.spans_out {
        write_spans(&best, path).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // (run_s, record self time) of the fastest program-traced repetition.
    let mut trace_best = (f64::INFINITY, 0.0);
    let mut records = 0;
    repeat(args.seconds * PROGRAM_TRACE_SHARE, 1, || {
        let rep = args.rep(Probe::ProgramTrace)?;
        *attempted += rep.answer.submitted();
        check_same(&answer, &rep.answer, "a program-traced repetition")?;
        if records == 0 {
            check_program_trace(&rep)?;
        }
        records = rep.trace.len();
        if rep.run_s < trace_best.0 {
            trace_best = (
                rep.run_s,
                secs(rep.rec.summarize().get(Name::TraceRecord).self_ns),
            );
        }
        Ok(())
    })?;

    let mut values = span_times(&best);
    let s = best.rec.summarize();
    let c = best.rec.counts();
    let major = s.get(Name::SchedMajor).calls;
    let arrivals = s.get(Name::SchedArrival).calls;
    let major_t = call_times(&major_ns);
    let submit_t = call_times(&submit_ns);
    let r = answer.report();
    let (rejected, expired, retries) = match &answer {
        Answer::Service(_, st) => (
            ratio(st.rejected, st.submitted),
            ratio(st.expired, st.submitted),
            st.retries as f64,
        ),
        _ => (0.0, 0.0, 0.0),
    };
    let (flushed, piggy, age, peak) = match &answer {
        Answer::WriteBack(wb) => (
            wb.deltas_flushed as f64,
            ratio(wb.piggyback_flushes, wb.piggyback_flushes + wb.idle_flushes),
            wb.mean_delta_age_s,
            wb.peak_buffer as f64,
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    let traced_s = values["bench.traced_run_s"];
    // The report sums drive occupancy over drives; these are per drive.
    let drives = f64::from(best.drives);
    values.extend([
        ("sched.major.calls", major as f64),
        ("sched.major.p50_us", major_t.p50 as f64 / 1e3),
        ("sched.major.tail_us", major_t.tail as f64 / 1e3),
        ("sched.major.tail_pct", major_t.tail_pct),
        ("sched.major.empty_frac", ratio(c.major_empty, major)),
        ("sched.arrival.calls", arrivals as f64),
        (
            "sched.arrival.inserted_frac",
            ratio(c.arrival_inserted, arrivals),
        ),
        ("sched.pending_mean", ratio(c.pending_sum, major)),
        (
            "sched.plan.requests_mean",
            ratio(c.plan_requests, major - c.major_empty),
        ),
        ("sim.engine.steps", s.get(Name::EngineStep).calls as f64),
        (
            "sim.engine.events",
            (r.served + r.failed_requests + r.cancelled) as f64,
        ),
        (
            "sim.service.submit.calls",
            s.get(Name::ServiceSubmit).calls as f64,
        ),
        ("sim.service.submit.p50_us", submit_t.p50 as f64 / 1e3),
        ("sim.service.submit.tail_us", submit_t.tail as f64 / 1e3),
        ("sim.service.submit.tail_pct", submit_t.tail_pct),
        ("sim.service.rejected_frac", rejected),
        ("sim.service.expired_frac", expired),
        ("sim.service.retries", retries),
        ("sim.writeback.deltas_flushed", flushed),
        ("sim.writeback.piggyback_frac", piggy),
        ("sim.writeback.mean_delta_age_s", age),
        ("sim.writeback.peak_buffer", peak),
        ("sim.trace.records", records as f64),
        ("sim.trace.record_self_s", trace_best.1),
        ("sim.trace.overhead_frac", trace_best.0 / untraced_s - 1.0),
        ("sim.metrics.delay_samples", r.delay_samples_us.len() as f64),
        ("layout.expansion", best.expansion),
        ("workload.requests", best.generated as f64),
        ("model.drive.locate_frac", r.locate_frac / drives),
        ("model.drive.read_frac", r.read_frac / drives),
        ("model.drive.switch_frac", r.switch_frac / drives),
        ("model.drive.idle_frac", r.idle_frac / drives),
        ("model.robot.switches_per_hour", r.switches_per_hour),
        ("model.reads_per_request", ratio(r.physical_reads, r.served)),
        ("bench.untraced_run_s", untraced_s),
        ("bench.span_overhead_ratio", traced_s / untraced_s),
        ("bench.traced_reps", traced_reps as f64),
        ("bench.spans", best.rec.span_count() as f64),
    ]);
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Args {
        Args {
            workload,
            seed,
            seconds: 0.001,
            trace,
            horizon_s: 20_000,
            spans_out: None,
        }
    }

    #[test]
    fn every_workload_runs_and_passes_its_checks_at_tiny_size() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let args = tiny(w, 3, trace);
                let mut attempted = 0;
                let values = if trace {
                    per_layer(&args, &mut attempted)
                } else {
                    end_to_end(&args, &mut attempted)
                }
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
                let catalogue = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                let out = Outcome::new(true, attempted, 0, catalogue, &values).unwrap();
                assert!(out.attempted > 0, "{}", w.name());
                assert!(out.metrics.iter().all(|(_, v, _)| v.is_finite()));
                if !trace {
                    for m in ["run_s", "setup_s", "sim_kb_per_s", "ok_frac"] {
                        assert!(values[m] > 0.0, "{}: {m} is {}", w.name(), values[m]);
                    }
                }
            }
        }
    }

    #[test]
    fn a_different_answer_fails_the_check() {
        for w in Workload::ALL {
            let a = tiny(w, 1, false).rep(Probe::Off).unwrap().answer;
            let b = tiny(w, 2, false).rep(Probe::Off).unwrap().answer;
            assert!(check_same(&a, &a, "same").is_ok());
            assert!(check_same(&a, &b, "other seed").is_err(), "{}", w.name());
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload fleet-service --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FleetService);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.horizon_s, Workload::FleetService.horizon_s());
        assert_eq!(
            a.spans_out.unwrap(),
            Path::new(".bench_out/fleet-service.spans.tsv")
        );
        let a = parse("--seed 7 --workload writeback-mix --trace 0 --seconds 0.5").unwrap();
        assert_eq!((a.workload, a.spans_out), (Workload::WritebackMix, None));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet-service --seed 1 --seconds 0 --trace 0",
            "--workload fleet-service --seed 1 --seconds 1 --trace 2",
            "--workload fleet-service --seed 1 --seconds 1",
            "--workload fleet-service --seed x --seconds 1 --trace 0",
            "--workload fleet-service --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload fleet-service --seed 1 --seconds 1 --trace 0 --horizon 5000",
            "--workload fleet-service --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
