//! The three workloads and the functions that run one repetition of each.
//!
//! Every repetition builds its inputs from the seed (set-up), then runs
//! the simulation through the crates' public API (the timed run). The
//! functions never call `set_parallel`, so every run is single-threaded.

use std::rc::Rc;
use std::time::Instant;

use tapesim::layout::{
    build_fleet_placement, build_placement, BlockId, LayoutKind, PlacedCatalog, PlacementConfig,
    PlacementScheme, ReplicaScope,
};
use tapesim::model::{
    substream, FaultConfig, InterLibraryModel, JukeboxGeometry, Micros, RobotModel, SimTime,
    Topology,
};
use tapesim::sched::{make_scheduler, AlgorithmId, Scheduler, TapeSelectPolicy};
use tapesim::sim::{
    run_one, run_with_writeback, AdmissionPolicy, CheckpointOpts, FlushPolicy, JukeboxService,
    MemorySink, MetricsReport, NullSink, RunSpec, ServiceConfig, ServiceStats, SimConfig,
    StepOutcome, SteppedEngine, SteppedMultiDrive, SteppedWriteBack, TraceRecord, TraceSink,
    WriteBackConfig, WriteBackReport,
};
use tapesim::workload::{generate_trace, ArrivalProcess, BlockSampler, RequestFactory};
use tapesim::ExperimentConfig;

use crate::spans::{maybe, Name, Recorder, TimedScheduler, TimedSink};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline configuration under a closed loop.
    PaperEnvelope,
    /// An open loop of users through `JukeboxService` on a 200-tape fleet.
    FleetService,
    /// Open reads beside delta writes destaged by piggybacking.
    WritebackMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperEnvelope,
        Workload::FleetService,
        Workload::WritebackMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEnvelope => "paper-envelope",
            Workload::FleetService => "fleet-service",
            Workload::WritebackMix => "writeback-mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated horizon of one benchmark repetition, in seconds.
    pub fn horizon_s(self) -> u64 {
        match self {
            Workload::PaperEnvelope => 10_000_000,
            Workload::FleetService => 200_000,
            Workload::WritebackMix => 30_000_000,
        }
    }
}

/// What a repetition records besides its own set-up and run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Nothing: the untraced, timed configuration.
    Off,
    /// Layer spans and counters (scheduler decorator, engine calls).
    Spans,
    /// The program's own trace, into a timed in-memory sink.
    ProgramTrace,
}

/// The simulated answer of one repetition; identical for every
/// repetition of one workload, size and seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A single-drive engine run.
    Engine(MetricsReport),
    /// A service run: the drained report and the service counters.
    Service(MetricsReport, ServiceStats),
    /// A write-back run.
    WriteBack(WriteBackReport),
}

impl Answer {
    /// The read-side metrics report.
    pub fn report(&self) -> &MetricsReport {
        match self {
            Answer::Engine(r) | Answer::Service(r, _) => r,
            Answer::WriteBack(wb) => &wb.reads,
        }
    }

    /// Requests handed to the system: service submissions (rejected ones
    /// included) or engine admissions.
    pub fn submitted(&self) -> u64 {
        match self {
            Answer::Service(_, s) => s.submitted,
            _ => self.report().admitted,
        }
    }

    /// Requests that failed permanently, expired or were rejected.
    pub fn failed(&self) -> u64 {
        match self {
            Answer::Service(_, s) => s.rejected + s.expired,
            _ => self.report().failed_requests,
        }
    }

    /// Requests that reached an outcome (served, failed, rejected or
    /// expired) — the requests whose fate the run resolved.
    pub fn resolved(&self) -> u64 {
        match self {
            Answer::Service(_, s) => s.completed + s.rejected + s.expired,
            _ => self.report().served + self.report().failed_requests,
        }
    }

    /// Checks the conservation laws the program promises.
    pub fn check_conservation(&self) -> Result<(), String> {
        let r = self.report();
        if r.admitted != r.served + r.failed_requests + r.unserved + r.cancelled {
            return Err(format!(
                "engine conservation violated: admitted {} != served {} + failed {} + \
                 unserved {} + cancelled {}",
                r.admitted, r.served, r.failed_requests, r.unserved, r.cancelled
            ));
        }
        if let Answer::Service(_, s) = self {
            if !s.check_conservation() {
                return Err(format!("service conservation violated: {s:?}"));
            }
        }
        Ok(())
    }
}

/// One repetition's measurements.
pub struct Rep {
    /// Host seconds of set-up: inputs, placement, scheduler and engine.
    pub setup_s: f64,
    /// Host seconds of the run, set-up excluded.
    pub run_s: f64,
    /// The simulated answer.
    pub answer: Answer,
    /// The placement's storage expansion factor.
    pub expansion: f64,
    /// Requests the workload generated.
    pub generated: u64,
    /// Tape drives simulated.
    pub drives: u16,
    /// Spans and counters (empty under [`Probe::Off`]).
    pub rec: Rc<Recorder>,
    /// The program's trace (empty unless [`Probe::ProgramTrace`]).
    pub trace: Vec<TraceRecord>,
}

/// Read-hot percentage (`RH`) of every workload.
const RH_PERCENT: f64 = 40.0;

/// `SimConfig` for a horizon: 5% warm-up, the default overload bound.
fn sim_config(horizon_s: u64) -> SimConfig {
    SimConfig {
        duration: Micros::from_secs(horizon_s),
        warmup: Micros::from_secs(horizon_s / 20),
        max_pending: 5_000,
    }
}

/// The paper's full-replication point with a closed queue of 140: 10
/// tapes, vertical NR-9 at SP 1, max-bandwidth envelope, one drive.
fn paper_config() -> ExperimentConfig {
    ExperimentConfig::paper_full_replication().with_queue(140)
}

fn paper_placement(cfg: &ExperimentConfig) -> Result<PlacedCatalog, String> {
    build_placement(
        cfg.geometry,
        cfg.block,
        PlacementConfig {
            layout: cfg.layout,
            ph_percent: cfg.ph_percent,
            scheme: PlacementScheme::Replication { nr: cfg.replicas },
            sp: cfg.sp,
        },
    )
    .map_err(|e| e.to_string())
}

/// The write stream of `writeback-mix`: a delta write every 150 s on
/// average, destaged by piggybacking (batches of 10 when idle, 5 owed
/// to the mounted tape before a piggyback is worth it).
const WRITEBACK: WriteBackConfig = WriteBackConfig {
    write_mean_interarrival: Micros::from_secs(150),
    flush_batch: 10,
    piggyback_min: 5,
    policy: FlushPolicy::Piggyback,
};

/// Mean gap between `writeback-mix` reads.
const WRITEBACK_READ_GAP_S: u64 = 300;

/// Fleet shape of `fleet-service`: 4 libraries × 2 drives × 1 arm, 50
/// shelves each.
const FLEET_LIBRARIES: u16 = 4;
const FLEET_DRIVES: u16 = 2;
const FLEET_SHELVES: u16 = 50;
/// Submissions per burst and simulated seconds between bursts.
const FLEET_BURST: u64 = 8;
const FLEET_GAP_S: u64 = 150;

fn fleet_topology() -> Result<Topology, String> {
    Topology::uniform(
        FLEET_LIBRARIES,
        FLEET_DRIVES,
        1,
        FLEET_SHELVES,
        RobotModel::exb210(),
        InterLibraryModel::DEFAULT,
    )
    .map_err(|e| format!("{e:?}"))
}

/// Transient media errors that heal: a failed read can succeed on a
/// backed-off retry.
const FLEET_FAULTS: FaultConfig = FaultConfig {
    media_error_per_read: 0.02,
    copy_heal_mttr: Some(Micros::from_secs(2_000)),
    ..FaultConfig::NONE
};

const FLEET_SERVICE: ServiceConfig = ServiceConfig {
    queue_capacity: 256,
    admission: AdmissionPolicy::ShedOldest,
    deadline: Some(Micros::from_secs(20_000)),
    max_retries: 2,
    backoff_base: Micros::from_secs(60),
    backoff_cap: Micros::from_secs(960),
};

/// Substreams of the run seed.
const FAULT_STREAM: u64 = 0x200;
const WRITE_STREAM: u64 = 0x300;

/// The scheduler for a probe: decorated with timing under
/// [`Probe::Spans`].
fn scheduler(id: AlgorithmId, probe: Probe, rec: &Rc<Recorder>) -> Box<dyn Scheduler> {
    let inner = make_scheduler(id);
    if probe == Probe::Spans {
        Box::new(TimedScheduler::new(inner, Rc::clone(rec)))
    } else {
        inner
    }
}

fn sim_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one repetition of `w` over a `horizon_s`-second horizon.
pub fn run_rep(w: Workload, horizon_s: u64, seed: u64, probe: Probe) -> Result<Rep, String> {
    match w {
        Workload::PaperEnvelope => paper_envelope(horizon_s, seed, probe),
        Workload::FleetService => fleet_service(horizon_s, seed, probe),
        Workload::WritebackMix => writeback_mix(horizon_s, seed, probe),
    }
}

/// The answer of `w` computed through the crates' batch entry points
/// (`run_one`, `run_with_writeback`), for workloads that have one.
pub fn batch_answer(w: Workload, horizon_s: u64, seed: u64) -> Result<Option<Answer>, String> {
    let cfg = paper_config();
    let placed = paper_placement(&cfg)?;
    let sim = sim_config(horizon_s);
    match w {
        Workload::PaperEnvelope => {
            let spec = RunSpec {
                catalog: &placed.catalog,
                timing: &cfg.timing,
                algorithm: cfg.algorithm,
                process: cfg.process,
                rh_percent: RH_PERCENT,
                cluster_run_p: 0.0,
                drives: 1,
                config: sim,
                faults: FaultConfig::NONE,
            };
            let report = run_one(&spec, seed).map_err(sim_err)?;
            Ok(Some(Answer::Engine(report)))
        }
        Workload::WritebackMix => {
            let mut factory = writeback_factory(&placed, seed);
            let mut sched = make_scheduler(cfg.algorithm);
            let report = run_with_writeback(
                &placed.catalog,
                &cfg.timing,
                sched.as_mut(),
                &mut factory,
                &sim,
                &WRITEBACK,
                substream(seed, WRITE_STREAM),
            )
            .map_err(sim_err)?;
            Ok(Some(Answer::WriteBack(report)))
        }
        Workload::FleetService => Ok(None),
    }
}

fn writeback_factory(placed: &PlacedCatalog, seed: u64) -> RequestFactory {
    RequestFactory::new(
        BlockSampler::from_catalog(&placed.catalog, RH_PERCENT),
        ArrivalProcess::OpenPoisson {
            mean_interarrival: Micros::from_secs(WRITEBACK_READ_GAP_S),
        },
        seed,
    )
}

/// Opens the root span of a phase when any probe is on.
fn open(roots: Option<&Recorder>, name: Name) -> Option<u32> {
    roots.map(|r| r.enter(name))
}

fn close(roots: Option<&Recorder>, id: Option<u32>) {
    if let (Some(r), Some(id)) = (roots, id) {
        r.exit(id);
    }
}

fn paper_envelope(horizon_s: u64, seed: u64, probe: Probe) -> Result<Rep, String> {
    let rec = Rc::new(Recorder::new());
    let roots = (probe != Probe::Off).then_some(&*rec);
    let spans = (probe == Probe::Spans).then_some(&*rec);
    let cfg = paper_config();
    let sim = sim_config(horizon_s);

    let t0 = Instant::now();
    let setup = open(roots, Name::Setup);
    let placed = maybe(spans, Name::LayoutBuild, || paper_placement(&cfg))?;
    let mut factory = maybe(spans, Name::WorkloadGen, || {
        RequestFactory::new(
            BlockSampler::from_catalog(&placed.catalog, RH_PERCENT),
            cfg.process,
            seed,
        )
    });
    let mut sched = scheduler(cfg.algorithm, probe, &rec);
    let mut null = NullSink;
    let mut mem = TimedSink::new(MemorySink::new(), Rc::clone(&rec));
    let sink: &mut dyn TraceSink = if probe == Probe::ProgramTrace {
        &mut mem
    } else {
        &mut null
    };
    let mut engine = SteppedEngine::new(
        &placed.catalog,
        &cfg.timing,
        sched.as_mut(),
        &mut factory,
        &sim,
        &FaultConfig::NONE,
        0,
        sink,
        &CheckpointOpts::none(),
    )
    .map_err(sim_err)?;
    close(roots, setup);

    let t1 = Instant::now();
    let run = open(roots, Name::Run);
    while maybe(spans, Name::EngineStep, || engine.step()).map_err(sim_err)? == StepOutcome::Running
    {
    }
    let report = maybe(spans, Name::MetricsFinish, || engine.finish());
    close(roots, run);
    let t2 = Instant::now();

    let generated = report.admitted;
    Ok(Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        answer: Answer::Engine(report),
        expansion: placed.expansion,
        generated,
        drives: 1,
        rec,
        trace: mem.into_inner().into_events(),
    })
}

fn writeback_mix(horizon_s: u64, seed: u64, probe: Probe) -> Result<Rep, String> {
    let rec = Rc::new(Recorder::new());
    let roots = (probe != Probe::Off).then_some(&*rec);
    let spans = (probe == Probe::Spans).then_some(&*rec);
    let cfg = paper_config();
    let sim = sim_config(horizon_s);

    let t0 = Instant::now();
    let setup = open(roots, Name::Setup);
    let placed = maybe(spans, Name::LayoutBuild, || paper_placement(&cfg))?;
    let mut factory = maybe(spans, Name::WorkloadGen, || {
        writeback_factory(&placed, seed)
    });
    let mut sched = scheduler(cfg.algorithm, probe, &rec);
    let mut null = NullSink;
    let mut mem = TimedSink::new(MemorySink::new(), Rc::clone(&rec));
    let sink: &mut dyn TraceSink = if probe == Probe::ProgramTrace {
        &mut mem
    } else {
        &mut null
    };
    let mut engine = SteppedWriteBack::new(
        &placed.catalog,
        &cfg.timing,
        sched.as_mut(),
        &mut factory,
        &sim,
        &WRITEBACK,
        substream(seed, WRITE_STREAM),
        sink,
        &CheckpointOpts::none(),
    )
    .map_err(sim_err)?;
    close(roots, setup);

    let t1 = Instant::now();
    let run = open(roots, Name::Run);
    while maybe(spans, Name::EngineStep, || engine.step()).map_err(sim_err)? == StepOutcome::Running
    {
    }
    let report = maybe(spans, Name::MetricsFinish, || engine.finish());
    close(roots, run);
    let t2 = Instant::now();

    let generated = report.reads.admitted;
    Ok(Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        answer: Answer::WriteBack(report),
        expansion: placed.expansion,
        generated,
        drives: 1,
        rec,
        trace: mem.into_inner().into_events(),
    })
}

/// The submission schedule of `fleet-service`: bursts of
/// [`FLEET_BURST`] RH-40 block draws every [`FLEET_GAP_S`] simulated
/// seconds over the first 90% of the horizon, one microsecond apart.
fn fleet_schedule(placed: &PlacedCatalog, horizon_s: u64, seed: u64) -> Vec<(BlockId, SimTime)> {
    let bursts = (horizon_s * 9 / 10).div_ceil(FLEET_GAP_S);
    let n = usize::try_from(bursts * FLEET_BURST).expect("schedule fits in memory");
    let sampler = BlockSampler::from_catalog(&placed.catalog, RH_PERCENT);
    generate_trace(&sampler, n, seed)
        .into_iter()
        .zip(0u64..)
        .map(|(block, i)| {
            let at = Micros::from_secs(i / FLEET_BURST * FLEET_GAP_S)
                + Micros::from_micros(i % FLEET_BURST);
            (block, SimTime::ZERO + at)
        })
        .collect()
}

fn fleet_service(horizon_s: u64, seed: u64, probe: Probe) -> Result<Rep, String> {
    let rec = Rc::new(Recorder::new());
    let roots = (probe != Probe::Off).then_some(&*rec);
    let spans = (probe == Probe::Spans).then_some(&*rec);
    let timing = paper_config().timing;
    let sim = sim_config(horizon_s);
    let topology = fleet_topology()?;
    let geometry = JukeboxGeometry::new(
        FLEET_LIBRARIES * FLEET_SHELVES,
        JukeboxGeometry::PAPER_DEFAULT.tape_capacity_mb,
    );

    let t0 = Instant::now();
    let setup = open(roots, Name::Setup);
    let placed = maybe(spans, Name::LayoutBuild, || {
        build_fleet_placement(
            geometry,
            paper_config().block,
            PlacementConfig {
                layout: LayoutKind::Horizontal,
                ph_percent: 10.0,
                scheme: PlacementScheme::Replication { nr: 1 },
                sp: 0.0,
            },
            &topology,
            ReplicaScope::CrossLibrary,
        )
        .map_err(|e| e.to_string())
    })?;
    let schedule = maybe(spans, Name::WorkloadGen, || {
        fleet_schedule(&placed, horizon_s, seed)
    });
    // External-arrival mode: the factory only fingerprints the run.
    let mut factory = RequestFactory::new(
        BlockSampler::from_catalog(&placed.catalog, RH_PERCENT),
        ArrivalProcess::Closed { queue_length: 1 },
        seed,
    );
    let mut sched = scheduler(
        AlgorithmId::Static(TapeSelectPolicy::MaxRequests),
        probe,
        &rec,
    );
    let mut null = NullSink;
    let mut mem = TimedSink::new(MemorySink::new(), Rc::clone(&rec));
    let sink: &mut dyn TraceSink = if probe == Probe::ProgramTrace {
        &mut mem
    } else {
        &mut null
    };
    let engine = SteppedMultiDrive::new_external_with_topology(
        &placed.catalog,
        &timing,
        topology,
        sched.as_mut(),
        &mut factory,
        &sim,
        &FLEET_FAULTS,
        substream(seed, FAULT_STREAM),
        sink,
    )
    .map_err(sim_err)?;
    let mut svc = JukeboxService::new(engine, FLEET_SERVICE).map_err(sim_err)?;
    close(roots, setup);

    let t1 = Instant::now();
    let run = open(roots, Name::Run);
    for &(block, at) in &schedule {
        match maybe(spans, Name::ServiceSubmit, || svc.submit(block, at)) {
            Ok(_) | Err(tapesim::sim::SimError::Overloaded) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    let horizon = SimTime::ZERO + sim.duration;
    maybe(spans, Name::ServiceRunUntil, || svc.run_until(horizon)).map_err(sim_err)?;
    let (report, stats) = maybe(spans, Name::MetricsFinish, || svc.drain()).map_err(sim_err)?;
    close(roots, run);
    let t2 = Instant::now();

    Ok(Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        answer: Answer::Service(report, stats),
        expansion: placed.expansion,
        generated: schedule.len() as u64,
        drives: FLEET_LIBRARIES * FLEET_DRIVES,
        rec,
        trace: mem.into_inner().into_events(),
    })
}
