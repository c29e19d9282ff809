//! Golden-trace snapshot tests.
//!
//! Each scenario runs a small, fully deterministic simulation, serializes
//! its event trace to JSON Lines, and compares it structurally against a
//! checked-in snapshot under `tests/golden/`. A divergence fails with a
//! field-level diff around the first differing event.
//!
//! To regenerate the snapshots after an intentional engine change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test golden
//! ```

use std::path::{Path, PathBuf};

use tapesim::layout::{
    build_fleet_placement, build_placement, LayoutKind, PlacementConfig, PlacementScheme,
    ReplicaScope,
};
use tapesim::model::{
    BlockSize, FaultConfig, InterLibraryModel, JukeboxGeometry, Micros, RobotModel, SimTime,
    TimingModel, Topology,
};
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim::sim::trace::jsonl::{self, Comparison};
use tapesim::sim::{
    check_trace, run_simulation_traced, AdmissionPolicy, JukeboxService, MemorySink, ServiceConfig,
    ServiceStats, SimConfig, SimError, SteppedMultiDrive, TicketState, TraceRecord,
};
use tapesim::workload::{generate_trace, ArrivalProcess, BlockSampler, RequestFactory};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Runs one deterministic scenario and returns its trace.
fn run_scenario(
    tapes: u16,
    algorithm: AlgorithmId,
    queue_length: u32,
    horizon_s: u64,
    seed: u64,
) -> Vec<TraceRecord> {
    let placed = build_placement(
        JukeboxGeometry::new(tapes, 64),
        BlockSize::from_mb(1),
        PlacementConfig::paper_baseline(),
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig {
        duration: Micros::from_secs(horizon_s),
        warmup: Micros::ZERO,
        max_pending: 5_000,
    };
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let mut factory = RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length }, seed);
    let mut sched = make_scheduler(algorithm);
    let mut sink = MemorySink::new();
    run_simulation_traced(
        &placed.catalog,
        &timing,
        sched.as_mut(),
        &mut factory,
        &cfg,
        &FaultConfig::NONE,
        0,
        &mut sink,
    )
    .unwrap();
    sink.into_events()
}

fn assert_matches_golden(name: &str, trace: &[TraceRecord]) {
    // Whatever we snapshot must itself be physically valid…
    check_trace(trace).unwrap_or_else(|v| panic!("{name}: trace violates invariants: {}", v[0]));
    // …and survive a JSONL round-trip losslessly.
    let text = jsonl::to_jsonl_string(trace);
    let reparsed = jsonl::parse_records(&text).expect("round-trip parse failed");
    assert_eq!(reparsed, trace, "{name}: JSONL round-trip not lossless");

    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden snapshot {}: {e}\n(regenerate with UPDATE_GOLDEN=1 \
             cargo test -p integration-tests --test golden)",
            path.display()
        )
    });
    match jsonl::compare(&expected, trace, 3) {
        Comparison::Match => {}
        Comparison::Mismatch(report) => {
            panic!("{name}: trace diverged from golden snapshot\n{report}")
        }
    }
}

#[test]
fn one_tape_fifo_trace_is_stable() {
    let trace = run_scenario(1, AlgorithmId::Fifo, 4, 600, 11);
    assert!(
        trace.len() > 20,
        "scenario too small to be meaningful: {} events",
        trace.len()
    );
    assert_matches_golden("one_tape_fifo.jsonl", &trace);
}

#[test]
fn two_tapes_envelope_trace_is_stable() {
    let trace = run_scenario(
        2,
        AlgorithmId::Envelope(EnvelopePolicy::MaxBandwidth),
        6,
        900,
        23,
    );
    assert!(
        trace.len() > 20,
        "scenario too small to be meaningful: {} events",
        trace.len()
    );
    assert_matches_golden("two_tapes_envelope.jsonl", &trace);
}

/// Runs the service-mode scenario: a 2-library × 2-drive fleet behind a
/// `JukeboxService` with shed-oldest admission into a small queue,
/// deadlines, media errors with backoff retries, and drive 1 taken
/// offline for a stretch mid-run. Lost copies stay lost: a healing copy
/// holds its request in the engine until the heal, so only permanent
/// loss drives tickets through the service's retry path. Returns the
/// trace, the service stats and every ticket's final state.
fn run_service_scenario() -> (Vec<TraceRecord>, ServiceStats, Vec<TicketState>) {
    const BURSTS: u64 = 40;
    const BURST: u64 = 5;
    const GAP_S: u64 = 240;
    let topology = Topology::uniform(
        2,
        2,
        1,
        10,
        RobotModel::exb210(),
        InterLibraryModel::DEFAULT,
    )
    .unwrap();
    let placed = build_fleet_placement(
        JukeboxGeometry::new(20, 7 * 1024),
        BlockSize::PAPER_DEFAULT,
        PlacementConfig {
            layout: LayoutKind::Horizontal,
            ph_percent: 10.0,
            scheme: PlacementScheme::Replication { nr: 1 },
            sp: 0.0,
        },
        &topology,
        ReplicaScope::CrossLibrary,
    )
    .unwrap();
    let timing = TimingModel::paper_default();
    let cfg = SimConfig {
        duration: Micros::from_secs(BURSTS * GAP_S + 1_800),
        warmup: Micros::ZERO,
        max_pending: 5_000,
    };
    let faults = FaultConfig {
        media_error_per_read: 0.02,
        ..FaultConfig::NONE
    };
    let service_cfg = ServiceConfig {
        queue_capacity: 8,
        admission: AdmissionPolicy::ShedOldest,
        deadline: Some(Micros::from_secs(900)),
        max_retries: 2,
        backoff_base: Micros::from_secs(30),
        backoff_cap: Micros::from_secs(240),
    };
    let sampler = BlockSampler::from_catalog(&placed.catalog, 40.0);
    let blocks = generate_trace(&sampler, usize::try_from(BURSTS * BURST).unwrap(), 31);
    let mut factory = RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, 31);
    let mut sched = make_scheduler(AlgorithmId::Static(TapeSelectPolicy::MaxRequests));
    let mut sink = MemorySink::new();
    let (stats, tickets) = {
        let engine = SteppedMultiDrive::new_external_with_topology(
            &placed.catalog,
            &timing,
            topology,
            sched.as_mut(),
            &mut factory,
            &cfg,
            &faults,
            37,
            &mut sink,
        )
        .unwrap();
        let mut service = JukeboxService::new(engine, service_cfg).unwrap();
        for (i, block) in (0u64..).zip(blocks) {
            let burst = i / BURST;
            if i % BURST == 0 && burst == BURSTS / 4 {
                service.set_drive_offline(1, true).unwrap();
            }
            if i % BURST == 0 && burst == BURSTS / 2 {
                service.set_drive_offline(1, false).unwrap();
            }
            let at =
                SimTime::ZERO + Micros::from_secs(burst * GAP_S) + Micros::from_micros(i % BURST);
            match service.submit(block, at) {
                Ok(_) | Err(SimError::Overloaded) => {}
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        let (_, stats, tickets) = service.drain_with_tickets().unwrap();
        (stats, tickets)
    };
    (sink.into_events(), stats, tickets)
}

#[test]
fn service_shed_retry_trace_is_stable() {
    let (trace, stats, tickets) = run_service_scenario();
    assert_eq!(
        stats,
        ServiceStats {
            submitted: 200,
            completed: 149,
            rejected: 40,
            expired: 11,
            retries: 2,
        }
    );
    let count = |s: TicketState| tickets.iter().filter(|&&t| t == s).count();
    assert_eq!(tickets.len(), 200);
    assert_eq!(count(TicketState::Completed), 149);
    assert_eq!(count(TicketState::Rejected), 40);
    assert_eq!(count(TicketState::Expired), 11);
    assert_matches_golden("service_shed_retry.jsonl", &trace);
}

#[test]
fn golden_mismatch_reports_are_readable() {
    // Corrupt one field of the actual trace and confirm the comparison
    // pinpoints it rather than dumping both traces wholesale.
    let trace = run_scenario(1, AlgorithmId::Fifo, 4, 600, 11);
    let golden = jsonl::to_jsonl_string(&trace);
    let mut tampered = trace.clone();
    let mid = tampered.len() / 2;
    tampered[mid].at += Micros::from_micros(1);
    match jsonl::compare(&golden, &tampered, 2) {
        Comparison::Match => panic!("tampered trace compared equal"),
        Comparison::Mismatch(report) => {
            assert!(
                report.contains("t_us"),
                "report does not name the field:\n{report}"
            );
            assert!(
                report.contains('>'),
                "report has no divergence marker:\n{report}"
            );
        }
    }
}
