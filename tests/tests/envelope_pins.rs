//! Pinned answers of the envelope scheduler at the paper's
//! full-replication point (10 tapes, vertical NR-9 at SP 1, one drive).
//!
//! Every `EnvelopePolicy` runs a closed queue of 140 (the benchmark's
//! point) and of 600 (a backlog large enough that the scheduler's
//! per-call work dominates) over a short horizon. Each run pins the
//! completed count, the physical reads, the exact f64 bits of the mean
//! and p99 delay, and an FNV-1a digest of the run's JSONL trace. Any
//! change to how the envelope is computed that moves one scheduling
//! decision moves at least the digest.

use tapesim::model::{FaultConfig, Micros};
use tapesim::prelude::*;
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy};
use tapesim::sim::trace::jsonl;
use tapesim::sim::{run_one, run_simulation_traced, MemorySink, RunSpec, SimConfig};
use tapesim::workload::{BlockSampler, RequestFactory};

const SEED: u64 = 0x1CDE_1999;

/// Simulated horizon of every pinned run, in seconds.
const HORIZON_S: u64 = 100_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `(completed, physical_reads, mean_delay_s bits, p99_delay_s bits,
/// trace digest)` of one pinned run.
type Pin = (u64, u64, u64, u64, u64);

fn pinned_run(policy: EnvelopePolicy, queue: u32) -> Pin {
    let cfg = ExperimentConfig::paper_full_replication().with_queue(queue);
    let placed = cfg.build_catalog().unwrap();
    let algorithm = AlgorithmId::Envelope(policy);
    let sim = SimConfig {
        duration: Micros::from_secs(HORIZON_S),
        warmup: Micros::ZERO,
        max_pending: 5_000,
    };
    let spec = RunSpec {
        catalog: &placed.catalog,
        timing: &cfg.timing,
        algorithm,
        process: cfg.process,
        rh_percent: cfg.rh_percent,
        cluster_run_p: 0.0,
        drives: 1,
        config: sim,
        faults: FaultConfig::NONE,
    };
    let report = run_one(&spec, SEED).unwrap();

    // The same run, traced: identical inputs, so an identical report.
    let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
    let mut factory = RequestFactory::new_clustered(sampler, cfg.process, 0.0, SEED);
    let mut sched = make_scheduler(algorithm);
    let mut sink = MemorySink::new();
    let traced = run_simulation_traced(
        &placed.catalog,
        &cfg.timing,
        sched.as_mut(),
        &mut factory,
        &sim,
        &FaultConfig::NONE,
        0,
        &mut sink,
    )
    .unwrap();
    assert_eq!(traced, report, "traced run diverges from run_one");
    let digest = fnv1a(jsonl::to_jsonl_string(&sink.into_events()).as_bytes());
    (
        report.completed,
        report.physical_reads,
        report.mean_delay_s.to_bits(),
        report.p99_delay_s.to_bits(),
        digest,
    )
}

fn check(policy: EnvelopePolicy, queue: u32, expect: Pin) {
    let got = pinned_run(policy, queue);
    assert_eq!(
        got,
        expect,
        "{} at queue {queue}: got {got:#x?}",
        policy.name()
    );
}

#[test]
fn oldest_request_queue_140() {
    check(
        EnvelopePolicy::OldestRequest,
        140,
        (
            2007,
            1847,
            0x40b98c9e337c1545,
            0x40d541ce978d4fdf,
            0xe6efd513f8af7a3f,
        ),
    );
}

#[test]
fn oldest_request_queue_600() {
    check(
        EnvelopePolicy::OldestRequest,
        600,
        (
            2729,
            2106,
            0x40d040493aa73b55,
            0x40f1a772e978d4fe,
            0xbdc73427b17fbba8,
        ),
    );
}

#[test]
fn max_requests_queue_140() {
    check(
        EnvelopePolicy::MaxRequests,
        140,
        (
            1979,
            1856,
            0x40b9cc439a7f7316,
            0x40dcabd631f8a090,
            0xe568a8338f0fdd5,
        ),
    );
}

#[test]
fn max_requests_queue_600() {
    check(
        EnvelopePolicy::MaxRequests,
        600,
        (
            2676,
            2094,
            0x40d02dfd88d079da,
            0x40f3b46f7ced9168,
            0xc98b69ad6e728d3e,
        ),
    );
}

#[test]
fn max_bandwidth_queue_140() {
    check(
        EnvelopePolicy::MaxBandwidth,
        140,
        (
            1969,
            1839,
            0x40b9fb549b127af2,
            0x40deebb439581062,
            0xbc0f8a9f122fdc99,
        ),
    );
}

#[test]
fn max_bandwidth_queue_600() {
    check(
        EnvelopePolicy::MaxBandwidth,
        600,
        (
            2684,
            2071,
            0x40d0639779197044,
            0x40f1f542e7d566cf,
            0xbec26603404c30a9,
        ),
    );
}
