//! Pinned answers of every scheduling algorithm at the paper's
//! full-replication point (10 tapes, vertical NR-9 at SP 1).
//!
//! Every `EnvelopePolicy` runs a closed queue of 140 (the benchmark's
//! point) and of 600 (a backlog large enough that the scheduler's
//! per-call work dominates) over a short horizon on one drive. FIFO and
//! the ten static and dynamic algorithms run the same two queues over a
//! shorter horizon. One run per family (static, dynamic, envelope) adds
//! a second drive and transient whole-tape failures, so tapes held by
//! the other drive, offline tapes and the oldest-request failover all
//! take part in its decisions.
//!
//! Each run pins the completed count, the physical reads, the exact f64
//! bits of the mean and p99 delay, and an FNV-1a digest of the run's
//! JSONL trace. Any change to how a scheduler plans that moves one
//! scheduling decision moves at least the digest.

use tapesim::model::{substream, FaultConfig, Micros};
use tapesim::prelude::*;
use tapesim::sched::{make_scheduler, AlgorithmId, EnvelopePolicy, TapeSelectPolicy};
use tapesim::sim::trace::jsonl;
use tapesim::sim::{
    run_multi_drive_traced, run_one, run_simulation_traced, MemorySink, RunSpec, SimConfig,
};
use tapesim::workload::{BlockSampler, RequestFactory};

const SEED: u64 = 0x1CDE_1999;

/// Simulated horizon of every envelope run, in seconds.
const HORIZON_S: u64 = 100_000;

/// Simulated horizon of the FIFO, static, dynamic and faulted runs, in
/// seconds: short enough that the whole file stays quick in debug
/// builds.
const SHORT_HORIZON_S: u64 = 25_000;

/// The fault-seed substream `run_one` derives from its workload seed.
const FAULT_SEED_STREAM: u64 = 0x200;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `(completed, physical_reads, mean_delay_s bits, p99_delay_s bits,
/// trace digest)` of one pinned run.
type Pin = (u64, u64, u64, u64, u64);

/// Transient whole-tape failures: over a short horizon on ten tapes some
/// tape is usually offline, long enough to strand the oldest request.
fn tape_faults() -> FaultConfig {
    FaultConfig {
        tape_mtbf: Some(Micros::from_secs(40_000)),
        tape_mttr: Some(Micros::from_secs(5_000)),
        ..FaultConfig::NONE
    }
}

fn pinned_run(
    algorithm: AlgorithmId,
    queue: u32,
    drives: u16,
    faults: &FaultConfig,
    horizon_s: u64,
) -> Pin {
    let cfg = ExperimentConfig::paper_full_replication().with_queue(queue);
    let placed = cfg.build_catalog().unwrap();
    let sim = SimConfig {
        duration: Micros::from_secs(horizon_s),
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
        drives,
        config: sim,
        faults: *faults,
    };
    let report = run_one(&spec, SEED).unwrap();

    // The same run, traced: identical inputs, so an identical report.
    let sampler = BlockSampler::from_catalog(&placed.catalog, cfg.rh_percent);
    let mut factory = RequestFactory::new_clustered(sampler, cfg.process, 0.0, SEED);
    let mut sched = make_scheduler(algorithm);
    let mut sink = MemorySink::new();
    let fault_seed = substream(SEED, FAULT_SEED_STREAM);
    let traced = if drives <= 1 {
        run_simulation_traced(
            &placed.catalog,
            &cfg.timing,
            sched.as_mut(),
            &mut factory,
            &sim,
            faults,
            fault_seed,
            &mut sink,
        )
    } else {
        run_multi_drive_traced(
            &placed.catalog,
            &cfg.timing,
            sched.as_mut(),
            &mut factory,
            &sim,
            drives,
            faults,
            fault_seed,
            &mut sink,
        )
    }
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

fn expect_pin(label: &str, got: Pin, expect: Pin) {
    assert_eq!(got, expect, "{label}: got {got:#x?}");
}

/// One envelope run on one drive over the long horizon.
fn check(policy: EnvelopePolicy, queue: u32, expect: Pin) {
    let got = pinned_run(
        AlgorithmId::Envelope(policy),
        queue,
        1,
        &FaultConfig::NONE,
        HORIZON_S,
    );
    expect_pin(&format!("{} at queue {queue}", policy.name()), got, expect);
}

/// One fault-free run on one drive over the short horizon, at each of
/// the two queue lengths.
fn check_short(algorithm: AlgorithmId, expect_140: Pin, expect_600: Pin) {
    for (queue, expect) in [(140, expect_140), (600, expect_600)] {
        let got = pinned_run(algorithm, queue, 1, &FaultConfig::NONE, SHORT_HORIZON_S);
        expect_pin(
            &format!("{} at queue {queue}", algorithm.name()),
            got,
            expect,
        );
    }
}

/// One two-drive run with tape faults at queue 140 over the short
/// horizon.
fn check_faulted(algorithm: AlgorithmId, expect: Pin) {
    let got = pinned_run(algorithm, 140, 2, &tape_faults(), SHORT_HORIZON_S);
    expect_pin(&format!("{} with faults", algorithm.name()), got, expect);
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

#[test]
fn fifo_queues_140_and_600() {
    check_short(
        AlgorithmId::Fifo,
        (
            120,
            120,
            0x40c8a708d4722451,
            0x40d806a0346dc5d6,
            0x4817c38e3981a183,
        ),
        (
            120,
            120,
            0x40c8a708d4722451,
            0x40d806a0346dc5d6,
            0x3f0ad73f24dd8347,
        ),
    );
}

#[test]
fn static_round_robin_queues_140_and_600() {
    check_short(
        AlgorithmId::Static(TapeSelectPolicy::RoundRobin),
        (
            481,
            458,
            0x40b629d5d430d096,
            0x40d1dac8fc504817,
            0x15b6d39c677c86ef,
        ),
        (
            791,
            633,
            0x40bdf952b3ec3130,
            0x40d7c80666666666,
            0x31a8012808884371,
        ),
    );
}

#[test]
fn static_max_requests_queues_140_and_600() {
    check_short(
        AlgorithmId::Static(TapeSelectPolicy::MaxRequests),
        (
            478,
            463,
            0x40b589c94660a440,
            0x40d4b853eab367a1,
            0x7aae4f8133af8771,
        ),
        (
            813,
            638,
            0x40bd63d0e3ecce02,
            0x40d7db72d0e56042,
            0xd843b6fd3062bf6,
        ),
    );
}

#[test]
fn static_max_bandwidth_queues_140_and_600() {
    check_short(
        AlgorithmId::Static(TapeSelectPolicy::MaxBandwidth),
        (
            488,
            470,
            0x40b58e89a58680d4,
            0x40d5cfb27bb2fec5,
            0xcfce3a31c6b2b083,
        ),
        (
            817,
            639,
            0x40bdfb64025b3850,
            0x40d7b8b851eb851f,
            0x247d4cb237109d57,
        ),
    );
}

#[test]
fn static_oldest_max_requests_queues_140_and_600() {
    check_short(
        AlgorithmId::Static(TapeSelectPolicy::OldestMaxRequests),
        (
            477,
            457,
            0x40b639310de81a35,
            0x40d29595532617c2,
            0xd8232f0dbcb00983,
        ),
        (
            787,
            630,
            0x40be5558642825e9,
            0x40d7835d70a3d70a,
            0x90d9015637a937cd,
        ),
    );
}

#[test]
fn static_oldest_max_bandwidth_queues_140_and_600() {
    check_short(
        AlgorithmId::Static(TapeSelectPolicy::OldestMaxBandwidth),
        (
            477,
            457,
            0x40b639310de81a35,
            0x40d29595532617c2,
            0xd8232f0dbcb00983,
        ),
        (
            787,
            630,
            0x40be5558642825e9,
            0x40d7835d70a3d70a,
            0x90d9015637a937cd,
        ),
    );
}

#[test]
fn dynamic_round_robin_queues_140_and_600() {
    check_short(
        AlgorithmId::Dynamic(TapeSelectPolicy::RoundRobin),
        (
            498,
            472,
            0x40b41f9d27a113fd,
            0x40d34c305532617c,
            0x9be9116a6182d6f8,
        ),
        (
            875,
            641,
            0x40b8986af1004b61,
            0x40d7bad3fe5c91d1,
            0x697aab5df6f2517a,
        ),
    );
}

#[test]
fn dynamic_max_requests_queues_140_and_600() {
    check_short(
        AlgorithmId::Dynamic(TapeSelectPolicy::MaxRequests),
        (
            502,
            479,
            0x40b2f3e5e821da00,
            0x40d49da7318fc505,
            0xe04006045e88607d,
        ),
        (
            905,
            657,
            0x40b6bb85fda4cedf,
            0x40d5b33886594af5,
            0x2a8e061547434c57,
        ),
    );
}

#[test]
fn dynamic_max_bandwidth_queues_140_and_600() {
    check_short(
        AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth),
        (
            502,
            477,
            0x40b313fdaab563a0,
            0x40d5eced2f1a9fbe,
            0xcedd079af0f9ea23,
        ),
        (
            904,
            649,
            0x40b664b4349e069f,
            0x40d5294013a92a30,
            0xf31afdc4db936445,
        ),
    );
}

#[test]
fn dynamic_oldest_max_requests_queues_140_and_600() {
    check_short(
        AlgorithmId::Dynamic(TapeSelectPolicy::OldestMaxRequests),
        (
            504,
            476,
            0x40b4301e9df3167d,
            0x40d37dd9ba5e353f,
            0xed8913856c03cea1,
        ),
        (
            876,
            640,
            0x40b90388d50d460e,
            0x40d7ab84e3bcd35b,
            0x5684731b7993bfc2,
        ),
    );
}

#[test]
fn dynamic_oldest_max_bandwidth_queues_140_and_600() {
    check_short(
        AlgorithmId::Dynamic(TapeSelectPolicy::OldestMaxBandwidth),
        (
            504,
            476,
            0x40b4301e9df3167d,
            0x40d37dd9ba5e353f,
            0xed8913856c03cea1,
        ),
        (
            876,
            640,
            0x40b90388d50d460e,
            0x40d7ab84e3bcd35b,
            0x5684731b7993bfc2,
        ),
    );
}

#[test]
fn static_oldest_max_requests_two_drives_with_faults() {
    check_faulted(
        AlgorithmId::Static(TapeSelectPolicy::OldestMaxRequests),
        (
            928,
            883,
            0x40aa856d8f51500b,
            0x40c7f6cc7e28240b,
            0x5d6d39b71c47e662,
        ),
    );
}

#[test]
fn dynamic_oldest_max_bandwidth_two_drives_with_faults() {
    check_faulted(
        AlgorithmId::Dynamic(TapeSelectPolicy::OldestMaxBandwidth),
        (
            973,
            924,
            0x40a81fe81e40972b,
            0x40c7d317dbf487fd,
            0xda09479e4e086786,
        ),
    );
}

#[test]
fn envelope_oldest_request_two_drives_with_faults() {
    check_faulted(
        AlgorithmId::Envelope(EnvelopePolicy::OldestRequest),
        (
            909,
            870,
            0x40aadbac7764e500,
            0x40c92e95e9e1b08a,
            0x7000ab78bc767414,
        ),
    );
}
