//! Determinism: the simulator is a pure function of (system spec, seed,
//! workload). Running the same experiment twice must yield byte-identical
//! completion streams — ordering, timestamps, failure labels, observed
//! versions, everything. This pins the engine's RNG-consumption and
//! event-ordering behavior so performance refactors can be checked against it.

use blueprint::apps::{hotel_reservation as hr, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::simrt::sim::EV_KINDS;
use blueprint::simrt::{Completion, EngineProfile, SimConfig};
use blueprint::workload::generator::OpenLoopGen;
use blueprint::workload::generator::Phase;

/// Runs HotelReservation for `secs` seconds at `rps` with the given seed and
/// returns the full completion stream in emission order.
fn completion_stream(seed: u64, secs: u64, rps: f64) -> Vec<Completion> {
    profiled_stream(seed, secs, rps).0
}

/// [`completion_stream`], plus the engine's self-profile at the end.
fn profiled_stream(seed: u64, secs: u64, rps: f64) -> (Vec<Completion>, EngineProfile) {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()))
        .expect("hotel reservation compiles");
    let mut sim = app
        .simulation_with(SimConfig {
            seed,
            ..Default::default()
        })
        .expect("sim boots");
    let gen = OpenLoopGen::new(
        vec![Phase::new(secs, rps)],
        hr::paper_mix(),
        hr::ENTITIES,
        seed,
    );
    let end = gen.duration_ns();
    let mut out = Vec::new();
    for arrival in gen {
        sim.run_until(arrival.at_ns);
        sim.submit(&arrival.entry, &arrival.method, arrival.entity)
            .expect("submit");
        out.append(&mut sim.drain_completions());
    }
    // Drain in-flight requests well past the last arrival.
    sim.run_until(end + 5_000_000_000);
    out.append(&mut sim.drain_completions());
    (out, sim.engine_profile().clone())
}

#[test]
fn same_seed_identical_completion_streams() {
    let a = completion_stream(1234, 2, 700.0);
    let b = completion_stream(1234, 2, 700.0);
    assert!(!a.is_empty(), "workload produced no completions");
    assert_eq!(a.len(), b.len(), "completion counts diverge");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "completion #{i} diverges");
    }
}

/// FNV-1a over each completion's `Debug` rendering, the scheme
/// `examples/stream_checksum` uses.
fn checksum(stream: &[Completion]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in stream {
        for &b in format!("{c:?}").as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A second run with the same seed repeats the first byte for byte, and both
/// match the checksum recorded with the sharded event loop that the single
/// timing wheel replaced — so the engine's event order, not just its
/// self-consistency, is pinned.
#[test]
fn repeated_run_matches_pinned_checksum() {
    let first = completion_stream(77, 1, 500.0);
    assert!(!first.is_empty(), "workload produced no completions");
    assert_eq!(completion_stream(77, 1, 500.0), first, "same seed diverged");
    assert_eq!(checksum(&first), 0x2928_f300_7b82_7af1);
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the stream actually depends on the seed (otherwise
    // the identity test above would be vacuous).
    let a = completion_stream(1, 1, 500.0);
    let b = completion_stream(2, 1, 500.0);
    assert_ne!(a, b, "different seeds should produce different streams");
}

/// The `examples/stream_checksum` run (seed 5, 5 s at 2 krps) dispatches an
/// exact number of events of each kind. The counts were recorded before the
/// CPU-job slab and the message slab went in, so they pin that neither added,
/// dropped nor reordered an event; the checksum pins the outcome.
#[test]
fn stream_checksum_engine_profile_is_pinned() {
    let (stream, profile) = profiled_stream(5, 5, 2_000.0);
    assert_eq!(stream.len(), 10_162);
    assert_eq!(checksum(&stream), 0x1bc8_5aa9_969b_ffcf);
    let counts: Vec<(&str, u64)> = EV_KINDS
        .into_iter()
        .zip(profile.dispatched)
        .filter(|(_, n)| *n > 0)
        .collect();
    assert_eq!(
        counts,
        [
            ("HostCheck", 505_351),
            ("Resume", 10_162),
            ("DeliverRequest", 159_682),
            ("DeliverResponse", 159_682),
        ]
    );
    assert_eq!(profile.stale_host_checks, 139_707);
    assert_eq!(profile.dispatched.iter().sum::<u64>(), 834_877);
    assert_eq!(profile.pending_max, 38);
}
