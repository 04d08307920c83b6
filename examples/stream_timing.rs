//! Host-time cost of the `stream_checksum` simulation loop: HotelReservation,
//! seed 5, 5 s @ 2 krps. Times only `run_until`/`submit`/`drain_completions`
//! (arrivals are generated first) and prints the minimum over 5 runs of host
//! ns per completed request, plus the completion-stream checksum.
//!
//! It uses only APIs that also exist at old commits, so an A/B comparison is:
//! copy this file into `examples/` of each checkout, build each with
//! `cargo build --release --example stream_timing`, and run the binaries in
//! interleaved rounds, rotating which goes first.

use std::time::Instant;

use blueprint::apps::{hotel_reservation as hr, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::simrt::SimConfig;
use blueprint::workload::generator::{OpenLoopGen, Phase};

fn main() {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()))
        .expect("compiles");
    let mut best = f64::MAX;
    let mut checksum = 0u64;
    for _ in 0..5 {
        let mut sim = app
            .simulation_with(SimConfig {
                seed: 5,
                ..Default::default()
            })
            .expect("boots");
        let gen = OpenLoopGen::new(
            vec![Phase::new(5, 2_000.0)],
            hr::paper_mix(),
            hr::ENTITIES,
            5,
        );
        let end = gen.duration_ns();
        let arrivals: Vec<_> = gen.collect();
        let mut out = Vec::with_capacity(20_000);
        let t0 = Instant::now();
        for a in &arrivals {
            sim.run_until(a.at_ns);
            sim.submit(&a.entry, &a.method, a.entity).expect("submit");
            out.append(&mut sim.drain_completions());
        }
        sim.run_until(end + 5_000_000_000);
        out.append(&mut sim.drain_completions());
        let dt = t0.elapsed().as_nanos() as f64;
        best = best.min(dt / out.len() as f64);
        let mut h: u64 = 0xcbf29ce484222325;
        for c in &out {
            for &b in format!("{c:?}").as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        checksum = h;
    }
    println!("min_ns_per_req={best:.0} checksum={checksum:016x}");
}
