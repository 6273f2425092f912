//! The reactor's idle-connection cost over real sockets: parked sockets
//! cost a registered `pollfd`, not a thread.
//!
//! This is the only test in its binary. It reads the process-wide
//! `Threads:` count, which any other server started in the same process
//! would change.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nvwa::align::pipeline::ReferenceIndex;
use nvwa::genome::ReferenceGenome;
use nvwa::serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig};
use nvwa::serve::{Server, ServerConfig};

const REF_LEN: usize = 20_000;
const REF_SEED: u64 = 5;
const IDLE: u64 = 400;

fn current_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Parking hundreds of silent sockets must not grow the process thread
/// count, and the server must keep answering around them.
#[test]
fn reactor_parks_idle_connections_without_thread_growth() {
    if !cfg!(unix) {
        return; // serving needs poll(2)
    }
    let Some(before) = current_thread_count() else {
        return; // no /proc: nothing to measure
    };
    let genome = ReferenceGenome::synthesize(&ref_params(REF_LEN), REF_SEED);
    let server = Server::start(
        Arc::new(ReferenceIndex::build(&genome, 32)),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let idle: Vec<std::net::TcpStream> = (0..IDLE)
        .map(|i| {
            std::net::TcpStream::connect(&addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}"))
        })
        .collect();
    // Measure once the reactor has accepted and registered every socket.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().counter("serve.connections_accepted") < IDLE {
        assert!(
            Instant::now() < deadline,
            "reactor accepted {} of {IDLE} idle sockets within 10 s",
            server.metrics().counter("serve.connections_accepted")
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let during = current_thread_count().expect("/proc readable");
    // Thread-per-connection would add ~400 here; the reactor adds none.
    // Loadgen below and test-harness noise get a generous allowance.
    assert!(
        during <= before + 16,
        "thread count grew {before} -> {during} with {IDLE} idle connections"
    );

    // The server still answers fresh traffic around the parked sockets.
    let reads = loadgen::generate_reads(&ref_params(REF_LEN), REF_SEED, 29, 200);
    let report = loadgen::run(
        &addr,
        &reads,
        &LoadgenConfig {
            connections: 4,
            mode: ArrivalMode::Closed { window: 16 },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    assert!(report.is_lossless());
    assert_eq!(report.ok, 200);
    drop(idle);
    let metrics = server.shutdown();
    assert!(
        metrics.counter("serve.connections_accepted") >= IDLE + 4,
        "reactor accepted the idle sockets"
    );
}
