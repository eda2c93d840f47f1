//! Concurrent-client determinism of the `--serve` daemon.
//!
//! The determinism contract: for a given request list, per-request
//! response *bodies* are byte-identical regardless of how many clients
//! replay the list, in what interleaving, and what state the caches are
//! in. Wall-clock lives only in the `X-Islaris-Wall-Ns` header, and the
//! profile's schedule-dependent rows are stripped server-side.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use islaris_bench::replay::{gen_requests, replay, ReplayOutcome};
use islaris_bench::serve::{ServeConfig, Server};
use islaris_obs::http::{read_response, write_request};

fn replay_against(port: u16, clients: usize) -> ReplayOutcome {
    let reqs = gen_requests(26);
    replay(&format!("127.0.0.1:{port}"), &reqs, clients).expect("replay")
}

#[test]
fn one_four_and_eight_clients_see_identical_bodies() {
    // Four workers whatever the host: the lone requests of the
    // one-client baseline run each case at the full intra-case width of
    // 4, while concurrent case requests from 4 and 8 clients find other
    // workers busy and run narrower, down to width 1. Bodies must not
    // see the difference.
    let server = Server::start(&ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let port = server.port();

    let baseline = replay_against(port, 1);
    assert_eq!(baseline.results.len(), 26);
    for r in &baseline.results {
        assert!(
            r.status == 200 || r.status == 400 || r.status == 404,
            "request {} unexpected status {}",
            r.index,
            r.status
        );
    }

    for clients in [4, 8] {
        let run = replay_against(port, clients);
        // The stable report (status + digest per index) is the cheap
        // comparison; the body check below makes the failure readable.
        assert_eq!(
            baseline.stable_report(),
            run.stable_report(),
            "{clients} clients diverge from the single-client baseline"
        );
        for (a, b) in baseline.results.iter().zip(&run.results) {
            assert_eq!(a.index, b.index);
            assert_eq!(
                a.body, b.body,
                "request {} body differs with {clients} clients",
                a.index
            );
        }
    }

    server.stop();
    server.join();
}

#[test]
fn cache_state_never_leaks_into_bodies() {
    // The same list replayed twice against one server: the second pass
    // runs fully warm (memory caches primed) yet must answer
    // byte-identically to the cold pass.
    let server = Server::start(&ServeConfig::default()).expect("server starts");
    let port = server.port();

    let cold = replay_against(port, 2);
    let warm = replay_against(port, 2);
    assert_eq!(cold.stable_report(), warm.stable_report());
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a.body, b.body, "request {} body changed when warm", a.index);
    }

    server.stop();
    server.join();
}

/// Each message is one write and both ends set `TCP_NODELAY`, so a
/// keep-alive round trip costs no Nagle / delayed-ACK stall (~40 ms a
/// message when the head and the body went out as separate writes).
#[test]
fn keep_alive_round_trips_add_no_transport_stall() {
    let server = Server::start(&ServeConfig::default()).expect("server starts");
    let stream = TcpStream::connect(("127.0.0.1", server.port())).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut rtts: Vec<Duration> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            write_request(&mut writer, "GET", "/health", &[], b"").expect("send");
            let resp = read_response(&mut reader).expect("response");
            assert_eq!(resp.status, 200);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let p50 = rtts[rtts.len() / 2];
    assert!(
        p50 < Duration::from_millis(10),
        "keep-alive /health round trip p50 {p50:?}"
    );

    drop((reader, writer));
    server.stop();
    server.join();
}
