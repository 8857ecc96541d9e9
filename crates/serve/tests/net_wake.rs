//! Shutdown wakes every thread that blocks waiting for work: the
//! request listener's and the scrape listener's `accept` (each by a
//! connection of its own) and the dispatcher's `recv` (by a message).
//! Nothing polls, so a missed wake-up hangs `join` — the watchdog turns
//! that into a failure after 10 s.

mod net_common;

use lts_serve::{NetConfig, NetServer};
use net_common::Client;
use std::sync::mpsc;
use std::time::Duration;

/// A server with both listeners bound at `ip`.
fn bind_both(ip: &str) -> NetServer {
    let config = NetConfig {
        metrics_addr: Some(format!("{ip}:0")),
        ..NetConfig::default()
    };
    NetServer::bind(format!("{ip}:0"), config).expect("bind")
}

/// Shut `server` down and `join` it on another thread; fail if that
/// takes more than 10 s.
fn shutdown_and_join_within_watchdog(server: NetServer) {
    let (joined, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        server.join();
        let _ = joined.send(());
    });
    watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must wake both accept loops and the dispatcher");
}

#[test]
fn shutdown_wakes_both_listeners_with_no_client() {
    // Bound at every interface: the wake-up connects through loopback.
    shutdown_and_join_within_watchdog(bind_both("0.0.0.0"));
}

#[test]
fn shutdown_wakes_both_listeners_with_an_idle_client() {
    let server = bind_both("127.0.0.1");
    let mut idle = Client::connect(server.local_addr());
    // A reply proves the connection was accepted, so it cannot be what
    // wakes the accept loop below.
    let reply = idle.roundtrip("slow");
    assert!(reply.contains("\"ok\": true"), "{reply}");
    shutdown_and_join_within_watchdog(server);
    idle.set_read_timeout(Duration::from_secs(10));
    assert_eq!(idle.recv(), None, "the idle client sees the server close");
}
