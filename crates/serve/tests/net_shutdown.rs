//! Graceful-shutdown battery: a `shutdown` arriving mid-batch lets
//! in-flight requests complete with valid responses, answers
//! queued-but-unadmitted requests with a `shutting_down` error, closes
//! the listener, and (for the `lts-served` binary) exits 0 — also on
//! SIGTERM.

mod net_common;

use lts_serve::{NetConfig, NetServer, ReplOptions};
use net_common::{field_u64, Client};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Held by every test of this binary while it binds a listener, and
/// from a joined server's release of its port to the check that the
/// port refuses connections: the tests run on parallel threads, and a
/// bind to `127.0.0.1:0` beside the check could be handed the freed
/// port and accept the connection the check expects refused.
fn binds() -> MutexGuard<'static, ()> {
    static BINDS: Mutex<()> = Mutex::new(());
    BINDS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bind() -> NetServer {
    let _binds = binds();
    NetServer::bind("127.0.0.1:0", deterministic_config()).expect("bind")
}

fn deterministic_config() -> NetConfig {
    NetConfig {
        repl: ReplOptions {
            deterministic: true,
        },
        ..NetConfig::default()
    }
}

#[test]
fn shutdown_mid_batch_drains_inflight_and_refuses_queued() {
    let server = bind();
    let addr = server.local_addr();

    let mut a = Client::connect(addr);
    // A second connection that is idle while shutdown happens; any
    // request it sends afterwards must be refused or see a closed
    // socket — never hang.
    let mut b = Client::connect(addr);

    let resp = a.roundtrip("register sports s rows=800 level=M seed=3");
    assert!(resp.contains("\"registered\""), "{resp}");

    // Pipeline a burst: 10 counts, then `shutdown`, then 5 more counts,
    // all written before reading anything. The single reader thread
    // preserves submission order, so the 10 are admitted ahead of the
    // shutdown and must complete; the trailing 5 are past it.
    for i in 0..10 {
        a.send(&format!("count s budget=80 fresh id={i} :: wins > 10"));
    }
    a.send("shutdown");
    for i in 10..15 {
        a.send(&format!("count s budget=80 fresh id={i} :: wins > 10"));
    }

    for i in 0..10 {
        let resp = a.recv().expect("in-flight request must be answered");
        assert!(
            resp.contains("\"ok\": true"),
            "in-flight request {i} must complete with a valid response: {resp}"
        );
        assert_eq!(field_u64(&resp, "id"), Some(i));
    }
    let ack = a.recv().expect("shutdown must be acknowledged");
    assert!(ack.contains("\"shutting_down\": true"), "{ack}");

    // Everything after the ack is either a structured refusal or a
    // clean EOF once the flushed responses run out.
    a.set_read_timeout(Duration::from_secs(10));
    let mut refused = 0;
    while let Some(resp) = a.recv() {
        assert!(
            resp.contains("shutting_down"),
            "post-shutdown requests must be refused, not served: {resp}"
        );
        refused += 1;
    }
    assert!(refused <= 5, "at most the 5 trailing requests reply");

    // The idle connection: a request now is refused or the socket is
    // already closed. Tolerate a send error (server may have FINed).
    b.set_read_timeout(Duration::from_secs(10));
    let _ = writeln!(b.stream, "count s budget=80 id=99 :: wins > 10");
    if let Some(resp) = b.recv() {
        assert!(resp.contains("shutting_down"), "{resp}");
    }

    // The server drains and joins without a wedged worker, and the
    // listener is closed: fresh connections are refused.
    let _binds = binds();
    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn shutdown_via_server_handle_unblocks_idle_clients() {
    let server = bind();
    let addr = server.local_addr();
    let mut c = Client::connect(addr);
    let resp = c.roundtrip("register sports s rows=400 level=M seed=3");
    assert!(resp.contains("\"registered\""), "{resp}");

    // Shutdown initiated out-of-band (the SIGTERM path) while a client
    // sits idle mid-session: the client sees EOF, not a hang.
    server.shutdown();
    server.join();
    c.set_read_timeout(Duration::from_secs(10));
    assert_eq!(c.recv(), None, "idle client must observe a clean close");
}

/// End-to-end on the real binary: SIGTERM drains and exits 0.
#[cfg(unix)]
#[test]
fn lts_served_binary_exits_zero_on_sigterm() {
    use std::process::{Command, Stdio};

    // The child has bound once it prints its banner.
    let binds = binds();
    let mut child = Command::new(env!("CARGO_BIN_EXE_lts-served"))
        .args(["--addr", "127.0.0.1:0", "--deterministic"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lts-served");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let banner = lines
        .next()
        .expect("server banner")
        .expect("read server banner");
    drop(binds);
    let addr = banner
        .rsplit("listening on ")
        .next()
        .expect("banner names the bound address")
        .trim()
        .to_string();

    let mut c = Client::connect(addr.parse().expect("bound address"));
    let resp = c.roundtrip("register sports s rows=400 level=M seed=3");
    assert!(resp.contains("\"registered\""), "{resp}");
    let resp = c.roundtrip("count s budget=80 id=0 :: wins > 10");
    assert!(resp.contains("\"ok\": true"), "{resp}");

    let kill = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -TERM {}", child.id()))
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill -TERM must succeed");

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("lts-served did not exit within 30s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "lts-served must exit 0, got {status:?}");
    c.set_read_timeout(Duration::from_secs(10));
    assert_eq!(c.recv(), None, "client sees a clean close at exit");
}
