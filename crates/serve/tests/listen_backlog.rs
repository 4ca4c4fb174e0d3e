//! The daemon's listener queues a connect burst instead of dropping it:
//! with std's backlog of 128 only 129 of a 300-connect burst complete
//! while nothing accepts, and the rest wait out SYN retransmits.

use std::net::TcpStream;
use std::time::Duration;

#[test]
fn a_300_connect_burst_fits_the_accept_queue() {
    let somaxconn: usize = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    if somaxconn < 300 {
        eprintln!("skipped: net.core.somaxconn is {somaxconn}, below the 300 this test needs");
        return;
    }
    let listener = jvmsim_serve::server::bind_listener("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let held: Vec<TcpStream> = (0..300)
        .filter_map(|_| TcpStream::connect_timeout(&addr, Duration::from_millis(20)).ok())
        .collect();
    assert_eq!(held.len(), 300, "connects completed without an accept");
}
