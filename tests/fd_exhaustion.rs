//! A daemon that runs out of file descriptors must serve again once
//! descriptors free up. `hre serve` runs under `ulimit -n 40`; the test
//! holds more connections than that, releases them, and then expects
//! `/healthz` to answer, the process to still be alive, and SIGTERM to
//! drain it with exit status 0.

#![cfg(unix)]

use homonym_rings::svc::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections opened against the daemon: more than its descriptor limit.
const CONNECTIONS: usize = 60;

/// Kills the daemon if the test fails before it is drained.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_keeps_accepting_after_running_out_of_descriptors() {
    let child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 40 && exec "$0" serve --addr 127.0.0.1:0 --workers 1"#)
        .arg(env!("CARGO_BIN_EXE_hre"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hre serve");
    let mut daemon = Daemon(child);
    let mut banner = String::new();
    BufReader::new(daemon.0.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read the banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in the banner {banner:?}"))
        .to_string();

    // Every connection sends a request. The daemon answers the ones it
    // could accept; the rest wait in the listen backlog while it is out
    // of descriptors.
    let mut conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let mut c = TcpStream::connect(&addr).expect("connect");
            c.write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n").expect("send");
            c
        })
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    let mut answered = 0;
    for c in &mut conns {
        c.set_nonblocking(true).expect("nonblocking");
        if matches!(c.read(&mut [0u8; 256]), Ok(n) if n > 0) {
            answered += 1;
        }
    }
    assert!(answered < CONNECTIONS, "the daemon never ran out of descriptors");
    drop(conns);

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        match Client::connect(&addr, Duration::from_secs(2)).and_then(|mut c| c.get("/healthz")) {
            Ok(resp) => break resp.status,
            Err(e) if Instant::now() >= deadline => {
                panic!("no /healthz answer after the descriptors were released: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert_eq!(status, 200);
    assert!(daemon.0.try_wait().expect("poll the daemon").is_none(), "the daemon exited");

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let exit = daemon.0.wait().expect("wait for the drain");
    assert!(exit.success(), "the drain did not exit cleanly: {exit}");
}
