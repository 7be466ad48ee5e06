//! The accept loop every daemon shares: the election service, the
//! cluster router and the control-plane node each serve one thread per
//! TCP connection behind this one function.
//!
//! A failed `accept` never stops the loop. The errors it meets in
//! practice pass on their own: the process is out of descriptors
//! (`EMFILE`, `ENFILE`), the kernel is out of buffers or memory
//! (`ENOBUFS`, `ENOMEM`), or a client gave up before it was accepted
//! (`ECONNABORTED`). The loop backs off on the shared capped schedule
//! ([`Backoff`]) and tries again, so a daemon that ran out of
//! descriptors serves again as soon as its connections close, instead
//! of leaving its listener dead.

use crate::Backoff;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How long an idle accept sleeps before it re-checks the stop flag.
const IDLE: Duration = Duration::from_millis(2);
/// First and largest pause after a failed accept (or thread spawn).
const BACKOFF_START: Duration = Duration::from_millis(1);
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Accepts connections on the nonblocking `listener` until `stop` flips,
/// running `serve` for each one on its own thread. Returns the number of
/// connections accepted, once every connection thread has finished.
///
/// Failed accepts back off and retry (see the module docs). A
/// connection whose thread cannot be spawned is closed unserved, and
/// the loop backs off the same way.
pub fn serve_connections<F>(listener: &TcpListener, stop: &AtomicBool, serve: F) -> u64
where
    F: Fn(TcpStream) + Sync,
{
    let serve = &serve;
    let mut accepted = 0u64;
    let mut backoff = Backoff::new(BACKOFF_START, BACKOFF_CAP);
    // Set while failures repeat, so a long outage logs once.
    let mut failing = false;
    std::thread::scope(|scope| {
        while !stop.load(Ordering::Relaxed) {
            let failure = match listener.accept() {
                Ok((stream, _peer)) => {
                    accepted += 1;
                    std::thread::Builder::new()
                        .spawn_scoped(scope, move || serve(stream))
                        .err()
                        .map(|e| format!("cannot spawn a connection thread: {e}"))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(IDLE);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => Some(format!("accept failed: {e}")),
            };
            match failure {
                None => {
                    backoff.reset();
                    failing = false;
                }
                Some(why) => {
                    if !failing {
                        eprintln!("{why}; backing off and accepting again");
                        failing = true;
                    }
                    std::thread::sleep(backoff.advance());
                }
            }
        }
    });
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::Arc;

    #[test]
    fn serves_each_connection_and_joins_them_on_stop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                serve_connections(&listener, &stop, |mut stream| {
                    let mut byte = [0u8; 1];
                    stream.read_exact(&mut byte).unwrap();
                    stream.write_all(&[byte[0] + 1]).unwrap();
                })
            })
        };
        for i in 0..3u8 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&[i]).unwrap();
            let mut reply = [0u8; 1];
            c.read_exact(&mut reply).unwrap();
            assert_eq!(reply[0], i + 1);
        }
        stop.store(true, Ordering::SeqCst);
        assert_eq!(server.join().unwrap(), 3);
    }
}
