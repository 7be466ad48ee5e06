//! Keep-alive connection pools, one per backend.
//!
//! The router's hot path must not pay a TCP handshake per proxied
//! request, so each backend keeps a small stack of idle keep-alive
//! [`Client`]s. [`BackendPool::get`] pops one (or dials a fresh one) and
//! [`BackendPool::put`] returns it after a successful exchange. A
//! connection that saw any transport error is simply dropped — never
//! returned — so a poisoned stream (half-written request, desynced
//! response framing) can't contaminate a later request.

use std::sync::Mutex;
use std::time::Duration;

use hre_svc::Client;

/// Idle keep-alive connections retained per backend. More than the
/// worker count of a default `hre-svc` backend buys nothing.
pub const DEFAULT_POOL_CAP: usize = 8;

/// A pool of idle keep-alive connections to one backend.
pub struct BackendPool {
    addr: String,
    timeout: Duration,
    cap: usize,
    idle: Mutex<Vec<Client>>,
}

impl BackendPool {
    /// A pool dialing `addr` with `timeout` for connect/read/write,
    /// retaining at most `cap` idle connections.
    pub fn new(addr: &str, timeout: Duration, cap: usize) -> BackendPool {
        BackendPool {
            addr: addr.to_string(),
            timeout,
            cap: cap.max(1),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The backend address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// An idle pooled connection, or a freshly dialed one.
    pub fn get(&self) -> std::io::Result<Client> {
        if let Some(client) = self.idle.lock().unwrap().pop() {
            return Ok(client);
        }
        Client::connect(&self.addr, self.timeout)
    }

    /// Returns a healthy connection for reuse. Call only after a clean
    /// request/response exchange; on any transport error, drop the
    /// client instead.
    pub fn put(&self, client: Client) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < self.cap {
            idle.push(client);
        }
    }

    /// Drops all idle connections (e.g. after the breaker opens, so a
    /// recovered backend starts from fresh streams).
    pub fn clear(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// Number of idle connections currently pooled.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_svc::http::{serve_keep_alive, Response, DEFAULT_MAX_BODY};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

    /// A tiny server that answers every request with its path, forever.
    fn echo_server(listener: TcpListener) {
        listener.set_nonblocking(true).expect("nonblocking");
        std::thread::spawn(move || {
            let shutdown = AtomicBool::new(false);
            hre_runtime::serve_connections(&listener, &shutdown, |stream| {
                serve_keep_alive(
                    stream,
                    DEFAULT_MAX_BODY,
                    &shutdown,
                    None,
                    || {},
                    |req| Response::text(200, req.path.clone().into_bytes()),
                )
            })
        });
    }

    #[test]
    fn reuses_returned_connections_and_respects_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        echo_server(listener);

        let pool = BackendPool::new(&addr, Duration::from_secs(2), 2);
        let mut a = pool.get().expect("dial a");
        let mut b = pool.get().expect("dial b");
        let mut c = pool.get().expect("dial c");
        for (i, client) in [&mut a, &mut b, &mut c].into_iter().enumerate() {
            let resp = client.get(&format!("/{i}")).expect("get");
            assert_eq!(resp.body_text(), format!("/{i}"));
        }
        pool.put(a);
        pool.put(b);
        pool.put(c); // over cap: dropped
        assert_eq!(pool.idle_len(), 2);

        // A pooled connection still works (keep-alive survived).
        let mut reused = pool.get().expect("pooled");
        assert_eq!(pool.idle_len(), 1);
        assert_eq!(reused.get("/again").expect("get").body_text(), "/again");

        pool.clear();
        assert_eq!(pool.idle_len(), 1 - 1);
    }

    #[test]
    fn get_fails_fast_when_the_backend_is_down() {
        // Bind then drop: the port is (very likely) unreachable.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let pool = BackendPool::new(&addr, Duration::from_millis(200), 2);
        assert!(pool.get().is_err());
    }
}
