//! Spawning, readiness, scraping and TERM-draining the `hre` daemons.

use crate::client;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How long a daemon gets to drain after SIGTERM before it counts as
/// leaked and is killed.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// One running daemon. Dropping it without [`Daemon::stop`] kills it,
/// so an early error never leaves a child behind.
pub struct Daemon {
    pub addr: String,
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
}

/// What [`Daemon::stop`] observed.
struct Stopped {
    clean: bool,
    /// Had to be killed after [`DRAIN_LIMIT`].
    leaked: bool,
    detail: String,
}

impl Daemon {
    /// Starts `hre <args> --addr 127.0.0.1:0` and waits for its banner,
    /// which names the bound address.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon =
            Daemon { addr: String::new(), child: Some(child), stdout: BufReader::new(stdout) };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the banner of hre {}: {e}", args[0]))?;
        daemon.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("hre {} printed no address: {line:?}", args[0]))?
            .to_string();
        Ok(daemon)
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!(
            "/proc/{}/status",
            self.child.as_ref().expect("running").id()
        ))
        .map_err(|e| format!("reading /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// SIGTERM, then wait for the graceful drain.
    fn stop(mut self) -> Stopped {
        let mut child = self.child.take().expect("running");
        // SAFETY: `kill` has no memory-safety preconditions; the pid is
        // our own unreaped child, so it cannot name another process.
        unsafe { kill(child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + DRAIN_LIMIT;
        let (status, leaked) = loop {
            match child.try_wait() {
                Ok(Some(status)) => break (Some(status), false),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    let _ = child.kill();
                    break (child.wait().ok(), true);
                }
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let clean =
            !leaked && status.is_some_and(|s| s.success()) && rest.contains("drained cleanly");
        Stopped { clean, leaked, detail: format!("{status:?}") }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Polls `GET path` until it answers 200 and `ok(body)` holds.
fn wait_ready(addr: &str, path: &str, ok: impl Fn(&[u8]) -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, body)) = client::get(addr, path) {
            if ok(&body) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr}{path} not ready within 10 s"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The daemons of one workload: the svc backends and, when routed,
/// the router in front of them.
pub struct Stack {
    pub backends: Vec<Daemon>,
    pub router: Option<Daemon>,
}

impl Stack {
    /// Spawns the stack and returns it with its set-up time: from the
    /// first spawn until every daemon answers `/healthz` and the router's
    /// `/cluster` lists every backend.
    pub fn start(
        bin: &Path,
        backends: usize,
        routed: bool,
        workers: usize,
    ) -> Result<(Stack, f64), String> {
        let t0 = Instant::now();
        let workers = workers.to_string();
        let mut stack = Stack { backends: Vec::new(), router: None };
        for _ in 0..backends {
            stack.backends.push(Daemon::spawn(bin, &["serve", "--workers", &workers])?);
        }
        for b in &stack.backends {
            wait_ready(&b.addr, "/healthz", |_| true)?;
        }
        if routed {
            let list: Vec<&str> = stack.backends.iter().map(|b| b.addr.as_str()).collect();
            let router = Daemon::spawn(bin, &["cluster-route", "--backends", &list.join(",")])?;
            wait_ready(&router.addr, "/healthz", |_| true)?;
            wait_ready(&router.addr, "/cluster", |body| {
                let doc = String::from_utf8_lossy(body);
                list.iter().all(|a| doc.contains(&format!("\"addr\":\"{a}\"")))
            })?;
            stack.router = Some(router);
        }
        Ok((stack, t0.elapsed().as_secs_f64()))
    }

    /// Where clients send elections.
    pub fn front(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.backends[0].addr,
        }
    }

    /// Summed peak RSS of every daemon, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let mut kib = 0;
        for d in self.backends.iter().chain(&self.router) {
            kib += d.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// TERM-drains the router, then the backends. Returns the failures:
    /// a non-zero exit, a missing drain message, or a leaked child.
    pub fn stop(self) -> Vec<String> {
        let mut failures = Vec::new();
        for d in self.router.into_iter().chain(self.backends) {
            let addr = d.addr.clone();
            let s = d.stop();
            if !s.clean {
                failures.push(format!(
                    "{addr}: {} ({})",
                    if s.leaked { "did not drain within 10 s" } else { "unclean exit" },
                    s.detail
                ));
            }
        }
        failures
    }
}

/// A scraped `/metrics` page.
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    pub fn fetch(addr: &str) -> Result<Scrape, String> {
        let (status, body) =
            client::get(addr, "/metrics").map_err(|e| format!("scraping {addr}: {e}"))?;
        if status != 200 {
            return Err(format!("scraping {addr}: status {status}"));
        }
        let text = String::from_utf8_lossy(&body);
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Ok(Scrape(series))
    }

    /// Sum over every series of `family` whose labels contain `labels`.
    pub fn sum(&self, family: &str, labels: &str) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| {
                let (base, rest) = name.split_once('{').unwrap_or((name, ""));
                base == family && rest.contains(labels)
            })
            .map(|(_, v)| v)
            .sum()
    }
}
