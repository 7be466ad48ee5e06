//! The host block printed with every result: where and how it was made.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// UTC calendar date of a Unix day count (Howard Hinnant's algorithm).
fn civil_date(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + (m <= 2) as i64, m, d)
}

/// The commit checked out here, or "unknown" outside a git work tree
/// (an exported source tree inside some other repository included).
fn git_sha() -> String {
    let top = first_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    match (std::path::Path::new(&top).canonicalize().ok(), here) {
        (Some(top), Some(here)) if top == here => first_line("git", &["rev-parse", "HEAD"]),
        _ => "unknown".into(),
    }
}

/// One JSON object: cores, CPU, build profile, commit, compiler, date.
pub fn block(nproc: usize) -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let (y, m, d) = civil_date((secs / 86_400) as i64);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let esc = |s: String| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"profile\":\"{profile}\",\"git_sha\":\"{}\",\
         \"rustc\":\"{}\",\"date\":\"{y:04}-{m:02}-{d:02}\"}}",
        esc(cpu_model()),
        esc(git_sha()),
        esc(first_line("rustc", &["--version"])),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn civil_dates() {
        assert_eq!(super::civil_date(0), (1970, 1, 1));
        assert_eq!(super::civil_date(19_723), (2024, 1, 1));
        assert_eq!(super::civil_date(20_743), (2026, 10, 17));
    }
}
