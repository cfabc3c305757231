//! Host shape: everything about the machine and build that a number
//! depends on, recorded with every result so two sets from different
//! shapes are never compared.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Caller threads generating load: callers are blockservers waiting
/// for a reply, so two closed loops — or one on a one-core host.
pub fn clients() -> usize {
    nproc().min(2)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when
/// `/proc` is unreadable.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") as f64 / 1024.0
}

fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mounts` (so an fsync on tmpfs is labelled as
/// one).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `key=value` settings of a manifest's `[profile.release]` table,
/// space-separated.
fn release_profile(manifest: &str) -> String {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| l.contains('=') && !l.starts_with('#'))
        .map(|l| l.replace([' ', '"'], ""))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The host-shape record. `profile` is the repository's
/// `[profile.release]` as it stood when `lepbench` was built (`run.sh`
/// builds with it); `commit` reads `unknown` in a checkout that is not
/// a git repository.
pub fn shape(scratch: &Path, seed: u64, rounds: usize, seconds: f64) -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with("engine_workers", lepton_core::Engine::global().workers())
        .with("simd", lepton_simd::level_str())
        .with("rustc", command_line("rustc", &["-V"]))
        .with(
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        )
        .with(
            "profile",
            release_profile(include_str!("../../../Cargo.toml")),
        )
        .with("scratch_fs", fs_type(scratch))
        .with("clients", clients())
        .with("rounds", rounds)
        .with("seconds", seconds)
        .with("seed", seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_release_profile_table() {
        let manifest = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\nlto = \"thin\"\n\n[profile.dev]\nopt-level = 2\n";
        assert_eq!(release_profile(manifest), "debug=true lto=thin");
        assert_eq!(release_profile("[package]\n"), "");
        assert!(!release_profile(include_str!("../../../Cargo.toml")).is_empty());
    }

    #[test]
    fn reads_proc() {
        assert!(peak_rss_mib() > 0.0);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
        assert!((1..=2).contains(&clients()));
    }
}
