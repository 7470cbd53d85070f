//! Provenance and host-noise readings for the run record. None of these
//! feed a metric: they let a reader tell a host that was busy during a
//! run apart from a change in the program.

use std::fs;
use std::path::Path;

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-, 5- and 15-minute load averages, as written in `/proc/loadavg`.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// Steal ticks summed over all CPUs (`/proc/stat`, eighth field of `cpu`).
pub fn steal_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Nanoseconds this thread has run on a CPU
/// (`/proc/thread-self/schedstat`, first field).
pub fn oncpu_ns() -> Option<u64> {
    let s = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The checked-out commit, read from `.git` without running git (which
/// would search parent directories); `"none"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&root.join(".git/HEAD")) else {
        return "none".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&root.join(".git").join(refname))
        .or_else(|| {
            read(&root.join(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of the sources the benchmark builds (the repository's manifests,
/// `crates/`, `vendor/` and the benchmark's own `src/`), so a record
/// names the code it measured even where no git metadata exists.
pub fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "benchmark/src",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = FNV_BASIS;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h = fnv64(rel.to_string_lossy().as_bytes(), h);
        h = fnv64(&fs::read(f).unwrap_or_default(), h);
    }
    format!("{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for e in entries.flatten() {
            if e.file_name() != "target" {
                collect(&e.path(), out);
            }
        }
    }
}
