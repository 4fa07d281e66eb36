//! Machine and source fingerprint printed with every result: CPU count
//! and model, kernel, `rustc` version, git commit (when the working
//! directory is a git checkout) and a digest of the simulator's sources,
//! which identifies the code in a checkout without git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The fingerprint as a JSON object (computed once per process).
pub fn json() -> &'static str {
    static FP: OnceLock<String> = OnceLock::new();
    FP.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        format!(
            "{{\"cpus\":{cpus},\"cpu_model\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\",\"source_digest\":\"{:016x}\"}}",
            escape(&cpu_model),
            escape(&kernel),
            escape(&command_line("rustc", &["--version"])),
            escape(&git_commit()),
            source_digest()
        )
    })
}

/// The checkout's commit. Only a `.git` in the working directory is
/// asked, so git never searches the directories above the checkout.
fn git_commit() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unavailable".into()
    }
}

/// First line of a command's standard output, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".into())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// FNV-1a over the paths and contents of the workspace manifests and
/// the sources under `src` and `crates`, in sorted path order.
fn source_digest() -> u64 {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates"] {
        collect(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
