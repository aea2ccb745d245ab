//! `srclint` — the workspace's hand-rolled source lint (no external deps).
//!
//! The simulation crates run on **virtual time** (`simclock`): any wall-clock
//! API in non-test code silently breaks determinism and the identity oracles,
//! and a stray `unwrap()`/`expect()` in library code turns a recoverable
//! inner-I/O condition into a panic. The compiler cannot enforce either rule,
//! so CI runs this scanner over the virtual-time crates:
//!
//! * **deny wall-clock**: `Instant::now`, `SystemTime`, `thread::sleep`;
//! * **deny `unwrap()`/`expect()`** outside the reviewed allowlist below.
//!
//! Both rules apply to non-test code only — `#[cfg(test)] mod … { … }`
//! blocks, `tests.rs`/`*_tests.rs` files and doc/line comments are skipped.
//! Exit status is non-zero when any violation is found, so the CI lint job
//! fails the build.

use std::path::{Path, PathBuf};

/// Crates whose sources must stay wall-clock-free.
const CRATES: &[&str] = &["core", "nvmm", "fiosim", "traffic", "simclock"];

/// APIs that read or consume wall-clock time.
const WALL_CLOCK: &[&str] = &["Instant::now", "SystemTime", "thread::sleep"];

/// Reviewed `(file suffix, line needle)` pairs where `unwrap()`/`expect()`
/// in non-test code is deliberate: each one documents an invariant whose
/// violation is a bug in *this* workspace, not a recoverable condition.
/// Keep the needle specific enough to pin one call site.
const ALLOW_PANIC: &[(&str, &str)] = &[
    // Invariant messages: a failure here is internal state corruption.
    ("core/src/cleanup.rs", "entry references a closed fd"),
    ("core/src/cache.rs", "recover mode always produces a report"),
    ("core/src/cache.rs", "writable open creates the radix tree"),
    ("core/src/cache.rs", "just installed"),
    ("core/src/squeue.rs", "writable open creates the radix tree"),
    ("core/src/squeue.rs", "fd checked at submission"),
    // Thread spawning: no meaningful recovery from a failed spawn at mount.
    ("core/src/cache.rs", "spawn cleanup worker"),
    ("core/src/cache.rs", "spawn migration worker"),
    // Fixed-width header/field decoding: the slices are always 4/8 bytes.
    ("core/src/recovery.rs", ".try_into().expect("),
    // Crash simulation requires the durability tracking the profile enables.
    ("nvmm/src/dimm.rs", "crash semantics unavailable"),
    // Histogram bin guaranteed set on the taken branch.
    ("fiosim/src/lib.rs", "bin set"),
    // Reading back the completion entry pushed one statement earlier.
    ("fiosim/src/uring.rs", "just recorded"),
    // A worker is only `ready` while its script has a next op.
    ("traffic/src/engine.rs", "ready worker has an op"),
    // std Mutex poisoning is unreachable: no panic can happen under these
    // locks (pure arithmetic), and simclock cannot depend on parking_lot.
    ("simclock/src/resource.rs", "channel lock"),
    ("simclock/src/resource.rs", "at least one channel"),
];

fn main() {
    let root = workspace_root();
    let mut violations: Vec<String> = Vec::new();
    let mut scanned = 0usize;
    for krate in CRATES {
        let src = root.join("crates").join(krate).join("src");
        for file in rs_files(&src) {
            scanned += 1;
            scan_file(&root, &file, &mut violations);
        }
    }
    if violations.is_empty() {
        println!("srclint: {scanned} files clean");
        return;
    }
    eprintln!("srclint: {} violation(s):", violations.len());
    for v in &violations {
        eprintln!("  {v}");
    }
    std::process::exit(1);
}

/// The workspace root: `CARGO_MANIFEST_DIR` when cargo provides it (it
/// always does for `cargo run --bin srclint`), the current directory
/// otherwise.
fn workspace_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// All `.rs` files under `dir`, recursively, in sorted order (deterministic
/// reports), excluding whole-file test modules (`tests.rs`, `*_tests.rs`).
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rs_files(&path));
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let is_test_file = name == "tests.rs" || name.ends_with("_tests.rs");
        if name.ends_with(".rs") && !is_test_file {
            out.push(path);
        }
    }
    out
}

fn scan_file(root: &Path, path: &Path, violations: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        violations.push(format!("{}: unreadable", path.display()));
        return;
    };
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel = rel.to_string_lossy().replace('\\', "/");

    // Brace-tracked exclusion of `#[cfg(test)] mod … { … }` (and
    // `#[cfg(all(test, …))]`) blocks: after the attribute, skip until the
    // module's braces balance again. A plain block scanner is enough — the
    // tree never puts an unbalanced brace in a string literal at module
    // scope, and rustfmt keeps the attribute and `mod` adjacent.
    let mut in_test_block = false;
    let mut depth: i32 = 0;
    let mut pending_test_attr = false;
    let mut in_block_comment = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comments(raw, &mut in_block_comment);
        let trimmed = line.trim();

        if in_test_block {
            depth += brace_delta(&line);
            if depth <= 0 {
                in_test_block = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)") || trimmed.starts_with("#[cfg(all(test") {
            pending_test_attr = true;
            continue;
        }
        if pending_test_attr {
            // The attribute may gate a `use`, an item, or the test module
            // itself; only a `mod` opens a block we must skip. An attribute
            // stack (`#[cfg(test)]` + `#[allow(…)]`) keeps the flag alive.
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                if trimmed.ends_with(';') {
                    pending_test_attr = false; // out-of-line test module file
                } else {
                    in_test_block = true;
                    pending_test_attr = false;
                    depth = brace_delta(&line);
                    if depth <= 0 {
                        in_test_block = false;
                    }
                }
                continue;
            }
            if !trimmed.starts_with("#[") {
                pending_test_attr = false;
            }
            continue;
        }

        for api in WALL_CLOCK {
            if line.contains(api) {
                violations.push(format!(
                    "{rel}:{}: wall-clock API `{api}` in virtual-time code",
                    lineno + 1
                ));
            }
        }
        let panicky = line.contains(".unwrap()") || line.contains(".expect(");
        if panicky {
            let allowed = ALLOW_PANIC
                .iter()
                .any(|(file, needle)| rel.ends_with(file) && raw.contains(needle));
            if !allowed {
                violations.push(format!(
                    "{rel}:{}: unwrap()/expect() in non-test code (add a reviewed \
                     allowlist entry in src/bin/srclint.rs if deliberate)",
                    lineno + 1
                ));
            }
        }
    }
}

/// Strips line comments and (statefully) block comments; string literal
/// contents are left in place, which is fine for the needles we search.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if bytes[i] == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                break; // line comment (incl. doc comments)
            }
            if bytes[i + 1] == b'*' {
                *in_block = true;
                i += 2;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

fn brace_delta(line: &str) -> i32 {
    let mut d = 0;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}
