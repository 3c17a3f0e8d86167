//! Helpers shared by the serving tiers: the ones that drive the real
//! `pv-serve` binary (`serve_chaos`, `serve_protocol`) and the registry
//! round trips (`serving_equivalence`).

// Each test crate uses only some of these helpers.
#![allow(dead_code)]

use std::ffi::OsStr;
use std::fs;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Locates the workspace `pv-serve` binary next to this test
/// executable (`target/<profile>/deps/<test>` → `target/<profile>/`),
/// building it on demand — `cargo test` for the facade package does not
/// build other members' binaries.
pub fn serve_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test exe path");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("target profile dir")
        .to_path_buf();
    let bin = profile_dir.join("pv-serve");
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "-p", "pv-bench", "--bin", "pv-serve"]);
        if profile_dir.file_name().map(|n| n == "release") == Some(true) {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo build");
        assert!(status.success(), "building pv-serve failed");
    }
    assert!(bin.exists(), "no pv-serve binary at {}", bin.display());
    bin
}

/// A spawned `pv-serve` that is killed and reaped when dropped, so a
/// failing assertion cannot leave the daemon running after the test.
pub struct Daemon(Child);

impl Daemon {
    /// Spawns `cmd`, a `pv-serve` command line.
    pub fn spawn(cmd: &mut Command) -> Daemon {
        Daemon(cmd.spawn().expect("spawn pv-serve"))
    }
}

impl Deref for Daemon {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Killing a daemon that already exited fails harmlessly; the
        // wait reaps it either way.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Waits up to 30 s for the daemon to exit and asserts it exited 0.
pub fn wait_exit_ok(mut daemon: Daemon) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "pv-serve exited with {status}");
                return;
            }
            None if Instant::now() > deadline => panic!("pv-serve did not exit within 30s"),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A fresh `<name>-<pid>` directory in the system temp dir, removed when
/// dropped — when the test ends, panics included.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        TempDir(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for TempDir {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
