//! A per-process scratch directory for journals and replica files.
//!
//! On `/dev/shm` when it can be used: a journaled pass writes ~19 MB and the
//! replica journal syncs every append, so on a real disk write-back slows
//! the *next* pass and `es-sync` times the disk, not the code. Otherwise
//! under the benchmark's own `out/` directory, with the output saying which.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Unique directory, removed when dropped (on success and on failure alike).
pub struct Scratch {
    dir: PathBuf,
    tmpfs: bool,
}

static NEXT: AtomicU32 = AtomicU32::new(0);

impl Scratch {
    /// A fresh directory on `/dev/shm`, or under `fallback` if that fails.
    pub fn create(fallback: &Path) -> std::io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("sciflow-benchmark-{}-{n}", std::process::id());
        let shm = Path::new("/dev/shm").join(&name);
        if std::fs::create_dir(&shm).is_ok() {
            return Ok(Scratch { dir: shm, tmpfs: true });
        }
        let dir = fallback.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, tmpfs: false })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `tmpfs` or `disk`. `disk` numbers for `sim-durable` and `es-sync`
    /// include write-back noise.
    pub fn fs(&self) -> &'static str {
        if self.tmpfs {
            "tmpfs"
        } else {
            "disk"
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_unique_and_removed_on_drop() {
        let fallback = std::env::temp_dir();
        let a = Scratch::create(&fallback).unwrap();
        let b = Scratch::create(&fallback).unwrap();
        assert_ne!(a.path("x"), b.path("x"));
        std::fs::write(a.path("x"), b"journal").unwrap();
        let dir = a.path("x").parent().unwrap().to_path_buf();
        assert!(dir.is_dir());
        drop(a);
        assert!(!dir.exists());
        assert!(matches!(b.fs(), "tmpfs" | "disk"));
    }
}
