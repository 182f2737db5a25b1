//! Crash-safe file replacement, shared by every snapshot writer in the
//! workspace (model snapshots, tenant shard sets and their manifests).

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` atomically: a sibling `{path}.tmp` is
/// written, fsynced, then renamed into place, so a crash mid-write
/// never leaves a torn file at `path` — readers see the previous file
/// or the new one. The temp name is appended (not `with_extension`), so
/// sibling shard files like `snap.acme.0` and `snap.acme.1` get
/// distinct temp files. On any error the temp file is removed and
/// `path` is left as it was.
///
/// Callers serialize first (e.g. [`save_model`](crate::save_model) into
/// a `Vec<u8>`) and then publish the bytes with this one call.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let write = || -> io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mccatch-atomic-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_the_file_and_leaves_no_temp_behind() {
        let dir = scratch_dir("ok");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!dir.join("snap.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write that fails midway (the temp file is a symlink to
    /// `/dev/full`, so `write_all` hits ENOSPC) keeps the previous file
    /// byte for byte and cleans up the temp file.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_failed_write_keeps_the_previous_file_and_removes_the_temp() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = scratch_dir("fail");
        let path = dir.join("snap.bin");
        let tmp = dir.join("snap.bin.tmp");
        write_atomic(&path, b"previous").unwrap();
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
        assert!(write_atomic(&path, b"replacement").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"previous");
        assert!(std::fs::symlink_metadata(&tmp).is_err(), "temp left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
