//! An in-memory repository file tree.
//!
//! The corpus generator synthesizes repositories as [`RepoFs`] values and
//! the SBOM generators scan them, standing in for the paper's setup of
//! "downloading popular GitHub repositories onto the local file system and
//! subsequently scanning the repository directories" (§III-B).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::MetadataKind;

/// An in-memory repository: a name plus a sorted path → content map.
///
/// File contents are shared (`Arc`), so the parse cache can keep the bytes
/// it verifies hits against without copying them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepoFs {
    name: String,
    files: BTreeMap<String, Arc<[u8]>>,
}

impl RepoFs {
    /// Creates an empty repository.
    pub fn new(name: impl Into<String>) -> Self {
        RepoFs {
            name: name.into(),
            files: BTreeMap::new(),
        }
    }

    /// Reads a repository from a directory on disk (skipping `.git`,
    /// `node_modules`, `target`, `vendor` and anything over 4 MiB — the
    /// hygiene real scanners apply).
    ///
    /// # Errors
    ///
    /// Returns any I/O error encountered while walking the tree.
    pub fn from_dir(root: impl AsRef<Path>) -> io::Result<RepoFs> {
        const SKIP_DIRS: [&str; 6] = [
            ".git",
            "node_modules",
            "target",
            "vendor",
            ".venv",
            "__pycache__",
        ];
        const MAX_FILE: u64 = 4 * 1024 * 1024;
        let root = root.as_ref();
        let name = root
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "repo".to_string());
        let mut repo = RepoFs::new(name);
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                let file_name = entry.file_name().to_string_lossy().into_owned();
                let meta = entry.metadata()?;
                if meta.is_dir() {
                    if !SKIP_DIRS.contains(&file_name.as_str()) {
                        stack.push(path);
                    }
                    continue;
                }
                if meta.len() > MAX_FILE {
                    continue;
                }
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace(std::path::MAIN_SEPARATOR, "/");
                // Metadata files matter to the generators; small .txt
                // files are kept too so `-r` include targets with arbitrary
                // names stay resolvable for the ground-truth dry run.
                let small_txt = rel.ends_with(".txt") && meta.len() <= 64 * 1024;
                if MetadataKind::detect(&rel).is_some() || small_txt {
                    repo.add_bytes(rel, std::fs::read(&path)?);
                }
            }
        }
        Ok(repo)
    }

    /// The repository name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds (or replaces) a UTF-8 text file.
    pub fn add_text(&mut self, path: impl Into<String>, content: impl Into<String>) {
        self.files
            .insert(path.into(), content.into().into_bytes().into());
    }

    /// Adds (or replaces) a binary file.
    pub fn add_bytes(&mut self, path: impl Into<String>, content: Vec<u8>) {
        self.files.insert(path.into(), content.into());
    }

    /// Removes a file; returns its content if present.
    pub fn remove(&mut self, path: &str) -> Option<Vec<u8>> {
        self.files.remove(path).map(|b| b.to_vec())
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the repository has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// All paths in sorted order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Raw bytes of a file.
    pub fn bytes(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|b| &**b)
    }

    /// A shared handle to a file's bytes (no copy).
    pub fn shared_bytes(&self, path: &str) -> Option<Arc<[u8]>> {
        self.files.get(path).cloned()
    }

    /// UTF-8 content of a file (None when missing or not UTF-8).
    pub fn text(&self, path: &str) -> Option<&str> {
        self.files
            .get(path)
            .and_then(|b| std::str::from_utf8(b).ok())
    }

    /// All recognized metadata files with their kinds, in path order.
    pub fn metadata_files(&self) -> Vec<(&str, MetadataKind)> {
        self.files
            .keys()
            .filter_map(|p| MetadataKind::detect(p).map(|k| (p.as_str(), k)))
            .collect()
    }

    /// Text files as a path → content map (used by the ground-truth dry run
    /// to follow `-r` includes).
    pub fn text_files(&self) -> BTreeMap<String, String> {
        self.files
            .iter()
            .filter_map(|(p, b)| {
                std::str::from_utf8(b)
                    .ok()
                    .map(|s| (p.clone(), s.to_string()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut repo = RepoFs::new("demo");
        repo.add_text("requirements.txt", "numpy==1.19.2\n");
        repo.add_text("sub/Cargo.lock", "version = 3\n");
        repo.add_bytes("bin/app.gobin", vec![0x7f, b'E']);
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.text("requirements.txt"), Some("numpy==1.19.2\n"));
        assert!(repo.text("bin/app.gobin").is_some()); // valid utf-8 here
        assert!(repo.bytes("missing").is_none());
    }

    #[test]
    fn metadata_detection() {
        let mut repo = RepoFs::new("demo");
        repo.add_text("requirements.txt", "");
        repo.add_text("src/main.py", "");
        repo.add_text("sub/Cargo.lock", "");
        let found = repo.metadata_files();
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].1, MetadataKind::RequirementsTxt);
        assert_eq!(found[1].1, MetadataKind::CargoLock);
    }

    #[test]
    fn text_files_skips_binary() {
        let mut repo = RepoFs::new("demo");
        repo.add_text("a.txt", "hello");
        repo.add_bytes("b.bin", vec![0xff, 0xfe, 0x00]);
        let texts = repo.text_files();
        assert_eq!(texts.len(), 1);
        assert!(texts.contains_key("a.txt"));
    }

    #[test]
    fn from_dir_reads_metadata_files() {
        let dir = std::env::temp_dir().join(format!("sbomdiff-repofs-{}", std::process::id()));
        let sub = dir.join("svc");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::create_dir_all(dir.join(".git")).unwrap();
        std::fs::write(dir.join("requirements.txt"), "numpy==1.19.2\n").unwrap();
        std::fs::write(sub.join("Cargo.lock"), "version = 3\n").unwrap();
        std::fs::write(dir.join("README.md"), "not metadata").unwrap();
        std::fs::write(dir.join(".git").join("Gemfile"), "gem 'hidden'\n").unwrap();
        let repo = RepoFs::from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(repo.len(), 2, "{:?}", repo.paths().collect::<Vec<_>>());
        assert!(repo.text("requirements.txt").is_some());
        assert!(repo.text("svc/Cargo.lock").is_some());
    }

    #[test]
    fn remove_file() {
        let mut repo = RepoFs::new("demo");
        repo.add_text("x", "1");
        let shared = repo.shared_bytes("x").unwrap();
        assert_eq!(repo.remove("x").as_deref(), Some(&b"1"[..]));
        // A shared handle outlives the file's removal.
        assert_eq!(&*shared, b"1");
        assert!(repo.is_empty());
    }
}
