//! The ordered path → blob map behind both storage tiers.
//!
//! Paths are flat strings with `/` separators (`"{name}/v{version}/r{rank}"`
//! is VeloC's layout). Keeping them ordered turns the two metadata queries
//! the checkpoint layer needs — "which versions exist under this name" and
//! "does this exact path exist" — into a seek per answer, so their cost does
//! not depend on how many other ranks wrote into the same tier.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

#[derive(Default)]
pub(crate) struct Blobs {
    map: RwLock<BTreeMap<String, Bytes>>,
    /// Stored keys touched by metadata queries (`list`, `children`,
    /// `exists`): the work counter behind `keys_examined` on both tiers.
    examined: AtomicU64,
}

impl Blobs {
    pub(crate) fn insert(&self, path: &str, data: Bytes) {
        self.map.write().insert(path.to_owned(), data);
    }

    pub(crate) fn get(&self, path: &str) -> Option<Bytes> {
        self.map.read().get(path).cloned()
    }

    /// Returns whether the blob existed.
    pub(crate) fn remove(&self, path: &str) -> bool {
        self.map.write().remove(path).is_some()
    }

    pub(crate) fn clear(&self) {
        self.map.write().clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Total stored bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.map.read().values().map(Bytes::len).sum()
    }

    pub(crate) fn exists(&self, path: &str) -> bool {
        self.examined.fetch_add(1, Ordering::Relaxed);
        self.map.read().contains_key(path)
    }

    pub(crate) fn keys_examined(&self) -> u64 {
        self.examined.load(Ordering::Relaxed)
    }

    /// Every stored path starting with `prefix`, ascending.
    pub(crate) fn list(&self, prefix: &str) -> Vec<String> {
        let map = self.map.read();
        let found: Vec<String> = map
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        self.examined
            .fetch_add(found.len() as u64 + 1, Ordering::Relaxed);
        found
    }

    /// The names directly under directory `dir` (a prefix ending in `/`),
    /// ascending, each once — `readdir`, not a recursive walk: for
    /// `a/v1/r0`, `a/v1/r1`, `a/v2/r0` and `dir = "a/"` the answer is
    /// `["v1", "v2"]`. One seek per child, however many paths sit under it.
    pub(crate) fn children(&self, dir: &str) -> Vec<String> {
        let map = self.map.read();
        let mut out: Vec<String> = Vec::new();
        let mut lower = dir.to_owned();
        let mut seeks = 0;
        loop {
            seeks += 1;
            let next = map
                .range::<str, _>((Bound::Included(lower.as_str()), Bound::Unbounded))
                .next();
            let Some(rest) = next.and_then(|(k, _)| k.strip_prefix(dir)) else {
                break;
            };
            // Skip the whole subtree: every path under "{child}/" sorts
            // below "{child}0" ('0' is the byte after '/'). A blob stored at
            // exactly "{dir}{child}" has no subtree; step just past it.
            let child = match rest.split_once('/') {
                Some((child, _)) => {
                    lower = format!("{dir}{child}0");
                    child
                }
                None => {
                    lower = format!("{dir}{rest}\0");
                    rest
                }
            };
            out.push(child.to_owned());
        }
        self.examined.fetch_add(seeks, Ordering::Relaxed);
        // A blob "{dir}x" and a subtree "{dir}x/…" are both the child "x",
        // and another name ("x-y") can sort between them.
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(paths: &[&str]) -> Blobs {
        let b = Blobs::default();
        for p in paths {
            b.insert(p, Bytes::new());
        }
        b
    }

    #[test]
    fn children_is_readdir_not_a_walk() {
        let b = blobs(&["a/v1/r0", "a/v1/r1", "a/v2/r0", "a2/v9/r0", "b"]);
        assert_eq!(b.children("a/"), vec!["v1", "v2"]);
        assert_eq!(b.children("a2/"), vec!["v9"]);
        assert!(b.children("c/").is_empty());
        assert_eq!(b.children(""), vec!["a", "a2", "b"]);
    }

    #[test]
    fn children_merges_a_blob_with_the_subtree_of_the_same_name() {
        let b = blobs(&["d/x", "d/x-y", "d/x/1", "d/x/2", "d/x0"]);
        assert_eq!(b.children("d/"), vec!["x", "x-y", "x0"]);
    }

    #[test]
    fn children_cost_is_per_child_not_per_path() {
        let b = Blobs::default();
        for v in 0..3 {
            for r in 0..500 {
                b.insert(&format!("ck/v{v}/r{r}"), Bytes::new());
            }
        }
        let before = b.keys_examined();
        assert_eq!(b.children("ck/").len(), 3);
        assert_eq!(b.keys_examined() - before, 4, "one seek per child + end");
    }
}
