//! The ordered key → blob map behind both storage tiers, and its keys.
//!
//! A checkpoint blob's key is `(name, version, rank)`, VeloC's
//! `"{name}/v{version}/r{rank}"` with the name interned once per cluster
//! ([`Names`]): three integers, compared without a string. Ordering the keys
//! puts a name's versions, and each version's ranks, next to each other, so
//! "which versions exist under this name" is one seek per version and "does
//! this blob exist" one lookup, however many ranks wrote into the same tier.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

/// A name interned in a cluster's [`Names`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

/// Where a blob lives in a tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    pub name: NameId,
    /// `(version, rank)` of a checkpoint; `None` for a path of another
    /// shape, which is its name alone.
    pub at: Option<(u64, usize)>,
}

impl Key {
    /// Checkpoint `rank` of `version` under `name`.
    pub fn new(name: NameId, version: u64, rank: usize) -> Self {
        let at = Some((version, rank));
        Key { name, at }
    }
}

/// A blob's address: a [`Key`], or a path string that [`Names::key`]
/// turns into one.
pub trait ToKey {
    fn to_key(&self, names: &Names) -> Key;
}

impl ToKey for Key {
    fn to_key(&self, _: &Names) -> Key {
        *self
    }
}

impl<S: AsRef<str>> ToKey for S {
    fn to_key(&self, names: &Names) -> Key {
        names.key(self.as_ref())
    }
}

/// A cluster's name table: each name a tier has seen, interned once, its
/// id its index. A cluster sees a handful of names (one per checkpoint
/// region), so a scan finds one sooner than a map would.
#[derive(Default)]
pub struct Names(RwLock<Vec<Arc<str>>>);

impl Names {
    /// The id of `name`, interned on first sight.
    pub fn intern(&self, name: &str) -> NameId {
        NameId(self.find_or_push(|n| n == name, || name.into()).0 as u32)
    }

    /// `"{scope}.{label}"`, interned on first sight: the one copy every
    /// rank of the cluster shares. A name already in the table is found by
    /// comparing its two parts, so looking it up formats nothing.
    pub fn qualified(&self, scope: &str, label: &str) -> Arc<str> {
        let at = scope.len();
        let is = |n: &str| {
            n.len() == at + 1 + label.len()
                && n.starts_with(scope)
                && n.get(at..=at) == Some(".")
                && n.ends_with(label)
        };
        self.find_or_push(is, || format!("{scope}.{label}").into())
            .1
    }

    /// The index and the name of the first name `is` holds for, pushing
    /// `make()` when there is none.
    fn find_or_push(
        &self,
        is: impl Fn(&str) -> bool,
        make: impl FnOnce() -> Arc<str>,
    ) -> (usize, Arc<str>) {
        let find = |names: &[Arc<str>]| {
            let at = names.iter().position(|n| is(n))?;
            Some((at, Arc::clone(names.get(at)?)))
        };
        let found = find(&self.0.read());
        found.unwrap_or_else(|| {
            let mut names = self.0.write();
            find(&names).unwrap_or_else(|| {
                let name = make();
                names.push(Arc::clone(&name));
                (names.len() - 1, name)
            })
        })
    }

    /// The name `id` was interned from.
    pub fn name(&self, id: NameId) -> String {
        self.0
            .read()
            .get(id.0 as usize)
            .map(|n| n.to_string())
            .unwrap_or_default()
    }

    /// The key of `path`. `"{name}/v{version}/r{rank}"`, with both numbers
    /// spelled as `{}` prints them, is checkpoint `rank` of `version` under
    /// `name`; any other path is a name alone.
    pub fn key(&self, path: &str) -> Key {
        let split = path.rsplit_once("/r").and_then(|(rest, rank)| {
            let (name, version) = rest.rsplit_once("/v")?;
            let rank = usize::try_from(decimal(rank)?).ok()?;
            Some((name, (decimal(version)?, rank)))
        });
        let name = self.intern(split.map_or(path, |(name, _)| name));
        let at = split.map(|(_, at)| at);
        Key { name, at }
    }

    /// Which of `n` stripes `key` lands on: `DefaultHasher` over its path
    /// string, as `str::hash` feeds it (the bytes, then `0xff`), the path
    /// streamed into the hasher instead of formatted into a `String`.
    pub(crate) fn stripe(&self, key: Key, n: usize) -> usize {
        struct Feed(DefaultHasher);
        impl fmt::Write for Feed {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        let mut h = Feed(DefaultHasher::new());
        let names = self.0.read();
        let name = names.get(key.name.0 as usize).map_or("", |n| &**n);
        let _infallible = match key.at {
            Some((v, r)) => write!(h, "{name}/v{v}/r{r}"),
            None => h.write_str(name),
        };
        h.0.write_u8(0xff);
        (h.0.finish() as usize) % n
    }
}

/// `s` as a number if it is the one spelling `{}` gives that number.
fn decimal(s: &str) -> Option<u64> {
    let canonical = s == "0" || !s.starts_with(['0', '+']);
    s.parse().ok().filter(|_| canonical)
}

#[derive(Default)]
pub(crate) struct Blobs {
    map: RwLock<BTreeMap<Key, Bytes>>,
    /// Stored keys touched by metadata queries (`versions`, `exists`): the
    /// work counter behind `keys_examined` on both tiers.
    examined: AtomicU64,
}

impl Blobs {
    pub(crate) fn insert(&self, key: Key, data: Bytes) {
        self.map.write().insert(key, data);
    }

    pub(crate) fn get(&self, key: Key) -> Option<Bytes> {
        self.map.read().get(&key).cloned()
    }

    /// Returns whether the blob existed.
    pub(crate) fn remove(&self, key: Key) -> bool {
        self.map.write().remove(&key).is_some()
    }

    pub(crate) fn clear(&self) {
        self.map.write().clear();
    }

    /// Total stored bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.map.read().values().map(Bytes::len).sum()
    }

    pub(crate) fn exists(&self, key: Key) -> bool {
        self.examined.fetch_add(1, Ordering::Relaxed);
        self.map.read().contains_key(&key)
    }

    pub(crate) fn keys_examined(&self) -> u64 {
        self.examined.load(Ordering::Relaxed)
    }

    /// Append the versions stored under `name` to `out`, ascending, each
    /// once: one seek per version, however many ranks stored it, plus the
    /// one that finds the end.
    pub(crate) fn versions(&self, name: NameId, out: &mut Vec<u64>) {
        let map = self.map.read();
        let mut seeks = 1;
        let mut from = Some(0);
        while let Some(lo) = from {
            let found = map.range(Key::new(name, lo, 0)..).next();
            let Some((v, _)) = found
                .filter(|(k, _)| k.name == name)
                .and_then(|(k, _)| k.at)
            else {
                break;
            };
            out.push(v);
            seeks += 1;
            from = v.checked_add(1);
        }
        self.examined.fetch_add(seeks, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::hash::Hash;

    use super::*;

    #[test]
    fn a_qualified_name_is_interned_once_and_found_by_its_parts() {
        let names = Names::default();
        let id = names.intern("app.loop");
        let a = names.qualified("app", "loop");
        assert_eq!(&*a, "app.loop");
        assert!(Arc::ptr_eq(&a, &names.qualified("app", "loop")));
        assert_eq!(names.intern(&a), id, "the same table entry");
        // Parts that only concatenate to the name do not match it.
        for (scope, label) in [
            ("ap", "p.loop"),
            ("app.", "loop"),
            ("app", "lo"),
            ("a", "loop"),
        ] {
            assert_ne!(&*names.qualified(scope, label), "app.loop");
        }
        assert_eq!(&*names.qualified("app.x", "y"), "app.x.y");
    }

    #[test]
    fn a_key_stripes_as_its_formatted_path_hashed() {
        // The path string and its hash survive here only as the oracle.
        let stripe_of = |path: &str, n: usize| {
            let mut h = DefaultHasher::new();
            path.hash(&mut h);
            (h.finish() as usize) % n
        };
        let names = Names::default();
        for name in ["heat", "heat2", "hea"] {
            let id = names.intern(name);
            for version in 0..20 {
                for rank in 0..1_100 {
                    let path = format!("{name}/v{version}/r{rank}");
                    let key = Key::new(id, version, rank);
                    assert_eq!(names.key(&path), key);
                    for n in [2, 3, 7] {
                        assert_eq!(names.stripe(key, n), stripe_of(&path, n), "{path} of {n}");
                    }
                }
            }
        }
        // Only the spelling `{}` prints is a checkpoint; the rest are names.
        let nested = names.key("a/v1/r0/v2/r3");
        assert_eq!(
            (names.name(nested.name), nested.at),
            ("a/v1/r0".into(), Some((2, 3)))
        );
        for path in [
            "x",
            "a/v01/r0",
            "a/v1/r+1",
            "a/v1/r",
            "a/v/r1",
            "a/v1/r0/v2",
        ] {
            let key = names.key(path);
            assert_eq!((names.name(key.name), key.at), (path.into(), None));
            assert_eq!(names.stripe(key, 5), stripe_of(path, 5), "{path}");
        }
    }

    #[test]
    fn children_cost_is_per_child_not_per_path() {
        // A name's children are its versions; its paths, one per rank.
        let names = Names::default();
        let ck = names.intern("ck");
        let b = Blobs::default();
        for v in [0, 7, u64::MAX] {
            for r in 0..500 {
                b.insert(Key::new(ck, v, r), Bytes::new());
            }
        }
        for path in ["ck", "ck2/v3/r0"] {
            b.insert(names.key(path), Bytes::new());
        }
        let before = b.keys_examined();
        let mut found = Vec::new();
        b.versions(ck, &mut found);
        assert_eq!(found, [0, 7, u64::MAX]);
        assert_eq!(b.keys_examined() - before, 4, "one seek per version + end");
    }
}
