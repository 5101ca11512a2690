//! The engine's cache machinery: one generic keyed cache of abortable
//! fill cells, instantiated for mined rule sets, permutation nulls and
//! holdout screens.
//!
//! A [`FillCell`] fills at most once per successful attempt: racing
//! requesters of one key block on the one filling thread, and an aborted
//! fill (an error or a panic) reverts the cell to empty, so a cache is
//! always cold or complete.  A [`KeyedCache`] maps keys to cells and counts
//! hits, misses and evictions; its [`LockedCache`] face lets the engine run
//! one LRU order over all of its caches.

use super::{CacheEntry, CacheEntryKind};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The state of a [`FillCell`]: never filled, being filled by one thread, or
/// filled for good.
#[derive(Debug)]
enum FillState<T> {
    Empty,
    Filling,
    Full(Arc<T>),
}

/// A cache slot that is filled at most once per *successful* fill attempt.
/// Concurrent requesters of the same key block on the filling thread instead
/// of duplicating the work, so two identical queries racing on a cold cache
/// still permute (or mine) only once.
///
/// Unlike a `OnceLock`, a fill here is **fallible and abortable**: if the
/// filling closure errors (a cancelled query), or panics (an injected
/// fault), the cell reverts to empty — never a partial entry — and one of
/// the blocked waiters takes the fill over.  The next identical query redoes
/// the work from scratch and stays bit-identical; cancellation can change
/// cost, never answers.
#[derive(Debug)]
pub(super) struct FillCell<T> {
    state: Mutex<FillState<T>>,
    ready: Condvar,
}

impl<T> Default for FillCell<T> {
    fn default() -> Self {
        FillCell {
            state: Mutex::new(FillState::Empty),
            ready: Condvar::new(),
        }
    }
}

/// Resets an aborted fill (error or panic) back to empty and wakes the
/// waiters so one of them can take over.
struct FillAbortGuard<'a, T> {
    cell: &'a FillCell<T>,
    armed: bool,
}

impl<T> Drop for FillAbortGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            *self.cell.lock() = FillState::Empty;
            self.cell.ready.notify_all();
        }
    }
}

impl<T> FillCell<T> {
    /// The state lock, recovering from poisoning: the abort guard keeps the
    /// state machine consistent even when a filling thread panics, so a
    /// poisoned mutex carries no broken invariant.
    fn lock(&self) -> MutexGuard<'_, FillState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The filled value, if any (never blocks on a fill in progress).
    pub(super) fn get(&self) -> Option<Arc<T>> {
        match &*self.lock() {
            FillState::Full(value) => Some(value.clone()),
            _ => None,
        }
    }

    /// Returns the filled value, filling it with `fill` when the cell is
    /// empty.  The second tuple field is `true` when the value was already
    /// resident (a cache hit).  While one thread fills, concurrent callers
    /// block; if the fill errors or panics, the cell reverts to empty and a
    /// blocked caller retries the fill itself.
    pub(super) fn get_or_fill<E>(
        &self,
        fill: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let mut state = self.lock();
        loop {
            match &*state {
                FillState::Full(value) => return Ok((value.clone(), true)),
                FillState::Filling => {
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                FillState::Empty => break,
            }
        }
        *state = FillState::Filling;
        drop(state);
        let mut guard = FillAbortGuard {
            cell: self,
            armed: true,
        };
        let value = Arc::new(fill()?);
        guard.armed = false;
        *self.lock() = FillState::Full(value.clone());
        self.ready.notify_all();
        Ok((value, false))
    }
}

/// A value one of the engine's keyed caches holds.
pub(super) trait Cacheable: std::fmt::Debug + Send + Sync {
    /// The kind eviction policies and metrics see.
    const KIND: CacheEntryKind;
    /// Approximate resident bytes.
    fn bytes(&self) -> usize;
}

/// One filled cache entry: the value plus its LRU stamp.
#[derive(Debug)]
pub(super) struct Slot<T> {
    value: Arc<T>,
    /// The engine clock value of the last query that touched this entry.
    last_used: AtomicU64,
}

/// The map of one keyed cache: a fill cell per key.
type CellMap<K, T> = HashMap<K, Arc<FillCell<Slot<T>>>>;

/// A keyed cache of fill cells with hit/miss/eviction counters — the one
/// structure behind the engine's rule-set, null and holdout caches.
#[derive(Debug)]
pub(super) struct KeyedCache<K, T> {
    cells: Mutex<CellMap<K, T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

impl<K, T> Default for KeyedCache<K, T> {
    fn default() -> Self {
        KeyedCache {
            cells: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }
}

impl<K: Copy + Eq + Hash, T: Cacheable> KeyedCache<K, T> {
    fn map(&self) -> MutexGuard<'_, CellMap<K, T>> {
        self.cells.lock().expect("engine cache lock")
    }

    /// The cell of `key`, inserted empty when absent.  Taken under the map
    /// lock and filled outside it, so concurrent requesters of one key block
    /// on the one filling thread while other keys proceed in parallel.
    pub(super) fn cell(&self, key: K) -> Arc<FillCell<Slot<T>>> {
        self.map().entry(key).or_default().clone()
    }

    /// Counts one lookup and stamps the entry.
    fn touch(&self, slot: &Slot<T>, cached: bool, clock: &AtomicU64) -> Arc<T> {
        let counter = if cached { &self.hits } else { &self.misses };
        counter.fetch_add(1, Relaxed);
        slot.last_used.store(clock.fetch_add(1, Relaxed), Relaxed);
        slot.value.clone()
    }

    /// The value in `cell` when it is already filled (counted as a hit).
    pub(super) fn hit(&self, cell: &FillCell<Slot<T>>, clock: &AtomicU64) -> Option<Arc<T>> {
        cell.get().map(|slot| self.touch(&slot, true, clock))
    }

    /// The value in `cell`, filling it with `fill` when empty; the flag is
    /// true on a hit.
    pub(super) fn fill<E>(
        &self,
        cell: &FillCell<Slot<T>>,
        clock: &AtomicU64,
        fill: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let (slot, cached) = cell.get_or_fill(|| {
            Ok(Slot {
                value: Arc::new(fill()?),
                last_used: AtomicU64::new(0),
            })
        })?;
        Ok((self.touch(&slot, cached, clock), cached))
    }

    /// [`fill`](KeyedCache::fill) on the cell of `key`.
    pub(super) fn get_or_fill<E>(
        &self,
        key: K,
        clock: &AtomicU64,
        fill: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        self.fill(&self.cell(key), clock, fill)
    }

    /// The cache with its map locked, behind the type-erased face the
    /// cross-cache policies use.
    pub(super) fn locked(&self) -> Box<dyn LockedCache + '_> {
        Box::new(Locked {
            cache: self,
            map: self.map(),
        })
    }

    /// The filled values.
    pub(super) fn values(&self) -> Vec<Arc<T>> {
        self.map()
            .values()
            .filter_map(|cell| cell.get())
            .map(|slot| slot.value.clone())
            .collect()
    }

    /// Number of filled entries (a cell left empty by an aborted fill, or
    /// still filling, holds nothing yet).
    pub(super) fn len(&self) -> usize {
        self.map()
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// Lookups the cache answered.
    pub(super) fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lookups that filled an entry.
    pub(super) fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Entries evicted so far.
    pub(super) fn evicted(&self) -> u64 {
        self.evicted.load(Relaxed)
    }
}

/// A keyed cache with its map locked, seen through the type-erased face the
/// cross-cache policies (entry listing, LRU eviction) use.
pub(super) trait LockedCache {
    /// The filled entries.
    fn entries(&self) -> Vec<CacheEntry>;
    /// Removes the least-recently-used filled entry.
    fn evict_lru(&mut self) -> Option<CacheEntry>;
}

struct Locked<'a, K, T> {
    cache: &'a KeyedCache<K, T>,
    map: MutexGuard<'a, CellMap<K, T>>,
}

impl<K: Copy + Eq + Hash, T: Cacheable> LockedCache for Locked<'_, K, T> {
    fn entries(&self) -> Vec<CacheEntry> {
        self.map
            .values()
            .filter_map(|cell| cell.get())
            .map(|slot| CacheEntry {
                kind: T::KIND,
                bytes: slot.value.bytes(),
                last_used: slot.last_used.load(Relaxed),
            })
            .collect()
    }

    fn evict_lru(&mut self) -> Option<CacheEntry> {
        let (key, slot) = self
            .map
            .iter()
            .filter_map(|(key, cell)| cell.get().map(|slot| (*key, slot)))
            .min_by_key(|(_, slot)| slot.last_used.load(Relaxed))?;
        self.map.remove(&key);
        self.cache.evicted.fetch_add(1, Relaxed);
        Some(CacheEntry {
            kind: T::KIND,
            bytes: slot.value.bytes(),
            last_used: slot.last_used.load(Relaxed),
        })
    }
}
