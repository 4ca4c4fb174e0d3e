//! Thread-local storage for agents (§II-B b).
//!
//! "Thread-local storage allows to associate a datastructure with each
//! thread. Our profiling agents keep the profiling statistics for each
//! thread in thread-local storage, which enables efficient update without
//! synchronization needs."
//!
//! Every access charges the configured TLS cost to the accessing thread's
//! cycle clock, so agent bookkeeping shows up in the measurements exactly
//! as the real JVMTI `GetThreadLocalStorage` calls would.

use std::sync::Arc;

use parking_lot::RwLock;

use jvmsim_vm::ThreadId;

use crate::env::JvmtiEnv;

/// A per-thread map from [`ThreadId`] to an agent datastructure.
///
/// Values are `Arc<T>`; agents use interior mutability inside `T` (cells,
/// atomics or locks), matching how a C agent treats the raw pointer JVMTI
/// hands back. Storage is dense, one slot per [`ThreadId::index`], so a
/// lookup is an index and [`entries`](Self::entries) come back in
/// ascending thread order.
pub struct ThreadLocalStorage<T> {
    env: JvmtiEnv,
    slots: RwLock<Vec<Option<Arc<T>>>>,
}

impl<T> std::fmt::Debug for ThreadLocalStorage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadLocalStorage")
            .field("threads", &self.len())
            .finish()
    }
}

impl<T> ThreadLocalStorage<T> {
    pub(crate) fn new(env: JvmtiEnv) -> Self {
        ThreadLocalStorage {
            env,
            slots: RwLock::new(Vec::new()),
        }
    }

    /// `SetThreadLocalStorage`: associate `value` with `thread`.
    pub fn put(&self, thread: ThreadId, value: Arc<T>) {
        self.env.charge(thread, self.env.costs().tls_access);
        let slots = &mut *self.slots.write();
        slots.resize_with(slots.len().max(thread.index() + 1), || None);
        slots[thread.index()] = Some(value);
    }

    /// `GetThreadLocalStorage`: fetch `thread`'s value, if set.
    pub fn get(&self, thread: ThreadId) -> Option<Arc<T>> {
        self.env.charge(thread, self.env.costs().tls_access);
        self.slots.read().get(thread.index()).cloned().flatten()
    }

    /// The paper's `GetThreadLocalStorage` helper: fetch, allocating on
    /// demand — required because the JVMTI "does not signal the
    /// ThreadStart event for the bootstrapping thread" (§III).
    pub fn get_or_insert_with(&self, thread: ThreadId, make: impl FnOnce() -> T) -> Arc<T> {
        if let Some(v) = self.get(thread) {
            return v;
        }
        let v = Arc::new(make());
        self.put(thread, Arc::clone(&v));
        v
    }

    /// Remove and return `thread`'s value (used at `ThreadEnd`).
    pub fn remove(&self, thread: ThreadId) -> Option<Arc<T>> {
        self.env.charge(thread, self.env.costs().tls_access);
        self.slots.write().get_mut(thread.index())?.take()
    }

    /// Snapshot of all live entries in ascending thread order (e.g. at
    /// `VMDeath`, to fold in threads that never terminated).
    pub fn entries(&self) -> Vec<(ThreadId, Arc<T>)> {
        self.slots
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((ThreadId::from_index(i), Arc::clone(v.as_ref()?))))
            .collect()
    }

    /// Number of threads with storage.
    pub fn len(&self) -> usize {
        self.slots.read().iter().flatten().count()
    }

    /// Is the storage empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_faults::FaultInjector;
    use jvmsim_pcl::Pcl;
    use jvmsim_vm::cost::CostModel;

    fn tls() -> ThreadLocalStorage<usize> {
        let env = JvmtiEnv::new(
            Pcl::new(),
            Arc::new(CostModel::default()),
            Arc::new(FaultInjector::disabled()),
            None,
        );
        env.create_tls()
    }

    fn thread(index: usize) -> ThreadId {
        ThreadId::from_index(index)
    }

    fn indices(tls: &ThreadLocalStorage<usize>) -> Vec<(usize, usize)> {
        tls.entries()
            .into_iter()
            .map(|(t, v)| (t.index(), *v))
            .collect()
    }

    #[test]
    fn sparse_inserts_come_back_in_ascending_thread_order() {
        let tls = tls();
        for i in [5, 0, 3] {
            tls.put(thread(i), Arc::new(i * 10));
        }
        assert_eq!(indices(&tls), [(0, 0), (3, 30), (5, 50)]);
        assert_eq!(tls.len(), 3);
        assert_eq!(tls.get(thread(1)), None);
        assert_eq!(tls.get(thread(9)), None);
    }

    #[test]
    fn remove_leaves_a_hole_that_is_not_counted() {
        let tls = tls();
        tls.put(thread(0), Arc::new(1));
        tls.put(thread(2), Arc::new(2));
        assert_eq!(tls.remove(thread(2)).as_deref(), Some(&2));
        assert_eq!(tls.remove(thread(2)), None);
        assert_eq!(tls.remove(thread(7)), None);
        assert_eq!(tls.len(), 1);
        assert!(!tls.is_empty());
        assert_eq!(tls.remove(thread(0)).as_deref(), Some(&1));
        assert_eq!(tls.len(), 0);
        assert!(tls.is_empty());
        assert!(tls.entries().is_empty());
    }

    #[test]
    fn reinsert_after_remove_replaces_the_hole() {
        let tls = tls();
        tls.put(thread(4), Arc::new(1));
        tls.remove(thread(4));
        let v = tls.get_or_insert_with(thread(4), || 2);
        assert_eq!(*v, 2);
        assert_eq!(indices(&tls), [(4, 2)]);
        tls.put(thread(4), Arc::new(3));
        assert_eq!(indices(&tls), [(4, 3)]);
        assert_eq!(tls.len(), 1);
    }
}
