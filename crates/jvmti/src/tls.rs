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

use std::marker::PhantomData;

use jvmsim_vm::ThreadInfo;

use crate::env::JvmtiEnv;

/// A thread-local storage key: one typed slot of `T` on every thread
/// record.
///
/// The value lives on the [`ThreadInfo`] record of the thread it belongs
/// to, which only that thread's events borrow — so, as the paper says,
/// updates need no synchronisation: access is an index into the record's
/// slot table and a type check, with no lock, no atomic and no `Arc`.
/// [`holders`](Self::holders) lists the threads that hold a value in
/// ascending thread order.
pub struct ThreadLocalStorage<T> {
    env: JvmtiEnv,
    slot: usize,
    _value: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for ThreadLocalStorage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadLocalStorage")
            .field("slot", &self.slot)
            .finish()
    }
}

impl<T: Send + 'static> ThreadLocalStorage<T> {
    pub(crate) fn new(env: JvmtiEnv, slot: usize) -> Self {
        ThreadLocalStorage {
            env,
            slot,
            _value: PhantomData,
        }
    }

    fn charge(&self, thread: &ThreadInfo) {
        self.env.charge(thread, self.env.costs().tls_access);
    }

    /// `SetThreadLocalStorage`: associate `value` with `thread`.
    pub fn put(&self, thread: &ThreadInfo, value: T) {
        self.charge(thread);
        let slots = &mut *thread.tls_slots().borrow_mut();
        if slots.len() <= self.slot {
            slots.resize_with(self.slot + 1, || None);
        }
        slots[self.slot] = Some(Box::new(value));
    }

    /// `GetThreadLocalStorage`: run `f` on `thread`'s value, if set.
    ///
    /// # Panics
    ///
    /// Panics if `f` re-enters this key on the same thread.
    pub fn with<R>(&self, thread: &ThreadInfo, f: impl FnOnce(Option<&mut T>) -> R) -> R {
        self.charge(thread);
        let mut slots = thread.tls_slots().borrow_mut();
        f(slots
            .get_mut(self.slot)
            .and_then(Option::as_mut)
            .map(|v| v.downcast_mut().expect("a TLS slot holds its key's type")))
    }

    /// The paper's `GetThreadLocalStorage` helper: run `f` on `thread`'s
    /// value, allocating it with `make` first if unset — required because
    /// the JVMTI "does not signal the ThreadStart event for the
    /// bootstrapping thread" (§III). Charges one access, plus one more
    /// when it stores the new value; `make` runs between them.
    pub fn with_or_insert<R>(
        &self,
        thread: &ThreadInfo,
        make: impl FnOnce() -> T,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        self.charge(thread);
        if let Some(v) = thread.tls_slots().borrow_mut().get_mut(self.slot) {
            if let Some(v) = v.as_mut() {
                return f(v.downcast_mut().expect("a TLS slot holds its key's type"));
            }
        }
        let v = make();
        self.put(thread, v);
        let mut slots = thread.tls_slots().borrow_mut();
        f(slots[self.slot]
            .as_mut()
            .and_then(|v| v.downcast_mut())
            .expect("the value was just stored"))
    }

    /// Remove and return `thread`'s value (used at `ThreadEnd`).
    pub fn remove(&self, thread: &ThreadInfo) -> Option<T> {
        self.charge(thread);
        let value = thread.tls_slots().borrow_mut().get_mut(self.slot)?.take()?;
        Some(*value.downcast().expect("a TLS slot holds its key's type"))
    }

    /// The records among `threads` that hold a value, in the order given —
    /// ascending thread order for the VM's `VMDeath` slice (e.g. to fold
    /// in threads that never terminated). Uncharged.
    pub fn holders<'t>(&self, threads: &'t [ThreadInfo]) -> impl Iterator<Item = &'t ThreadInfo> {
        let slot = self.slot;
        threads
            .iter()
            .filter(move |t| matches!(t.tls_slots().borrow().get(slot), Some(Some(_))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use jvmsim_faults::FaultInjector;
    use jvmsim_pcl::Pcl;
    use jvmsim_vm::cost::CostModel;
    use jvmsim_vm::ThreadId;

    fn env() -> JvmtiEnv {
        JvmtiEnv::new(
            Pcl::new(),
            Arc::new(CostModel::default()),
            Arc::new(FaultInjector::disabled()),
        )
    }

    fn threads(n: usize) -> Vec<ThreadInfo> {
        (0..n)
            .map(|i| ThreadInfo::new(ThreadId::from_index(i), "t"))
            .collect()
    }

    fn held(tls: &ThreadLocalStorage<usize>, threads: &[ThreadInfo]) -> Vec<(usize, usize)> {
        tls.holders(threads)
            .map(|t| (t.id().index(), tls.with(t, |v| *v.expect("held"))))
            .collect()
    }

    #[test]
    fn sparse_inserts_come_back_in_ascending_thread_order() {
        let tls = env().create_tls();
        let threads = threads(10);
        for i in [5, 0, 3] {
            tls.put(&threads[i], i * 10);
        }
        assert_eq!(held(&tls, &threads), [(0, 0), (3, 30), (5, 50)]);
        assert!(tls.with(&threads[1], |v| v.is_none()));
        assert!(tls.with(&threads[9], |v| v.is_none()));
    }

    #[test]
    fn remove_leaves_a_hole_that_is_not_held() {
        let tls = env().create_tls::<usize>();
        let threads = threads(8);
        tls.put(&threads[0], 1);
        tls.put(&threads[2], 2);
        assert_eq!(tls.remove(&threads[2]), Some(2));
        assert_eq!(tls.remove(&threads[2]), None);
        assert_eq!(tls.remove(&threads[7]), None);
        assert_eq!(held(&tls, &threads), [(0, 1)]);
        assert_eq!(tls.remove(&threads[0]), Some(1));
        assert_eq!(tls.holders(&threads).count(), 0);
    }

    #[test]
    fn reinsert_after_remove_replaces_the_hole() {
        let tls = env().create_tls::<usize>();
        let threads = threads(5);
        tls.put(&threads[4], 1);
        tls.remove(&threads[4]);
        let v = tls.with_or_insert(&threads[4], || 2, |v| *v);
        assert_eq!(v, 2);
        assert_eq!(held(&tls, &threads), [(4, 2)]);
        tls.put(&threads[4], 3);
        assert_eq!(held(&tls, &threads), [(4, 3)]);
    }

    #[test]
    fn keys_are_independent_typed_slots_and_every_access_charges() {
        let env = env();
        let (a, b) = (env.create_tls::<u64>(), env.create_tls::<String>());
        let t = ThreadInfo::new(ThreadId::from_index(0), "t");
        b.put(&t, "x".to_owned());
        a.with_or_insert(&t, || 7, |v| *v += 1);
        assert_eq!(a.remove(&t), Some(8));
        assert_eq!(b.with(&t, |v| v.cloned()), Some("x".to_owned()));
        // put, get + put (insert path), remove, get.
        assert_eq!(t.cycles(), 5 * CostModel::default().tls_access);
    }
}
