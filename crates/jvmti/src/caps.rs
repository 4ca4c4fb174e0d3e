//! Capabilities — the JVMTI permission model.
//!
//! A JVMTI agent must *request capabilities* before it may enable the
//! corresponding events or use the corresponding functions. The subset here
//! is exactly what the paper's two agents need: SPA requests and enables
//! the method-entry/exit events (fatally for performance — enabling them
//! disables the JIT); IPA requests native-method prefixing and JNI
//! function interception instead.

use jvmsim_vm::EventType;

/// Requestable capabilities (JVMTI `jvmtiCapabilities` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capabilities {
    /// Receive `MethodEntry` events. **Enabling the event suppresses JIT
    /// compilation** for the run (§III) — the documented HotSpot
    /// behaviour; requesting the capability alone does not.
    pub can_generate_method_entry_events: bool,
    /// Receive `MethodExit` events (same JIT consequence when enabled).
    pub can_generate_method_exit_events: bool,
    /// Use `SetNativeMethodPrefix` (JVMTI 1.1, §II-B).
    pub can_set_native_method_prefix: bool,
    /// Replace entries of the JNI function table (§II-B "JNI Function
    /// Interception").
    pub can_intercept_jni_calls: bool,
    /// Receive `ClassFileLoadHook` events (dynamic instrumentation path).
    pub can_generate_class_file_load_hook: bool,
    /// Receive `Allocation` events (the ALLOC agent's object-centric
    /// allocation hook — the `SampledObjectAlloc` analog, undownsampled).
    pub can_generate_allocation_events: bool,
    /// Observe the raw-monitor plane through the monitor ledger (the LOCK
    /// agent's contention bookkeeping).
    pub can_observe_raw_monitors: bool,
}

impl Capabilities {
    /// No capabilities.
    pub fn none() -> Self {
        Self::default()
    }

    /// What SPA requests (Fig. 1): method entry/exit events.
    pub fn spa() -> Self {
        Capabilities {
            can_generate_method_entry_events: true,
            can_generate_method_exit_events: true,
            ..Self::default()
        }
    }

    /// What IPA requests (Fig. 3): prefixing + JNI interception, **not**
    /// method events.
    pub fn ipa() -> Self {
        Capabilities {
            can_set_native_method_prefix: true,
            can_intercept_jni_calls: true,
            ..Self::default()
        }
    }

    /// What the ALLOC agent requests: allocation events only.
    pub fn alloc() -> Self {
        Capabilities {
            can_generate_allocation_events: true,
            ..Self::default()
        }
    }

    /// What the LOCK agent requests: raw-monitor observation only.
    pub fn lock() -> Self {
        Capabilities {
            can_observe_raw_monitors: true,
            ..Self::default()
        }
    }

    /// May an agent holding this set enable `event`? Thread and VM-death
    /// events need no capability.
    pub fn permits(self, event: EventType) -> bool {
        match event {
            EventType::MethodEntry => self.can_generate_method_entry_events,
            EventType::MethodExit => self.can_generate_method_exit_events,
            EventType::ClassFileLoadHook => self.can_generate_class_file_load_hook,
            EventType::Allocation => self.can_generate_allocation_events,
            EventType::ThreadStart | EventType::ThreadEnd | EventType::VmDeath => true,
        }
    }

    /// Union of two capability sets.
    #[must_use]
    pub fn with(self, other: Capabilities) -> Capabilities {
        Capabilities {
            can_generate_method_entry_events: self.can_generate_method_entry_events
                || other.can_generate_method_entry_events,
            can_generate_method_exit_events: self.can_generate_method_exit_events
                || other.can_generate_method_exit_events,
            can_set_native_method_prefix: self.can_set_native_method_prefix
                || other.can_set_native_method_prefix,
            can_intercept_jni_calls: self.can_intercept_jni_calls || other.can_intercept_jni_calls,
            can_generate_class_file_load_hook: self.can_generate_class_file_load_hook
                || other.can_generate_class_file_load_hook,
            can_generate_allocation_events: self.can_generate_allocation_events
                || other.can_generate_allocation_events,
            can_observe_raw_monitors: self.can_observe_raw_monitors
                || other.can_observe_raw_monitors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let spa = Capabilities::spa();
        assert!(spa.can_generate_method_entry_events);
        assert!(spa.can_generate_method_exit_events);
        assert!(!spa.can_set_native_method_prefix);
        let ipa = Capabilities::ipa();
        assert!(!ipa.can_generate_method_entry_events);
        assert!(ipa.can_set_native_method_prefix);
        assert!(ipa.can_intercept_jni_calls);
    }

    #[test]
    fn union() {
        let u = Capabilities::spa().with(Capabilities::ipa());
        assert!(u.can_generate_method_entry_events);
        assert!(u.can_intercept_jni_calls);
    }

    #[test]
    fn event_capability_gates() {
        let none = Capabilities::none();
        assert!(none.permits(EventType::ThreadStart));
        assert!(none.permits(EventType::VmDeath));
        assert!(!none.permits(EventType::MethodEntry));
        assert!(!none.permits(EventType::MethodExit));
        assert!(!none.permits(EventType::ClassFileLoadHook));
        assert!(Capabilities::spa().permits(EventType::MethodEntry));
        assert!(!none.permits(EventType::Allocation));
        assert!(Capabilities::alloc().permits(EventType::Allocation));
        assert!(Capabilities::lock().can_observe_raw_monitors);
        assert!(!Capabilities::lock().can_generate_allocation_events);
    }
}
