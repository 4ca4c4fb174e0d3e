//! Mixed Java/native call-chain tracking — the extension §VII announces as
//! work in progress: "tracking complete call chains including a mix of Java
//! and native methods … not possible with current profilers, since they are
//! either Java-only or system-specific, and are therefore not aware of the
//! frames of both Java and native C-language execution stacks."
//!
//! [`ChainProfiler`] reifies each thread's stack *with method identities*
//! (not just the SPA boolean) and snapshots chains of interest: the deepest
//! chain seen, and every chain ending in a watched method. It necessarily
//! uses `MethodEntry`/`MethodExit` events and therefore inherits SPA's
//! costs — which is exactly why the paper left it as future work; the
//! `ablations` binary of `nativeprof-bench` prints its modeled overhead
//! beside SPA's.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use jvmsim_jvmti::{
    Agent, AgentHost, Capabilities, EventType, JvmtiEnv, JvmtiError, RawMonitor,
    ThreadLocalStorage, VmEventSink,
};
use jvmsim_vm::{MethodView, ThreadInfo};

/// One frame of a mixed call chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Declaring class.
    pub class: String,
    /// Method name.
    pub method: String,
    /// Is this frame native code?
    pub is_native: bool,
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}{}",
            self.class,
            self.method,
            if self.is_native { " [native]" } else { "" }
        )
    }
}

/// A captured call chain, outermost frame first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallChain {
    /// Frames, outermost first.
    pub frames: Vec<Frame>,
}

impl CallChain {
    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of bytecode↔native alternations along the chain.
    pub fn transitions(&self) -> usize {
        self.frames
            .windows(2)
            .filter(|w| w[0].is_native != w[1].is_native)
            .count()
    }

    /// Does the chain interleave Java and native frames at all?
    pub fn is_mixed(&self) -> bool {
        self.transitions() > 0
    }
}

impl fmt::Display for CallChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, frame) in self.frames.iter().enumerate() {
            writeln!(
                f,
                "{:indent$}{} {frame}",
                "",
                if i == 0 { "at" } else { "↳" },
                indent = i
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct ChainState {
    deepest: CallChain,
    watched_hits: Vec<CallChain>,
    max_watched_hits: usize,
}

/// The call-chain profiling agent (§VII extension).
pub struct ChainProfiler {
    env: OnceLock<JvmtiEnv>,
    tls: OnceLock<ThreadLocalStorage<Vec<Frame>>>,
    state: OnceLock<RawMonitor<ChainState>>,
    watched: HashSet<(String, String)>,
    max_watched_hits: usize,
}

impl fmt::Debug for ChainProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChainProfiler")
            .field("watched", &self.watched.len())
            .finish()
    }
}

impl ChainProfiler {
    /// Create a profiler; `watched` lists `(class, method)` pairs whose
    /// every activation snapshots the full mixed chain (capped at
    /// `max_watched_hits` snapshots).
    pub fn new(
        watched: impl IntoIterator<Item = (String, String)>,
        max_watched_hits: usize,
    ) -> Arc<ChainProfiler> {
        Arc::new(ChainProfiler {
            env: OnceLock::new(),
            tls: OnceLock::new(),
            state: OnceLock::new(),
            watched: watched.into_iter().collect(),
            max_watched_hits,
        })
    }

    fn with_stack<R>(&self, thread: &ThreadInfo, f: impl FnOnce(&mut Vec<Frame>) -> R) -> R {
        self.tls
            .get()
            .expect("ChainProfiler used before attach")
            .with_or_insert(thread, || Vec::with_capacity(64), f)
    }

    /// The deepest chain observed anywhere (empty if the profiler was
    /// never attached — reporting degrades, it does not panic).
    pub fn deepest_chain(&self) -> CallChain {
        match self.state.get() {
            Some(state) => state.enter_unaccounted().deepest.clone(),
            None => CallChain::default(),
        }
    }

    /// Snapshots taken at watched-method activations (empty if never
    /// attached).
    pub fn watched_chains(&self) -> Vec<CallChain> {
        match self.state.get() {
            Some(state) => state.enter_unaccounted().watched_hits.clone(),
            None => Vec::new(),
        }
    }
}

impl Agent for ChainProfiler {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::spa());
        host.enable_event(EventType::MethodEntry)?;
        host.enable_event(EventType::MethodExit)?;
        host.enable_event(EventType::ThreadEnd)?;
        let env = host.env();
        self.tls.set(env.create_tls()).expect("attached twice");
        self.state
            .set(env.create_raw_monitor(
                "chain state",
                ChainState {
                    max_watched_hits: self.max_watched_hits,
                    ..ChainState::default()
                },
            ))
            .expect("attached twice");
        self.env.set(env).expect("attached twice");
        Ok(())
    }
}

impl VmEventSink for ChainProfiler {
    fn method_entry(&self, thread: &ThreadInfo, method: MethodView<'_>) {
        let env = self.env.get().expect("attached");
        self.with_stack(thread, |stack| {
            stack.push(Frame {
                class: method.class_name.to_owned(),
                method: method.name.to_owned(),
                is_native: method.is_native,
            });
            env.charge(thread, env.costs().agent_logic);
            let watched = self
                .watched
                .contains(&(method.class_name.to_owned(), method.name.to_owned()));
            let deeper = {
                let state = self.state.get().expect("attached");
                // Charged: this monitor entry is on the measurement hot
                // path, so it must pay the raw-monitor cost like every
                // other access.
                let g = state.enter(thread);
                stack.len() > g.deepest.frames.len()
            };
            if watched || deeper {
                let chain = CallChain {
                    frames: stack.clone(),
                };
                let state = self.state.get().expect("attached");
                let mut g = state.enter(thread);
                if chain.frames.len() > g.deepest.frames.len() {
                    g.deepest = chain.clone();
                }
                if watched && g.watched_hits.len() < g.max_watched_hits {
                    g.watched_hits.push(chain);
                }
            }
        });
    }

    fn method_exit(&self, thread: &ThreadInfo, _method: MethodView<'_>, _via_exception: bool) {
        let env = self.env.get().expect("attached");
        self.with_stack(thread, |stack| stack.pop());
        env.charge(thread, env.costs().agent_logic);
    }

    fn thread_end(&self, thread: &ThreadInfo) {
        // Drop the thread's stack storage.
        if let Some(tls) = self.tls.get() {
            tls.remove(thread);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_classfile::builder::ClassBuilder;
    use jvmsim_classfile::MethodFlags;
    use jvmsim_vm::{NativeLibrary, Value, Vm};

    #[test]
    fn chain_metrics() {
        let chain = CallChain {
            frames: vec![
                Frame {
                    class: "a/A".into(),
                    method: "main".into(),
                    is_native: false,
                },
                Frame {
                    class: "a/A".into(),
                    method: "io".into(),
                    is_native: true,
                },
                Frame {
                    class: "a/A".into(),
                    method: "callback".into(),
                    is_native: false,
                },
            ],
        };
        assert_eq!(chain.depth(), 3);
        assert_eq!(chain.transitions(), 2);
        assert!(chain.is_mixed());
        let rendered = chain.to_string();
        assert!(rendered.contains("a/A.io [native]"), "{rendered}");
    }

    #[test]
    fn captures_mixed_chain_through_jni_upcall() {
        // main (Java) -> io (native) -> callback (Java): the chain the
        // paper says Java-only and system-specific profilers cannot see.
        let mut cb = ClassBuilder::new("c/M");
        cb.native_method("io", "(I)I", MethodFlags::STATIC).unwrap();
        let mut m = cb.method("callback", "(I)I", MethodFlags::STATIC);
        m.iload(0).iconst(2).imul().ireturn();
        m.finish().unwrap();
        let mut m = cb.method("main", "()I", MethodFlags::STATIC);
        m.iconst(4).invokestatic("c/M", "io", "(I)I").ireturn();
        m.finish().unwrap();
        let mut lib = NativeLibrary::new("c");
        lib.register_method("c/M", "io", |env, args| {
            env.work(100);
            env.call_static(
                jvmsim_vm::jni::JniRetType::Int,
                jvmsim_vm::jni::ParamStyle::Array,
                "c/M",
                "callback",
                "(I)I",
                &[args[0]],
            )
        });
        let profiler = ChainProfiler::new(vec![("c/M".to_owned(), "callback".to_owned())], 10);
        let mut vm = Vm::new();
        vm.add_classfile(&cb.finish().unwrap());
        vm.register_native_library(lib, true);
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&profiler) as Arc<dyn Agent>).unwrap();
        let outcome = vm.run("c/M", "main", "()I", vec![]).unwrap();
        assert_eq!(outcome.main.unwrap(), Value::Int(8));

        let chains = profiler.watched_chains();
        assert_eq!(chains.len(), 1);
        let chain = &chains[0];
        assert_eq!(chain.depth(), 3);
        assert!(chain.is_mixed());
        assert_eq!(chain.frames[0].method, "main");
        assert!(!chain.frames[0].is_native);
        assert_eq!(chain.frames[1].method, "io");
        assert!(chain.frames[1].is_native);
        assert_eq!(chain.frames[2].method, "callback");
        assert!(!chain.frames[2].is_native);

        let deepest = profiler.deepest_chain();
        assert_eq!(deepest.depth(), 3);
    }

    #[test]
    fn watched_hit_cap_respected() {
        let mut cb = ClassBuilder::new("c/Loop");
        let mut m = cb.method("leaf", "()V", MethodFlags::STATIC);
        m.ret_void();
        m.finish().unwrap();
        let mut m = cb.method("main", "()V", MethodFlags::STATIC);
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(10).istore(0);
        m.bind(top);
        m.iload(0).if_(jvmsim_classfile::Cond::Le, done);
        m.invokestatic("c/Loop", "leaf", "()V");
        m.iinc(0, -1).goto(top);
        m.bind(done);
        m.ret_void();
        m.finish().unwrap();
        let profiler = ChainProfiler::new(vec![("c/Loop".to_owned(), "leaf".to_owned())], 3);
        let mut vm = Vm::new();
        vm.add_classfile(&cb.finish().unwrap());
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&profiler) as Arc<dyn Agent>).unwrap();
        vm.run("c/Loop", "main", "()V", vec![]).unwrap();
        assert_eq!(profiler.watched_chains().len(), 3, "cap at 3 of 10 hits");
    }
}
