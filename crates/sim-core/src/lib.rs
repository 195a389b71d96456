//! # dvc-sim-core
//!
//! Deterministic discrete-event simulation (DES) kernel underpinning the
//! Dynamic Virtual Clustering reproduction.
//!
//! The kernel is deliberately small and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`Sim`] — the engine. It owns the simulated clock, a stable-ordered
//!   event queue of boxed `FnOnce(&mut Sim<W>)` handlers, the user-supplied
//!   world `W`, and a set of named deterministic RNG streams.
//! * [`rng::RngStreams`] — independent random streams derived from one master
//!   seed by hashing stream labels, so adding a consumer never perturbs the
//!   draws seen by existing consumers.
//! * [`stats`] — counters, online mean/variance and sample histograms used by
//!   every experiment harness.
//! * [`trial`] — a data-parallel campaign runner that fans independent
//!   simulation trials out across OS threads (each trial is single-threaded
//!   and seeded, so campaigns are reproducible and embarrassingly parallel).
//! * [`event`] / [`metrics`] / [`check`] — the typed observability spine:
//!   structured [`Event`]s emitted via [`Sim::emit`], a [`Metrics`] registry
//!   fed from them, and [`EventSink`] subscribers (invariant checkers, JSONL
//!   export) that observe runs without perturbing them.
//!
//! Everything above this crate (network, hypervisor, MPI, DVC itself) is
//! expressed as state inside `W` plus events scheduled on the same queue.

pub mod attrib;
pub mod check;
pub mod event;
pub mod faults;
pub mod hash;
pub mod metrics;
pub mod oracle;
pub mod perfetto;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;
pub mod trial;

pub use attrib::{PhaseAttribution, PhaseSample, RoundRecord};
pub use check::{CheckCounts, InvariantChecker, JsonlSink};
pub use event::{
    Event, FaultEvent, LscEvent, MpiEvent, NtpEvent, RmEvent, SpanEvent, StorageEvent, TcpEvent,
    VmmEvent,
};
pub use faults::{kind_from_str, FaultPlan, FaultWindow, FAULT_KINDS};
pub use hash::{FastMap, FastSet};
pub use metrics::{LogHistogram, Metrics, MetricsSnapshot};
pub use oracle::{Oracle, OracleReport};
pub use perfetto::PerfettoTrace;
pub use rng::RngStreams;
pub use sim::{EventHandle, EventSink, Sim, SimStats};
pub use span::{name_from_str, SpanChecker, SpanId, SPAN_NAMES};
pub use time::{SimDuration, SimTime};
