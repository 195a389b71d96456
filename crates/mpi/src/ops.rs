//! Rank program operations.
//!
//! A rank's program is a queue of [`Op`]s executed by the runtime. Control
//! flow (loops, data-dependent branching) is expressed with [`Op::Gen`]: a
//! plain `fn` pointer that inspects [`crate::RankData`] and emits the next
//! batch of ops. Using `fn` pointers (not closures) keeps programs `Clone`,
//! which is what lets a whole-VM snapshot capture a rank mid-program.

use crate::data::RankData;

/// A dynamic program generator: `(data, rank, size) -> ops` pushed to the
/// *front* of the script, preserving program order.
pub type GenFn = fn(&mut RankData, usize, usize) -> Vec<Op>;

/// A data transform executed locally.
pub type ApplyFn = fn(&mut RankData, usize, usize);

/// One program step.
#[derive(Clone, Debug)]
pub enum Op {
    /// Burn `flops` floating-point operations of CPU (converted to time by
    /// the node speed and stretched by virtualization overhead).
    Compute { flops: f64 },
    /// Burn a fixed amount of guest CPU time, ns.
    ComputeNs(u64),
    /// Send the value stored at `slot` to rank `to` with `tag`.
    /// The slot is left in place (copied onto the wire).
    Send { to: usize, tag: u32, slot: String },
    /// Block until a message from `from` with `tag` arrives; store it at
    /// `into`.
    Recv { from: usize, tag: u32, into: String },
    /// Run a local transform.
    Apply(ApplyFn),
    /// Expand dynamically: the generated ops run next, in order.
    Gen(GenFn),
    /// Write the value at `slot` to the guest's local scratch disk (models
    /// application-level checkpointing I/O); blocks until the write lands.
    DiskWriteSlot { slot: String },
    /// Write `bytes` raw bytes to the local scratch disk.
    DiskWrite { bytes: u64 },
    /// Mark an application-visible label (progress tracing / tests).
    Marker(&'static str),
}

impl Op {
    /// Convenience constructors keep workload code terse.
    pub fn send(to: usize, tag: u32, slot: impl Into<String>) -> Op {
        Op::Send {
            to,
            tag,
            slot: slot.into(),
        }
    }

    pub fn recv(from: usize, tag: u32, into: impl Into<String>) -> Op {
        Op::Recv {
            from,
            tag,
            into: into.into(),
        }
    }
}

/// Push `ops` onto the front of `script`, preserving their order.
pub(crate) fn push_front(script: &mut std::collections::VecDeque<Op>, ops: Vec<Op>) {
    for op in ops.into_iter().rev() {
        script.push_front(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn push_front_preserves_order() {
        let mut script: VecDeque<Op> = VecDeque::new();
        script.push_back(Op::Marker("tail"));
        push_front(
            &mut script,
            vec![Op::Marker("a"), Op::Marker("b"), Op::Marker("c")],
        );
        let names: Vec<&str> = script
            .iter()
            .map(|op| match op {
                Op::Marker(m) => *m,
                _ => "?",
            })
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "tail"]);
    }

    #[test]
    fn ops_are_clone() {
        let op = Op::send(1, 7, "x");
        let op2 = op.clone();
        match (op, op2) {
            (Op::Send { to: a, .. }, Op::Send { to: b, .. }) => assert_eq!(a, b),
            _ => panic!(),
        }
    }
}
