//! Error types for graph construction and network execution.

use std::error::Error;
use std::fmt;

/// Errors from building a [`crate::Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referenced a node `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The graph size.
        n: usize,
    },
    /// An edge connected a node to itself (the beeping model's graphs are
    /// simple).
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// A topology generator was asked for an impossible shape.
    InvalidTopology {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::InvalidTopology { detail } => write!(f, "invalid topology: {detail}"),
        }
    }
}

impl Error for GraphError {}

/// Errors from running a [`crate::BeepNetwork`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// The action slice length did not match the node count.
    ActionCount {
        /// Expected number of actions (= node count).
        expected: usize,
        /// Provided number of actions.
        actual: usize,
    },
    /// A frame in a [`crate::BeepNetwork::run_frames_batched`] batch had the wrong
    /// length (all transmitted frames must cover the same bit-rounds).
    FrameLength {
        /// The node whose frame was malformed.
        node: usize,
        /// Expected frame length in bit-rounds.
        expected: usize,
        /// Provided frame length.
        actual: usize,
    },
    /// A noise rate outside the paper's open interval `ε ∈ (0, ½)` was
    /// requested (see [`crate::Noise::try_bernoulli`]).
    InvalidNoise {
        /// The rejected flip probability.
        epsilon: f64,
    },
    /// A protocol run exceeded its round budget without completing.
    RoundBudgetExhausted {
        /// The budget that was exhausted.
        budget: usize,
    },
    /// A channel model was built with out-of-range parameters (see the
    /// `try_new` constructors in [`crate::channel`]).
    InvalidChannel {
        /// Human-readable description of the offending parameter.
        detail: String,
    },
    /// A fault plan was malformed (duplicate node, out-of-range fraction,
    /// or a node id beyond the network it was installed on) — see
    /// [`crate::FaultPlan`].
    InvalidFaultPlan {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ActionCount { expected, actual } => {
                write!(f, "got {actual} actions for {expected} nodes")
            }
            NetError::FrameLength {
                node,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "node {node}'s frame is {actual} bits but the batch runs {expected} rounds"
                )
            }
            NetError::InvalidNoise { epsilon } => {
                write!(f, "noise rate ε = {epsilon} outside (0, 1/2)")
            }
            NetError::RoundBudgetExhausted { budget } => {
                write!(f, "protocols did not complete within {budget} rounds")
            }
            NetError::InvalidChannel { detail } => {
                write!(f, "invalid channel model: {detail}")
            }
            NetError::InvalidFaultPlan { detail } => {
                write!(f, "invalid fault plan: {detail}")
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_numbers() {
        assert!(GraphError::NodeOutOfRange { node: 9, n: 5 }
            .to_string()
            .contains('9'));
        assert!(GraphError::SelfLoop { node: 3 }.to_string().contains('3'));
        assert!(NetError::ActionCount {
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains('4'));
        assert!(NetError::RoundBudgetExhausted { budget: 100 }
            .to_string()
            .contains("100"));
        assert!(NetError::InvalidNoise { epsilon: 0.7 }
            .to_string()
            .contains("0.7"));
        assert!(NetError::InvalidChannel {
            detail: "eps_bad = 0.9".into()
        }
        .to_string()
        .contains("0.9"));
        assert!(NetError::InvalidFaultPlan {
            detail: "node 7 assigned two faults".into()
        }
        .to_string()
        .contains("node 7"));
        assert!(NetError::FrameLength {
            node: 2,
            expected: 8,
            actual: 6
        }
        .to_string()
        .contains('6'));
    }
}
