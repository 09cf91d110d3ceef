//! Why a fired rewrite step is licensed: its [`Justification`] and
//! [`ProofStatus`].

use std::fmt;

/// Whether a fired rewrite step has been *proved* equivalent or is
/// merely *property-tested* (no counterexample found).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStatus {
    /// The U-semiring checker proved before/after equivalence from the
    /// schema's key, foreign-key, and derived-FD axioms.
    Proved {
        /// The proof strategy that closed the goal (e.g. `Theorem 2
        /// (single-tuple subquery)`).
        strategy: &'static str,
        /// The axioms the proof used, human-readable.
        detail: String,
    },
    /// The checker returned `Unknown`; the step falls back to the
    /// execution-equivalence property-test oracle.
    PropertyTested {
        /// Why the checker could not decide.
        reason: String,
    },
}

impl ProofStatus {
    /// True for [`ProofStatus::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofStatus::Proved { .. })
    }

    /// Short marker for EXPLAIN output: `✓` or `property-test`.
    pub fn marker(&self) -> &'static str {
        match self {
            ProofStatus::Proved { .. } => "✓",
            ProofStatus::PropertyTested { .. } => "property-test",
        }
    }
}

impl Default for ProofStatus {
    fn default() -> ProofStatus {
        ProofStatus::PropertyTested {
            reason: "not checked symbolically".into(),
        }
    }
}

impl fmt::Display for ProofStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofStatus::Proved { strategy, detail } => {
                write!(f, "proved by {strategy}: {detail}")
            }
            ProofStatus::PropertyTested { reason } => {
                write!(f, "property-tested ({reason})")
            }
        }
    }
}

/// Why a fired rewrite step is licensed: the paper theorem it
/// instantiates, the prose account of its side conditions, and the
/// step's proof status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Justification {
    /// The theorem or corollary from the paper (or an extension).
    pub theorem: &'static str,
    /// Why the side conditions hold for this query.
    pub detail: String,
    /// Symbolically proved, or covered by property tests.
    pub proof: ProofStatus,
}

impl Justification {
    /// A justification, not yet symbolically checked.
    pub fn new(theorem: &'static str, detail: impl Into<String>) -> Justification {
        Justification {
            theorem,
            detail: detail.into(),
            proof: ProofStatus::default(),
        }
    }

    /// Attach a proof status.
    pub fn with_proof(self, proof: ProofStatus) -> Justification {
        Justification { proof, ..self }
    }
}

impl fmt::Display for Justification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.theorem, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_justifications_render_theorem_and_detail() {
        let j = Justification::new("Theorem 1", "projection covers every key");
        assert_eq!(j.theorem, "Theorem 1");
        assert_eq!(j.to_string(), "Theorem 1: projection covers every key");
        assert!(!j.proof.is_proved());
        let j = j.with_proof(ProofStatus::Proved {
            strategy: "squash elimination",
            detail: "key(S)".into(),
        });
        assert!(j.proof.is_proved());
        assert_eq!(j.proof.marker(), "✓");
    }
}
