//! `uniq-proof` — a U-semiring symbolic equivalence checker for the
//! rewrite engine.
//!
//! Every query denotes a function from tuples to a commutative
//! semiring with squash: a block is
//! `sq?( Σ_{v₁…vₙ} Π atoms(v) · Π ‖sub(v)‖ · [u = π(v)] )`, where the
//! sum ranges over one tuple variable per `FROM` table, `‖·‖` squashes
//! a sub-sum to 0/1 (`EXISTS`, `IN`), and the outer `sq?` is the
//! block's `DISTINCT` flag. Two queries are equivalent iff their
//! denotations agree on every database satisfying the schema's
//! integrity constraints — keys, unique indexes, foreign keys,
//! nullability — which are exactly the checker's axioms.
//!
//! The crate is organized as:
//!
//! - [`atom`]: canonical atom normal form, erasing only
//!   equivalence-preserving differences (operand order, `AND`/`OR`
//!   flattening, the two spellings of the null-aware `=̇`,
//!   three-valued-logic-sound `NOT` pushing).
//! - [`axioms`]: FD derivation from candidate keys (declared and
//!   unique-index-registered) plus predicate equalities, answering the
//!   duplicate-free and single-tuple side-condition queries.
//! - [`check`]: the decision procedure — [`check_equiv`] returns
//!   [`Verdict::Proved`] or [`Verdict::Unknown`], sound and incomplete.
//! - [`justify`]: a fired rewrite step's [`Justification`], carrying
//!   its [`ProofStatus`].
//!
//! The checker is the rewrite engine's *independent auditor*: it
//! depends only on the bound representation and the catalog, never on
//! `uniq-core`, and re-derives every side condition from the axioms
//! rather than trusting the firing rule's own analysis. A `Proved`
//! verdict is a theorem; an `Unknown` verdict sends the step to the
//! execution-equivalence property-test oracle.

pub mod atom;
pub mod axioms;
pub mod check;
pub mod justify;

pub use check::{check_equiv, Verdict};
pub use justify::{Justification, ProofStatus};
