//! Feature-vector significance mining (Sections III and IV-A of the paper).
//!
//! After the RWR pass, every graph region is a discretized feature vector.
//! This crate provides the machinery that operates purely in that vector
//! space:
//!
//! * [`vector`] — sub/super-vector relation, floor and ceiling of vector
//!   sets (Definitions 3 and 5).
//! * [`priors`] — empirical prior probabilities `P(y_i >= v)` per feature
//!   (Table I's construction) and the independence product `P(x)` (Eqn. 4).
//! * [`pvalue`] — the binomial significance model: support of `x` in a
//!   random database is `Bin(m, P(x))`, and the p-value of observed support
//!   `mu_0` is the upper tail (Eqns. 5–6), computed by `graphsig-stats`.
//! * [`fvmine`] — Algorithm 1: bottom-up, depth-first enumeration of closed
//!   significant sub-feature vectors with support, duplicate-state, and
//!   optimistic-p-value pruning, over per-feature level bitsets of the
//!   group (a child's support is an AND and a popcount while dense, one
//!   bit probe per id once sparse).
//!
//! # Example
//!
//! ```
//! use graphsig_fvmine::{FvMiner, FvMineConfig};
//!
//! // Table I of the paper.
//! let db = vec![
//!     vec![1, 0, 0, 2],
//!     vec![1, 1, 0, 2],
//!     vec![2, 0, 1, 2],
//!     vec![1, 0, 1, 0],
//! ];
//! let out = FvMiner::new(FvMineConfig::new(1, 1.0)).mine(&db);
//! assert!(!out.is_empty());
//! // Every mined vector is closed: it equals the floor of its supporters.
//! for sv in &out {
//!     assert_eq!(sv.support_ids.len(), sv.support());
//! }
//! ```

pub mod fvmine;
pub mod priors;
pub mod pvalue;
pub mod vector;

pub use fvmine::{FvMineConfig, FvMineStats, FvMiner, SignificantVector};
pub use priors::Priors;
pub use pvalue::SignificanceModel;
pub use vector::{ceiling_of, floor_of, is_sub_vector, FeatureVector};
