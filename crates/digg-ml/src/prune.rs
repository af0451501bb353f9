//! Pessimistic error pruning, C4.5 style.
//!
//! C4.5 treats the training error count at a node as a binomial sample
//! and prunes a subtree to a leaf when the leaf's *upper confidence
//! bound* on the error rate is no worse than the weighted bound of the
//! subtree's leaves. The bound used is the normal-approximation upper
//! limit with continuity correction, as in Quinlan's book and Weka's
//! `J48` (`Stats.addErrs`).

use crate::tree::Node;
use digg_stats::distributions::inverse_normal_cdf;

/// The pessimistic error *count* estimate for a node with `total`
/// training instances and `errors` mistakes, at confidence factor
/// `cf` (e.g. 0.25).
///
/// Matches C4.5/J48:
/// * `total = 0` → 0;
/// * `errors = 0` → `total * (1 - cf^(1/total))`;
/// * otherwise `total * UCF(errors, total)` with the continuity-
///   corrected normal upper bound.
pub fn pessimistic_errors(errors: usize, total: usize, cf: f64) -> f64 {
    assert!((0.0..1.0).contains(&cf) && cf > 0.0, "cf must be in (0,1)");
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    if errors == 0 {
        return n * (1.0 - cf.powf(1.0 / n));
    }
    let z = inverse_normal_cdf(1.0 - cf);
    let f = (errors as f64 + 0.5) / n;
    if f >= 1.0 {
        return errors as f64;
    }
    let z2 = z * z;
    let ucb =
        (f + z2 / (2.0 * n) + z * (f * (1.0 - f) / n + z2 / (4.0 * n * n)).sqrt()) / (1.0 + z2 / n);
    n * ucb.min(1.0)
}

/// Sum of pessimistic error estimates over a subtree's leaves.
fn subtree_pessimistic(node: &Node, cf: f64) -> f64 {
    match node {
        Node::Leaf { total, errors, .. } => pessimistic_errors(*errors, *total, cf),
        Node::Split { le, gt, .. } => subtree_pessimistic(le, cf) + subtree_pessimistic(gt, cf),
    }
}

/// Collapse a subtree into the leaf it would become (majority label
/// over its training instances).
fn collapse(node: &Node) -> Node {
    fn counts(node: &Node) -> (usize, usize) {
        // Returns (total, positives-as-implied-by-leaves). We only
        // know each leaf's label/total/errors, which determine its
        // positive count exactly for a binary task.
        match node {
            Node::Leaf {
                label,
                total,
                errors,
            } => {
                let pos = if *label { total - errors } else { *errors };
                (*total, pos)
            }
            Node::Split { le, gt, .. } => {
                let (t1, p1) = counts(le);
                let (t2, p2) = counts(gt);
                (t1 + t2, p1 + p2)
            }
        }
    }
    let (total, pos) = counts(node);
    let neg = total - pos;
    let label = pos >= neg;
    Node::Leaf {
        label,
        total,
        errors: if label { neg } else { pos },
    }
}

/// Prune the tree bottom-up in place.
pub fn prune(node: &mut Node, cf: f64) {
    if let Node::Split { le, gt, .. } = node {
        prune(le, cf);
        prune(gt, cf);
        let as_leaf = collapse(node);
        let leaf_err = match &as_leaf {
            Node::Leaf { total, errors, .. } => pessimistic_errors(*errors, *total, cf),
            #[expect(
                clippy::unreachable,
                reason = "collapse() returns Node::Leaf by construction; the arm exists only for match exhaustiveness"
            )]
            Node::Split { .. } => unreachable!("collapse returns a leaf"),
        };
        let tree_err = subtree_pessimistic(node, cf);
        if leaf_err <= tree_err + 0.1 {
            // C4.5 prunes when the collapsed leaf is not worse than
            // the subtree (the +0.1 mirrors its slack in favour of
            // smaller trees).
            *node = as_leaf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: bool, total: usize, errors: usize) -> Node {
        Node::Leaf {
            label,
            total,
            errors,
        }
    }

    #[test]
    fn pessimistic_is_above_observed_rate() {
        let e = pessimistic_errors(5, 100, 0.25);
        assert!(e > 5.0, "upper bound {e} must exceed observed errors");
        assert!(e < 15.0, "bound {e} implausibly loose");
    }

    #[test]
    fn zero_error_bound_matches_closed_form() {
        // errors=0: total*(1 - cf^(1/total)).
        let e = pessimistic_errors(0, 10, 0.25);
        assert!((e - 10.0 * (1.0 - 0.25f64.powf(0.1))).abs() < 1e-12);
        assert_eq!(pessimistic_errors(0, 0, 0.25), 0.0);
    }

    #[test]
    fn tighter_confidence_means_bigger_bound() {
        // Smaller CF = more pessimistic = larger error estimate.
        let strict = pessimistic_errors(5, 100, 0.05);
        let lax = pessimistic_errors(5, 100, 0.5);
        assert!(strict > lax);
    }

    #[test]
    fn noise_split_is_pruned() {
        // A split whose two leaves are nearly coin flips (12 errors of
        // 25 each): the merged leaf's pessimistic error (≈27.9) beats
        // the subtree's (≈28.3), so pruning collapses it.
        let mut node = Node::Split {
            attr: 0,
            threshold: 1.0,
            le: Box::new(leaf(true, 25, 12)),
            gt: Box::new(leaf(false, 25, 12)),
        };
        prune(&mut node, 0.25);
        assert!(matches!(node, Node::Leaf { .. }), "kept: {node:?}");
        if let Node::Leaf { total, .. } = node {
            assert_eq!(total, 50);
        }
    }

    #[test]
    fn informative_split_is_kept() {
        let mut node = Node::Split {
            attr: 0,
            threshold: 1.0,
            le: Box::new(leaf(true, 100, 2)),
            gt: Box::new(leaf(false, 100, 3)),
        };
        prune(&mut node, 0.25);
        assert!(
            matches!(node, Node::Split { .. }),
            "a clean split must survive pruning"
        );
    }

    #[test]
    fn collapse_computes_majority_from_leaf_counts() {
        // le: yes with 30/8 (22 pos, 8 neg); gt: no with 20/5
        // (5 pos, 15 neg). Merged: 27 pos, 23 neg -> yes, errors 23.
        let node = Node::Split {
            attr: 0,
            threshold: 0.0,
            le: Box::new(leaf(true, 30, 8)),
            gt: Box::new(leaf(false, 20, 5)),
        };
        let merged = collapse(&node);
        assert_eq!(
            merged,
            Node::Leaf {
                label: true,
                total: 50,
                errors: 23
            }
        );
    }

    #[test]
    fn pruning_is_recursive() {
        // Inner noise split nested under a clean outer split: the
        // inner one collapses, the outer survives.
        let mut node = Node::Split {
            attr: 0,
            threshold: 10.0,
            le: Box::new(Node::Split {
                attr: 1,
                threshold: 1.0,
                le: Box::new(leaf(true, 20, 9)),
                gt: Box::new(leaf(false, 20, 10)),
            }),
            gt: Box::new(leaf(false, 100, 1)),
        };
        prune(&mut node, 0.25);
        if let Node::Split { le, gt, .. } = &node {
            assert!(matches!(**le, Node::Leaf { .. }), "inner split kept");
            assert!(matches!(**gt, Node::Leaf { .. }));
        } else {
            panic!("outer split should survive: {node:?}");
        }
    }
}
