//! Structural invariant checking.
//!
//! Every mutation path of the tree is exercised against these checks in
//! the test suites; the join and experiment crates also assert them
//! before trusting access counts from a tree.

use crate::node::{Child, NodeId};
use crate::tree::RTree;
use std::collections::HashSet;

/// A violated R-tree invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A non-root node holds fewer than `m` or more than `M` entries.
    BadFanout {
        /// Offending node.
        node: NodeId,
        /// Its entry count.
        len: usize,
    },
    /// An internal root with fewer than 2 entries (must have collapsed).
    BadRoot {
        /// Entry count of the root.
        len: usize,
    },
    /// A child's level is not exactly one below its parent's.
    BadLevel {
        /// Parent node.
        parent: NodeId,
        /// Child node.
        child: NodeId,
    },
    /// A parent entry's rectangle does not tightly cover the child MBR.
    LooseMbr {
        /// Parent node.
        parent: NodeId,
        /// Child node.
        child: NodeId,
    },
    /// A leaf entry holds a node child or an internal entry holds an
    /// object child.
    MixedChildren {
        /// Offending node.
        node: NodeId,
    },
    /// A node is reachable through two parents, or unreachable nodes
    /// exist in the arena.
    BrokenTopology {
        /// Description of the defect.
        detail: String,
    },
    /// An entry's rectangle fails [`Rect::is_valid`](sjcm_geom::Rect::is_valid):
    /// a coordinate is NaN or infinite, or its corners are inverted.
    BadRect {
        /// Node holding the entry.
        node: NodeId,
        /// Position of the entry in the node.
        entry: usize,
    },
    /// The tree's cached object count disagrees with the leaves.
    BadLen {
        /// Cached count.
        cached: usize,
        /// Count found by scanning leaves.
        actual: usize,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::BadFanout { node, len } => {
                write!(f, "node {node:?} has illegal fanout {len}")
            }
            InvariantViolation::BadRoot { len } => {
                write!(f, "internal root has {len} entries")
            }
            InvariantViolation::BadLevel { parent, child } => {
                write!(f, "level mismatch between {parent:?} and {child:?}")
            }
            InvariantViolation::LooseMbr { parent, child } => {
                write!(
                    f,
                    "entry rect of {parent:?} does not tightly cover {child:?}"
                )
            }
            InvariantViolation::MixedChildren { node } => {
                write!(f, "node {node:?} mixes child kinds")
            }
            InvariantViolation::BrokenTopology { detail } => {
                write!(f, "broken topology: {detail}")
            }
            InvariantViolation::BadRect { node, entry } => {
                write!(f, "entry {entry} of {node:?} has an invalid rectangle")
            }
            InvariantViolation::BadLen { cached, actual } => {
                write!(f, "cached len {cached} but {actual} leaf entries")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

impl<const N: usize> RTree<N> {
    /// Checks all structural invariants with an exact MBR-tightness
    /// requirement (tolerance 1e-9), appropriate for trees built and
    /// mutated in memory and for trees loaded from pages alike: outward
    /// `f32` rounding is monotone, so a loaded parent entry equals its
    /// child's MBR bit for bit.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.check_invariants_with_tolerance(1e-9)
    }

    /// Checks all structural invariants, allowing parent entry rectangles
    /// to exceed the child MBR by up to `tol` per side — for trees whose
    /// parents are deliberately loose. No tree the repo builds, saves or
    /// loads needs more than [`RTree::check_invariants`].
    pub fn check_invariants_with_tolerance(&self, tol: f64) -> Result<(), InvariantViolation> {
        let root = self.root_id();
        let root_node = self.node(root);
        if !root_node.is_leaf() && root_node.len() < 2 {
            return Err(InvariantViolation::BadRoot {
                len: root_node.len(),
            });
        }
        if root_node.len() > self.config().max_entries {
            return Err(InvariantViolation::BadFanout {
                node: root,
                len: root_node.len(),
            });
        }
        let mut seen: HashSet<NodeId> = HashSet::new();
        seen.insert(root);
        let mut leaf_entries = 0usize;
        self.check_node(root, true, tol, &mut seen, &mut leaf_entries)?;
        if leaf_entries != self.len() {
            return Err(InvariantViolation::BadLen {
                cached: self.len(),
                actual: leaf_entries,
            });
        }
        let nodes = self.node_count();
        if nodes != seen.len() {
            return Err(InvariantViolation::BrokenTopology {
                detail: format!("{nodes} nodes but only {} reachable", seen.len()),
            });
        }
        Ok(())
    }

    fn check_node(
        &self,
        id: NodeId,
        is_root: bool,
        tol: f64,
        seen: &mut HashSet<NodeId>,
        leaf_entries: &mut usize,
    ) -> Result<(), InvariantViolation> {
        let node = self.node(id);
        if !is_root
            && (node.len() < self.config().min_entries || node.len() > self.config().max_entries)
        {
            return Err(InvariantViolation::BadFanout {
                node: id,
                len: node.len(),
            });
        }
        if let Some(entry) = node.entries.iter().position(|e| !e.rect.is_valid()) {
            return Err(InvariantViolation::BadRect { node: id, entry });
        }
        if node.is_leaf() {
            for e in &node.entries {
                if !matches!(e.child, Child::Object(_)) {
                    return Err(InvariantViolation::MixedChildren { node: id });
                }
            }
            *leaf_entries += node.len();
            return Ok(());
        }
        for e in &node.entries {
            let child_id = match e.child {
                Child::Node(c) => c,
                Child::Object(_) => return Err(InvariantViolation::MixedChildren { node: id }),
            };
            if !seen.insert(child_id) {
                return Err(InvariantViolation::BrokenTopology {
                    detail: format!("node {child_id:?} has multiple parents"),
                });
            }
            let child = self.node(child_id);
            if child.level + 1 != node.level {
                return Err(InvariantViolation::BadLevel {
                    parent: id,
                    child: child_id,
                });
            }
            let child_mbr = child.mbr().ok_or(InvariantViolation::BrokenTopology {
                detail: format!("empty non-root node {child_id:?}"),
            })?;
            // Tight cover: the entry rect must contain the child MBR and
            // exceed it by at most `tol` per side.
            if !e.rect.contains_rect(&child_mbr) {
                return Err(InvariantViolation::LooseMbr {
                    parent: id,
                    child: child_id,
                });
            }
            for k in 0..N {
                if (child_mbr.lo_k(k) - e.rect.lo_k(k)) > tol
                    || (e.rect.hi_k(k) - child_mbr.hi_k(k)) > tol
                {
                    return Err(InvariantViolation::LooseMbr {
                        parent: id,
                        child: child_id,
                    });
                }
            }
            self.check_node(child_id, false, tol, seen, leaf_entries)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::node::ObjectId;
    use sjcm_geom::Rect;

    #[test]
    fn fresh_tree_is_valid() {
        let tree = RTree::<2>::new(RTreeConfig::with_capacity(8));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn populated_tree_is_valid() {
        let mut tree = RTree::<2>::new(RTreeConfig::with_capacity(4));
        for i in 0..200u32 {
            let x = (i % 20) as f64 / 20.0;
            let y = (i / 20) as f64 / 10.0;
            tree.insert(
                Rect::new([x, y], [x + 0.01, y + 0.01]).unwrap(),
                ObjectId(i),
            );
        }
        tree.check_invariants().unwrap();
    }

    /// A NaN or infinite rectangle beside valid ones, packed or inserted,
    /// is reported by position: the first invalid entry in pre-order,
    /// which for an infinite one is its parent entry. A parent's MBR,
    /// built by `min`/`max`, passes over a NaN, so the NaN is reported
    /// at its leaf.
    #[test]
    fn non_finite_rectangles_are_reported() {
        use crate::bulk::BulkLoad;
        use sjcm_geom::Point;
        let normal = Rect::new([0.1, 0.1], [0.2, 0.2]).unwrap();
        for bad in [
            Rect::centered(Point::new([f64::NAN, 0.5]), [0.1, 0.1]),
            Rect::centered(Point::new([0.5, f64::NEG_INFINITY]), [0.1, 0.1]),
        ] {
            let items = vec![(normal, ObjectId(0)), (bad, ObjectId(1))];
            let packed = RTree::<2>::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 1.0);
            let Err(InvariantViolation::BadRect { node, entry }) = packed.check_invariants() else {
                panic!("packed {bad:?} not reported");
            };
            assert!(!packed.node(node).entries[entry].rect.is_valid());

            let mut inserted = RTree::<2>::new(RTreeConfig::with_capacity(4));
            for i in 0..20u32 {
                let x = f64::from(i) / 20.0;
                let r = Rect::new([x, x], [x + 0.01, x + 0.01]).unwrap();
                inserted.insert(if i == 9 { bad } else { r }, ObjectId(i));
            }
            let Err(InvariantViolation::BadRect { node, entry }) = inserted.check_invariants()
            else {
                panic!("inserted {bad:?} not reported");
            };
            assert!(!inserted.node(node).entries[entry].rect.is_valid());
        }
    }

    #[test]
    fn violation_messages_render() {
        let v = InvariantViolation::BadFanout {
            node: NodeId(3),
            len: 1,
        };
        assert!(v.to_string().contains("n3"));
        let v = InvariantViolation::BadLen {
            cached: 5,
            actual: 4,
        };
        assert!(v.to_string().contains('5'));
    }
}
