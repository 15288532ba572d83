//! Structural statistics of an FP-tree — the compression and shape numbers
//! behind the paper's storage claims ("compactly storing the documents",
//! §V-A).

use crate::fptree::{FpTree, NodeId};

/// Shape summary of one FP-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Documents stored.
    pub docs: usize,
    /// Nodes excluding the root.
    pub nodes: usize,
    /// Total attribute-value pairs across all stored documents.
    pub pairs: usize,
    /// `pairs / nodes`: >1 means the prefix tree shares structure
    /// (the paper's compactness argument); 1.0 means no sharing at all.
    pub compression: f64,
    /// Maximum depth.
    pub max_depth: u32,
    /// Mean depth of the nodes where documents terminate.
    pub mean_doc_depth: f64,
    /// Number of ubiquitous attributes (the fast-path levels).
    pub ubiquitous: usize,
    /// Nodes per depth level, `levels[0]` = children of the root.
    pub levels: Vec<usize>,
}

impl TreeStats {
    /// Compute the statistics of `tree`'s logical shape: a leaf's tail
    /// counts as the chain of single-child nodes it stands for, so the
    /// numbers are those of the paper's fully expanded tree.
    pub fn of(tree: &FpTree) -> TreeStats {
        let mut nodes = 0usize;
        let mut levels: Vec<usize> = Vec::new();
        let mut pairs = 0usize;
        // Pair-less documents terminate at the root, which `walk` skips.
        let mut docs = tree.docs(NodeId::ROOT).len();
        tree.walk(|node, depth| {
            let bottom = depth as usize + tree.tail(node).len();
            if levels.len() < bottom {
                levels.resize(bottom, 0);
            }
            for level in &mut levels[depth as usize - 1..bottom] {
                *level += 1;
            }
            nodes += bottom + 1 - depth as usize;
            docs += tree.docs(node).len();
            pairs += bottom * tree.docs(node).len();
        });
        TreeStats {
            docs,
            nodes,
            pairs,
            compression: if nodes == 0 {
                1.0
            } else {
                pairs as f64 / nodes as f64
            },
            max_depth: levels.len() as u32,
            mean_doc_depth: if docs == 0 {
                0.0
            } else {
                pairs as f64 / docs as f64
            },
            ubiquitous: tree.ubiquitous(),
            levels,
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} docs ({} pairs) in {} nodes — {:.2}x compression, depth ≤ {}, {} ubiquitous level(s)",
            self.docs, self.pairs, self.nodes, self.compression, self.max_depth, self.ubiquitous
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{Dictionary, DocId, Document};

    fn docs(dict: &Dictionary, srcs: &[&str]) -> Vec<Document> {
        srcs.iter()
            .enumerate()
            .map(|(i, s)| Document::from_json(DocId(i as u64 + 1), s, dict).unwrap())
            .collect()
    }

    #[test]
    fn table1_statistics() {
        let dict = Dictionary::new();
        let ds = docs(
            &dict,
            &[
                r#"{"a":3,"b":7,"c":1}"#,
                r#"{"a":3,"b":8}"#,
                r#"{"a":3,"b":7}"#,
                r#"{"b":8,"c":2}"#,
            ],
        );
        let tree = crate::FpTree::build(&ds);
        let stats = TreeStats::of(&tree);
        assert_eq!(stats.docs, 4);
        assert_eq!(stats.nodes, 6);
        assert_eq!(stats.pairs, 3 + 2 + 2 + 2);
        assert!((stats.compression - 9.0 / 6.0).abs() < 1e-9);
        assert_eq!(stats.max_depth, 3);
        assert_eq!(stats.levels, vec![2, 3, 1]);
        assert_eq!(stats.ubiquitous, 1);
        assert!(stats.summary().contains("4 docs"));
    }

    #[test]
    fn identical_documents_compress_maximally() {
        let dict = Dictionary::new();
        let srcs: Vec<String> = (0..50)
            .map(|_| r#"{"x":1,"y":2,"z":3}"#.to_string())
            .collect();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let ds = docs(&dict, &refs);
        let tree = crate::FpTree::build(&ds);
        let stats = TreeStats::of(&tree);
        assert_eq!(stats.nodes, 3, "one shared path");
        assert!((stats.compression - 50.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_documents_do_not_compress() {
        let dict = Dictionary::new();
        let srcs: Vec<String> = (0..10).map(|i| format!(r#"{{"k{i}":{i}}}"#)).collect();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let ds = docs(&dict, &refs);
        let tree = crate::FpTree::build(&ds);
        let stats = TreeStats::of(&tree);
        assert!((stats.compression - 1.0).abs() < 1e-9);
        assert_eq!(stats.levels, vec![10]);
    }

    #[test]
    fn empty_tree_statistics() {
        let tree = crate::FpTree::build(&[]);
        let stats = TreeStats::of(&tree);
        assert_eq!(stats.docs, 0);
        assert_eq!(stats.nodes, 0);
        assert!((stats.compression - 1.0).abs() < 1e-9);
        assert!(stats.levels.is_empty());
    }
}
