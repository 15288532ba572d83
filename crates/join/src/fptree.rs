//! The FP-tree document store (§V-A), with lazily expanded leaf tails.
//!
//! Nodes live in one arena (`Vec<Node>`, 48 bytes each), children linked
//! first-child/next-sibling, exact child lookup during insertion through a
//! single open-addressed map keyed by `(parent, label)`. Every node is
//! labelled with one interned pair and carries the ids of the documents
//! whose insertion path *terminates* there, exactly as in the paper's
//! Fig. 4 — with one difference in how the path below the last *shared*
//! node is stored.
//!
//! # Lazy tails
//!
//! In the textbook tree every document drags a private chain of one-child
//! nodes behind the point where it stops sharing a prefix with any other
//! document. Here a path is materialised only as deep as it is shared: a
//! *leaf* additionally owns a **tail**, an `(offset, len)` slice of one
//! shared `Pair` pool holding the rest of its documents' rank-ordered path.
//! The leaf's documents logically terminate at the end of the tail. Internal
//! nodes never have a tail and stay single-label, so the §V-B fast path and
//! the Algorithm 3 DFS run unchanged above the leaves; a probe walks a tail
//! as the chain it stands for.
//!
//! Inserting a document that reaches a leaf with a tail expands the tail one
//! node at a time only while the document agrees with it, then parks both
//! remainders as tails of two new leaves:
//!
//! * the document **equals** the tail — it joins the leaf's document list;
//! * it **ends inside** the tail (possibly before its first pair) — the
//!   agreed prefix becomes real nodes, the document terminates at the last
//!   of them, the old documents move one node further down with the rest of
//!   the tail;
//! * it **diverges** (possibly at the first pair) or **outruns** the tail —
//!   the agreed prefix becomes real nodes and each side gets its own leaf.
//!
//! [`FpTree::node_count`] and [`FpTree::approx_bytes`] report the arena as
//! stored; [`crate::TreeStats`] and [`FpTree::render`] present the paper's
//! logical tree with every tail expanded.
//!
//! # Document storage
//!
//! Per-node document lists are slices `(offset, len, cap)` of one shared
//! pool ([`FpTree::docs`] returns `&[DocId]` directly out of it). Appends go
//! in place while a slice has spare capacity or sits at the pool's end;
//! otherwise the slice is relocated to the end with geometric
//! over-allocation, leaving a hole. Expanding a tail leaves a hole in the
//! pair pool the same way. [`FpTree::seal`] compacts both pools once a
//! window's build completes, so frozen trees store doc ids and tails densely
//! in node order.
//!
//! # Tags
//!
//! Every stored document carries a `u64` tag, in a pool parallel to the
//! doc-id pool (the same slices), and every node keeps the AND of the tags
//! of all documents in its subtree, its own and its tail's included. A probe
//! with a *skip* mask ([`crate::fpjoin::probe_absent`]) reports a document
//! only if its tag misses the mask, and abandons a subtree whose AND meets
//! it: every document below carries one of the skipped bits. The Joiner tags
//! each copy with the lower joiners it reached, so its probes find exactly
//! the pairs it owns. [`FpTree::insert`] stores tag 0, which no mask skips.

use crate::order::AttrOrder;
use ssj_json::{DocId, Document, FxHashMap, Pair};

/// Sentinel for "no node" in the intrusive child/sibling links.
const NIL: u32 = u32::MAX;

/// Index of a node in the tree arena. `NodeId::ROOT` is the synthetic root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The synthetic `null`-labelled root node.
    pub const ROOT: NodeId = NodeId(0);

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena node. A node with `tail_len > 0` has no children.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node's pair; undefined for the root.
    label: Pair,
    first_child: u32,
    next_sibling: u32,
    /// The AND of the tags of every document in the subtree (all ones while
    /// it holds none).
    tags_and: u64,
    /// The unexpanded rest of this leaf's path, a slice of `FpTree::tails`.
    tail_off: u32,
    tail_len: u32,
    /// Documents terminating here (after the tail), a slice of `FpTree::pool`.
    doc_off: u32,
    doc_len: u32,
    doc_cap: u32,
}

impl Node {
    /// The synthetic root; its label is never read.
    fn root() -> Self {
        let label = Pair {
            attr: ssj_json::AttrId(u32::MAX),
            avp: ssj_json::AvpId(u32::MAX),
        };
        Node::new(label, NIL, u64::MAX)
    }

    fn new(label: Pair, next_sibling: u32, tags_and: u64) -> Self {
        Node {
            label,
            first_child: NIL,
            next_sibling,
            tags_and,
            tail_off: 0,
            tail_len: 0,
            doc_off: 0,
            doc_len: 0,
            doc_cap: 0,
        }
    }
}

/// An FP-tree over one window of documents.
#[derive(Debug)]
pub struct FpTree {
    order: AttrOrder,
    nodes: Vec<Node>,
    /// Exact child lookup: `(parent << 32 | avp) → node`.
    child_index: FxHashMap<u64, u32>,
    /// Shared pool backing every leaf's tail.
    tails: Vec<Pair>,
    /// Shared pool backing every node's document list.
    pool: Vec<DocId>,
    /// The documents' tags, parallel to `pool`.
    doc_tags: Vec<u64>,
    doc_count: usize,
    /// Leading ranks of `order` carried by every stored document — the
    /// depth of the §V-B fast path. See [`FpTree::ubiquitous`].
    ubiquitous: usize,
    /// Reused by `insert` so steady-state updates don't allocate.
    reorder_buf: Vec<Pair>,
}

impl Default for FpTree {
    /// An empty tree under the empty order.
    fn default() -> Self {
        FpTree::new(AttrOrder::default())
    }
}

impl FpTree {
    /// Create an empty tree governed by `order`. The order need not come
    /// from the documents the tree will store: any order yields exact
    /// probes, a representative one yields a compact tree.
    pub fn new(order: AttrOrder) -> Self {
        FpTree {
            ubiquitous: order.ubiquitous(),
            order,
            nodes: vec![Node::root()],
            child_index: FxHashMap::default(),
            tails: Vec::new(),
            pool: Vec::new(),
            doc_tags: Vec::new(),
            doc_count: 0,
            reorder_buf: Vec::new(),
        }
    }

    /// Empty the tree and put it under `order`, keeping every arena's
    /// capacity — a tumbling pane reuses one tree.
    pub fn reset(&mut self, order: AttrOrder) {
        self.nodes.clear();
        self.nodes.push(Node::root());
        self.child_index.clear();
        self.tails.clear();
        self.pool.clear();
        self.doc_tags.clear();
        self.doc_count = 0;
        self.ubiquitous = order.ubiquitous();
        self.order = order;
    }

    /// Build a tree for a batch: compute the attribute order, insert every
    /// document, then [`seal`](FpTree::seal) the pools.
    pub fn build(docs: &[Document]) -> Self {
        let mut tree = FpTree::new(AttrOrder::compute(docs));
        for doc in docs {
            tree.insert(doc);
        }
        tree.seal();
        tree
    }

    /// The governing attribute order.
    #[inline]
    pub fn order(&self) -> &AttrOrder {
        &self.order
    }

    /// How many leading ranks of the order every stored document carries:
    /// the levels the §V-B fast path may descend by exact child lookup.
    /// [`AttrOrder::ubiquitous`] is only the order's *prediction* — exact
    /// for [`build`](FpTree::build), whose order comes from the stored
    /// documents, a guess for a tree governed by another batch's order. The
    /// count starts at the prediction and [`insert`](FpTree::insert) cuts
    /// it back to the first rank a document lacks, so probes read the fact
    /// from the tree and never from the order.
    #[inline]
    pub fn ubiquitous(&self) -> usize {
        self.ubiquitous
    }

    /// Approximate heap footprint of the tree as stored, in bytes: the node
    /// arena, the document and tail pools, and the child index (counted at
    /// entry size, ignoring table load factor) — an estimate, not an
    /// allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<FpTree>()
            + self.nodes.len() * std::mem::size_of::<Node>()
            + self.pool.len() * (std::mem::size_of::<DocId>() + std::mem::size_of::<u64>())
            + self.tails.len() * std::mem::size_of::<Pair>()
            + self.child_index.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    /// Insert one document with tag 0; returns the arena node holding its
    /// id (for a leaf with a tail the document logically terminates below
    /// it).
    pub fn insert(&mut self, doc: &Document) -> NodeId {
        self.insert_tagged(doc, 0)
    }

    /// [`insert`](FpTree::insert) with a tag (module docs): ANDed into every
    /// node on the document's path.
    pub fn insert_tagged(&mut self, doc: &Document, tag: u64) -> NodeId {
        let mut path = std::mem::take(&mut self.reorder_buf);
        self.order.reorder_into(doc, &mut path);
        // The path is in rank order, so the document carries ranks `0..k`
        // exactly when its first `k` pairs are the order's first `k`
        // attributes.
        self.ubiquitous = path
            .iter()
            .zip(self.order.attrs())
            .take(self.ubiquitous)
            .take_while(|(pair, attr)| pair.attr == **attr)
            .count();
        let mut node = 0u32;
        let mut at = 0;
        let terminal = loop {
            let n = self.nodes[node as usize];
            self.nodes[node as usize].tags_and &= tag;
            if n.tail_len > 0 {
                break self.insert_below_tail(node, n.tags_and, &path[at..], tag);
            }
            let Some(&pair) = path.get(at) else {
                break node;
            };
            let child = (n.first_child != NIL)
                .then(|| self.child_index.get(&child_key(node, pair.avp.0)).copied())
                .flatten();
            match child {
                Some(child) => {
                    node = child;
                    at += 1;
                }
                None => break self.add_leaf(node, &path[at..], tag),
            }
        };
        self.reorder_buf = path;
        self.push_doc(terminal, doc.id(), tag);
        self.doc_count += 1;
        NodeId(terminal)
    }

    /// `leaf` carries a tail and a new document tagged `tag` arrives with
    /// `rest` still to place; `old` is the leaf's tag AND before it. Expands
    /// the tail while both agree and returns the node the new document's id
    /// belongs at (see the module docs for the cases).
    fn insert_below_tail(&mut self, leaf: u32, old: u64, rest: &[Pair], tag: u64) -> u32 {
        let Node {
            tail_off,
            tail_len,
            doc_off,
            doc_len,
            doc_cap,
            ..
        } = self.nodes[leaf as usize];
        let (off, len) = (tail_off as usize, tail_len as usize);
        let agreed = self.tails[off..off + len]
            .iter()
            .zip(rest)
            .take_while(|(t, r)| t.avp == r.avp)
            .count();
        if agreed == len && agreed == rest.len() {
            return leaf;
        }
        // The leaf turns internal; its documents travel down with the tail.
        let n = &mut self.nodes[leaf as usize];
        (n.tail_len, n.doc_off, n.doc_len, n.doc_cap) = (0, 0, 0, 0);
        // The agreed prefix lies on both paths; the rest of the old tail
        // holds only the old documents.
        let mut cur = leaf;
        for i in 0..agreed {
            cur = self.add_child(cur, self.tails[off + i], old & tag);
        }
        let moved = if agreed < len {
            let moved = self.add_child(cur, self.tails[off + agreed], old);
            let n = &mut self.nodes[moved as usize];
            n.tail_off = (off + agreed + 1) as u32;
            n.tail_len = (len - agreed - 1) as u32;
            moved
        } else {
            cur
        };
        let n = &mut self.nodes[moved as usize];
        (n.doc_off, n.doc_len, n.doc_cap) = (doc_off, doc_len, doc_cap);
        if agreed < rest.len() {
            self.add_leaf(cur, &rest[agreed..], tag)
        } else {
            cur
        }
    }

    fn add_child(&mut self, parent: u32, pair: Pair, tags_and: u64) -> u32 {
        let id = self.nodes.len() as u32;
        // Prepend to the parent's child chain (reverse insertion order).
        let p = &mut self.nodes[parent as usize];
        let sibling = std::mem::replace(&mut p.first_child, id);
        self.nodes.push(Node::new(pair, sibling, tags_and));
        self.child_index.insert(child_key(parent, pair.avp.0), id);
        id
    }

    /// New leaf under `parent` labelled `path[0]` with `path[1..]` as tail,
    /// for a document tagged `tag`.
    fn add_leaf(&mut self, parent: u32, path: &[Pair], tag: u64) -> u32 {
        let id = self.add_child(parent, path[0], tag);
        let n = &mut self.nodes[id as usize];
        n.tail_off = self.tails.len() as u32;
        n.tail_len = (path.len() - 1) as u32;
        self.tails.extend_from_slice(&path[1..]);
        id
    }

    /// Append `doc` and its tag to `node`'s slice of the shared pools: in
    /// place when the slice has spare capacity or ends the pool, otherwise
    /// relocate it to the pool's end with geometric over-allocation
    /// (amortised O(1)).
    fn push_doc(&mut self, node: u32, doc: DocId, tag: u64) {
        let n = &mut self.nodes[node as usize];
        if n.doc_len < n.doc_cap {
            let at = (n.doc_off + n.doc_len) as usize;
            self.pool[at] = doc;
            self.doc_tags[at] = tag;
        } else if n.doc_len == 0 || (n.doc_off + n.doc_len) as usize == self.pool.len() {
            if n.doc_len == 0 {
                n.doc_off = self.pool.len() as u32;
            }
            self.pool.push(doc);
            self.doc_tags.push(tag);
            n.doc_cap = n.doc_len + 1;
        } else {
            let (off, len) = (n.doc_off as usize, n.doc_len as usize);
            n.doc_off = self.pool.len() as u32;
            n.doc_cap = (2 * n.doc_len + 1).max(4);
            let end = (n.doc_off + n.doc_cap) as usize;
            self.pool.reserve(n.doc_cap as usize);
            self.pool.extend_from_within(off..off + len);
            self.pool.push(doc);
            self.doc_tags.reserve(n.doc_cap as usize);
            self.doc_tags.extend_from_within(off..off + len);
            self.doc_tags.push(tag);
            // Pad the reserved tail so later appends can write in place.
            self.pool.resize(end, DocId(u64::MAX));
            self.doc_tags.resize(end, 0);
        }
        self.nodes[node as usize].doc_len += 1;
    }

    /// Compact both shared pools: drop relocation holes, spare capacity and
    /// expanded tail prefixes, laying every node's slices out densely in
    /// node order. Called by [`build`](FpTree::build) when a window closes;
    /// safe (and cheap) to call again at any time.
    pub fn seal(&mut self) {
        let mut pool = Vec::with_capacity(self.doc_count);
        let mut doc_tags = Vec::with_capacity(self.doc_count);
        let live_tails = self.nodes.iter().map(|n| n.tail_len as usize).sum();
        let mut tails = Vec::with_capacity(live_tails);
        for n in &mut self.nodes {
            let (off, len) = (n.doc_off as usize, n.doc_len as usize);
            n.doc_off = pool.len() as u32;
            n.doc_cap = n.doc_len;
            pool.extend_from_slice(&self.pool[off..off + len]);
            doc_tags.extend_from_slice(&self.doc_tags[off..off + len]);
            let (off, len) = (n.tail_off as usize, n.tail_len as usize);
            n.tail_off = tails.len() as u32;
            tails.extend_from_slice(&self.tails[off..off + len]);
        }
        self.pool = pool;
        self.doc_tags = doc_tags;
        self.tails = tails;
    }

    /// The label of `node` (undefined for the root).
    #[inline]
    pub fn pair(&self, node: NodeId) -> Pair {
        self.nodes[node.index()].label
    }

    /// Child of `node` labelled with pair id `avp`, if materialised (a
    /// leaf's tail holds pairs, not children).
    #[inline]
    pub fn child(&self, node: NodeId, avp: ssj_json::AvpId) -> Option<NodeId> {
        self.child_index
            .get(&child_key(node.0, avp.0))
            .map(|&c| NodeId(c))
    }

    /// First child of `node` in the sibling chain, if any.
    #[inline]
    pub fn first_child(&self, node: NodeId) -> Option<NodeId> {
        link(self.nodes[node.index()].first_child)
    }

    /// Next sibling of `node`, if any.
    #[inline]
    pub fn next_sibling(&self, node: NodeId) -> Option<NodeId> {
        link(self.nodes[node.index()].next_sibling)
    }

    /// Iterate the children of `node` (reverse insertion order).
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.first_child(node);
        std::iter::from_fn(move || {
            let id = cur?;
            cur = self.next_sibling(id);
            Some(id)
        })
    }

    /// The unexpanded rest of the path below leaf `node`, in rank order;
    /// empty for internal nodes and for leaves whose path ends at the node.
    #[inline]
    pub fn tail(&self, node: NodeId) -> &[Pair] {
        let n = &self.nodes[node.index()];
        &self.tails[n.tail_off as usize..(n.tail_off + n.tail_len) as usize]
    }

    /// Documents terminating at `node` (below its tail, if it has one).
    #[inline]
    pub fn docs(&self, node: NodeId) -> &[DocId] {
        let n = &self.nodes[node.index()];
        &self.pool[n.doc_off as usize..(n.doc_off + n.doc_len) as usize]
    }

    /// The tags of [`docs`](FpTree::docs)`(node)`, in the same order.
    #[inline]
    pub fn tags(&self, node: NodeId) -> &[u64] {
        let n = &self.nodes[node.index()];
        &self.doc_tags[n.doc_off as usize..(n.doc_off + n.doc_len) as usize]
    }

    /// The AND of the tags of every document in `node`'s subtree (all ones
    /// for an empty tree's root).
    #[inline]
    pub fn tags_and(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].tags_and
    }

    /// Number of inserted documents.
    #[inline]
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Number of arena nodes including the root (tails not expanded).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth of the logical tree (tails expanded) — useful to
    /// verify the compression the paper relies on for "deep trees" with few
    /// distinct frequent values.
    pub fn max_depth(&self) -> u32 {
        let mut max = 0;
        self.walk(|node, depth| max = max.max(depth + self.tail(node).len() as u32));
        max
    }

    /// Visit every non-root arena node with its depth (root = 0).
    pub(crate) fn walk(&self, mut visit: impl FnMut(NodeId, u32)) {
        let mut stack: Vec<(NodeId, u32)> = self.children(NodeId::ROOT).map(|c| (c, 1)).collect();
        while let Some((node, depth)) = stack.pop() {
            visit(node, depth);
            stack.extend(self.children(node).map(|c| (c, depth + 1)));
        }
    }

    /// All `(node, doc)` pairs — diagnostics and tests.
    pub fn iter_docs(&self) -> impl Iterator<Item = (NodeId, DocId)> + '_ {
        (0..self.nodes.len() as u32)
            .flat_map(move |i| self.docs(NodeId(i)).iter().map(move |&d| (NodeId(i), d)))
    }

    /// ASCII rendering of the logical tree (labels via `dict`, document ids
    /// in brackets, tails drawn as the chains they stand for), for debugging
    /// and documentation:
    ///
    /// ```text
    /// root
    /// ├─ b:7
    /// │  └─ a:3 [d3]
    /// │     └─ c:1 [d1]
    /// └─ b:8
    ///    ├─ a:3 [d2]
    ///    └─ c:2 [d4]
    /// ```
    pub fn render(&self, dict: &ssj_json::Dictionary) -> String {
        let mut out = String::from("root\n");
        let children = self.sorted_children(NodeId::ROOT);
        for (i, child) in children.iter().enumerate() {
            self.render_node(dict, *child, "", i + 1 == children.len(), &mut out);
        }
        out
    }

    fn sorted_children(&self, node: NodeId) -> Vec<NodeId> {
        let mut cs: Vec<NodeId> = self.children(node).collect();
        // Deterministic output: order by label id.
        cs.sort_by_key(|&c| self.pair(c).avp);
        cs
    }

    fn render_node(
        &self,
        dict: &ssj_json::Dictionary,
        node: NodeId,
        prefix: &str,
        last: bool,
        out: &mut String,
    ) {
        use std::fmt::Write;
        let docs = self.docs(node);
        let doc_list = if docs.is_empty() {
            String::new()
        } else {
            let ids: Vec<String> = docs.iter().map(|d| d.to_string()).collect();
            format!(" [{}]", ids.join(", "))
        };
        // The node's own label, then its tail as a chain of only children;
        // the documents sit at the end of that chain.
        let tail = self.tail(node);
        let mut prefix = prefix.to_string();
        let mut last = last;
        for (i, pair) in std::iter::once(&self.pair(node)).chain(tail).enumerate() {
            let branch = if last { "└─ " } else { "├─ " };
            let docs = if i == tail.len() {
                doc_list.as_str()
            } else {
                ""
            };
            let _ = writeln!(out, "{prefix}{branch}{}{docs}", dict.render_avp(pair.avp));
            prefix.push_str(if last { "   " } else { "│  " });
            last = true;
        }
        let children = self.sorted_children(node);
        for (i, child) in children.iter().enumerate() {
            self.render_node(dict, *child, &prefix, i + 1 == children.len(), out);
        }
    }
}

#[inline]
fn child_key(parent: u32, avp: u32) -> u64 {
    ((parent as u64) << 32) | avp as u64
}

#[inline]
fn link(raw: u32) -> Option<NodeId> {
    if raw == NIL {
        None
    } else {
        Some(NodeId(raw))
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

    fn table1(dict: &Dictionary) -> Vec<Document> {
        docs(
            dict,
            &[
                r#"{"a":3,"b":7,"c":1}"#,
                r#"{"a":3,"b":8}"#,
                r#"{"a":3,"b":7}"#,
                r#"{"b":8,"c":2}"#,
            ],
        )
    }

    /// The tree of the paper's Fig. 4: root → {b:7 → a:3 [d3] → c:1 [d1],
    /// b:8 → a:3 [d2], b:8 → c:2 [d4]}. Every path is shared up to its last
    /// node here, so no tail survives the build.
    #[test]
    fn paper_table1_tree_shape() {
        let dict = Dictionary::new();
        let docs = table1(&dict);
        let tree = FpTree::build(&docs);

        assert_eq!(tree.doc_count(), 4);
        // Nodes: root, b:7, a:3, c:1, b:8, a:3, c:2 = 7 nodes.
        assert_eq!(tree.node_count(), 7);
        assert_eq!(tree.max_depth(), 3);

        // Root has exactly two children: b:7 and b:8.
        let roots: Vec<NodeId> = tree.children(NodeId::ROOT).collect();
        assert_eq!(roots.len(), 2);

        let b7 = dict.lookup("b", &ssj_json::Scalar::Int(7)).unwrap();
        let b8 = dict.lookup("b", &ssj_json::Scalar::Int(8)).unwrap();
        let a3 = dict.lookup("a", &ssj_json::Scalar::Int(3)).unwrap();
        let c1 = dict.lookup("c", &ssj_json::Scalar::Int(1)).unwrap();
        let c2 = dict.lookup("c", &ssj_json::Scalar::Int(2)).unwrap();

        let nb7 = tree.child(NodeId::ROOT, b7.avp).unwrap();
        let nb8 = tree.child(NodeId::ROOT, b8.avp).unwrap();
        let na3_left = tree.child(nb7, a3.avp).unwrap();
        let nc1 = tree.child(na3_left, c1.avp).unwrap();
        let na3_right = tree.child(nb8, a3.avp).unwrap();
        let nc2 = tree.child(nb8, c2.avp).unwrap();

        // Document ids land on the terminal node of each path (Fig. 4).
        assert_eq!(tree.docs(na3_left), &[DocId(3)]);
        assert_eq!(tree.docs(nc1), &[DocId(1)]);
        assert_eq!(tree.docs(na3_right), &[DocId(2)]);
        assert_eq!(tree.docs(nc2), &[DocId(4)]);
        assert!(tree.docs(nb7).is_empty());
        assert!(tree.docs(nb8).is_empty());
        assert!(tree.iter_docs().all(|(n, _)| tree.tail(n).is_empty()));
    }

    #[test]
    fn identical_documents_share_a_leaf_and_its_tail() {
        let dict = Dictionary::new();
        let docs = docs(&dict, &[r#"{"x":1,"y":2}"#, r#"{"y":2,"x":1}"#]);
        let tree = FpTree::build(&docs);
        // Root + one leaf; the second pair is the leaf's tail.
        assert_eq!(tree.node_count(), 2);
        assert_eq!(tree.max_depth(), 2);
        let terminal = tree.iter_docs().map(|(n, _)| n).next().expect("has docs");
        assert_eq!(tree.docs(terminal), &[DocId(1), DocId(2)]);
        assert_eq!(tree.tail(terminal).len(), 1);
    }

    /// The three insert cases at a leaf with a tail, each checked on the
    /// arena and on the rendered logical tree.
    #[test]
    fn tail_expands_only_as_deep_as_it_is_shared() {
        let dict = Dictionary::new();
        // Every attribute is in every doc of the first batch → order a,b,c,d.
        let base = docs(&dict, &[r#"{"a":1,"b":1,"c":1,"d":1}"#]);
        let order = AttrOrder::compute(&base);
        let leaf_of = |tree: &FpTree, id: u64| {
            tree.iter_docs()
                .find(|&(_, d)| d == DocId(id))
                .map(|(n, _)| n)
                .unwrap()
        };
        let doc = |id: u64, s: &str| Document::from_json(DocId(id), s, &dict).unwrap();

        // Ends inside the tail: a,b shared → 2 real nodes, old doc keeps c→d.
        let mut tree = FpTree::new(order.clone());
        tree.insert(&base[0]);
        assert_eq!(tree.node_count(), 2);
        tree.insert(&doc(2, r#"{"a":1,"b":1}"#));
        assert_eq!(tree.node_count(), 4);
        assert!(tree.tail(leaf_of(&tree, 2)).is_empty());
        assert_eq!(tree.tail(leaf_of(&tree, 1)).len(), 1);
        assert_eq!(tree.max_depth(), 4);

        // Ends before the tail's first pair: the leaf itself keeps the doc.
        let mut tree = FpTree::new(order.clone());
        tree.insert(&base[0]);
        let at = tree.insert(&doc(2, r#"{"a":1}"#));
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.docs(at), &[DocId(2)]);
        assert_eq!(tree.tail(leaf_of(&tree, 1)).len(), 2);

        // Diverges at the first tail pair: two leaves under the old one.
        let mut tree = FpTree::new(order.clone());
        tree.insert(&base[0]);
        tree.insert(&doc(2, r#"{"a":1,"b":2,"c":1}"#));
        assert_eq!(tree.node_count(), 4);
        assert_eq!(tree.tail(leaf_of(&tree, 1)).len(), 2);
        assert_eq!(tree.tail(leaf_of(&tree, 2)).len(), 1);

        // Diverges at the last tail pair; then a third doc equals a tail.
        let mut tree = FpTree::new(order.clone());
        tree.insert(&base[0]);
        tree.insert(&doc(2, r#"{"a":1,"b":1,"c":1,"d":2}"#));
        assert_eq!(tree.node_count(), 6);
        tree.insert(&doc(3, r#"{"a":1,"b":1,"c":1,"d":2}"#));
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.docs(leaf_of(&tree, 3)), &[DocId(2), DocId(3)]);

        // Outruns the tail: the old docs end on the last expanded node.
        let mut tree = FpTree::new(order);
        tree.insert(&doc(1, r#"{"a":1,"b":1}"#));
        tree.insert(&doc(2, r#"{"a":1,"b":1,"c":1,"d":1}"#));
        assert_eq!(tree.node_count(), 4);
        assert!(tree.tail(leaf_of(&tree, 1)).is_empty());
        assert_eq!(tree.tail(leaf_of(&tree, 2)).len(), 1);
        let rendered = tree.render(&dict);
        assert!(rendered.contains("b:1 [d1]"), "{rendered}");
        assert!(rendered.contains("d:1 [d2]"), "{rendered}");
    }

    #[test]
    fn empty_tree() {
        let tree = FpTree::build(&[]);
        assert_eq!(tree.doc_count(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.max_depth(), 0);
    }

    #[test]
    fn insertion_after_build_with_unseen_attrs() {
        let dict = Dictionary::new();
        let docs = table1(&dict);
        let mut tree = FpTree::build(&docs);
        let late = Document::from_json(DocId(99), r#"{"b":7,"zz":42}"#, &dict).unwrap();
        let node = tree.insert(&late);
        assert_eq!(tree.docs(node), &[DocId(99)]);
        assert_eq!(tree.doc_count(), 5);
        // zz is unseen by the order; it must sort after all ranked attrs,
        // i.e. directly under b:7.
        let b7 = dict.lookup("b", &ssj_json::Scalar::Int(7)).unwrap();
        let nb7 = tree.child(NodeId::ROOT, b7.avp).unwrap();
        assert!(tree.children(nb7).any(|c| c == node));
        assert_eq!(dict.attr_name(tree.pair(node).attr), "zz");
    }

    /// Doc slices must stay correct across the pool's relocation and
    /// sealing machinery: interleave inserts across many terminal nodes so
    /// slices grow past their capacity and relocate repeatedly.
    #[test]
    fn shared_pool_survives_interleaved_growth_and_seal() {
        let dict = Dictionary::new();
        let mut docs = Vec::new();
        let mut id = 0u64;
        // 8 distinct paths, 9 docs each, round-robin so every append after
        // the first round hits a slice that is not at the pool's end.
        for _round in 0..9 {
            for path in 0..8 {
                id += 1;
                docs.push(
                    Document::from_json(
                        DocId(id),
                        &format!(r#"{{"p":{path},"q":{}}}"#, path * 10),
                        &dict,
                    )
                    .unwrap(),
                );
            }
        }
        let mut tree = FpTree::build(&docs);
        let expect =
            |path: u64| -> Vec<DocId> { (0..9).map(|r| DocId(r * 8 + path + 1)).collect() };
        let terminals: Vec<NodeId> = {
            let mut seen: Vec<NodeId> = tree.iter_docs().map(|(n, _)| n).collect();
            seen.dedup();
            seen
        };
        assert_eq!(terminals.len(), 8);
        assert_eq!(tree.pool.len(), tree.doc_count());
        for (path, &node) in terminals.iter().enumerate() {
            assert_eq!(tree.docs(node), expect(path as u64), "path {path}");
        }
        // Appending after the seal relocates again; a second seal compacts.
        for path in 0..8u64 {
            let again = Document::from_pairs(DocId(100 + path), docs[path as usize].pairs().into());
            let node = tree.insert(&again);
            let mut want = expect(path);
            want.push(DocId(100 + path));
            assert_eq!(tree.docs(node), want, "grown path {path}");
        }
        tree.seal();
        assert_eq!(tree.pool.len(), tree.doc_count());
        assert_eq!(tree.tails.len(), 8);
        for (path, &node) in terminals.iter().enumerate() {
            assert_eq!(tree.docs(node).len(), 10, "sealed path {path}");
            assert_eq!(tree.tail(node).len(), 1);
        }
    }

    #[test]
    fn render_matches_fig4_structure() {
        let dict = Dictionary::new();
        let docs = table1(&dict);
        let tree = FpTree::build(&docs);
        let rendered = tree.render(&dict);
        assert!(rendered.starts_with("root\n"), "{rendered}");
        assert!(rendered.contains("b:7"));
        assert!(rendered.contains("a:3 [d3]"));
        assert!(rendered.contains("c:1 [d1]"));
        assert!(rendered.contains("a:3 [d2]"));
        assert!(rendered.contains("c:2 [d4]"));
        // Two subtrees under the root → exactly one '└─ b:' at top level.
        let top_level: Vec<&str> = rendered
            .lines()
            .filter(|l| l.starts_with("├─") || l.starts_with("└─"))
            .collect();
        assert_eq!(top_level.len(), 2, "{rendered}");
    }

    /// A tail renders as the chain of only children it stands for.
    #[test]
    fn render_expands_tails() {
        let dict = Dictionary::new();
        let docs = docs(&dict, &[r#"{"x":1,"y":2,"z":3}"#]);
        let tree = FpTree::build(&docs);
        assert_eq!(tree.node_count(), 2);
        assert_eq!(
            tree.render(&dict),
            "root\n└─ x:1\n   └─ y:2\n      └─ z:3 [d1]\n"
        );
    }
}
