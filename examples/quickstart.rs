//! Quickstart: the paper's running examples, end to end.
//!
//! Walks through (1) the join definition on the Fig. 1 server-log documents,
//! (2) the FP-tree of Table I / Fig. 4 and the FPTreeJoin probe of Fig. 5,
//! and (3) the association-group partitioning of Fig. 3.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use schema_free_stream_joins::ssj_join::{fpjoin, fptree::FpTree};
use schema_free_stream_joins::ssj_json::{Dictionary, DocId, Document};
use schema_free_stream_joins::ssj_partition::{
    association_groups, AgPartitioner, Partitioner, RouteScratch, View,
};

fn main() {
    let dict = Dictionary::new();

    // ---- 1. Natural joins over schema-free documents (Fig. 1) ----------
    println!("== Fig. 1: joinable server-log documents ==");
    let fig1 = [
        r#"{"User":"A","Severity":"Warning"}"#,
        r#"{"User":"A","Severity":"Warning","MsgId":2}"#,
        r#"{"User":"A","Severity":"Error"}"#,
        r#"{"IP":"10.2.145.212","Severity":"Warning"}"#,
        r#"{"User":"B","Severity":"Critical","MsgId":1}"#,
        r#"{"User":"B","Severity":"Critical"}"#,
        r#"{"User":"B","Severity":"Warning"}"#,
    ];
    let docs: Vec<Document> = fig1
        .iter()
        .enumerate()
        .map(|(i, s)| Document::from_json(DocId(i as u64 + 1), s, &dict).unwrap())
        .collect();
    for (i, a) in docs.iter().enumerate() {
        for b in &docs[i + 1..] {
            if a.joins_with(b) {
                let joined = a.merge(b, DocId(100 + i as u64));
                println!("  {} ⋈ {} -> {}", a.id(), b.id(), joined.to_json(&dict));
            }
        }
    }

    // ---- 2. FP-tree and FPTreeJoin (Table I, Figs. 4–5) ----------------
    println!("\n== Table I / Fig. 5: FPTreeJoin ==");
    let table1: Vec<Document> = [
        r#"{"a":3,"b":7,"c":1}"#,
        r#"{"a":3,"b":8}"#,
        r#"{"a":3,"b":7}"#,
        r#"{"b":8,"c":2}"#,
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| Document::from_json(DocId(i as u64 + 1), s, &dict).unwrap())
    .collect();
    let tree = FpTree::build(&table1);
    println!(
        "  tree: {} nodes, depth {}, {} ubiquitous attribute(s)",
        tree.node_count(),
        tree.max_depth(),
        tree.ubiquitous()
    );
    for line in tree.render(&dict).lines() {
        println!("  {line}");
    }
    println!(
        "  {}",
        schema_free_stream_joins::ssj_join::TreeStats::of(&tree).summary()
    );
    for d in &table1 {
        let (partners, stats) = fpjoin::probe_with_stats(&tree, d, true);
        println!(
            "  probe {} -> partners {:?} (visited {} nodes, pruned {}, fast levels {})",
            d.id(),
            partners,
            stats.visited,
            stats.pruned,
            stats.fast_levels
        );
    }

    // ---- 3. Association groups (Fig. 3) ---------------------------------
    println!("\n== Fig. 3: association groups ==");
    let specs: [&[(&str, i64)]; 4] = [
        &[("A", 2), ("B", 3), ("C", 7)],
        &[("A", 7), ("B", 3), ("C", 4)],
        &[("D", 13)],
        &[("A", 7), ("C", 4)],
    ];
    let views: Vec<View> = specs
        .iter()
        .map(|doc| {
            doc.iter()
                .map(|&(a, v)| dict.intern(a, v.into()).avp)
                .collect()
        })
        .collect();
    for (i, group) in association_groups(&views).iter().enumerate() {
        let rendered: Vec<String> = group.avps.iter().map(|&a| dict.render_avp(a)).collect();
        println!(
            "  ag{} = {{{}}} load={}",
            i + 1,
            rendered.join(", "),
            group.load
        );
    }
    let table = AgPartitioner.create(&views, 2);
    let mut scratch = RouteScratch::new();
    for v in &views {
        // Every view of the creation batch matches a partition.
        table.route_into(v, &mut scratch);
        println!("  view {:?} -> machines {:?}", v, scratch.targets());
    }
}
