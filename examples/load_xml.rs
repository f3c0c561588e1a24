//! Zero-configuration keyword search over ad-hoc XML: no schema, no TSS
//! design — everything is inferred from the document.
//!
//! ```sh
//! cargo run --example load_xml
//! ```

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;

const LIBRARY_XML: &str = r#"
<library>
  <shelf><topic>databases</topic>
    <book id="b1"><title>Query Processing on Labeled Graphs</title><isbn>11</isbn>
      <author idref="a1"/><author idref="a2"/>
    </book>
    <book id="b2"><title>Keyword Search over Semistructured Data</title><isbn>12</isbn>
      <author idref="a2"/>
      <cites idref="b1"/>
    </book>
  </shelf>
  <shelf><topic>systems</topic>
    <book id="b3"><title>Buffer Pools in Anger</title><isbn>13</isbn>
      <author idref="a3"/>
      <cites idref="b2"/>
    </book>
  </shelf>
</library>
<writer id="a1"><name>Ada</name><country>UK</country></writer>
<writer id="a2"><name>Erhard</name><country>DE</country></writer>
<writer id="a3"><name>Priya</name><country>IN</country></writer>
"#;

fn main() {
    let xk = XKeyword::load_xml(LIBRARY_XML, LoadOptions::default())
        .expect("schema and segments inferred from the document");

    println!("Inferred design:");
    for t in xk.tss.node_ids() {
        let n = xk.tss.node(t);
        let members: Vec<&str> = n.members.iter().map(|&m| xk.tss.schema().tag(m)).collect();
        println!("  segment {:<10} = {{{}}}", n.name, members.join(", "));
    }
    let dummies: Vec<&str> = xk
        .tss
        .schema()
        .node_ids()
        .filter(|&s| xk.tss.is_dummy(s))
        .map(|s| xk.tss.schema().tag(s))
        .collect();
    println!("  dummy connectors: {{{}}}", dummies.join(", "));

    for query in [
        vec!["ada", "erhard"],      // co-authors of b1
        vec!["priya", "ada"],       // connected only through the citation chain
        vec!["databases", "anger"], // topic to a book in another shelf
    ] {
        println!("\nquery: {query:?}");
        let res = xk
            .engine()
            .query(&QuerySpec::all(
                &query,
                10,
                ExecMode::Cached { capacity: 2048 },
            ))
            .unwrap()
            .results;
        let mut ranked = res.mttons();
        ranked.sort_by_key(|m| m.score);
        for m in ranked.iter().take(4) {
            let labels: Vec<String> = m.tos.iter().map(|&t| xk.label(t)).collect();
            println!("  size {:>2}: {}", m.score, labels.join(" — "));
        }
        if ranked.is_empty() {
            println!("  (no connection within size 10)");
        }
    }
}
