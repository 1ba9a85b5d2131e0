//! Quickstart: parse a handful of linked XML documents, build the HOPI
//! engine, and run connection queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hopi::prelude::*;

fn main() -> Result<(), HopiError> {
    // A tiny "digital library": three documents linked by citations
    // (XLink) and an internal cross-reference (IDREF), all behind one
    // engine handle.
    let hopi = Hopi::builder().parse([
        (
            "survey",
            r#"<article>
                 <title/>
                 <related>
                   <cite xlink:href="systems-paper"/>
                   <cite xlink:href="theory-paper#main-theorem"/>
                 </related>
               </article>"#,
        ),
        (
            "systems-paper",
            r#"<article>
                 <title/>
                 <body>
                   <sec id="eval"><p idref="impl"/></sec>
                   <sec id="impl"/>
                 </body>
                 <cite xlink:href="theory-paper"/>
               </article>"#,
        ),
        (
            "theory-paper",
            r#"<article>
                 <title/>
                 <thm id="main-theorem"/>
               </article>"#,
        ),
    ])?;

    let stats = hopi.stats();
    println!(
        "collection: {} docs, {} elements, {} links",
        stats.documents, stats.elements, stats.links
    );
    println!(
        "index built: {} partitions, {} label entries, {} ms",
        hopi.report().partitions,
        hopi.report().cover_size,
        hopi.report().total_ms
    );

    // Does the survey reach the theorem? (Path: survey → cite →
    // theory-paper root → thm, and also survey → cite → #main-theorem.)
    let survey_root = hopi.resolve("survey", "")?;
    let theorem = hopi.resolve("theory-paper", "main-theorem")?;
    println!(
        "survey //→ main-theorem: {}",
        hopi.connected(survey_root, theorem)
    );
    assert!(hopi.connected(survey_root, theorem));

    // The systems paper reaches the theorem through its own citation.
    let systems_root = hopi.resolve("systems-paper", "")?;
    assert!(hopi.connected(systems_root, theorem));

    // The theory paper cites nothing: it reaches nobody else.
    let theory_root = hopi.resolve("theory-paper", "")?;
    assert!(!hopi.connected(theory_root, survey_root));
    assert!(!hopi.connected(theory_root, systems_root));

    // Path expressions with wildcards ride the connection axis across
    // documents: every theorem reachable from some citation.
    let theorems = hopi.query("//cite//thm")?;
    assert_eq!(theorems, vec![theorem]);

    // Enumerate everything the survey reaches (descendants-or-self across
    // documents) — the building block of `//` wildcard evaluation.
    let reach = hopi.descendants(survey_root);
    println!(
        "survey reaches {} of {} elements",
        reach.len(),
        stats.elements
    );

    // Persist the cover as a frozen CSR index file and reload it.
    let path = std::env::temp_dir().join("hopi_quickstart.idx");
    hopi.save(&path)?;
    let reloaded = Hopi::open(hopi.collection().clone(), &path)?;
    assert!(reloaded.connected(survey_root, theorem));
    println!(
        "frozen index file round-trip: {} entries",
        reloaded.stats().cover_entries
    );
    std::fs::remove_file(path).ok();
    Ok(())
}
