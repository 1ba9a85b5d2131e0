//! Generated inputs: collections, read mixes and update plans.
//!
//! The collections are the ones the repository's benches generate, from
//! the generators' fixed seeds; the workload seed drives everything a run
//! does to them: the read mix, the probe pairs, the search terms, and the
//! insert and delete plans. The same seed always gives the same inputs.

use hopi_xml::{Collection, DocId, ElemId};
use rand::prelude::*;

/// Pairs per batched probe (`connected_many`).
pub const PROBE_BATCH: usize = 128;

/// Distinct probe batches in a mix; later probe reads repeat one of them.
/// Probe batches are the mix's cheapest reads, so repeats do not thin its
/// tail, and the cap keeps the mix's pairs (8 bytes each) from adding tens
/// of megabytes to the process the run measures.
pub const DISTINCT_BATCHES: usize = 1024;

/// Run sizes. [`Sizes::standard`] is what the benchmark command runs;
/// [`Sizes::tiny`] keeps the smoke tests fast.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// INEX-like collection scale (`query`, `ingest`).
    pub inex_scale: f64,
    /// DBLP-like collection scale (`maintain`).
    pub dblp_scale: f64,
    /// Set-ups per `query` and `ingest` run; `setup_s` and `build.build_ms`
    /// are their medians.
    pub setups: usize,
    /// Set-ups per `maintain` run: its build takes half a second, short
    /// enough for a passing stall to move one, so it takes more.
    pub dblp_setups: usize,
    /// Distinct reads in the mix the in-process readers cycle through.
    /// A read tail is set by the mix's costliest reads, so the mix is long
    /// enough for the top percent to hold hundreds of them.
    pub read_ops: usize,
    /// `ingest`: distinct reads of the open-loop reader's mix.
    pub reader_ops: usize,
    /// Distinct probe sources (each probe pair starts at one). A probe's
    /// cost depends on its source's labels, and the read median falls
    /// among the probe batches, so the sources are many enough for one
    /// seed's sample to cost about what another's does.
    pub probe_sources: usize,
    /// `ingest`: documents inserted.
    pub ingest_docs: usize,
    /// `ingest`: links inserted.
    pub ingest_links: usize,
    /// `ingest`: the open-loop reader's rate, reads per second.
    pub reader_rate: f64,
    /// `maintain`: links deleted and re-inserted.
    pub link_churns: usize,
    /// Pairs checked against BFS after a plan.
    pub check_pairs: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn standard() -> Self {
        Sizes {
            inex_scale: 0.001,
            dblp_scale: 0.015,
            setups: 3,
            dblp_setups: 9,
            read_ops: 8192,
            reader_ops: 4096,
            probe_sources: 2048,
            ingest_docs: 150,
            ingest_links: 50,
            reader_rate: 50.0,
            link_churns: 8,
            check_pairs: 4096,
        }
    }

    /// Tiny sizes for smoke tests.
    pub fn tiny() -> Self {
        Sizes {
            inex_scale: 0.00002,
            dblp_scale: 0.005,
            setups: 2,
            dblp_setups: 2,
            read_ops: 64,
            reader_ops: 64,
            probe_sources: 8,
            ingest_docs: 6,
            ingest_links: 2,
            reader_rate: 200.0,
            link_churns: 1,
            check_pairs: 256,
        }
    }
}

/// The INEX-like collection with about two cross-document links per
/// document ("INEX-linked"), as the repository's serving benches build it.
pub fn inex_linked(scale: f64) -> Collection {
    let mut collection = hopi_bench::inex_collection(scale);
    hopi_bench::add_cross_links(&mut collection);
    collection
}

/// Content-predicate operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentOp {
    /// `contains(., "…")`: every term.
    Contains,
    /// `about(., "…")`: any term.
    About,
}

/// A descendant-axis path expression, optionally with a content
/// predicate on its last step.
#[derive(Clone, Debug)]
pub struct PathExpr {
    /// Step tags, in order (`//t0//t1…`).
    pub tags: Vec<&'static str>,
    /// Predicate on the last step.
    pub predicate: Option<(ContentOp, Vec<String>)>,
}

impl PathExpr {
    fn structural(tags: &[&'static str]) -> Self {
        PathExpr {
            tags: tags.to_vec(),
            predicate: None,
        }
    }

    fn content(tags: &[&'static str], op: ContentOp, terms: Vec<String>) -> Self {
        PathExpr {
            tags: tags.to_vec(),
            predicate: Some((op, terms)),
        }
    }

    /// The expression in the engine's path syntax.
    pub fn render(&self) -> String {
        let mut s: String = self.tags.iter().map(|t| format!("//{t}")).collect();
        if let Some((op, terms)) = &self.predicate {
            let f = match op {
                ContentOp::Contains => "contains",
                ContentOp::About => "about",
            };
            s.push_str(&format!("[{f}(., \"{}\")]", terms.join(" ")));
        }
        s
    }
}

/// Which collection shape a read mix targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// INEX-like articles.
    Inex,
    /// DBLP-like publications.
    Dblp,
}

/// A seeded term `term<k>` among the `hot` most frequent ones.
fn term(rng: &mut StdRng, hot: usize) -> String {
    format!("term{}", rng.gen_range(0..hot))
}

/// The structure-only expressions of a shape.
pub fn path_exprs(shape: Shape) -> Vec<PathExpr> {
    let tags: &[&[&'static str]] = match shape {
        Shape::Inex => &[
            &["article", "fig"],
            &["ss1", "p"],
            &["bdy", "ip1"],
            &["ss2", "it"],
            &["article", "ss2", "b"],
        ],
        Shape::Dblp => &[
            &["article", "author"],
            &["cite", "title"],
            &["citations", "year"],
            &["cite", "citations", "name"],
        ],
    };
    tags.iter().map(|t| PathExpr::structural(t)).collect()
}

/// The content-and-structure expressions of a shape, with seeded terms.
pub fn content_exprs(shape: Shape, rng: &mut StdRng) -> Vec<PathExpr> {
    use ContentOp::{About, Contains};
    match shape {
        Shape::Inex => vec![
            PathExpr::content(&["article", "p"], Contains, vec![term(rng, 8)]),
            PathExpr::content(&["ss1", "p"], Contains, vec![term(rng, 4), term(rng, 16)]),
            PathExpr::content(
                &["bdy", "ss2"],
                About,
                vec![term(rng, 16), term(rng, 16), term(rng, 16)],
            ),
            PathExpr::content(&["ss1", "it"], About, vec![term(rng, 8)]),
        ],
        Shape::Dblp => vec![
            PathExpr::content(&["article", "title"], Contains, vec![term(rng, 8)]),
            PathExpr::content(
                &["cite", "author"],
                About,
                vec![term(rng, 16), term(rng, 16)],
            ),
        ],
    }
}

/// One read of the mix.
#[derive(Clone, Copy, Debug)]
pub enum ReadOp {
    /// A batch of [`PROBE_BATCH`] connection probes (index into
    /// [`ReadMix::batches`]).
    ProbeBatch(usize),
    /// Everything an element reaches.
    Descendants(ElemId),
    /// A structure-only path query (index into [`ReadMix::paths`]).
    Path(usize),
    /// A content-and-structure query (index into [`ReadMix::contents`]).
    Content(usize),
}

impl ReadOp {
    /// Class name, as used in metric names.
    pub fn class(&self) -> &'static str {
        match self {
            ReadOp::ProbeBatch(_) => "probe_batch",
            ReadOp::Descendants(_) => "descendants",
            ReadOp::Path(_) => "path",
            ReadOp::Content(_) => "content",
        }
    }
}

/// Share of each read class in the mix, in percent: probe batches,
/// descendants, path queries, content queries.
pub const READ_MIX_PERCENT: [u32; 4] = [40, 20, 20, 20];

/// A seeded read mix over one collection.
#[derive(Clone, Debug)]
pub struct ReadMix {
    /// The operations, in the order a reader issues them.
    pub ops: Vec<ReadOp>,
    /// Probe batches.
    pub batches: Vec<Vec<(ElemId, ElemId)>>,
    /// Elements every probe pair starts from.
    pub sources: Vec<ElemId>,
    /// Structure-only expressions.
    pub paths: Vec<PathExpr>,
    /// Content-and-structure expressions.
    pub contents: Vec<PathExpr>,
}

/// Live element ids of a collection.
pub fn live_elements(collection: &Collection) -> Vec<ElemId> {
    let mut out = Vec::with_capacity(collection.element_count());
    for d in collection.doc_ids() {
        let len = collection.document(d).map_or(0, |doc| doc.len()) as u32;
        let base = collection.global_id(d, 0);
        out.extend(base..base + len);
    }
    out
}

/// Builds the seeded read mix of `n` operations.
pub fn read_mix(
    collection: &Collection,
    shape: Shape,
    n: usize,
    sources: usize,
    seed: u64,
) -> ReadMix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_4ead);
    let live = live_elements(collection);
    let sources: Vec<ElemId> = (0..sources.max(1))
        .map(|_| live[rng.gen_range(0..live.len())])
        .collect();
    let paths = path_exprs(shape);
    let contents = content_exprs(shape, &mut rng);
    let mut batches = Vec::new();
    let mut ops = Vec::with_capacity(n);
    let [probe, desc, path, _] = READ_MIX_PERCENT;
    for _ in 0..n {
        let roll = rng.gen_range(0..100u32);
        let op = if roll < probe && batches.len() == DISTINCT_BATCHES {
            ReadOp::ProbeBatch(rng.gen_range(0..DISTINCT_BATCHES))
        } else if roll < probe {
            let batch = (0..PROBE_BATCH)
                .map(|_| {
                    (
                        sources[rng.gen_range(0..sources.len())],
                        live[rng.gen_range(0..live.len())],
                    )
                })
                .collect();
            batches.push(batch);
            ReadOp::ProbeBatch(batches.len() - 1)
        } else if roll < probe + desc {
            ReadOp::Descendants(live[rng.gen_range(0..live.len())])
        } else if roll < probe + desc + path {
            ReadOp::Path(rng.gen_range(0..paths.len()))
        } else {
            ReadOp::Content(rng.gen_range(0..contents.len()))
        };
        ops.push(op);
    }
    ReadMix {
        ops,
        batches,
        sources,
        paths,
        contents,
    }
}

/// One durable insert of the `ingest` plan.
#[derive(Clone, Debug)]
pub enum Insert {
    /// `POST /documents?name=…` with an article citing existing documents.
    Doc {
        /// Document name.
        name: String,
        /// Document XML.
        xml: String,
    },
    /// `POST /links` between existing elements.
    Link {
        /// Source element.
        from: ElemId,
        /// Target element (a document root).
        to: ElemId,
    },
}

/// A few seeded words of text.
fn words(rng: &mut StdRng, n: usize) -> String {
    (0..n).map(|_| term(rng, 64)).collect::<Vec<_>>().join(" ")
}

/// A small INEX-like article citing `cites`.
fn inex_article(rng: &mut StdRng, cites: &[String]) -> String {
    let mut xml = format!(
        "<article><fm><ti>{}</ti><au>{}</au></fm><bdy>",
        words(rng, 4),
        words(rng, 2)
    );
    for c in cites {
        xml.push_str(&format!(
            "<ss1><p>{}</p><ss2><p>{}<cite xlink:href=\"{c}\"/></p></ss2></ss1>",
            words(rng, 8),
            words(rng, 6)
        ));
    }
    xml.push_str("</bdy></article>");
    xml
}

/// A new article citing 1–3 of `targets` (by name).
fn new_doc(rng: &mut StdRng, name: String, targets: &[String]) -> Insert {
    let k = rng.gen_range(1..4usize);
    let cites: Vec<String> = (0..k)
        .map(|_| targets[rng.gen_range(0..targets.len())].clone())
        .collect();
    let xml = inex_article(rng, &cites);
    Insert::Doc { name, xml }
}

/// A new link from a random element of one of `docs` to the root of
/// another.
fn new_link(rng: &mut StdRng, collection: &Collection, docs: &[DocId]) -> Insert {
    loop {
        let (a, b) = (
            docs[rng.gen_range(0..docs.len())],
            docs[rng.gen_range(0..docs.len())],
        );
        if a == b {
            continue;
        }
        let len = collection.document(a).map_or(1, |d| d.len()) as u32;
        return Insert::Link {
            from: collection.global_id(a, rng.gen_range(0..len)),
            to: collection.global_id(b, 0),
        };
    }
}

/// The `ingest` plan: `docs` document inserts and `links` link inserts,
/// interleaved so links are spread evenly (about three documents per
/// link at the standard sizes). Every target is a document of the
/// original collection, so no insert depends on another. The inserts are
/// the same for every seed, and the seed sets their order: how much the
/// cover grows, and with it what each later insert costs, depends on the
/// documents the inserts cite. Drawn per seed, they moved the final
/// `cover_entries_per_element` between 147 and 166 over ten seeds, and
/// `ops_per_s` and `peak_rss_mb` with it.
pub fn ingest_plan(collection: &Collection, docs: usize, links: usize, seed: u64) -> Vec<Insert> {
    let mut fixed = StdRng::seed_from_u64(0x001a_6e57);
    let originals: Vec<DocId> = collection.doc_ids().collect();
    let names: Vec<String> = originals
        .iter()
        .filter_map(|&d| collection.document(d).map(|doc| doc.name.clone()))
        .collect();
    let mut new_docs: Vec<Insert> = (0..docs)
        .map(|d| new_doc(&mut fixed, format!("bench-{d}"), &names))
        .collect();
    let mut new_links: Vec<Insert> = (0..links)
        .map(|_| new_link(&mut fixed, collection, &originals))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001a_6e57);
    new_docs.shuffle(&mut rng);
    new_links.shuffle(&mut rng);
    let (mut new_docs, mut new_links) = (new_docs.into_iter(), new_links.into_iter());
    let total = docs + links;
    let mut plan = Vec::with_capacity(total);
    let (mut d, mut l) = (0, 0);
    for i in 0..total {
        // Spread the links evenly: the k-th lands once ⌊(i+1)·links/total⌋ > k.
        let link_due = l < links && (i + 1) * links / total > l;
        if link_due || d == docs {
            plan.extend(new_links.next());
            l += 1;
        } else {
            plan.extend(new_docs.next());
            d += 1;
        }
    }
    plan
}

/// One step of the `maintain` plan, naming documents and elements by
/// their ids in the freshly built collection (re-inserts renumber them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintainOp {
    /// Delete a document, then insert it again with all its links.
    ChurnDoc(DocId),
    /// Delete an inter-document link, then insert it again.
    ChurnLink(ElemId, ElemId),
}

/// The `maintain` plan, in seeded order: every document is deleted and
/// re-inserted once, as are `link_churns` sampled links. Churning every
/// document makes both kinds of delete — the §6.2 separator (Theorem 2)
/// and the general one (Theorem 3) — the collection's own population
/// rather than a sample.
///
/// The link sample is the same for every seed, and the seed sets the
/// order. Single link deletes range over several hundred milliseconds,
/// so a per-seed sample of 24 moved the plan's time by more than a
/// quarter over ten seeds.
pub fn maintain_plan(collection: &Collection, link_churns: usize, seed: u64) -> Vec<MaintainOp> {
    let mut links: Vec<(ElemId, ElemId)> =
        collection.links().iter().map(|l| (l.from, l.to)).collect();
    links.shuffle(&mut StdRng::seed_from_u64(0x3a1e_7a1e));
    let mut ops: Vec<MaintainOp> = collection
        .doc_ids()
        .map(MaintainOp::ChurnDoc)
        .chain(
            links
                .into_iter()
                .take(link_churns)
                .map(|(f, t)| MaintainOp::ChurnLink(f, t)),
        )
        .collect();
    ops.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x3a1e_7a1e));
    ops
}

/// Distinct sources of the post-plan BFS cross-check.
const CHECK_SOURCES: usize = 64;

/// Seeded `(u, v)` pairs for a post-plan BFS cross-check: `n` pairs from
/// [`CHECK_SOURCES`] sources over the live elements.
pub fn check_pairs(collection: &Collection, n: usize, seed: u64) -> Vec<(ElemId, ElemId)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ec_c0de);
    let live = live_elements(collection);
    let src: Vec<ElemId> = (0..CHECK_SOURCES)
        .map(|_| live[rng.gen_range(0..live.len())])
        .collect();
    (0..n)
        .map(|_| {
            (
                src[rng.gen_range(0..src.len())],
                live[rng.gen_range(0..live.len())],
            )
        })
        .collect()
}
