//! `perfbench-worker`: the in-process half of the end-to-end benchmark.
//!
//! `perfbench/run.py` starts one worker per run and talks to it over
//! stdin/stdout, one command per line and one JSON reply per line. The
//! worker owns everything that has to live across the run: the generated
//! inputs, the reference answers, the durable serving session and the
//! benchmark's own mirror of that session's edge set. The `hcd-cli`
//! processes are started and timed by `run.py`.
//!
//! Commands: `setup`, `reference`, `check-index <path>`,
//! `check-search <k> <n> <m> <b> <score>`, `segment`, `layers`,
//! `metrics <path>`, `quit`.

mod check;

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use check::{check_answers, check_coreness, community_score, peel, Adj, Forest, Tree};
use hcd::prelude::*;

/// Operations in one serving segment; one in eight is a write batch.
const SEGMENT_OPS: usize = 64;
/// Edge updates per write batch: half inserts, half removals.
const WRITE_BATCH: usize = 16;
/// Queries per read batch.
const READ_BATCH: usize = 32;
/// Write batches applied before the first segment. With a checkpoint
/// every 8 batches and 8 writes per segment, every recovery then replays
/// exactly this many WAL records. Replay cost depends on which batches a
/// seed draws (4 replayed records varied ~15% between seeds), so one.
const WARMUP_WRITES: usize = 1;
/// Recoveries of the durability directory after each segment.
const RECOVERIES: usize = 2;
/// Vertices in the hot set that half of the `rmat-hot` reads hit.
const HOT_VERTICES: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    RmatHot,
    ErUniform,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "rmat-hot" => Some(Workload::RmatHot),
            "er-uniform" => Some(Workload::ErUniform),
            _ => None,
        }
    }

    /// The graph `hcd-cli build` and `hcd-cli search` index.
    fn index_graph(self, seed: u64) -> CsrGraph {
        match self {
            Workload::RmatHot => rmat(17, 8, None, seed),
            Workload::ErUniform => gnp(1 << 17, 16.0 / ((1u64 << 17) - 1) as f64, seed),
        }
    }

    /// The graph the durable service starts from.
    fn serve_graph(self, seed: u64) -> CsrGraph {
        match self {
            Workload::RmatHot => rmat(14, 8, None, seed),
            Workload::ErUniform => gnp(10_000, 0.001, seed),
        }
    }

    fn hot_fraction(self) -> f64 {
        match self {
            Workload::RmatHot => 0.5,
            Workload::ErUniform => 0.0,
        }
    }
}

/// SplitMix64: the benchmark's own seeded stream, independent of the
/// program's generators.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next()
}

/// The benchmark's mirror of the service's edge set.
struct Mirror {
    n: u32,
    edges: Vec<(u32, u32)>,
    slot: HashMap<(u32, u32), usize>,
}

impl Mirror {
    fn new(g: &CsrGraph) -> Mirror {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let slot = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Mirror {
            n: g.num_vertices() as u32,
            edges,
            slot,
        }
    }

    fn key(u: u32, v: u32) -> (u32, u32) {
        (u.min(v), u.max(v))
    }

    fn insert(&mut self, u: u32, v: u32) {
        let e = Mirror::key(u, v);
        self.slot.insert(e, self.edges.len());
        self.edges.push(e);
    }

    fn remove(&mut self, u: u32, v: u32) {
        let i = self
            .slot
            .remove(&Mirror::key(u, v))
            .expect("removed edges are drawn from the mirror");
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.slot.insert(moved, i);
        }
    }

    /// Coreness and hierarchy of the mirrored graph.
    fn reference(&self) -> (Vec<u32>, Forest) {
        let adj = Adj::from_edges(self.n as usize, &self.edges);
        let core = peel(&adj);
        let forest = Forest::build(&adj, &core);
        (core, forest)
    }
}

/// Reference results for the indexed graph.
struct IndexRef {
    forest: Forest,
    adj: Adj,
    bks_score: f64,
    /// The search answer already recomputed on the adjacency lists.
    verified: Option<(u32, u64, u64, u64, f64)>,
}

struct Session {
    svc: HcdService,
    mirror: Mirror,
    rng: Rng,
    /// Coreness at the start of the session; query levels are drawn
    /// from it.
    core0: Vec<u32>,
    hot: Vec<(u32, u32)>,
    /// Share of read queries that go to the hot set.
    hot_fraction: f64,
    /// Generation of the last acknowledged write.
    generation: u64,
    /// Ops issued so far; in traced runs, odd ones use the traced executor.
    issued: u64,
}

struct Worker {
    workload: Workload,
    seed: u64,
    work: PathBuf,
    traced: bool,
    plain: Executor,
    /// Metrics and histograms armed; used for every other serving op in
    /// traced runs, so the per-layer counters and the tracing overhead
    /// come from the same run.
    tracing: Executor,
    serve_graph: Option<CsrGraph>,
    fresh_svc: Option<HcdService>,
    index: Option<IndexRef>,
    session: Option<Session>,
}

fn json_list<T: std::fmt::Display>(xs: &[T]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Worker {
    fn state_dir(&self) -> PathBuf {
        self.work.join("state")
    }

    fn edges_path(&self) -> PathBuf {
        self.work.join("edges.txt")
    }

    /// Generates both graphs, writes the text edge list and creates the
    /// durable service with its first checkpoint. Returns seconds.
    fn setup(&mut self) -> Result<String, String> {
        self.session = None;
        self.fresh_svc = None;
        let state = self.state_dir();
        if state.exists() {
            std::fs::remove_dir_all(&state).map_err(|e| format!("clear state: {e}"))?;
        }
        let t = Instant::now();
        let g = self.workload.index_graph(derive_seed(self.seed, 1));
        let file = File::create(self.edges_path()).map_err(|e| format!("edge list: {e}"))?;
        hcd::graph::io::write_edge_list(&g, file).map_err(|e| format!("edge list: {e}"))?;
        let s = self.workload.serve_graph(derive_seed(self.seed, 2));
        let svc = HcdService::try_new_durable(&s, &state, DurabilityConfig::default(), &self.plain)
            .map_err(|e| format!("durable service: {e}"))?
            .with_cache(CacheConfig::default());
        let secs = t.elapsed().as_secs_f64();
        drop(g);
        self.serve_graph = Some(s);
        self.fresh_svc = Some(svc);
        Ok(format!("{{\"setup_s\":{secs}}}"))
    }

    /// Computes the reference results (untimed) and starts the session.
    fn reference(&mut self) -> Result<String, String> {
        let g = hcd::graph::io::read_edge_list_file(self.edges_path())
            .map_err(|e| format!("read edge list: {e}"))?;
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let adj = Adj::from_edges(g.num_vertices(), &edges);
        drop(edges);
        let core = peel(&adj);
        let forest = Forest::build(&adj, &core);
        let cores = pkc_core_decomposition(&g, &self.plain);
        check_coreness(cores.as_slice(), &core).map_err(|e| format!("index graph: {e}"))?;
        let hcd = phcd(&g, &cores, &self.plain);
        forest
            .check(&Tree::of(&hcd))
            .map_err(|e| format!("index graph: {e}"))?;
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let best = bks(&ctx, &Metric::ClusteringCoefficient).ok_or("empty index graph")?;
        let index_info = format!(
            "{{\"n\":{},\"m\":{},\"kmax\":{},\"tree_nodes\":{}}}",
            g.num_vertices(),
            g.num_edges(),
            core.iter().max().copied().unwrap_or(0),
            forest.num_nodes()
        );
        self.index = Some(IndexRef {
            forest,
            adj,
            bks_score: best.score,
            verified: None,
        });

        let s = self.serve_graph.take().ok_or("setup has not run")?;
        let svc = self.fresh_svc.take().ok_or("setup has not run")?;
        let mirror = Mirror::new(&s);
        let (core0, forest) = mirror.reference();
        let mut rng = Rng(derive_seed(self.seed, 3));
        let candidates: Vec<u32> = (0..mirror.n).filter(|&v| core0[v as usize] >= 2).collect();
        let hot = (0..HOT_VERTICES)
            .map(|_| {
                let v = candidates[rng.below(candidates.len() as u64) as usize];
                (v, 1 + rng.below(core0[v as usize] as u64) as u32)
            })
            .collect();
        let serve_info = format!(
            "{{\"n\":{},\"m\":{},\"kmax\":{},\"tree_nodes\":{}}}",
            s.num_vertices(),
            s.num_edges(),
            core0.iter().max().copied().unwrap_or(0),
            forest.num_nodes()
        );
        let mut session = Session {
            svc,
            mirror,
            rng,
            core0,
            hot,
            hot_fraction: self.workload.hot_fraction(),
            generation: 0,
            issued: 0,
        };
        for _ in 0..WARMUP_WRITES {
            let updates = session.draw_write();
            session
                .svc
                .try_apply_batch(&updates, &self.plain)
                .map_err(|e| format!("warm-up write: {e}"))?;
            session.commit(&updates);
        }
        self.session = Some(session);
        Ok(format!("{{\"index\":{index_info},\"serve\":{serve_info}}}"))
    }

    fn check_index(&self, path: &str) -> Result<String, String> {
        let index = self.index.as_ref().ok_or("reference has not run")?;
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        index.forest.check(&Tree::parse_index(&bytes)?)?;
        Ok("{\"ok\":true}".into())
    }

    /// Checks `hcd-cli search` output: the printed k-core, recomputed on
    /// the adjacency lists, must score what the serial `bks` baseline
    /// scores.
    fn check_search(&mut self, args: &[&str]) -> Result<String, String> {
        let index = self.index.as_mut().ok_or("reference has not run")?;
        let (k, n, m, b, printed) = match args {
            [k, n, m, b, score] => (
                k.parse::<u32>().ok(),
                n.parse::<u64>().ok(),
                m.parse::<u64>().ok(),
                b.parse::<u64>().ok(),
                score.parse::<f64>().ok(),
            ),
            _ => return Err("check-search takes k n m b score".into()),
        };
        let (Some(k), Some(n), Some(m), Some(b), Some(printed)) = (k, n, m, b, printed) else {
            return Err("malformed check-search arguments".into());
        };
        let score = match index.verified {
            Some((vk, vn, vm, vb, s)) if (vk, vn, vm, vb) == (k, n, m, b) => s,
            _ => {
                let found = index
                    .forest
                    .cores_at(k)
                    .filter(|&x| index.forest.subtree_size(x) == n)
                    .map(|x| community_score(&index.adj, &index.forest.subtree_vertices(x)))
                    .find(|&(cn, cm, cb, _)| (cn, cm, cb) == (n, m, b));
                let (_, _, _, s) =
                    found.ok_or_else(|| format!("no {k}-core with n={n} m={m} b={b}"))?;
                index.verified = Some((k, n, m, b, s));
                s
            }
        };
        check::check_search(score, printed, index.bks_score)?;
        Ok("{\"ok\":true}".into())
    }

    /// One serving segment (64 ops), then a crash and recovery.
    fn segment(&mut self) -> Result<String, String> {
        let traced = self.traced;
        let (plain, tracing) = (&self.plain, &self.tracing);
        let state = self.work.join("state");
        let s = self.session.as_mut().ok_or("reference has not run")?;
        let mut writes: Vec<String> = Vec::new();
        let mut reads: Vec<String> = Vec::new();
        let mut recovers: Vec<u64> = Vec::new();
        // One flag per operation: the segment's ops, then the recoveries.
        let mut bad = [false; SEGMENT_OPS + RECOVERIES];
        let mut why: Vec<String> = Vec::new();
        // Read batches answered after the segment's last write; checked
        // against the mirror once the segment ends.
        let mut tail_reads: Vec<(usize, Vec<Query>, BatchAnswers)> = Vec::new();
        let mut last_write = 0;
        for block in 0..SEGMENT_OPS / 8 {
            let write_at = s.rng.below(7) as usize;
            for pos in 0..8 {
                let op = block * 8 + pos;
                let on_trace = traced && s.issued % 2 == 1;
                let exec = if on_trace { tracing } else { plain };
                s.issued += 1;
                if pos == write_at {
                    last_write = op;
                    let updates = s.draw_write();
                    let t = Instant::now();
                    let res = s.svc.try_apply_batch(&updates, exec);
                    let dt = ns(t);
                    writes.push(format!("[{dt},{}]", on_trace as u8));
                    match res {
                        Ok(r)
                            if r.generation == s.generation + 1
                                && r.value.applied == WRITE_BATCH =>
                        {
                            s.commit(&updates);
                        }
                        Ok(r) => {
                            bad[op] = true;
                            why.push(format!(
                                "write answered generation {} applied {}",
                                r.generation, r.value.applied
                            ));
                            s.commit(&updates);
                        }
                        Err(e) => {
                            bad[op] = true;
                            why.push(format!("write failed: {e}"));
                        }
                    }
                    tail_reads.clear();
                } else {
                    let queries = s.draw_reads();
                    let t = Instant::now();
                    let res = s.svc.try_query_batch(&queries, exec);
                    let dt = ns(t);
                    reads.push(format!("[{dt},{},{}]", queries.len(), on_trace as u8));
                    match res {
                        Ok(a) if a.generation == s.generation => {
                            if block == SEGMENT_OPS / 8 - 1 {
                                tail_reads.push((op, queries, a));
                            }
                        }
                        Ok(a) => {
                            bad[op] = true;
                            why.push(format!("read answered from generation {}", a.generation));
                        }
                        Err(e) => {
                            bad[op] = true;
                            why.push(format!("read failed: {e}"));
                        }
                    }
                }
            }
        }
        let (core, forest) = s.mirror.reference();
        for (op, queries, answers) in &tail_reads {
            if let Err(e) = check_answers(&forest, &core, queries, &answers.answers) {
                bad[*op] = true;
                why.push(format!("read batch: {e}"));
            }
        }
        // The published end state is the last write's outcome.
        if let Err(e) = s.check_published(&core, &forest) {
            bad[last_write] = true;
            why.push(format!("after the session: {e}"));
        }
        // Crash: drop the service without any shutdown step, then recover
        // from what the WAL and checkpoints hold.
        let dummy = HcdService::try_new(&CsrGraph::empty(0), plain)
            .map_err(|e| format!("placeholder service: {e}"))?;
        drop(std::mem::replace(&mut s.svc, dummy));
        for failed in &mut bad[SEGMENT_OPS..] {
            let t = Instant::now();
            let res = HcdService::recover(&state, DurabilityConfig::default(), plain);
            recovers.push(ns(t));
            match res {
                Ok((svc, report)) => {
                    s.svc = svc.with_cache(CacheConfig::default());
                    let outcome = if s.svc.generation() != s.generation {
                        Err(format!(
                            "recovered generation {} after acknowledging {}",
                            s.svc.generation(),
                            s.generation
                        ))
                    } else if report.replayed != WARMUP_WRITES {
                        Err(format!("replayed {} WAL records", report.replayed))
                    } else {
                        s.check_published(&core, &forest)
                    };
                    if let Err(e) = outcome {
                        *failed = true;
                        why.push(format!("after recovery: {e}"));
                    }
                }
                Err(e) => {
                    *failed = true;
                    why.push(format!("recovery failed: {e}"));
                }
            }
        }
        let why: Vec<String> = why.iter().map(|w| json_str(w)).collect();
        let (attempted, failed) = (bad.len(), bad.iter().filter(|&&b| b).count());
        Ok(format!(
            "{{\"writes\":[{}],\"reads\":[{}],\"recovers\":{},\"attempted\":{attempted},\"failed\":{failed},\"why\":[{}]}}",
            writes.join(","),
            reads.join(","),
            json_list(&recovers),
            why.join(",")
        ))
    }

    /// Times each layer's public functions from outside (traced runs).
    fn layers(&mut self) -> Result<String, String> {
        let exec = &self.plain;
        let index = self.index.as_ref().ok_or("reference has not run")?;
        let s = self.session.as_ref().ok_or("reference has not run")?;
        let mut out: Vec<(&str, f64)> = Vec::new();
        let mut problems: Vec<String> = Vec::new();

        let t = Instant::now();
        let g = hcd::graph::io::read_edge_list_file(self.edges_path())
            .map_err(|e| format!("parse: {e}"))?;
        out.push(("graph.parse_s", t.elapsed().as_secs_f64()));
        let t = Instant::now();
        let cores = pkc_core_decomposition(&g, exec);
        out.push(("decomp.pkc_s", t.elapsed().as_secs_f64()));
        let t = Instant::now();
        let hcd = phcd(&g, &cores, exec);
        out.push(("core.phcd_s", t.elapsed().as_secs_f64()));
        if let Err(e) = index.forest.check(&Tree::of(&hcd)) {
            problems.push(format!("phcd: {e}"));
        }
        // Unbuffered, as `hcd-cli build` writes it.
        let path = self.work.join("layer.hcd");
        let t = Instant::now();
        let file = File::create(&path).map_err(|e| format!("index file: {e}"))?;
        hcd::core::io::write_hcd(&hcd, file).map_err(|e| format!("write index: {e}"))?;
        out.push(("core.write_index_s", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        out.push(("search.preprocess_s", t.elapsed().as_secs_f64()));
        let t = Instant::now();
        let best = pbks(&ctx, &Metric::ClusteringCoefficient, exec);
        out.push(("search.pbks_b_s", t.elapsed().as_secs_f64()));
        match best {
            Some(b)
                if (b.score - index.bks_score).abs() <= 1e-9 * index.bks_score.abs().max(1.0) => {}
            _ => problems.push("pbks disagrees with bks".into()),
        }
        drop(ctx);

        let bin = self.work.join("index.bin");
        if !bin.exists() {
            hcd::graph::io::write_binary_file(&g, &bin).map_err(|e| format!("binary: {e}"))?;
        }
        let t = Instant::now();
        let back = hcd::graph::io::read_binary_file(&bin).map_err(|e| format!("binary: {e}"))?;
        out.push(("graph.read_binary_index_s", t.elapsed().as_secs_f64()));
        if back.num_edges() != g.num_edges() {
            problems.push("binary index graph lost edges".into());
        }

        let ckpt = newest_checkpoint(&self.state_dir())?;
        let t = Instant::now();
        let cg = hcd::graph::io::read_binary_file(&ckpt).map_err(|e| format!("checkpoint: {e}"))?;
        out.push(("graph.read_binary_s", t.elapsed().as_secs_f64()));
        drop(cg);
        let snap = s.svc.snapshot();
        let t = Instant::now();
        hcd::graph::io::write_binary_file(&snap.graph, self.work.join("layer.bin"))
            .map_err(|e| format!("write binary: {e}"))?;
        out.push(("graph.write_binary_s", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let rc = pkc_core_decomposition(&snap.graph, exec);
        let rh = phcd(&snap.graph, &rc, exec);
        out.push(("core.rebuild_ms", t.elapsed().as_secs_f64() * 1e3));
        if rh.num_nodes() != snap.hcd.num_nodes() || rc.as_slice() != snap.cores.as_slice() {
            problems.push("rebuild disagrees with the published snapshot".into());
        }

        let fields: Vec<String> = out.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        let problems: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
        Ok(format!(
            "{{\"layers\":{{{}}},\"problems\":[{}]}}",
            fields.join(","),
            problems.join(",")
        ))
    }

    /// Writes the traced executor's `hcd-metrics-v1` document.
    fn metrics(&self, path: &str) -> Result<String, String> {
        std::fs::write(path, self.tracing.take_metrics().to_json())
            .map_err(|e| format!("write {path}: {e}"))?;
        Ok("{\"ok\":true}".into())
    }
}

/// The calibration kernel's input: a fixed R-MAT-style graph (2^16
/// vertices, 2^19 distinct edges, Graph500 quadrant weights) drawn with
/// the benchmark's own generator. It must never change, or scaled
/// timings stop being comparable across commits.
fn calibration_graph() -> Adj {
    let mut rng = Rng(12345);
    let n = 1u64 << 16;
    let mut edges = Vec::new();
    while edges.len() < 8 * n as usize {
        while edges.len() < 8 * n as usize {
            let (mut u, mut v) = (0u64, 0u64);
            for _ in 0..16 {
                // Quadrants (0,0), (0,1), (1,0), (1,1) with weights
                // 0.57, 0.19, 0.19, 0.05.
                let r = rng.unit();
                u = 2 * u + (r >= 0.76) as u64;
                v = 2 * v + ((0.57..0.76).contains(&r) || r >= 0.95) as u64;
            }
            if u != v {
                edges.push(Mirror::key(u as u32, v as u32));
            }
        }
        edges.sort_unstable();
        edges.dedup();
    }
    Adj::from_edges(n as usize, &edges)
}

/// Times the calibration kernel: bucket peeling plus the hierarchy sweep.
fn calibrate(g: &Adj) -> String {
    let t = Instant::now();
    let core = peel(g);
    std::hint::black_box(Forest::build(g, &core).num_nodes());
    format!("{{\"ns\":{}}}", ns(t))
}

fn newest_checkpoint(dir: &Path) -> Result<PathBuf, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        .collect();
    names.sort();
    names
        .pop()
        .map(|n| dir.join(n))
        .ok_or_else(|| "no checkpoint".into())
}

impl Session {
    /// 8 inserts of absent edges and 8 removals of present ones.
    fn draw_write(&mut self) -> Vec<EdgeUpdate> {
        let mut out = Vec::with_capacity(WRITE_BATCH);
        let mut taken: Vec<(u32, u32)> = Vec::with_capacity(WRITE_BATCH);
        while out.len() < WRITE_BATCH / 2 {
            let e = self.mirror.edges[self.rng.below(self.mirror.edges.len() as u64) as usize];
            if !taken.contains(&e) {
                taken.push(e);
                out.push(EdgeUpdate::Remove(e.0, e.1));
            }
        }
        let n = self.mirror.n as u64;
        while out.len() < WRITE_BATCH {
            let (u, v) = (self.rng.below(n) as u32, self.rng.below(n) as u32);
            let e = Mirror::key(u, v);
            if u != v && !self.mirror.slot.contains_key(&e) && !taken.contains(&e) {
                taken.push(e);
                out.push(EdgeUpdate::Insert(u, v));
            }
        }
        out
    }

    fn commit(&mut self, updates: &[EdgeUpdate]) {
        for u in updates {
            match *u {
                EdgeUpdate::Insert(a, b) => self.mirror.insert(a, b),
                EdgeUpdate::Remove(a, b) => self.mirror.remove(a, b),
            }
        }
        self.generation += 1;
    }

    /// A read batch: with the workload's hot fraction, `CoreContaining`
    /// on the hot set; otherwise one of the four kinds on uniform vertices.
    fn draw_reads(&mut self) -> Vec<Query> {
        let n = self.mirror.n as u64;
        (0..READ_BATCH)
            .map(|_| {
                if self.rng.unit() < self.hot_fraction {
                    let (v, k) = self.hot[self.rng.below(self.hot.len() as u64) as usize];
                    return Query::CoreContaining(v, k);
                }
                let v = self.rng.below(n) as u32;
                let k = 1 + self.rng.below(self.core0[v as usize].max(1) as u64) as u32;
                match self.rng.below(4) {
                    0 => Query::CoreContaining(v, k),
                    1 => Query::HierarchyPosition(v),
                    2 => Query::InKCore(v, k),
                    _ => Query::SameKCore(v, self.rng.below(n) as u32, k),
                }
            })
            .collect()
    }

    /// The published snapshot must hold the mirror's edges, coreness and
    /// hierarchy.
    fn check_published(&self, core: &[u32], forest: &Forest) -> Result<(), String> {
        let snap = self.svc.snapshot();
        if snap.graph.num_edges() != self.mirror.edges.len() {
            return Err(format!(
                "snapshot has {} edges, mirror {}",
                snap.graph.num_edges(),
                self.mirror.edges.len()
            ));
        }
        check_coreness(snap.cores.as_slice(), core)?;
        forest.check(&Tree::of(&snap.hcd))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").and_then(|w| Workload::parse(&w));
    let seed = flag("--seed").and_then(|s| s.parse::<u64>().ok());
    let work = flag("--work");
    let (Some(workload), Some(seed), Some(work)) = (workload, seed, work) else {
        eprintln!(
            "usage: perfbench-worker --workload rmat-hot|er-uniform --seed N --work DIR [--traced]"
        );
        std::process::exit(2);
    };
    let traced = args.iter().any(|a| a == "--traced");
    let tracing = Executor::sequential();
    if traced {
        tracing.set_metrics_enabled(true);
        tracing.arm_histograms();
    }
    let mut d = Worker {
        workload,
        seed,
        work: PathBuf::from(work),
        traced,
        plain: Executor::sequential(),
        tracing,
        serve_graph: None,
        fresh_svc: None,
        index: None,
        session: None,
    };
    if let Err(e) = std::fs::create_dir_all(&d.work) {
        eprintln!("cannot create {}: {e}", d.work.display());
        std::process::exit(1);
    }
    let mut calib: Option<Adj> = None;
    let stdin = std::io::stdin();
    let mut stdout = BufWriter::new(std::io::stdout().lock());
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        // A path argument is the rest of the line, spaces included.
        let reply = match line.split_once(' ') {
            Some(("check-index", path)) => d.check_index(path),
            Some(("metrics", path)) => d.metrics(path),
            Some(("check-search", rest)) => {
                d.check_search(&rest.split_whitespace().collect::<Vec<_>>())
            }
            _ => match line.trim() {
                "setup" => d.setup(),
                "reference" => d.reference(),
                "segment" => d.segment(),
                "layers" => d.layers(),
                "calibrate" => Ok(calibrate(calib.get_or_insert_with(calibration_graph))),
                "quit" => break,
                _ => Err(format!("unknown command {line:?}")),
            },
        };
        let text = match reply {
            Ok(json) => json,
            Err(e) => format!("{{\"error\":{}}}", json_str(&e)),
        };
        if writeln!(stdout, "{text}")
            .and_then(|_| stdout.flush())
            .is_err()
        {
            break;
        }
    }
}
