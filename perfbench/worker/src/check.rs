//! Reference computations the benchmark checks the program against.
//!
//! Nothing here calls into the program's algorithms: coreness comes from
//! a bucket peeling, the hierarchy from a union-find sweep from `kmax`
//! down, and query answers and search scores from those two plus the
//! adjacency lists. Only the program's output types are named, to read
//! the answers being checked.

use hcd::prelude::{Hcd, Query, QueryAnswer};

const NONE: u32 = u32::MAX;

/// Plain adjacency lists (each undirected edge stored in both directions).
pub struct Adj {
    off: Vec<usize>,
    nbr: Vec<u32>,
}

impl Adj {
    /// Builds adjacency lists over vertices `0..n` from undirected edges,
    /// each given once with distinct endpoints below `n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Adj {
        let mut deg = vec![0usize; n + 1];
        for &(u, v) in edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut off = vec![0usize; n + 1];
        for v in 0..n {
            off[v + 1] = off[v] + deg[v];
        }
        let mut fill = off.clone();
        let mut nbr = vec![0u32; off[n]];
        for &(u, v) in edges {
            nbr[fill[u as usize]] = v;
            fill[u as usize] += 1;
            nbr[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        Adj { off, nbr }
    }

    pub fn n(&self) -> usize {
        self.off.len() - 1
    }

    pub fn nbrs(&self, v: u32) -> &[u32] {
        &self.nbr[self.off[v as usize]..self.off[v as usize + 1]]
    }
}

/// A hierarchy as the program reports it: each node's level, parent
/// (`u32::MAX` for a root) and vertex list, and each vertex's node.
pub struct Tree {
    pub k: Vec<u32>,
    pub parent: Vec<u32>,
    pub vertices: Vec<Vec<u32>>,
    pub tid: Vec<u32>,
}

impl Tree {
    pub fn of(hcd: &Hcd) -> Tree {
        let nodes = hcd.nodes();
        Tree {
            k: nodes.iter().map(|x| x.k).collect(),
            parent: nodes.iter().map(|x| x.parent).collect(),
            vertices: nodes.iter().map(|x| x.vertices.clone()).collect(),
            tid: hcd.tids().to_vec(),
        }
    }

    /// Parses an index file as `hcd-cli build` writes it: the magic
    /// `HCDIDX01`, the node and vertex counts (u64), then per node its
    /// `k` and parent (u32), vertex count (u64) and vertices (u32), then
    /// each vertex's node (u32); all little-endian.
    pub fn parse_index(bytes: &[u8]) -> Result<Tree, String> {
        let mut c = Cursor { bytes, at: 0 };
        if c.take(8)? != b"HCDIDX01" {
            return Err("bad index magic".into());
        }
        let nodes = c.u64()?;
        let n = c.u64()?;
        // Every node and vertex takes at least 4 bytes of the file.
        if nodes > bytes.len() / 4 || n > bytes.len() / 4 {
            return Err("index counts exceed the file".into());
        }
        let mut tree = Tree {
            k: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            vertices: Vec::with_capacity(nodes),
            tid: Vec::new(),
        };
        for _ in 0..nodes {
            let head = c.u32s(2)?;
            let len = c.u64()?;
            if len > n {
                return Err("index node larger than the graph".into());
            }
            tree.k.push(head[0]);
            tree.parent.push(head[1]);
            tree.vertices.push(c.u32s(len)?);
        }
        tree.tid = c.u32s(n)?;
        if c.at != bytes.len() {
            return Err("trailing bytes after the index".into());
        }
        Ok(tree)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("index truncated at byte {}", self.at))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u64(&mut self) -> Result<usize, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize)
    }

    fn u32s(&mut self, count: usize) -> Result<Vec<u32>, String> {
        let b = self.take(count.checked_mul(4).ok_or("index count overflows")?)?;
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

/// Coreness of every vertex by bucket peeling (Batagelj–Zaversnik).
pub fn peel(adj: &Adj) -> Vec<u32> {
    let n = adj.n();
    let mut deg: Vec<u32> = (0..n as u32).map(|v| adj.nbrs(v).len() as u32).collect();
    let maxd = deg.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0usize; maxd + 2];
    for &d in &deg {
        bin[d as usize + 1] += 1;
    }
    for d in 1..bin.len() {
        bin[d] += bin[d - 1];
    }
    // vert: vertices sorted by current degree; pos: each vertex's slot;
    // bin[d]: first slot of degree d.
    let mut pos = vec![0usize; n];
    let mut vert = vec![0u32; n];
    let mut next = bin.clone();
    for v in 0..n {
        let d = deg[v] as usize;
        pos[v] = next[d];
        vert[next[d]] = v as u32;
        next[d] += 1;
    }
    for i in 0..n {
        let v = vert[i];
        for &u in adj.nbrs(v) {
            let (du, dv) = (deg[u as usize], deg[v as usize]);
            if du > dv {
                // Move u to the front of its bucket, then shrink the bucket.
                let pu = pos[u as usize];
                let pw = bin[du as usize];
                let w = vert[pw];
                if u != w {
                    vert.swap(pu, pw);
                    pos[u as usize] = pw;
                    pos[w as usize] = pu;
                }
                bin[du as usize] += 1;
                deg[u as usize] -= 1;
            }
        }
    }
    deg
}

fn find(uf: &mut [u32], mut x: u32) -> u32 {
    while uf[x as usize] != x {
        let p = uf[x as usize];
        uf[x as usize] = uf[p as usize];
        x = p;
    }
    x
}

/// The hierarchy of k-cores, built by a union-find sweep from `kmax`
/// down to 0: at level `k` the coreness-`k` vertices join the union-find
/// through their edges to vertices of coreness `>= k`, every component
/// that received one becomes a node, and the newest node of each
/// component it swallowed becomes a child of it.
pub struct Forest {
    k: Vec<u32>,
    parent: Vec<u32>,
    children: Vec<Vec<u32>>,
    members: Vec<Vec<u32>>,
    node_of: Vec<u32>,
    depth: Vec<u32>,
    subtree: Vec<u64>,
}

impl Forest {
    pub fn build(adj: &Adj, core: &[u32]) -> Forest {
        let n = adj.n();
        let kmax = core.iter().copied().max().unwrap_or(0) as usize;
        let mut by_k: Vec<Vec<u32>> = vec![Vec::new(); kmax + 1];
        for v in 0..n as u32 {
            by_k[core[v as usize] as usize].push(v);
        }
        let mut uf: Vec<u32> = (0..n as u32).collect();
        let mut top = vec![NONE; n];
        let mut made_at = vec![NONE; n];
        let mut f = Forest {
            k: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
            members: Vec::new(),
            node_of: vec![NONE; n],
            depth: Vec::new(),
            subtree: Vec::new(),
        };
        let mut swallowed = Vec::new();
        for k in (0..=kmax as u32).rev() {
            let level = &by_k[k as usize];
            // Components built at higher levels are stable until this
            // level's unions, so their newest nodes are read first.
            swallowed.clear();
            for &v in level {
                for &u in adj.nbrs(v) {
                    if core[u as usize] > k {
                        let r = find(&mut uf, u);
                        swallowed.push(top[r as usize]);
                    }
                }
            }
            for &v in level {
                for &u in adj.nbrs(v) {
                    if core[u as usize] >= k {
                        let (a, b) = (find(&mut uf, v), find(&mut uf, u));
                        if a != b {
                            uf[a as usize] = b;
                        }
                    }
                }
            }
            for &v in level {
                let r = find(&mut uf, v) as usize;
                if made_at[r] != k {
                    made_at[r] = k;
                    top[r] = f.k.len() as u32;
                    f.k.push(k);
                    f.parent.push(NONE);
                    f.children.push(Vec::new());
                    f.members.push(Vec::new());
                }
                f.node_of[v as usize] = top[r];
                f.members[top[r] as usize].push(v);
            }
            for &t in &swallowed {
                if f.parent[t as usize] == NONE {
                    let r = find(&mut uf, f.members[t as usize][0]);
                    let p = top[r as usize];
                    f.parent[t as usize] = p;
                    f.children[p as usize].push(t);
                }
            }
        }
        // Nodes are numbered with falling k, so parents come after children.
        let nodes = f.k.len();
        f.depth = vec![0; nodes];
        f.subtree = f.members.iter().map(|m| m.len() as u64).collect();
        for i in (0..nodes).rev() {
            if f.parent[i] != NONE {
                f.depth[i] = f.depth[f.parent[i] as usize] + 1;
            }
        }
        for i in 0..nodes {
            if f.parent[i] != NONE {
                f.subtree[f.parent[i] as usize] += f.subtree[i];
            }
        }
        f
    }

    pub fn num_nodes(&self) -> usize {
        self.k.len()
    }

    /// Checks that `tree` has the same nodes (same vertices, same `k`)
    /// and the same parent links as this forest.
    pub fn check(&self, tree: &Tree) -> Result<(), String> {
        let nodes = self.num_nodes();
        if tree.k.len() != nodes {
            return Err(format!(
                "index has {} tree nodes, expected {nodes}",
                tree.k.len()
            ));
        }
        if tree.tid.len() != self.node_of.len() {
            return Err(format!(
                "index covers {} vertices, expected {}",
                tree.tid.len(),
                self.node_of.len()
            ));
        }
        // The node-to-node map implied by the vertices must be a bijection.
        let mut to_mine = vec![NONE; nodes];
        let mut to_theirs = vec![NONE; nodes];
        for (v, (&theirs, &mine)) in tree.tid.iter().zip(&self.node_of).enumerate() {
            if theirs as usize >= nodes {
                return Err(format!("vertex {v} maps to missing node {theirs}"));
            }
            if to_mine[theirs as usize] == NONE && to_theirs[mine as usize] == NONE {
                to_mine[theirs as usize] = mine;
                to_theirs[mine as usize] = theirs;
            } else if to_mine[theirs as usize] != mine || to_theirs[mine as usize] != theirs {
                return Err(format!("vertex {v} is grouped differently"));
            }
        }
        for (theirs, &mine) in to_mine.iter().enumerate() {
            if mine == NONE {
                return Err(format!("node {theirs} holds no vertex"));
            }
            if tree.k[theirs] != self.k[mine as usize] {
                return Err(format!(
                    "node {theirs} has k = {}, expected {}",
                    tree.k[theirs], self.k[mine as usize]
                ));
            }
            let listed = &tree.vertices[theirs];
            if listed.len() != self.members[mine as usize].len()
                || listed
                    .iter()
                    .any(|&v| tree.tid.get(v as usize) != Some(&(theirs as u32)))
            {
                return Err(format!("node {theirs} lists the wrong vertices"));
            }
            let parent = match tree.parent[theirs] as usize {
                p if p < nodes => to_mine[p],
                _ => NONE,
            };
            if parent != self.parent[mine as usize] {
                return Err(format!("node {theirs} has the wrong parent"));
            }
        }
        Ok(())
    }

    /// The node whose subtree is the k-core containing `v`.
    pub fn node_at(&self, core: &[u32], v: u32, k: u32) -> Option<u32> {
        if k > core[v as usize] {
            return None;
        }
        let mut x = self.node_of[v as usize];
        while self.parent[x as usize] != NONE && self.k[self.parent[x as usize] as usize] >= k {
            x = self.parent[x as usize];
        }
        Some(x)
    }

    /// Sorted vertex set of the subtree rooted at `node`.
    pub fn subtree_vertices(&self, node: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            out.extend_from_slice(&self.members[x as usize]);
            stack.extend_from_slice(&self.children[x as usize]);
        }
        out.sort_unstable();
        out
    }

    /// The k-cores of level exactly `k`: nodes with level `>= k` whose
    /// parent, if any, lies below `k`.
    pub fn cores_at(&self, k: u32) -> impl Iterator<Item = u32> + '_ {
        (0..self.num_nodes() as u32).filter(move |&i| {
            let p = self.parent[i as usize];
            self.k[i as usize] >= k && (p == NONE || self.k[p as usize] < k)
        })
    }

    pub fn subtree_size(&self, node: u32) -> u64 {
        self.subtree[node as usize]
    }

    /// The answer the service should give to `q` on this graph.
    pub fn answer(&self, core: &[u32], q: &Query) -> QueryAnswer {
        let known = |v: u32| (v as usize) < core.len();
        match *q {
            Query::CoreContaining(v, k) => QueryAnswer::CoreContaining(
                known(v)
                    .then(|| self.node_at(core, v, k))
                    .flatten()
                    .map(|x| self.subtree_vertices(x)),
            ),
            Query::HierarchyPosition(v) => QueryAnswer::HierarchyPosition(known(v).then(|| {
                let x = self.node_of[v as usize];
                (
                    self.depth[x as usize] as usize,
                    self.subtree[x as usize] as usize,
                )
            })),
            Query::InKCore(v, k) => QueryAnswer::InKCore(known(v) && k <= core[v as usize]),
            Query::SameKCore(u, v, k) => QueryAnswer::SameKCore(
                known(u)
                    && known(v)
                    && matches!(
                        (self.node_at(core, u, k), self.node_at(core, v, k)),
                        (Some(a), Some(b)) if a == b
                    ),
            ),
        }
    }
}

/// `n(S)`, `m(S)`, `b(S)` and the clustering coefficient `3·Δ(S)/t(S)`
/// of the vertex set `members`, counted on the adjacency lists.
pub fn community_score(adj: &Adj, members: &[u32]) -> (u64, u64, u64, f64) {
    let mut inside = vec![false; adj.n()];
    for &v in members {
        inside[v as usize] = true;
    }
    let (mut m2, mut b, mut triplets) = (0u64, 0u64, 0u64);
    let mut deg_s = vec![0u32; adj.n()];
    for &v in members {
        let d = adj.nbrs(v).iter().filter(|&&u| inside[u as usize]).count() as u64;
        deg_s[v as usize] = d as u32;
        m2 += d;
        b += adj.nbrs(v).len() as u64 - d;
        triplets += d * d.saturating_sub(1) / 2;
    }
    // Count each triangle once, from its lowest vertex in (degree, id)
    // order, by marking that vertex's higher neighbours.
    let higher = |a: u32, b: u32| (deg_s[a as usize], a) < (deg_s[b as usize], b);
    let mut mark = vec![false; adj.n()];
    let mut triangles = 0u64;
    for &v in members {
        let up: Vec<u32> = adj
            .nbrs(v)
            .iter()
            .copied()
            .filter(|&u| inside[u as usize] && higher(v, u))
            .collect();
        for &u in &up {
            mark[u as usize] = true;
        }
        for &u in &up {
            for &w in adj.nbrs(u) {
                if mark[w as usize] && higher(u, w) {
                    triangles += 1;
                }
            }
        }
        for &u in &up {
            mark[u as usize] = false;
        }
    }
    let score = if triplets == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / triplets as f64
    };
    (members.len() as u64, m2 / 2, b, score)
}

/// The program's coreness must equal the peeling's, vertex for vertex.
pub fn check_coreness(theirs: &[u32], mine: &[u32]) -> Result<(), String> {
    if theirs.len() != mine.len() {
        return Err(format!(
            "coreness covers {} vertices, expected {}",
            theirs.len(),
            mine.len()
        ));
    }
    match theirs.iter().zip(mine).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!(
            "vertex {v} has coreness {}, expected {}",
            theirs[v], mine[v]
        )),
    }
}

/// Every answer must equal the one derived from the forest and coreness.
pub fn check_answers(
    forest: &Forest,
    core: &[u32],
    queries: &[Query],
    answers: &[QueryAnswer],
) -> Result<(), String> {
    if queries.len() != answers.len() {
        return Err(format!(
            "{} answers to {} queries",
            answers.len(),
            queries.len()
        ));
    }
    for (q, a) in queries.iter().zip(answers) {
        if forest.answer(core, q) != *a {
            return Err(format!("wrong answer to {q:?}"));
        }
    }
    Ok(())
}

/// The recomputed score of the printed k-core must equal the serial
/// baseline's best score, and the printed score (6 decimals) must round
/// from it.
pub fn check_search(recomputed: f64, printed: f64, baseline: f64) -> Result<(), String> {
    if (recomputed - baseline).abs() > 1e-9 * baseline.abs().max(1.0) {
        return Err(format!(
            "returned core scores {recomputed}, the serial baseline {baseline}"
        ));
    }
    if (recomputed - printed).abs() > 5.1e-7 {
        return Err(format!("printed score {printed}, recomputed {recomputed}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd::prelude::{naive_hcd, CoreDecomposition, CsrGraph, GraphBuilder};

    fn graph(seed: u64) -> (CsrGraph, Adj) {
        // A few cliques of different sizes joined in a chain, plus noise
        // edges and isolated vertices, so every level has several nodes.
        let mut edges = Vec::new();
        let mut base = 0u32;
        for size in [3u32, 5, 4, 6, 3, 5] {
            for a in 0..size {
                for b in a + 1..size {
                    edges.push((base + a, base + b));
                }
            }
            if base > 0 {
                edges.push((base - 1, base));
            }
            base += size;
        }
        let mut x = seed;
        for _ in 0..12 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (u, v) = ((x >> 33) as u32 % base, (x >> 13) as u32 % base);
            if u != v && !edges.contains(&(u, v)) && !edges.contains(&(v, u)) {
                edges.push((u, v));
            }
        }
        let n = base as usize + 3;
        let g = GraphBuilder::new()
            .min_vertices(n)
            .edges(edges.iter().copied())
            .build();
        (g, Adj::from_edges(n, &edges))
    }

    fn oracle(g: &CsrGraph, adj: &Adj) -> (Vec<u32>, Hcd) {
        let core = peel(adj);
        let hcd = naive_hcd(g, &CoreDecomposition::from_coreness(core.clone()));
        (core, hcd)
    }

    #[test]
    fn forest_matches_the_brute_force_oracle() {
        for seed in 0..20 {
            let (g, adj) = graph(seed);
            let (core, hcd) = oracle(&g, &adj);
            let forest = Forest::build(&adj, &core);
            forest
                .check(&Tree::of(&hcd))
                .expect("forest equals naive_hcd");
            for v in 0..adj.n() as u32 {
                for k in 0..=core[v as usize] + 1 {
                    let q = Query::CoreContaining(v, k);
                    let want = hcd::prelude::core_containing(
                        &hcd,
                        &CoreDecomposition::from_coreness(core.clone()),
                        v,
                        k,
                    )
                    .map(|mut m| {
                        m.sort_unstable();
                        m
                    });
                    assert_eq!(forest.answer(&core, &q), QueryAnswer::CoreContaining(want));
                }
            }
        }
    }

    #[test]
    fn peeling_matches_the_program_on_a_clique_chain() {
        let (g, adj) = graph(7);
        let exec = hcd::prelude::Executor::sequential();
        let theirs = hcd::prelude::pkc_core_decomposition(&g, &exec);
        assert_eq!(peel(&adj), theirs.as_slice());
    }

    #[test]
    fn a_doctored_coreness_fails_the_forest_check() {
        let (g, adj) = graph(3);
        let (mut core, hcd) = oracle(&g, &adj);
        let v = core
            .iter()
            .position(|&c| c == 4)
            .expect("a 4-clique vertex");
        core[v] = 3;
        let err = Forest::build(&adj, &core)
            .check(&Tree::of(&hcd))
            .unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn a_doctored_grouping_fails_the_forest_check() {
        let (g, adj) = graph(5);
        let (core, hcd) = oracle(&g, &adj);
        let forest = Forest::build(&adj, &core);
        let mut tree = Tree::of(&hcd);
        // Move one vertex into another node of the same level.
        let (v, u) = (0..tree.tid.len())
            .flat_map(|v| (0..tree.tid.len()).map(move |u| (v, u)))
            .find(|&(v, u)| {
                let (a, b) = (tree.tid[v], tree.tid[u]);
                a != b && tree.k[a as usize] == tree.k[b as usize]
            })
            .expect("two nodes on one level");
        tree.tid[v] = tree.tid[u];
        assert!(forest.check(&tree).is_err());
    }

    #[test]
    fn index_files_parse_and_a_doctored_byte_fails() {
        let (g, adj) = graph(6);
        let (core, hcd) = oracle(&g, &adj);
        let forest = Forest::build(&adj, &core);
        let mut bytes = Vec::new();
        hcd::core::io::write_hcd(&hcd, &mut bytes).expect("in-memory write");
        forest
            .check(&Tree::parse_index(&bytes).expect("parses"))
            .expect("the written index passes");
        // The first node's k sits right after the 24-byte header.
        bytes[24] ^= 1;
        assert!(forest
            .check(&Tree::parse_index(&bytes).expect("parses"))
            .is_err());
        assert!(Tree::parse_index(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn a_doctored_answer_fails_the_read_check() {
        let (g, adj) = graph(9);
        let (core, _) = oracle(&g, &adj);
        let forest = Forest::build(&adj, &core);
        let queries = [
            Query::HierarchyPosition(4),
            Query::InKCore(4, 2),
            Query::SameKCore(1, 9, 2),
            Query::CoreContaining(6, 3),
        ];
        let mut answers: Vec<QueryAnswer> =
            queries.iter().map(|q| forest.answer(&core, q)).collect();
        check_answers(&forest, &core, &queries, &answers).expect("own answers pass");
        let QueryAnswer::HierarchyPosition(Some((d, s))) = answers[0] else {
            panic!("vertex 4 is known")
        };
        answers[0] = QueryAnswer::HierarchyPosition(Some((d, s + 1)));
        assert!(check_answers(&forest, &core, &queries, &answers).is_err());
    }

    #[test]
    fn a_doctored_coreness_fails_the_coreness_check() {
        let (_, adj) = graph(2);
        let core = peel(&adj);
        check_coreness(&core, &core).expect("equal");
        let mut doctored = core.clone();
        doctored[5] += 1;
        assert!(check_coreness(&doctored, &core).is_err());
    }

    #[test]
    fn community_score_matches_the_serial_baseline() {
        let (g, adj) = graph(11);
        let exec = hcd::prelude::Executor::sequential();
        let cores = hcd::prelude::pkc_core_decomposition(&g, &exec);
        let hcd = hcd::prelude::phcd(&g, &cores, &exec);
        let ctx = hcd::prelude::SearchContext::new(&g, &cores, &hcd);
        let best = hcd::prelude::bks(&ctx, &hcd::prelude::Metric::ClusteringCoefficient)
            .expect("non-empty graph");
        let mut members = hcd.subtree_vertices(best.node);
        members.sort_unstable();
        let (n, m, b, score) = community_score(&adj, &members);
        assert_eq!(n, best.primaries.n);
        assert_eq!(m, best.primaries.m() as u64);
        assert_eq!(b, best.primaries.b);
        let printed = (score * 1e6).round() / 1e6;
        check_search(score, printed, best.score).expect("the baseline's own core passes");
        assert!(check_search(score, printed + 1e-6, best.score).is_err());
        assert!(check_search(score + 1e-3, printed, best.score).is_err());
    }
}
