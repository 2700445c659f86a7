//! A from-scratch HNSW graph (Malkov & Yashunin, 2018).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use waco_tensor::gen::Rng64;

/// Squared l2 distance.
fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f32,
    node: usize,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by distance; ties by node id for determinism.
        self.dist
            .total_cmp(&other.dist)
            .then(self.node.cmp(&other.node))
    }
}

/// A Hierarchical Navigable Small World graph over `f32` vectors.
///
/// Built with l2; searchable with l2 ([`Hnsw::search_l2`]) or with any
/// memoized scalar cost ([`Hnsw::search_generic`]) — the latter is how WACO
/// retrieves the schedule minimizing the *predicted runtime* while the graph
/// topology still comes from embedding proximity.
#[derive(Debug, Clone)]
pub struct Hnsw {
    vectors: Vec<Vec<f32>>,
    /// `links[node][level]` = neighbor list; a node's level is
    /// `links[node].len() - 1`.
    links: Vec<Vec<Vec<usize>>>,
    entry: usize,
    max_level: usize,
    m: usize,
}

impl Hnsw {
    /// Builds the graph with connectivity `m` and construction beam
    /// `ef_construction`.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or `m == 0`.
    pub fn build(vectors: Vec<Vec<f32>>, m: usize, ef_construction: usize, seed: u64) -> Self {
        assert!(!vectors.is_empty(), "cannot build an empty graph");
        assert!(m > 0, "connectivity must be positive");
        let n = vectors.len();
        let mut rng = Rng64::seed_from(seed);
        let ml = 1.0 / (m as f64).ln().max(0.7);
        let mut g = Hnsw {
            vectors,
            links: Vec::with_capacity(n),
            entry: 0,
            max_level: 0,
            m,
        };
        for i in 0..n {
            let u = rng.unit_f64().max(1e-12);
            let level = ((-u.ln()) * ml).floor() as usize;
            g.insert(i, level, ef_construction);
        }
        g
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the graph is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The stored vector of a node.
    pub fn vector(&self, node: usize) -> &[f32] {
        &self.vectors[node]
    }

    /// Layer-0 neighbors of a node (the KNN-graph view).
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.links[node][0]
    }

    fn insert(&mut self, id: usize, level: usize, ef_c: usize) {
        self.links.push(vec![Vec::new(); level + 1]);
        debug_assert_eq!(self.links.len(), id + 1);
        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }
        let q = self.vectors[id].clone();
        let mut cur = self.entry;
        // Greedy descent through levels above the new node's level.
        let top = self.max_level;
        for l in ((level + 1)..=top).rev() {
            cur = self.greedy_closest(&q, cur, l);
        }
        // Connect at each level from min(level, top) down to 0.
        for l in (0..=level.min(top)).rev() {
            let found = self.search_layer_l2(&q, &[cur], ef_c, l);
            let max_links = if l == 0 { 2 * self.m } else { self.m };
            let selected: Vec<usize> = found.iter().take(self.m).map(|&(_, n)| n).collect();
            for &nb in &selected {
                self.links[id][l].push(nb);
                self.links[nb][l].push(id);
                if self.links[nb][l].len() > max_links {
                    self.prune(nb, l, max_links);
                }
            }
            if let Some(&(_, best)) = found.first() {
                cur = best;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    fn prune(&mut self, node: usize, level: usize, keep: usize) {
        let base = self.vectors[node].clone();
        let mut nbrs = std::mem::take(&mut self.links[node][level]);
        nbrs.sort_by(|&a, &b| {
            l2(&base, &self.vectors[a])
                .total_cmp(&l2(&base, &self.vectors[b]))
                .then(a.cmp(&b))
        });
        nbrs.dedup();
        nbrs.truncate(keep);
        self.links[node][level] = nbrs;
    }

    fn greedy_closest(&self, q: &[f32], mut cur: usize, level: usize) -> usize {
        let mut cur_d = l2(q, &self.vectors[cur]);
        loop {
            let mut improved = false;
            for &nb in &self.links[cur][level] {
                let d = l2(q, &self.vectors[nb]);
                if d < cur_d {
                    cur = nb;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    fn search_layer_l2(
        &self,
        q: &[f32],
        entries: &[usize],
        ef: usize,
        level: usize,
    ) -> Vec<(f32, usize)> {
        self.search_layer(&mut |n| l2(q, &self.vectors[n]), entries, ef, level, &mut 0)
    }

    /// Beam search on one layer with an arbitrary distance.
    fn search_layer(
        &self,
        dist: &mut impl FnMut(usize) -> f32,
        entries: &[usize],
        ef: usize,
        level: usize,
        evals: &mut usize,
    ) -> Vec<(f32, usize)> {
        let mut visited: HashSet<usize> = HashSet::new();
        let mut candidates: BinaryHeap<std::cmp::Reverse<HeapItem>> = BinaryHeap::new();
        let mut results: BinaryHeap<HeapItem> = BinaryHeap::new();
        for &e in entries {
            if visited.insert(e) {
                let d = dist(e);
                *evals += 1;
                candidates.push(std::cmp::Reverse(HeapItem { dist: d, node: e }));
                results.push(HeapItem { dist: d, node: e });
            }
        }
        while let Some(std::cmp::Reverse(c)) = candidates.pop() {
            let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
            if c.dist > worst && results.len() >= ef {
                break;
            }
            for &nb in &self.links[c.node][level] {
                if !visited.insert(nb) {
                    continue;
                }
                let d = dist(nb);
                *evals += 1;
                let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
                if results.len() < ef || d < worst {
                    candidates.push(std::cmp::Reverse(HeapItem { dist: d, node: nb }));
                    results.push(HeapItem { dist: d, node: nb });
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<(f32, usize)> = results.into_iter().map(|h| (h.dist, h.node)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// k-nearest neighbors by l2.
    pub fn search_l2(&self, q: &[f32], k: usize, ef: usize) -> Vec<(usize, f32)> {
        let mut cur = self.entry;
        for l in (1..=self.max_level).rev() {
            cur = self.greedy_closest(q, cur, l);
        }
        let found = self.search_layer_l2(q, &[cur], ef.max(k), 0);
        found.into_iter().take(k).map(|(d, n)| (n, d)).collect()
    }

    /// Retrieves the `k` nodes minimizing an arbitrary cost by traversing
    /// the graph (the auto-scheduling search of §4.2.2). The cost is
    /// memoized, so each node is evaluated at most once. Returns
    /// `(top-k (node, cost), number of cost evaluations, best-so-far trace
    /// per evaluation)`.
    pub fn search_generic(
        &self,
        mut cost: impl FnMut(usize) -> f32,
        k: usize,
        ef: usize,
    ) -> (Vec<(usize, f32)>, usize, Vec<f32>) {
        let mut memo: HashMap<usize, f32> = HashMap::new();
        let mut trace: Vec<f32> = Vec::new();
        let mut best = f32::INFINITY;
        let mut evals = 0usize;
        {
            let mut dist = |n: usize| -> f32 {
                if let Some(&d) = memo.get(&n) {
                    return d;
                }
                let d = cost(n);
                memo.insert(n, d);
                best = best.min(d);
                trace.push(best);
                d
            };
            let mut cur = self.entry;
            for l in (1..=self.max_level).rev() {
                // Greedy descent with the generic cost.
                let mut cur_d = dist(cur);
                loop {
                    let mut improved = false;
                    for &nb in &self.links[cur][l] {
                        let d = dist(nb);
                        if d < cur_d {
                            cur = nb;
                            cur_d = d;
                            improved = true;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
            let found = self.search_layer(&mut dist, &[cur], ef.max(k), 0, &mut evals);
            let evals_total = memo.len();
            let result: Vec<(usize, f32)> =
                found.into_iter().take(k).map(|(d, n)| (n, d)).collect();
            (result, evals_total, trace)
        }
    }

    /// [`Hnsw::search_generic`] restricted to the nodes flagged in `allowed`
    /// — the Stage-2 traversal of the two-stage tuning pipeline, where
    /// Stage 1 has already discarded asymptotically-dominated candidates.
    ///
    /// Masked nodes are *transparent waypoints*: the beam traverses their
    /// links (inheriting the discovering parent's distance, so connectivity
    /// through a pruned region is preserved) but never evaluates their cost
    /// and never returns them. The eval count therefore counts allowed-node
    /// evaluations only — the quantity the pruning gate bounds. The search
    /// runs entirely on layer 0 seeded from the graph entry (the graphs
    /// here are small; the upper-layer descent would evaluate masked nodes
    /// for navigation without tightening the result set).
    ///
    /// As long as one allowed node is reachable from the entry on layer 0,
    /// the result is nonempty: the termination test only fires once `ef`
    /// allowed results exist.
    pub fn search_generic_masked(
        &self,
        mut cost: impl FnMut(usize) -> f32,
        k: usize,
        ef: usize,
        allowed: &[bool],
    ) -> (Vec<(usize, f32)>, usize, Vec<f32>) {
        debug_assert_eq!(allowed.len(), self.len(), "mask covers every node");
        let is_allowed = |n: usize| allowed.get(n).copied().unwrap_or(true);
        let scored = std::cell::Cell::new(0usize);
        let memo: std::cell::RefCell<HashMap<usize, f32>> = std::cell::RefCell::new(HashMap::new());
        let mut trace: Vec<f32> = Vec::new();
        let mut best = f32::INFINITY;
        let mut dist = |n: usize| -> f32 {
            if let Some(&d) = memo.borrow().get(&n) {
                return d;
            }
            let d = cost(n);
            memo.borrow_mut().insert(n, d);
            scored.set(scored.get() + 1);
            best = best.min(d);
            trace.push(best);
            d
        };
        let ef = ef.max(k);
        // Stage-2 evaluation budget. The pruner already vouched for every
        // survivor's complexity class; this walk only has to pick a top-k,
        // so 4·ef scored survivors are enough — even when Stage 1 abstained
        // and the mask is full, which is exactly when the budget is the
        // only thing separating the staged search from the unpruned one.
        let max_evals = 4 * ef;
        // Greedy upper-layer descent over the allowed nodes, mirroring the
        // unmasked query: masked nodes cannot be scored, so the walk only
        // steps onto survivors. This matters under the eval budget — the
        // layer-0 beam starts in the model's neighborhood instead of
        // spending its budget walking in from the global entry.
        let mut cur = self.entry;
        let mut cur_d = if is_allowed(cur) {
            dist(cur)
        } else {
            f32::INFINITY
        };
        for l in (1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                for &nb in &self.links[cur][l] {
                    if !is_allowed(nb) {
                        continue;
                    }
                    let d = dist(nb);
                    if d < cur_d {
                        cur = nb;
                        cur_d = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        let mut visited: HashSet<usize> = HashSet::new();
        let mut candidates: BinaryHeap<std::cmp::Reverse<HeapItem>> = BinaryHeap::new();
        let mut results: BinaryHeap<HeapItem> = BinaryHeap::new();
        visited.insert(cur);
        let seed_d = if is_allowed(cur) {
            let d = dist(cur);
            results.push(HeapItem { dist: d, node: cur });
            d
        } else {
            0.0
        };
        candidates.push(std::cmp::Reverse(HeapItem {
            dist: seed_d,
            node: cur,
        }));
        // Spend half the budget on a deterministic sample of the survivors
        // before the beam runs. The beam alone only probes the basin it
        // starts in; on a rugged (or nearly flat) cost surface that misses
        // the global argmin. The sample is a greedy *dominating set* of
        // the masked layer-0 graph — walk the survivors in id order and
        // pick every node not already adjacent to a pick — so each
        // survivor ends up at most one graph hop from a scored probe.
        // That is exactly the coverage the beam needs: expanding any
        // probe that scores well reaches its whole embedding cluster,
        // including interior nodes. (A farthest-point or strided sample
        // lacks this property: the one favors cluster *boundaries*, the
        // other aliases against the id lattice of parallelization
        // variants, and either can leave a rich cluster with no probe at
        // all.)
        let survivors: Vec<usize> = (0..self.len()).filter(|&n| is_allowed(n)).collect();
        let sample = (max_evals / 2).max(1).min(survivors.len());
        let mut picked: Vec<usize> = Vec::with_capacity(sample);
        let mut covered: HashSet<usize> = HashSet::new();
        for &n in &survivors {
            if picked.len() >= sample {
                break;
            }
            if covered.contains(&n) {
                continue;
            }
            picked.push(n);
            covered.insert(n);
            for &nb in &self.links[n][0] {
                covered.insert(nb);
            }
        }
        // Leftover sample budget (small graphs dominate quickly): fill
        // with the still-uncovered two-hop fringe, then first-come ids.
        if picked.len() < sample {
            for &n in &survivors {
                if picked.len() >= sample {
                    break;
                }
                if !picked.contains(&n) && self.links[n][0].iter().all(|nb| !picked.contains(nb)) {
                    picked.push(n);
                }
            }
        }
        for n in picked {
            if !visited.insert(n) {
                continue;
            }
            let d = dist(n);
            candidates.push(std::cmp::Reverse(HeapItem { dist: d, node: n }));
            results.push(HeapItem { dist: d, node: n });
            if results.len() > ef {
                results.pop();
            }
        }
        while let Some(std::cmp::Reverse(c)) = candidates.pop() {
            let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
            if c.dist > worst && results.len() >= ef {
                break;
            }
            if scored.get() >= max_evals {
                break;
            }
            // Expand every layer's links of the popped node, not just
            // layer 0: the upper layers are the graph's long-range
            // shortcuts, and under a tight budget the walk cannot afford
            // to reach distant basins one layer-0 hop at a time.
            for &nb in self.links[c.node].iter().flatten() {
                if !visited.insert(nb) {
                    continue;
                }
                if !is_allowed(nb) {
                    // Transparent: keep walking through the pruned node at
                    // the parent's priority, without scoring it — but only
                    // while the beam is still accepting. Without this gate
                    // the pruned nodes form zero-cost tunnels that drag
                    // the walk through the whole graph, scoring every
                    // survivor and erasing the pruning win.
                    let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
                    if results.len() < ef || c.dist < worst {
                        candidates.push(std::cmp::Reverse(HeapItem {
                            dist: c.dist,
                            node: nb,
                        }));
                    }
                    continue;
                }
                let d = dist(nb);
                let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
                if results.len() < ef || d < worst {
                    candidates.push(std::cmp::Reverse(HeapItem { dist: d, node: nb }));
                    results.push(HeapItem { dist: d, node: nb });
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        // Under a budget every evaluation is precious: rank the top-k over
        // *all* scored nodes (descent waypoints included), not just the
        // ef-heap — the heap may have evicted a node the budgeted beam
        // never got to re-add.
        let memo = memo.into_inner();
        let mut out: Vec<(f32, usize)> = memo.iter().map(|(&n, &d)| (d, n)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let result: Vec<(usize, f32)> = out.into_iter().take(k).map(|(d, n)| (n, d)).collect();
        (result, memo.len(), trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_vectors(n: usize) -> Vec<Vec<f32>> {
        // Points on a line: easy exact answers.
        (0..n).map(|i| vec![i as f32, 0.0]).collect()
    }

    #[test]
    fn exact_on_a_line() {
        let g = Hnsw::build(grid_vectors(200), 8, 64, 1);
        let res = g.search_l2(&[57.2, 0.0], 3, 32);
        let ids: Vec<usize> = res.iter().map(|&(n, _)| n).collect();
        assert_eq!(ids[0], 57);
        assert!(ids.contains(&58));
    }

    #[test]
    fn recall_on_random_vectors() {
        let mut rng = Rng64::seed_from(2);
        let vectors: Vec<Vec<f32>> = (0..300)
            .map(|_| (0..8).map(|_| rng.unit_f32()).collect())
            .collect();
        let g = Hnsw::build(vectors.clone(), 12, 96, 3);
        let mut hits = 0;
        let queries = 30;
        for qi in 0..queries {
            let q: Vec<f32> = (0..8).map(|_| rng.unit_f32()).collect();
            // Brute-force 5-NN.
            let mut all: Vec<(f32, usize)> = vectors
                .iter()
                .enumerate()
                .map(|(i, v)| (l2(&q, v), i))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let truth: HashSet<usize> = all[..5].iter().map(|&(_, i)| i).collect();
            let got = g.search_l2(&q, 5, 64);
            hits += got.iter().filter(|&&(n, _)| truth.contains(&n)).count();
            let _ = qi;
        }
        let recall = hits as f64 / (5 * queries) as f64;
        assert!(recall > 0.9, "recall {recall} too low");
    }

    #[test]
    fn generic_search_finds_low_cost_nodes() {
        let g = Hnsw::build(grid_vectors(300), 8, 64, 4);
        // Cost = |x - 123|: minimum at node 123; embeddings correlate with
        // cost, which is the WACO assumption.
        let (res, evals, trace) = g.search_generic(|n| (n as f32 - 123.0).abs(), 5, 48);
        assert_eq!(res[0].0, 123);
        assert!(evals < 300, "ANNS must not evaluate everything");
        assert!(!trace.is_empty());
        // Best-so-far trace is monotone nonincreasing.
        for w in trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Hnsw::build(vec![vec![1.0, 2.0]], 4, 8, 5);
        assert_eq!(g.len(), 1);
        let res = g.search_l2(&[0.0, 0.0], 3, 8);
        assert_eq!(res.len(), 1);
        let (r, _, _) = g.search_generic(|_| 7.0, 2, 8);
        assert_eq!(r[0], (0, 7.0));
    }

    #[test]
    fn deterministic_build_and_search() {
        let v = grid_vectors(100);
        let a = Hnsw::build(v.clone(), 6, 32, 9);
        let b = Hnsw::build(v, 6, 32, 9);
        assert_eq!(
            a.search_l2(&[40.1, 0.0], 4, 16),
            b.search_l2(&[40.1, 0.0], 4, 16)
        );
    }

    #[test]
    fn neighbors_exposed() {
        let g = Hnsw::build(grid_vectors(50), 4, 32, 11);
        assert!(!g.neighbors(25).is_empty());
        assert!(!g.is_empty());
    }

    #[test]
    fn masked_search_never_returns_or_evaluates_masked_nodes() {
        let g = Hnsw::build(grid_vectors(300), 8, 64, 4);
        // Mask out everything below 150 — including the cost argmin at 123.
        let allowed: Vec<bool> = (0..300).map(|n| n >= 150).collect();
        let mut scored: Vec<usize> = Vec::new();
        let (res, evals, _) = g.search_generic_masked(
            |n| {
                scored.push(n);
                (n as f32 - 123.0).abs()
            },
            5,
            48,
            &allowed,
        );
        assert!(!res.is_empty(), "survivors exist, result must be nonempty");
        assert!(res.iter().all(|&(n, _)| allowed[n]));
        assert!(scored.iter().all(|&n| allowed[n]));
        assert_eq!(evals, scored.len());
        // Best allowed node is 150; the beam must find it.
        assert_eq!(res[0].0, 150);
    }

    #[test]
    fn masked_search_with_full_mask_matches_unmasked_argmin() {
        let g = Hnsw::build(grid_vectors(300), 8, 64, 4);
        let allowed = vec![true; 300];
        let (res, evals, trace) =
            g.search_generic_masked(|n| (n as f32 - 123.0).abs(), 5, 48, &allowed);
        assert_eq!(res[0].0, 123);
        assert!(evals <= 300);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn masked_search_survives_a_single_survivor() {
        let g = Hnsw::build(grid_vectors(120), 6, 48, 7);
        let mut allowed = vec![false; 120];
        allowed[77] = true;
        let (res, evals, _) = g.search_generic_masked(|n| n as f32, 3, 16, &allowed);
        assert_eq!(res, vec![(77, 77.0)]);
        assert_eq!(evals, 1, "only the survivor is ever scored");
    }
}
