//! Decide-path scoring for
//! [`SelectionAgent::select`](crate::agent::SelectionAgent): work once per
//! distinct annotator state, not once per annotator.
//!
//! `serve.decide` is the service hot path: every refresh scores each
//! candidate object against the whole annotator pool and ranks the pool
//! per object, so done densely it costs O(objects × pool) Q-network
//! forwards plus O(objects × pool) ranking work (DESIGN.md §13.1). Two
//! mechanisms shrink the annotator dimension to the number of distinct
//! annotator states without changing a single selection:
//!
//! 1. **Columns** (`columns`): annotators enter the Q-network only
//!    through the annotator-specific block of the embedding
//!    ([`ANNOTATOR_SPECIFIC_DIM`] floats: quality, cost, kind, load); the
//!    run-level block is shared by the whole pool. Annotators with
//!    bit-identical blocks produce bit-identical Q-values for every
//!    object — in a large pool the overwhelming majority, since every
//!    annotator the inference engine has not yet profiled sits at the
//!    same prior quality, zero load and one of a handful of cost tiers.
//!    The exhaustive path's factored forward runs once over the distinct
//!    blocks instead of the whole pool; every forward is row-independent,
//!    so each (object, column) output is the one the exhaustive forward
//!    computes for every member of the column.
//!
//! 2. **Classes** (`Walk`): a class is a set of annotators sharing a
//!    column, UCB bonus bits and cost bits (kind is part of the column),
//!    so every member has the same adjusted score on every object and
//!    the same standing under the panel rules. An object's annotators,
//!    best first, are a k-way merge of class heads — score descending,
//!    then active position ascending, masked members skipped — which is
//!    exactly the order `topk::top_k_indices` gives the dense row, ties
//!    included. The top-k sum adds the first `k` walk scores; the panel
//!    fill (`Panel::fill_walk`) walks the same merge and drops a whole
//!    class when a kind or cost rule excludes one of its members.
//!
//! A call costs O(w) to group the `w` active annotators, O(c · classes)
//! for the `c` objects' sums, and one heap walk per chosen object.
//! Selections, sums and traces are bit-identical to
//! [`DecideMode::Exhaustive`], which `tests/decide_equiv.rs` and
//! `tests/property_decide.rs` pin.

use crate::features::ANNOTATOR_SPECIFIC_DIM;
use crowdrl_rl::UcbExplorer;
use crowdrl_types::{AnnotatorId, AnnotatorProfile};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// How `select` scores the (object × annotator) candidate grid.
/// Selections are bit-identical across modes; only the work differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DecideMode {
    /// Score once per distinct annotator state: column-deduplicated
    /// forwards and class-merged ranking (see the module docs).
    #[default]
    Pruned,
    /// Score every pair with one factored batched forward and rank the
    /// dense rows (the reference path).
    Exhaustive,
}

/// Cumulative decide-path statistics (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecideStats {
    /// Pairs a naive exhaustive pass over the *unfiltered* pool would
    /// have scored (candidates × full pool), summed over calls.
    pub total_pairs: u64,
    /// Pairs actually forwarded through the Q-network.
    pub scored_pairs: u64,
    /// Annotators that reached embedding/scoring after the feasibility
    /// pre-filter.
    pub forwarded_annotators: u64,
    /// Annotators dropped by the pre-filter (over-allowance cost or no
    /// free concurrency slots) before any embedding was built.
    pub filtered_annotators: u64,
}

impl DecideStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn delta_since(&self, earlier: &DecideStats) -> DecideStats {
        DecideStats {
            total_pairs: self.total_pairs - earlier.total_pairs,
            scored_pairs: self.scored_pairs - earlier.scored_pairs,
            forwarded_annotators: self.forwarded_annotators - earlier.forwarded_annotators,
            filtered_annotators: self.filtered_annotators - earlier.filtered_annotators,
        }
    }
}

/// Group annotators on the bit pattern of their annotator-specific
/// block: each annotator's column, and each column's block, in order of
/// first appearance.
pub(crate) fn columns(
    specifics: &[[f32; ANNOTATOR_SPECIFIC_DIM]],
) -> (Vec<usize>, Vec<[f32; ANNOTATOR_SPECIFIC_DIM]>) {
    let mut column_of_bits: HashMap<[u32; ANNOTATOR_SPECIFIC_DIM], usize> = HashMap::new();
    let mut blocks = Vec::new();
    let column_of = specifics
        .iter()
        .map(|block| {
            *column_of_bits
                .entry(block.map(f32::to_bits))
                .or_insert_with(|| {
                    blocks.push(*block);
                    blocks.len() - 1
                })
        })
        .collect();
    (column_of, blocks)
}

/// Q-values of every candidate object against every distinct annotator
/// column, with the active annotators grouped into score classes.
pub(crate) struct ClassScores {
    /// `c × g` raw Q-values, object-major.
    q: Vec<f64>,
    /// Number of distinct columns.
    g: usize,
    /// Score column of each class.
    column: Vec<usize>,
    /// Additive UCB bonus of each class (`None` when the explorer is
    /// absent or inactive and `score_soft` would return `q` unchanged).
    bonus: Option<Vec<f64>>,
    /// Members of each class, by ascending active position.
    members: Vec<Vec<usize>>,
}

impl ClassScores {
    /// Scores from the `c × g` object-major Q-values `q` of every
    /// candidate against every column, with annotator `ai` of `active`
    /// in column `column_of[ai]`.
    pub(crate) fn new(
        q: &[f32],
        g: usize,
        column_of: &[usize],
        active: &[&AnnotatorProfile],
        ucb: Option<&UcbExplorer>,
    ) -> Self {
        debug_assert_eq!(column_of.len(), active.len());
        // The UCB adjustment is additive and per annotator
        // (`score_soft(q, a) == q + bonus_soft(a)`, the identical f64
        // expression), except when the explorer is inactive and
        // `score_soft` returns `q` untouched — mirror that exactly.
        let bonus: Option<Vec<f64>> = match ucb {
            Some(u) if u.total() > 0 && u.scale != 0.0 => Some(
                active
                    .iter()
                    .map(|p| u.bonus_soft(p.id.index() as u64))
                    .collect(),
            ),
            _ => None,
        };
        let costs: Vec<f64> = active.iter().map(|p| p.cost).collect();
        let q = q.iter().map(|&v| v as f64).collect();
        Self::group(q, g, column_of, bonus.as_deref(), &costs)
    }

    /// Group annotators into classes of equal (column, bonus bits, cost
    /// bits), given each annotator's column, bonus and cost by active
    /// position.
    fn group(
        q: Vec<f64>,
        g: usize,
        column_of: &[usize],
        bonus: Option<&[f64]>,
        costs: &[f64],
    ) -> Self {
        let mut class_of: HashMap<(usize, u64, u64), usize> = HashMap::new();
        let mut column = Vec::new();
        let mut class_bonus = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (ai, &col) in column_of.iter().enumerate() {
            let b = bonus.map_or(0.0, |b| b[ai]);
            let key = (col, b.to_bits(), costs[ai].to_bits());
            let class = *class_of.entry(key).or_insert_with(|| {
                column.push(col);
                class_bonus.push(b);
                members.push(Vec::new());
                members.len() - 1
            });
            members[class].push(ai);
        }
        Self {
            q,
            g,
            column,
            bonus: bonus.map(|_| class_bonus),
            members,
        }
    }

    /// The adjusted score every member of `class` has on object `ci`.
    fn score(&self, ci: usize, class: usize) -> f64 {
        let q = self.q[ci * self.g + self.column[class]];
        match &self.bonus {
            Some(b) => q + b[class],
            None => q,
        }
    }

    /// Object `ci`'s annotators, best first. `masked` is the object's
    /// row of the already-answered mask, by active position.
    ///
    /// Panics on a NaN score, like `topk::top_k_indices` on the dense
    /// row.
    pub(crate) fn walk<'a>(&'a self, ci: usize, masked: &'a [bool]) -> Walk<'a> {
        let mut walk = Walk {
            members: &self.members,
            masked,
            cursor: vec![0; self.members.len()],
            heap: BinaryHeap::new(),
        };
        let mut heads = Vec::with_capacity(self.members.len());
        for class in 0..self.members.len() {
            if let Some(position) = walk.next_unmasked(class) {
                let score = self.score(ci, class);
                assert!(!score.is_nan(), "NaN score in top-k");
                // `-inf` entries are masked actions to `topk`: skipped.
                if score != f64::NEG_INFINITY {
                    heads.push(Head {
                        score,
                        position,
                        class,
                    });
                }
            }
        }
        walk.heap = BinaryHeap::from(heads);
        walk
    }

    /// Sum of object `ci`'s `k` best adjusted scores, bit-identical to
    /// `topk::top_k_sum` on the dense row (`-inf` when nothing
    /// qualifies).
    pub(crate) fn top_k_sum(&self, ci: usize, masked: &[bool], k: usize) -> f64 {
        let mut walk = self.walk(ci, masked);
        let mut best = Vec::with_capacity(k);
        while best.len() < k {
            let Some(head) = walk.pop() else { break };
            best.push(head.score);
            walk.resume(head);
        }
        if best.is_empty() {
            f64::NEG_INFINITY
        } else {
            best.iter().sum()
        }
    }
}

/// One member offered by a [`Walk`]: its active position and adjusted
/// score.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    /// Active position of the member.
    pub(crate) position: usize,
    /// The member's (and its class's) adjusted score.
    pub(crate) score: f64,
    class: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    /// Higher score first, then lower position: `topk`'s order. Scores
    /// compare with `partial_cmp` as `topk` does, so `-0.0` and `0.0`
    /// tie; NaN never enters a walk.
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.position.cmp(&self.position))
    }
}

/// One object's annotators best first: a k-way merge of class heads.
pub(crate) struct Walk<'a> {
    members: &'a [Vec<usize>],
    masked: &'a [bool],
    /// Index of each class's next unvisited member.
    cursor: Vec<usize>,
    heap: BinaryHeap<Head>,
}

impl Walk<'_> {
    /// The next unmasked member of `class`, advancing past it.
    fn next_unmasked(&mut self, class: usize) -> Option<usize> {
        let members = &self.members[class];
        let cursor = &mut self.cursor[class];
        while let Some(&position) = members.get(*cursor) {
            *cursor += 1;
            if !self.masked[position] {
                return Some(position);
            }
        }
        None
    }

    /// Take the best remaining member. Its class stays out of the walk
    /// until [`resume`](Walk::resume) offers the class's next member.
    pub(crate) fn pop(&mut self) -> Option<Head> {
        self.heap.pop()
    }

    /// Offer the next unmasked member of `head`'s class.
    pub(crate) fn resume(&mut self, head: Head) {
        if let Some(position) = self.next_unmasked(head.class) {
            self.heap.push(Head { position, ..head });
        }
    }
}

/// A panel under construction: the greedy fill's picks and the rules
/// they obey — at most one expert, each pick within the running
/// allowance, and no annotator past its free concurrency slots.
pub(crate) struct Panel<'a> {
    active: &'a [&'a AnnotatorProfile],
    slots: Option<&'a HashMap<AnnotatorId, usize>>,
    picked: &'a [usize],
    k: usize,
    /// Allowance left after the picks so far.
    pub(crate) allowance: f64,
    has_expert: bool,
    /// Chosen active positions, best first.
    pub(crate) picks: Vec<usize>,
}

impl<'a> Panel<'a> {
    /// An empty panel of up to `k` picks. `picked` counts the batch's
    /// earlier picks of each active annotator, checked against `slots`.
    pub(crate) fn new(
        active: &'a [&'a AnnotatorProfile],
        slots: Option<&'a HashMap<AnnotatorId, usize>>,
        picked: &'a [usize],
        allowance: f64,
        k: usize,
    ) -> Self {
        Self {
            active,
            slots,
            picked,
            k,
            allowance,
            has_expert: false,
            picks: Vec::with_capacity(k),
        }
    }

    /// Whether the kind or cost rule excludes `ai`. Both depend only on
    /// the annotator's kind and cost, and only tighten as the panel
    /// fills, so they exclude `ai`'s whole class for the rest of the
    /// fill.
    fn excludes(&self, ai: usize) -> bool {
        let profile = self.active[ai];
        (profile.is_expert() && self.has_expert) || profile.cost > self.allowance
    }

    /// Whether `ai`'s free concurrency slots are all spoken for.
    fn slot_exhausted(&self, ai: usize) -> bool {
        self.slots.is_some_and(|slots| {
            let free = slots
                .get(&self.active[ai].id)
                .copied()
                .unwrap_or(usize::MAX);
            self.picked[ai] >= free
        })
    }

    fn take(&mut self, ai: usize) {
        let profile = self.active[ai];
        self.allowance -= profile.cost;
        self.has_expert |= profile.is_expert();
        self.picks.push(ai);
    }

    /// Fill from a ranked list of active positions, best first.
    pub(crate) fn fill_ranked(&mut self, ranked: &[usize]) {
        for &ai in ranked {
            if self.picks.len() == self.k {
                break;
            }
            if !self.excludes(ai) && !self.slot_exhausted(ai) {
                self.take(ai);
            }
        }
    }

    /// Fill from a class walk: the same picks as
    /// [`fill_ranked`](Panel::fill_ranked) over the walk's full order,
    /// dropping a class at its first excluded member.
    pub(crate) fn fill_walk(&mut self, mut walk: Walk<'_>) {
        while self.picks.len() < self.k {
            let Some(head) = walk.pop() else { break };
            if self.excludes(head.position) {
                continue;
            }
            walk.resume(head);
            if !self.slot_exhausted(head.position) {
                self.take(head.position);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::OBJECT_PART_DIM;
    use crowdrl_linalg::Matrix;
    use crowdrl_nn::{Activation, Network};
    use crowdrl_rl::topk;
    use crowdrl_types::rng::seeded;
    use crowdrl_types::AnnotatorKind;
    use rand::Rng;

    /// A network, random object parts, and random annotator suffixes
    /// (specific block ++ one run block shared by all) sized for it.
    fn fixture(seed: u64, c: usize, w: usize) -> (Network, Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = seeded(seed);
        let net = Network::mlp(&[OBJECT_PART_DIM + 8, 16, 8, 1], Activation::Relu, &mut rng);
        let mut part = |n: usize, d: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..d).map(|_| rng.random::<f32>()).collect())
                .collect()
        };
        let objects = part(c, OBJECT_PART_DIM);
        let run = part(1, 8 - ANNOTATOR_SPECIFIC_DIM).remove(0);
        let suffixes = part(w, ANNOTATOR_SPECIFIC_DIM)
            .into_iter()
            .map(|mut s| {
                s.extend_from_slice(&run);
                s
            })
            .collect();
        (net, objects, suffixes)
    }

    fn workers(w: usize) -> Vec<AnnotatorProfile> {
        (0..w)
            .map(|i| AnnotatorProfile::new(AnnotatorId(i), AnnotatorKind::Worker, 1.0).unwrap())
            .collect()
    }

    /// Q-values of every object against every suffix through the
    /// factored outer forward, object-major.
    fn outer(net: &Network, objects: &[Vec<f32>], suffixes: &[Vec<f32>]) -> Vec<f32> {
        let stack = |rows: &[Vec<f32>]| {
            let mut m = Matrix::zeros(rows.len(), rows[0].len());
            for (i, r) in rows.iter().enumerate() {
                m.row_mut(i).copy_from_slice(r);
            }
            m
        };
        let out = net.forward_inference_outer(&stack(objects), &stack(suffixes));
        (0..out.rows()).map(|r| out.get(r, 0)).collect()
    }

    /// The dense reference: every pair forwarded, UCB-adjusted with
    /// `score_soft`, masked to `-inf`.
    fn dense_rows(
        net: &Network,
        objects: &[Vec<f32>],
        suffixes: &[Vec<f32>],
        masked: &[bool],
        ucb: Option<&UcbExplorer>,
    ) -> Vec<f64> {
        let w = suffixes.len();
        outer(net, objects, suffixes)
            .into_iter()
            .enumerate()
            .map(|(r, q)| match (masked[r], ucb) {
                (true, _) => f64::NEG_INFINITY,
                (false, Some(u)) => u.score_soft(q as f64, (r % w) as u64),
                (false, None) => q as f64,
            })
            .collect()
    }

    /// Class scores the way the agent builds them: forward the distinct
    /// blocks only.
    fn class_scores(
        net: &Network,
        objects: &[Vec<f32>],
        suffixes: &[Vec<f32>],
        ucb: Option<&UcbExplorer>,
    ) -> ClassScores {
        let profiles = workers(suffixes.len());
        let active: Vec<&AnnotatorProfile> = profiles.iter().collect();
        let specifics: Vec<[f32; ANNOTATOR_SPECIFIC_DIM]> = suffixes
            .iter()
            .map(|s| s[..ANNOTATOR_SPECIFIC_DIM].try_into().unwrap())
            .collect();
        let (column_of, blocks) = columns(&specifics);
        let run = &suffixes[0][ANNOTATOR_SPECIFIC_DIM..];
        let distinct: Vec<Vec<f32>> = blocks.iter().map(|b| [&b[..], run].concat()).collect();
        let q = outer(net, objects, &distinct);
        ClassScores::new(&q, blocks.len(), &column_of, &active, ucb)
    }

    /// The walk's full order on one object.
    fn walk_order(scores: &ClassScores, ci: usize, masked: &[bool]) -> Vec<(usize, u64)> {
        let mut walk = scores.walk(ci, masked);
        let mut out = Vec::new();
        while let Some(head) = walk.pop() {
            out.push((head.position, head.score.to_bits()));
            walk.resume(head);
        }
        out
    }

    /// Assert the walk order and top-k sums match `topk` on the dense
    /// rows bit for bit, for every object and `k` up to past the pool.
    fn assert_matches_dense(scores: &ClassScores, dense: &[f64], masked: &[bool], w: usize) {
        for ci in 0..dense.len() / w {
            let row = &dense[ci * w..(ci + 1) * w];
            let row_mask = &masked[ci * w..(ci + 1) * w];
            let want: Vec<(usize, u64)> = topk::top_k_indices(row, w)
                .into_iter()
                .map(|ai| (ai, row[ai].to_bits()))
                .collect();
            assert_eq!(walk_order(scores, ci, row_mask), want, "object {ci}");
            for k in 0..=w + 1 {
                assert_eq!(
                    scores.top_k_sum(ci, row_mask, k).to_bits(),
                    topk::top_k_sum(row, k).to_bits(),
                    "object {ci}, k {k}"
                );
            }
        }
    }

    #[test]
    fn walk_matches_dense_topk_bitwise() {
        for seed in [1u64, 2, 3] {
            let (net, objects, base) = fixture(seed, 6, 7);
            // 40 annotators over 7 distinct blocks, some pairs masked.
            let w = 40;
            let suffixes: Vec<Vec<f32>> = (0..w).map(|i| base[i % 7].clone()).collect();
            let mut masked = vec![false; objects.len() * w];
            for i in (0..masked.len()).step_by(5) {
                masked[i] = true;
            }
            let mut ucb = UcbExplorer::new(0.5);
            for a in 0..30u64 {
                ucb.record(a % 11);
            }
            for ucb in [None, Some(&ucb)] {
                let scores = class_scores(&net, &objects, &suffixes, ucb);
                assert_eq!(scores.g, 7);
                let dense = dense_rows(&net, &objects, &suffixes, &masked, ucb);
                assert_matches_dense(&scores, &dense, &masked, w);
            }
        }
    }

    #[test]
    fn duplicate_blocks_share_one_forwarded_column() {
        // 90 annotators but only 6 distinct blocks: the forward covers 6
        // columns, and every class score matches the dense reference
        // over all 90.
        let (net, objects, base) = fixture(23, 5, 6);
        let w = 90;
        let suffixes: Vec<Vec<f32>> = (0..w).map(|i| base[i % 6].clone()).collect();
        let scores = class_scores(&net, &objects, &suffixes, None);
        assert_eq!(scores.g, 6);
        assert_eq!(scores.members.len(), 6);
        let masked = vec![false; objects.len() * w];
        let dense = dense_rows(&net, &objects, &suffixes, &masked, None);
        assert_matches_dense(&scores, &dense, &masked, w);
    }

    /// Hand-built classes over explicit Q-values: `q[ci][col]`, each
    /// annotator's column, bonus and cost.
    fn hand_built(
        q: &[&[f64]],
        column_of: &[usize],
        bonus: Option<&[f64]>,
        costs: &[f64],
    ) -> (ClassScores, Vec<f64>) {
        let g = q[0].len();
        let flat: Vec<f64> = q.iter().flat_map(|row| row.iter().copied()).collect();
        let scores = ClassScores::group(flat.clone(), g, column_of, bonus, costs);
        let dense = (0..q.len())
            .flat_map(|ci| {
                column_of.iter().enumerate().map(move |(ai, &col)| {
                    let v = q[ci][col];
                    bonus.map_or(v, |b| v + b[ai])
                })
            })
            .collect();
        (scores, dense)
    }

    fn masked_dense(dense: &[f64], masked: &[bool]) -> Vec<f64> {
        dense
            .iter()
            .zip(masked)
            .map(|(&s, &m)| if m { f64::NEG_INFINITY } else { s })
            .collect()
    }

    #[test]
    fn rounded_ties_and_masked_heads_follow_topk_order() {
        // Two classes whose `q + bonus` round to the same f64 (1.0 + 1e-17
        // and 1.0 + 2e-17 are both 1.0), with interleaved members: the
        // lower position must come first whichever class it is in. A
        // third class sits below them, and its head is masked on
        // object 0.
        let column_of = [0, 0, 0, 0, 1, 1];
        let bonus = [1e-17, 2e-17, 1e-17, 2e-17, 0.0, 0.0];
        let costs = [1.0; 6];
        let (scores, dense) = hand_built(
            &[&[1.0, 0.5], &[1.0, 1.0]],
            &column_of,
            Some(&bonus),
            &costs,
        );
        assert_eq!(scores.members.len(), 3);
        assert_eq!(dense[0], dense[1]);
        let mut masked = vec![false; 12];
        masked[4] = true; // object 0: the third class's head
        masked[6 + 1] = true; // object 1: a tied member
        let dense = masked_dense(&dense, &masked);
        assert_eq!(
            walk_order(&scores, 0, &masked[..6])
                .iter()
                .map(|&(ai, _)| ai)
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 5]
        );
        assert_matches_dense(&scores, &dense, &masked, 6);
    }

    #[test]
    fn nan_and_infinite_scores_follow_topk() {
        // A `-inf` class is skipped like a masked action; `+inf` ranks
        // first.
        let (scores, dense) = hand_built(
            &[&[f64::NEG_INFINITY, f64::INFINITY, 0.0]],
            &[0, 1, 2, 0],
            None,
            &[1.0; 4],
        );
        let masked = vec![false; 4];
        assert_matches_dense(&scores, &dense, &masked, 4);
        // A NaN fails exactly as `topk` does, unless every member of its
        // class is masked.
        let (nan, _) = hand_built(&[&[f64::NAN, 1.0]], &[0, 1], None, &[1.0; 2]);
        assert_eq!(nan.top_k_sum(0, &[true, false], 1), 1.0);
        let panic = std::panic::catch_unwind(|| nan.top_k_sum(0, &[false, false], 1))
            .expect_err("NaN must fail");
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned());
        assert_eq!(message.as_deref(), Some("NaN score in top-k"));
    }

    fn profile(i: usize, kind: AnnotatorKind, cost: f64) -> AnnotatorProfile {
        AnnotatorProfile::new(AnnotatorId(i), kind, cost).unwrap()
    }

    /// Fill one fresh panel from the dense ranking and one from the walk
    /// of object 0, and assert identical picks and allowance.
    fn assert_fills_match<'a>(
        scores: &ClassScores,
        dense: &[f64],
        masked: &[bool],
        panel: impl Fn() -> Panel<'a>,
    ) -> Vec<usize> {
        let mut dense_panel = panel();
        dense_panel.fill_ranked(&topk::top_k_indices(dense, dense.len()));
        let mut walk_panel = panel();
        walk_panel.fill_walk(scores.walk(0, masked));
        assert_eq!(walk_panel.picks, dense_panel.picks);
        assert_eq!(
            walk_panel.allowance.to_bits(),
            dense_panel.allowance.to_bits()
        );
        walk_panel.picks
    }

    #[test]
    fn panel_fill_drops_expert_and_over_allowance_classes_mid_walk() {
        use AnnotatorKind::{Expert, Worker};
        // Positions by descending score class: two expert classes
        // (cost 5), then a cost-4 worker class, then cost-1 workers.
        let profiles = [
            profile(0, Expert, 5.0),
            profile(1, Worker, 4.0),
            profile(2, Expert, 5.0),
            profile(3, Worker, 1.0),
            profile(4, Expert, 5.0),
            profile(5, Worker, 4.0),
            profile(6, Worker, 1.0),
            profile(7, Worker, 4.0),
        ];
        let active: Vec<&AnnotatorProfile> = profiles.iter().collect();
        let column_of = [0, 2, 1, 3, 1, 2, 3, 2];
        let costs: Vec<f64> = profiles.iter().map(|p| p.cost).collect();
        let (scores, dense) = hand_built(&[&[4.0, 3.0, 2.0, 1.0]], &column_of, None, &costs);
        let masked = vec![false; 8];
        // Allowance 12: the first expert (0) is taken; the second expert
        // class (2, 4) is dropped by the one-expert rule; one cost-4
        // worker (1) fits, then 5 and 7 no longer do (3 left) and
        // their class is dropped; the cost-1 workers fill the rest.
        let picked = [0; 8];
        let picks = assert_fills_match(&scores, &dense, &masked, || {
            Panel::new(&active, None, &picked, 12.0, 4)
        });
        assert_eq!(picks, vec![0, 1, 3, 6]);
        // k larger than the number of eligible members: the walk runs
        // dry and both fills stop short.
        let picks = assert_fills_match(&scores, &dense, &masked, || {
            Panel::new(&active, None, &picked, 12.0, 8)
        });
        assert_eq!(picks, vec![0, 1, 3, 6]);
    }

    #[test]
    fn panel_fill_skips_slot_exhausted_members_one_at_a_time() {
        // One class of five workers: members 0 and 2 have used up their
        // slots this batch, 3 has one slot left, 1 and 4 are unbounded.
        let profiles = workers(5);
        let active: Vec<&AnnotatorProfile> = profiles.iter().collect();
        let (scores, dense) = hand_built(&[&[0.5]], &[0; 5], None, &[1.0; 5]);
        let slots: HashMap<AnnotatorId, usize> = [
            (AnnotatorId(0), 1),
            (AnnotatorId(2), 2),
            (AnnotatorId(3), 2),
        ]
        .into();
        let picked = [1, 0, 2, 1, 0];
        let mut masked = vec![false; 5];
        masked[4] = true;
        let dense = masked_dense(&dense, &masked);
        let picks = assert_fills_match(&scores, &dense, &masked, || {
            Panel::new(&active, Some(&slots), &picked, 10.0, 3)
        });
        assert_eq!(picks, vec![1, 3]);
    }
}
