//! Independent reference state for the output checks and the
//! Definition-2 accuracy.
//!
//! The checks never read through the service under test: compressed
//! graphs are read through a second `CompressedCsr` handle with the
//! cache-free `decode_into` path (so the service's decode cache, and the
//! process's peak RSS, are left alone), and graphs under churn are
//! rebuilt epoch by epoch from the mutation stream with a plain
//! `MutableGraph`.

use psr_core::serving::{BudgetAccountant, ServeError, Served};
use psr_graph::NodeId;
use psr_graph::{
    CompressedCsr, DecodeWorkspace, EdgeMutation, GraphView, MutableGraph, MutationOp,
};

/// Read access to one graph epoch's out-adjacency.
pub trait Adjacency {
    /// Node count.
    fn num_nodes(&self) -> usize;
    /// Replaces `out` with `v`'s sorted out-neighbours.
    fn out_neighbors(&mut self, v: NodeId, out: &mut Vec<NodeId>);
}

/// A compressed snapshot read through the cache-free decode path.
pub struct Decoded {
    csr: CompressedCsr,
    ws: DecodeWorkspace,
}

impl Decoded {
    /// Wraps a second handle on the snapshot the service serves.
    pub fn new(csr: CompressedCsr) -> Self {
        Decoded { csr, ws: DecodeWorkspace::new() }
    }
}

impl Adjacency for Decoded {
    fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    fn out_neighbors(&mut self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.csr.decode_into(v, &mut self.ws));
    }
}

/// An in-RAM graph advanced epoch by epoch through the mutation stream.
pub struct Replayed {
    graph: MutableGraph,
}

impl Replayed {
    /// Starts at the base graph (epoch 0).
    pub fn new(graph: MutableGraph) -> Self {
        Replayed { graph }
    }

    /// Applies one mutation batch: the next epoch.
    pub fn apply(&mut self, batch: &[EdgeMutation]) -> Result<(), String> {
        for m in batch {
            let applied = match m.op {
                MutationOp::Insert => self.graph.add_edge(m.u, m.v),
                MutationOp::Delete => self.graph.remove_edge(m.u, m.v),
            };
            applied.map_err(|e| format!("reference replay of {m}: {e}"))?;
        }
        Ok(())
    }
}

impl Adjacency for Replayed {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn out_neighbors(&mut self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(GraphView::neighbors(&self.graph, v));
    }
}

/// One served or refused request, tagged with the epoch it was pinned to.
pub struct Outcome {
    /// Graph version the request was evaluated against.
    pub epoch: u64,
    /// The requesting node.
    pub target: NodeId,
    /// Slots requested.
    pub k: usize,
    /// What the service answered.
    pub result: Result<Served, ServeError>,
}

/// A target's top-k optimum and its non-zero utilities sorted by node.
type TargetUtilities = (f64, Vec<(NodeId, u32)>);

/// Runs the output checks and accumulates violations and accuracies.
#[derive(Default)]
pub struct Checker {
    /// Violations found (each one counts as a failed operation).
    pub failed: u64,
    /// The first few violations, for the error report.
    pub messages: Vec<String>,
    /// Definition-2 accuracy of every served request whose target has a
    /// non-zero top-k optimum.
    pub accuracies: Vec<f64>,
    counts: Vec<u32>,
    touched: Vec<NodeId>,
    own: Vec<NodeId>,
    hop: Vec<NodeId>,
    /// The last target's (top-k optimum, non-zero utilities sorted by
    /// node) in the current epoch. One entry only: outcomes are checked
    /// grouped by target, and caching every target would grow with the
    /// run.
    utilities: Option<((NodeId, usize), TargetUtilities)>,
}

impl Checker {
    /// Records one violation.
    pub fn violation(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Forgets per-epoch cached utilities (call when the epoch advances).
    pub fn next_epoch(&mut self) {
        self.utilities = None;
    }

    /// Checks one served request against its epoch's adjacency and
    /// records its accuracy.
    pub fn check_served(&mut self, adj: &mut dyn Adjacency, served: &Served, k: usize) {
        let t = served.target;
        let recs = &served.recommendations;
        let mut own = std::mem::take(&mut self.own);
        adj.out_neighbors(t, &mut own);
        let mut sorted = recs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != recs.len() {
            self.violation(format!("target {t}: recommendations {recs:?} are not distinct"));
        }
        if recs.contains(&t) {
            self.violation(format!("target {t}: recommended itself"));
        }
        if let Some(r) = recs.iter().find(|r| own.binary_search(r).is_ok()) {
            self.violation(format!("target {t}: recommended existing out-neighbour {r}"));
        }
        let candidates = adj.num_nodes() - 1 - own.iter().filter(|&&v| v != t).count();
        if recs.len() != k.min(candidates) {
            self.violation(format!(
                "target {t}: {} recommendations, expected min(k={k}, |C|={candidates})",
                recs.len()
            ));
        }
        self.own = own;

        let (optimum, realised) = {
            let (optimum, utilities) = self.target_utilities(adj, t, k);
            let utility_of = |r: &NodeId| {
                utilities.binary_search_by_key(r, |&(v, _)| v).map_or(0, |i| utilities[i].1)
            };
            (*optimum, recs.iter().map(|r| f64::from(utility_of(r))).sum::<f64>())
        };
        if optimum > 0.0 {
            self.accuracies.push(realised / optimum);
        }
    }

    /// Common-neighbour utilities (2-step out-walk counts, candidates
    /// only) of `t` and their top-`k` sum.
    fn target_utilities(
        &mut self,
        adj: &mut dyn Adjacency,
        t: NodeId,
        k: usize,
    ) -> &TargetUtilities {
        if self.utilities.as_ref().map(|(key, _)| *key) != Some((t, k)) {
            let n = adj.num_nodes();
            if self.counts.len() < n {
                self.counts.resize(n, 0);
            }
            let mut own = Vec::new();
            adj.out_neighbors(t, &mut own);
            let mut hop = std::mem::take(&mut self.hop);
            for &w in &own {
                adj.out_neighbors(w, &mut hop);
                for &x in &hop {
                    if self.counts[x as usize] == 0 {
                        self.touched.push(x);
                    }
                    self.counts[x as usize] += 1;
                }
            }
            self.hop = hop;
            let mut utilities = Vec::with_capacity(self.touched.len());
            for &x in &self.touched {
                if x != t && own.binary_search(&x).is_err() {
                    utilities.push((x, self.counts[x as usize]));
                }
                self.counts[x as usize] = 0;
            }
            self.touched.clear();
            utilities.sort_unstable();
            let mut values: Vec<u32> = utilities.iter().map(|&(_, c)| c).collect();
            values.sort_unstable_by(|a, b| b.cmp(a));
            let optimum = values.iter().take(k).map(|&c| f64::from(c)).sum();
            self.utilities = Some(((t, k), (optimum, utilities)));
        }
        &self.utilities.as_ref().expect("just filled").1
    }

    /// Replays an admission order through an independent accountant;
    /// every refusal that disagrees with the service's is a violation.
    pub fn check_refusals<'a>(
        &mut self,
        budget: f64,
        epsilon: f64,
        admitted_in_order: impl Iterator<Item = (NodeId, &'a Result<Served, ServeError>)>,
    ) {
        let mut accountant = BudgetAccountant::new(budget);
        for (i, (target, outcome)) in admitted_in_order.enumerate() {
            let expected = accountant.try_charge(target, epsilon).is_err();
            let refused = matches!(outcome, Err(ServeError::BudgetExhausted { .. }));
            if expected != refused {
                self.violation(format!(
                    "request {i} (target {target}): refused={refused}, replay says {expected}"
                ));
            }
        }
    }

    /// Checks a set of outcomes against their epochs; `advance(adj, e)`
    /// moves the reference from epoch `e - 1` to `e`. Outcomes must be
    /// sorted by epoch, and within an epoch grouped by target.
    pub fn check_epochs<A: Adjacency>(
        &mut self,
        adj: &mut A,
        mut advance: impl FnMut(&mut A, u64) -> Result<(), String>,
        outcomes: &[Outcome],
    ) {
        let mut epoch = 0u64;
        for o in outcomes {
            while epoch < o.epoch {
                epoch += 1;
                if let Err(e) = advance(adj, epoch) {
                    self.violation(e);
                    return;
                }
                self.next_epoch();
            }
            match &o.result {
                Ok(served) => self.check_served(adj, served, o.k),
                Err(ServeError::BudgetExhausted { .. }) => {}
                Err(other) => self.violation(format!("request failed: {other}")),
            }
        }
    }
}
