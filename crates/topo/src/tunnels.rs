//! Tunnel selection policies (§6 of the paper).
//!
//! Traffic for a source-destination pair is carried over a small set of
//! pre-installed tunnels; on failure only the split ratios change (SMORE's
//! "semi-oblivious" model, also used by Flexile's online phase). The paper
//! balances latency (prefer short paths) and disjointness (avoid shared
//! links) and uses:
//!
//! * **single class** — three physical tunnels as disjoint as possible,
//!   preferring shorter ones;
//! * **high priority** — three shortest paths such that no single link
//!   failure kills all of them (best effort when topology prevents it);
//! * **low priority** — the high-priority tunnels plus three more from a
//!   larger shortest-path pool, prioritizing disjointness.

use crate::graph::{NodeId, Path, Topology};
use crate::paths::k_shortest_paths;

/// A tunnel is a loopless path; tunnels are identified positionally within
/// their [`TunnelSet`].
pub type Tunnel = Path;

/// Which tunnel-selection policy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelClass {
    /// Three max-disjoint short tunnels (single-class experiments).
    SingleClass,
    /// Three shortest tunnels, collectively resilient to any single failure.
    HighPriority,
    /// High-priority tunnels plus three disjointness-preferring extras.
    LowPriority,
}

/// Tunnels for every ordered pair of a topology.
#[derive(Debug, Clone)]
pub struct TunnelSet {
    /// Ordered pairs, aligned with `tunnels`.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// `tunnels[p]` holds the tunnels of pair `p`.
    pub tunnels: Vec<Vec<Tunnel>>,
}

impl TunnelSet {
    /// Build tunnels for the given pairs under a policy.
    pub fn build(topo: &Topology, pairs: &[(NodeId, NodeId)], class: TunnelClass) -> Self {
        let tunnels = pairs
            .iter()
            .map(|&(s, d)| select_tunnels(topo, s, d, class))
            .collect();
        TunnelSet { pairs: pairs.to_vec(), tunnels }
    }

    /// Whether pair `p` has at least one tunnel alive under `failed` links.
    pub fn pair_alive(&self, p: usize, failed: &[bool]) -> bool {
        self.tunnels[p].iter().any(|t| t.alive(failed))
    }
}

/// Greedy disjointness-aware selection from a candidate pool: repeatedly
/// pick the candidate minimizing `(shared links with chosen, length)`.
fn greedy_disjoint(candidates: &[Path], chosen: &mut Vec<Path>, want: usize) {
    while chosen.len() < want {
        let mut best: Option<(usize, usize, usize)> = None; // (shared, len, idx)
        for (i, c) in candidates.iter().enumerate() {
            if chosen.contains(c) {
                continue;
            }
            let shared: usize = chosen.iter().map(|p| p.shared_links(c)).sum();
            let key = (shared, c.len(), i);
            if best.is_none_or(|b| (key.0, key.1, key.2) < b) {
                best = Some(key);
            }
        }
        match best {
            Some((_, _, i)) => chosen.push(candidates[i].clone()),
            None => break,
        }
    }
}

/// Does any single link failure kill every path in `set`?
fn single_failure_vulnerable(topo: &Topology, set: &[Path]) -> Option<usize> {
    if set.is_empty() {
        return None;
    }
    let mut failed = vec![false; topo.num_links()];
    for l in 0..topo.num_links() {
        failed[l] = true;
        if set.iter().all(|p| !p.alive(&failed)) {
            failed[l] = false;
            return Some(l);
        }
        failed[l] = false;
    }
    None
}

/// Select tunnels for a single pair under a policy.
pub fn select_tunnels(topo: &Topology, src: NodeId, dst: NodeId, class: TunnelClass) -> Vec<Tunnel> {
    match class {
        TunnelClass::SingleClass => {
            let pool = k_shortest_paths(topo, src, dst, 15);
            let mut chosen = Vec::new();
            if let Some(first) = pool.first() {
                chosen.push(first.clone());
            }
            greedy_disjoint(&pool, &mut chosen, 3);
            chosen
        }
        TunnelClass::HighPriority => {
            let pool = k_shortest_paths(topo, src, dst, 15);
            let mut chosen: Vec<Path> = pool.iter().take(3).cloned().collect();
            // Repair: if some single link kills all three, try swapping the
            // longest chosen tunnel for a pool path avoiding that link.
            for _ in 0..4 {
                let vulnerable = match single_failure_vulnerable(topo, &chosen) {
                    Some(l) => l,
                    None => break,
                };
                let replacement = pool.iter().find(|c| {
                    !c.links.iter().any(|l| l.index() == vulnerable) && !chosen.contains(c)
                });
                match replacement {
                    Some(r) => {
                        // Replace the last (longest) tunnel.
                        let n = chosen.len();
                        if n == 0 {
                            break;
                        }
                        chosen[n - 1] = r.clone();
                    }
                    None => break,
                }
            }
            chosen
        }
        TunnelClass::LowPriority => {
            let mut chosen = select_tunnels(topo, src, dst, TunnelClass::HighPriority);
            let pool = k_shortest_paths(topo, src, dst, 25);
            greedy_disjoint(&pool, &mut chosen, 6);
            chosen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;

    fn grid() -> Topology {
        // 3x3-ish mesh giving plenty of path diversity between 0 and 5.
        Topology::new(
            "mesh",
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 5, 1.0),
                (0, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (1, 4, 1.0),
                (0, 5, 1.0),
            ],
        )
    }

    #[test]
    fn single_class_prefers_disjoint() {
        let t = grid();
        let ts = select_tunnels(&t, NodeId(0), NodeId(5), TunnelClass::SingleClass);
        assert_eq!(ts.len(), 3);
        // First tunnel is the direct link.
        assert_eq!(ts[0].len(), 1);
        // The three tunnels use strictly more links than any pair of them
        // would if fully overlapping; check pairwise shared links are small.
        let shared01 = ts[0].shared_links(&ts[1]);
        let shared02 = ts[0].shared_links(&ts[2]);
        assert_eq!(shared01 + shared02, 0, "direct link shares nothing");
    }

    #[test]
    fn high_priority_survives_single_failures() {
        let t = grid();
        let ts = select_tunnels(&t, NodeId(0), NodeId(5), TunnelClass::HighPriority);
        assert!(!ts.is_empty());
        assert!(single_failure_vulnerable(&t, &ts).is_none());
    }

    #[test]
    fn low_priority_extends_high_priority() {
        let t = grid();
        let hi = select_tunnels(&t, NodeId(0), NodeId(5), TunnelClass::HighPriority);
        let lo = select_tunnels(&t, NodeId(0), NodeId(5), TunnelClass::LowPriority);
        assert!(lo.len() >= hi.len());
        for h in &hi {
            assert!(lo.contains(h), "low-priority tunnels must include high-priority ones");
        }
    }

    #[test]
    fn tunnel_set_alive_detection() {
        let t = grid();
        let pairs = vec![(NodeId(0), NodeId(5))];
        let ts = TunnelSet::build(&t, &pairs, TunnelClass::SingleClass);
        let alive_all = vec![false; t.num_links()];
        assert!(ts.pair_alive(0, &alive_all));
        let all_failed = vec![true; t.num_links()];
        assert!(!ts.pair_alive(0, &all_failed));
    }

    #[test]
    fn sparse_pair_gets_best_effort() {
        // Line graph: only one path exists.
        let t = Topology::new("line", 3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let ts = select_tunnels(&t, NodeId(0), NodeId(2), TunnelClass::HighPriority);
        assert_eq!(ts.len(), 1); // duplicates are not fabricated
    }
}
