//! Undirected capacitated multigraph with failure-aware connectivity.

use std::collections::VecDeque;

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Positional index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an (undirected) link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Positional index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A full-duplex link: `capacity` units are available independently in each
/// direction; the link fails as a unit (both directions).
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Per-direction capacity.
    pub capacity: f64,
}

impl Link {
    /// The endpoint opposite `n` (panics if `n` is not an endpoint).
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            debug_assert_eq!(n, self.b);
            self.a
        }
    }
}

/// A simple path: the visited node sequence plus the traversed links.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Node sequence, `nodes.len() == links.len() + 1`.
    pub nodes: Vec<NodeId>,
    /// Traversed links, in order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Hop count.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True for a degenerate (empty) path.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether the path survives when `failed[l]` marks dead links.
    pub fn alive(&self, failed: &[bool]) -> bool {
        self.links.iter().all(|l| !failed[l.index()])
    }

    /// Number of links shared with another path.
    pub fn shared_links(&self, other: &Path) -> usize {
        self.links
            .iter()
            .filter(|l| other.links.contains(l))
            .count()
    }
}

/// An undirected capacitated network topology.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable name (e.g. `"IBM"`).
    pub name: String,
    num_nodes: usize,
    links: Vec<Link>,
    /// `adj[n]` lists `(neighbor, link)` pairs.
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Build a topology from `(a, b, capacity)` link triples.
    pub fn new(name: &str, num_nodes: usize, link_list: &[(u32, u32, f64)]) -> Self {
        let mut links = Vec::with_capacity(link_list.len());
        let mut adj = vec![Vec::new(); num_nodes];
        for &(a, b, cap) in link_list {
            assert!((a as usize) < num_nodes && (b as usize) < num_nodes, "link endpoint out of range");
            assert_ne!(a, b, "self-loop links are not allowed");
            let id = LinkId(links.len() as u32);
            links.push(Link { a: NodeId(a), b: NodeId(b), capacity: cap });
            adj[a as usize].push((NodeId(b), id));
            adj[b as usize].push((NodeId(a), id));
        }
        Topology { name: name.to_string(), num_nodes, links, adj }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes as u32).map(NodeId)
    }

    /// All links with ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Borrow a link.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// Neighbors of `n` as `(neighbor, link)` pairs.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.index()]
    }

    /// All ordered node pairs `(s, d)`, `s != d` — the *pairs* `P` of the
    /// paper (one flow per pair per traffic class).
    pub fn ordered_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.num_nodes * (self.num_nodes - 1));
        for s in self.nodes() {
            for d in self.nodes() {
                if s != d {
                    out.push((s, d));
                }
            }
        }
        out
    }

    /// BFS reachability from `src` with `failed[l]` marking dead links.
    pub fn reachable_under_failures(&self, src: NodeId, failed: &[bool]) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes];
        let mut q = VecDeque::new();
        seen[src.index()] = true;
        q.push_back(src);
        while let Some(n) = q.pop_front() {
            for &(nb, l) in self.neighbors(n) {
                if !failed[l.index()] && !seen[nb.index()] {
                    seen[nb.index()] = true;
                    q.push_back(nb);
                }
            }
        }
        seen
    }

    /// Whether the whole graph is connected given failed links.
    pub fn connected_under_failures(&self, failed: &[bool]) -> bool {
        if self.num_nodes == 0 {
            return true;
        }
        self.reachable_under_failures(NodeId(0), failed)
            .iter()
            .all(|&s| s)
    }

    /// Whether the intact graph is connected.
    pub fn is_connected(&self) -> bool {
        self.connected_under_failures(&vec![false; self.num_links()])
    }

    /// Whether any single link failure disconnects the graph.
    pub fn survives_any_single_failure(&self) -> bool {
        let mut failed = vec![false; self.num_links()];
        for l in 0..self.num_links() {
            failed[l] = true;
            if !self.connected_under_failures(&failed) {
                return false;
            }
            failed[l] = false;
        }
        true
    }

    /// Recursively remove degree-1 nodes (the paper's preprocessing), and
    /// return the pruned topology with nodes re-indexed. Node identity is
    /// not preserved; the zoo generator never actually produces degree-1
    /// nodes, so this is exercised only by imported/custom topologies.
    pub fn prune_degree_one(&self) -> Topology {
        let mut alive_node = vec![true; self.num_nodes];
        let mut alive_link = vec![true; self.num_links()];
        loop {
            let mut changed = false;
            for n in 0..self.num_nodes {
                if !alive_node[n] {
                    continue;
                }
                let deg = self.adj[n]
                    .iter()
                    .filter(|(nb, l)| alive_node[nb.index()] && alive_link[l.index()])
                    .count();
                if deg <= 1 {
                    alive_node[n] = false;
                    for &(_, l) in &self.adj[n] {
                        alive_link[l.index()] = false;
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut remap = vec![u32::MAX; self.num_nodes];
        let mut next = 0u32;
        for n in 0..self.num_nodes {
            if alive_node[n] {
                remap[n] = next;
                next += 1;
            }
        }
        let links: Vec<(u32, u32, f64)> = self
            .links
            .iter()
            .enumerate()
            .filter(|(i, _)| alive_link[*i])
            .map(|(_, l)| (remap[l.a.index()], remap[l.b.index()], l.capacity))
            .collect();
        Topology::new(&self.name, next as usize, &links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        // The Fig. 1 topology: A(0), B(1), C(2), unit capacities.
        Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    }

    #[test]
    fn basic_accessors() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.link(LinkId(0)).other(NodeId(0)), NodeId(1));
        assert_eq!(t.ordered_pairs().len(), 6);
    }

    #[test]
    fn connectivity_under_failures() {
        let t = triangle();
        assert!(t.is_connected());
        assert!(t.survives_any_single_failure());
        // Fail A-B and A-C: A is isolated.
        let failed = vec![true, true, false];
        let r = t.reachable_under_failures(NodeId(0), &failed);
        assert_eq!(r, vec![true, false, false]);
        assert!(!t.connected_under_failures(&failed));
    }

    #[test]
    fn line_does_not_survive_single_failure() {
        let t = Topology::new("line", 3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert!(t.is_connected());
        assert!(!t.survives_any_single_failure());
    }

    #[test]
    fn prune_degree_one_removes_stub() {
        // Triangle with a pendant node 3 hanging off node 0.
        let t = Topology::new(
            "stub",
            4,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 1.0)],
        );
        let p = t.prune_degree_one();
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.num_links(), 3);
        assert!(p.survives_any_single_failure());
    }

    #[test]
    fn prune_handles_chains() {
        // A chain hanging off a triangle collapses entirely.
        let t = Topology::new(
            "chain",
            5,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 4, 1.0)],
        );
        let p = t.prune_degree_one();
        assert_eq!(p.num_nodes(), 3);
    }

    #[test]
    fn path_helpers() {
        let t = triangle();
        let p = Path { nodes: vec![NodeId(0), NodeId(2), NodeId(1)], links: vec![LinkId(1), LinkId(2)] };
        assert_eq!(p.len(), 2);
        assert!(p.alive(&[true, false, false]));
        assert!(!p.alive(&[false, true, false]));
        let q = Path { nodes: vec![NodeId(0), NodeId(2)], links: vec![LinkId(1)] };
        assert_eq!(p.shared_links(&q), 1);
        let _ = t;
    }
}
