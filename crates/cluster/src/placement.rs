//! Sensor → node placement via rendezvous (highest-random-weight) hashing.
//!
//! Every `(sensor, node)` pair gets a deterministic 64-bit score; the node
//! with the highest score owns the sensor. The properties that make HRW
//! the right shape for a sensor fleet:
//!
//! - **Exactly one owner** per sensor, with no coordination: any process
//!   that knows the node list computes the same answer (the hash is pure
//!   arithmetic — no `RandomState`, no process-local seeds).
//! - **Minimal movement**: adding a node steals only the sensors whose
//!   new score beats every incumbent — in expectation `1/(n+1)` of the
//!   fleet — and removing a node reassigns only *its* sensors. Everything
//!   else keeps its owner, which is what keeps migration traffic (a
//!   checkpoint + WAL-tail hand-off per moved sensor) proportional to the
//!   change, not the fleet.
//! - **No ring state**: unlike consistent-hash rings there are no virtual
//!   nodes to size or rebalance; the node list *is* the whole state.
//!
//! Ties are broken by node name (larger name wins) so the map stays total
//! and deterministic even against adversarial hash collisions.

/// SplitMix64 finaliser: a cheap, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string, for hashing node names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The rendezvous score of `(node, sensor)` — higher wins.
pub fn score(node: &str, sensor: u64) -> u64 {
    mix64(fnv1a(node.as_bytes()) ^ mix64(sensor ^ 0x5D47_73CC_9E30_34F1))
}

/// A cluster membership list with rendezvous-hash sensor placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    nodes: Vec<String>,
}

impl Placement {
    /// Build a placement over `nodes` (order does not matter; duplicates
    /// are collapsed).
    pub fn new<I, S>(nodes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut nodes: Vec<String> = nodes.into_iter().map(Into::into).collect();
        nodes.sort();
        nodes.dedup();
        Placement { nodes }
    }

    /// The member node names, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are registered (nothing can own anything).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node that owns `sensor`, or `None` on an empty membership.
    /// Deterministic across processes and architectures.
    pub fn owner(&self, sensor: u64) -> Option<&str> {
        self.nodes
            .iter()
            .max_by(|a, b| score(a, sensor).cmp(&score(b, sensor)).then_with(|| a.cmp(b)))
            .map(String::as_str)
    }

    /// A copy of this placement with `node` added.
    pub fn with_node(&self, node: &str) -> Placement {
        let mut nodes = self.nodes.clone();
        nodes.push(node.to_string());
        Placement::new(nodes)
    }

    /// A copy of this placement with `node` removed.
    pub fn without_node(&self, node: &str) -> Placement {
        Placement::new(self.nodes.iter().filter(|n| n.as_str() != node).cloned())
    }

    /// The sensors in `0..fleet` this placement assigns to `node`.
    pub fn owned_by(&self, node: &str, fleet: u64) -> Vec<u64> {
        (0..fleet).filter(|&s| self.owner(s) == Some(node)).collect()
    }
}

/// One sensor changing owners between two placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Move {
    /// The sensor that moves.
    pub sensor: u64,
    /// Its owner under the old placement (`None` if the old membership
    /// was empty).
    pub from: Option<String>,
    /// Its owner under the new placement (`None` if the new membership
    /// is empty).
    pub to: Option<String>,
}

/// The sensors in `0..fleet` whose owner differs between `old` and `new`
/// — the hand-off work list for a membership change. Each entry's state
/// travels as a checkpoint + WAL-tail transfer (the mechanism follower
/// bootstrap already uses), so the cost of a change is proportional to
/// this list, which rendezvous hashing keeps near `fleet / n` for a
/// single-node change.
pub fn rebalance_plan(old: &Placement, new: &Placement, fleet: u64) -> Vec<Move> {
    (0..fleet)
        .filter_map(|sensor| {
            let from = old.owner(sensor).map(str::to_string);
            let to = new.owner(sensor).map(str::to_string);
            if from == to {
                None
            } else {
                Some(Move { sensor, from, to })
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_membership_owns_nothing() {
        let p = Placement::new(Vec::<String>::new());
        assert!(p.is_empty());
        assert_eq!(p.owner(0), None);
    }

    #[test]
    fn duplicates_collapse_and_order_is_irrelevant() {
        let a = Placement::new(["n2", "n1", "n1"]);
        let b = Placement::new(["n1", "n2"]);
        assert_eq!(a, b);
        for s in 0..64 {
            assert_eq!(a.owner(s), b.owner(s));
        }
    }

    #[test]
    fn ownership_partitions_the_fleet() {
        let p = Placement::new(["a", "b", "c"]);
        let fleet = 300u64;
        let counts: Vec<usize> = p.nodes().iter().map(|n| p.owned_by(n, fleet).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), fleet as usize);
        // HRW balances in expectation; with 300 sensors over 3 nodes no
        // node should starve or hoard pathologically.
        for &c in &counts {
            assert!(c > 50 && c < 150, "pathological skew: {counts:?}");
        }
    }

    #[test]
    fn removing_a_node_moves_only_its_sensors() {
        let old = Placement::new(["a", "b", "c", "d"]);
        let new = old.without_node("c");
        let plan = rebalance_plan(&old, &new, 400);
        for m in &plan {
            assert_eq!(m.from.as_deref(), Some("c"), "only c's sensors may move: {m:?}");
            assert_ne!(m.to.as_deref(), Some("c"));
        }
        assert_eq!(plan.len(), old.owned_by("c", 400).len());
    }
}
