//! A path-compressed binary trie (Patricia tree) for longest-prefix-match
//! route lookup.
//!
//! "Traditional implementations of routing tables use a version of
//! Patricia trees \[15\] with modifications for longest prefix matching"
//! (§2.1). This is that structure: internal nodes test one bit position
//! (skipping runs of common bits), and every node may carry a route whose
//! prefix ends there. Lookup walks at most 32 bit tests and remembers the
//! deepest matching route.

use crate::dir24::{check_next_hop, DIR_MAX_VALUE};

/// A route entry: `addr/len -> next_hop`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteEntry {
    pub prefix: u32,
    pub len: u8,
    pub next_hop: u32,
}

impl RouteEntry {
    pub fn new(prefix: u32, len: u8, next_hop: u32) -> RouteEntry {
        assert!(len <= 32);
        RouteEntry {
            prefix: mask(prefix, len),
            len,
            next_hop,
        }
    }

    /// True if `addr` falls inside this prefix.
    #[inline]
    pub fn matches(&self, addr: u32) -> bool {
        mask(addr, self.len) == self.prefix
    }
}

/// Longest-prefix match by linear scan over a plain route slice: the
/// executable *specification* of LPM that every engine in this crate
/// (and the fabric-level static verifier in raw-verify) is measured
/// against. Of two entries with equal length and equal prefix the
/// *last* wins, as in [`PatriciaTable::insert`] (a replace) and every
/// table built from a route list ([`canonical`]).
pub fn reference_lpm(routes: &[RouteEntry], addr: u32) -> Option<u32> {
    let mut best: Option<&RouteEntry> = None;
    for r in routes {
        if r.matches(addr) && best.is_none_or(|b| r.len >= b.len) {
            best = Some(r);
        }
    }
    best.map(|r| r.next_hop)
}

/// The canonical form of a route list, which both engines of a
/// [`ForwardingTable`](crate::ForwardingTable) are built from: prefixes
/// masked, sorted by `(prefix, len)`, one entry per `(prefix, len)` —
/// the last of any repeats, so a list means what inserting it in order
/// means. In this order every covering prefix comes before every prefix
/// it covers: a preorder walk of the trie.
///
/// The sort is a stable counting scatter on the masked prefix's top
/// bits, then a stable sort inside each bucket. The bucket count grows
/// with the list, about 16 routes a bucket and at most 2^16 buckets, so
/// a short list pays for a short count array.
pub fn canonical(routes: &[RouteEntry]) -> Vec<RouteEntry> {
    let bits = (usize::BITS - routes.len().leading_zeros())
        .saturating_sub(4)
        .min(16);
    let bucket = |prefix: u32| (u64::from(prefix) >> (32 - bits)) as usize;
    // `ends[b]` counts the routes in buckets up to `b`; the scatter,
    // walking the input backwards, moves it down to bucket `b`'s start.
    let mut ends = vec![0usize; (1 << bits) + 1];
    for r in routes {
        ends[bucket(mask(r.prefix, r.len))] += 1;
    }
    let mut total = 0;
    for e in &mut ends {
        total += *e;
        *e = total;
    }
    let mut out = vec![RouteEntry::new(0, 0, 0); routes.len()];
    for r in routes.iter().rev() {
        let r = RouteEntry::new(r.prefix, r.len, r.next_hop);
        let end = &mut ends[bucket(r.prefix)];
        *end -= 1;
        out[*end] = r;
    }
    for w in ends.windows(2) {
        // Stable: repeats keep their input order, so the last one is last.
        out[w[0]..w[1]].sort_by_key(key);
    }
    out.dedup_by(|later, kept| {
        let repeat = key(later) == key(kept);
        if repeat {
            *kept = *later;
        }
        repeat
    });
    out
}

/// The sort key of [`canonical`]: `(prefix, len)` in one integer.
#[inline]
fn key(r: &RouteEntry) -> u64 {
    ((r.prefix as u64) << 8) | r.len as u64
}

/// True if `routes` is already in [`canonical`] form.
pub(crate) fn is_canonical(routes: &[RouteEntry]) -> bool {
    routes.iter().all(|r| r.prefix == mask(r.prefix, r.len))
        && routes.windows(2).all(|w| key(&w[0]) < key(&w[1]))
}

/// Zero out host bits beyond `len`.
#[inline]
pub fn mask(addr: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - len as u32))
    }
}

#[inline]
fn bit(addr: u32, pos: u8) -> usize {
    debug_assert!(pos < 32);
    ((addr >> (31 - pos)) & 1) as usize
}

/// Index of a node in `PatriciaTable::nodes`. The root is node 0 and
/// never anyone's child, so a child index of [`NONE`] means no child.
type NodeId = u32;
const ROOT: NodeId = 0;
const NONE: NodeId = 0;

/// Width of a node id: a node's `child[0]` keeps its `plen` in the top
/// six bits.
const ID_BITS: u32 = 26;
const ID_MASK: u32 = (1 << ID_BITS) - 1;
/// Most nodes a trie holds, the root included.
const MAX_NODES: usize = 1 << ID_BITS;
/// Longest route list a trie is built from: each route adds at most a
/// leaf and the split above it.
const TRIE_MAX_ROUTES: usize = (MAX_NODES - 1) / 2;
/// The hop of a node no route ends at: past every next hop a route may
/// carry (the DIR's value field, the one limit both engines share).
const NO_ROUTE: u32 = u32::MAX;
const _: () = assert!(NO_ROUTE > DIR_MAX_VALUE);

/// A trie node in 16 bytes. A node holds a 32-bit prefix, two child
/// ids, a 6-bit `plen` and a next hop of up to 30 bits or none, which
/// does not fit in 12.
#[derive(Clone, Debug)]
struct Node {
    /// The prefix this node represents (its first `plen` bits).
    prefix: u32,
    /// Next hop of the route terminating exactly here, or [`NO_ROUTE`].
    hop: u32,
    /// Children keyed by the bit at position `plen`, [`ID_BITS`] wide;
    /// the top bits of `child[0]` hold `plen`.
    child: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn new(prefix: u32, plen: u8, hop: u32) -> Node {
        Node {
            prefix: mask(prefix, plen),
            hop,
            child: [u32::from(plen) << ID_BITS, NONE],
        }
    }

    #[inline]
    fn plen(&self) -> u8 {
        (self.child[0] >> ID_BITS) as u8
    }

    #[inline]
    fn child(&self, b: usize) -> NodeId {
        self.child[b] & ID_MASK
    }

    fn set_child(&mut self, b: usize, id: NodeId) {
        self.child[b] = (self.child[b] & !ID_MASK) | id;
    }

    fn route(&self) -> Option<u32> {
        (self.hop != NO_ROUTE).then_some(self.hop)
    }

    /// Set the next hop ([`NO_ROUTE`] for none); returns the old route.
    fn set_route(&mut self, hop: u32) -> Option<u32> {
        let old = self.route();
        self.hop = hop;
        old
    }

    /// Does this node's prefix cover the prefix `prefix/len`?
    fn covers(&self, prefix: u32, len: u8) -> bool {
        self.plen() <= len && mask(prefix, self.plen()) == self.prefix
    }
}

/// The nodes a trie of `routes` routes may need beyond the root; panics
/// if their ids would not fit in [`ID_BITS`].
fn node_budget(routes: usize) -> usize {
    assert!(
        routes <= TRIE_MAX_ROUTES,
        "{routes} routes exceed the trie's 26-bit node ids (max {TRIE_MAX_ROUTES} routes)"
    );
    2 * routes
}

/// Longest-prefix-match routing table as a Patricia trie. Its nodes live
/// in one arena and name their children by index.
#[derive(Clone, Debug)]
pub struct PatriciaTable {
    nodes: Vec<Node>,
    len: usize,
}

impl Default for PatriciaTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the common prefix of `a` and `b`, capped at `max`.
fn common_prefix_len(a: u32, b: u32, max: u8) -> u8 {
    (((a ^ b).leading_zeros() as u8).min(max)).min(32)
}

impl PatriciaTable {
    pub fn new() -> PatriciaTable {
        PatriciaTable {
            nodes: vec![Node::new(0, 0, NO_ROUTE)],
            len: 0,
        }
    }

    /// The table that inserting `routes` in order builds, built in one
    /// pass over their [`canonical`] form.
    pub fn from_routes(routes: &[RouteEntry]) -> PatriciaTable {
        PatriciaTable::from_canonical(&canonical(routes))
    }

    /// Build from a [`canonical`] route list. A path-compressed trie is
    /// unique for its key set, so this is the trie repeated
    /// [`insert`](Self::insert)s build, node for node. The list is a
    /// preorder walk: `path` holds the nodes from the root to the last
    /// one placed; each route pops back to its deepest ancestor there,
    /// then either hangs below it or splits the edge to the subtree
    /// already in that slot, which cannot cover it (that subtree would
    /// be on the path).
    ///
    /// Panics, before it allocates, on a list longer than
    /// [`TRIE_MAX_ROUTES`] or a next hop past [`DIR_MAX_VALUE`]. The
    /// arena is trimmed to the nodes placed, so
    /// [`memory_bytes`](Self::memory_bytes) is 16 bytes a node.
    pub(crate) fn from_canonical(routes: &[RouteEntry]) -> PatriciaTable {
        debug_assert!(is_canonical(routes));
        let budget = node_budget(routes.len());
        routes.iter().for_each(check_next_hop);
        let mut t = PatriciaTable::new();
        t.nodes.reserve_exact(budget);
        let mut path: Vec<NodeId> = vec![ROOT];
        for r in routes {
            while !t.nodes[*path.last().unwrap() as usize].covers(r.prefix, r.len) {
                path.pop();
            }
            let parent = *path.last().unwrap();
            t.len += 1;
            let p = &t.nodes[parent as usize];
            if p.plen() == r.len {
                // Only the root: a canonical list has one route per key,
                // and a split node sits below every route it covers.
                debug_assert!(parent == ROOT && p.route().is_none());
                t.nodes[parent as usize].hop = r.next_hop;
                continue;
            }
            let top = t.hang(parent, bit(r.prefix, p.plen()), r.prefix, r.len, r.next_hop);
            path.push(top);
            let top = &t.nodes[top as usize];
            if top.plen() < r.len {
                path.push(top.child(bit(r.prefix, top.plen())));
            }
        }
        t.nodes.shrink_to_fit();
        t
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        assert!(
            id < MAX_NODES,
            "the trie is full: node ids are 26 bits (max {MAX_NODES} nodes)"
        );
        self.nodes.push(node);
        id as NodeId
    }

    /// Hang the route `prefix/len` in child slot `b` of `parent`, whose
    /// subtree, if any, does not cover it: as a leaf, or below a new
    /// split node at the common prefix of the two. Returns the topmost
    /// new node.
    fn hang(&mut self, parent: NodeId, b: usize, prefix: u32, len: u8, hop: u32) -> NodeId {
        let old = self.nodes[parent as usize].child(b);
        let top = if old == NONE {
            self.push(Node::new(prefix, len, hop))
        } else {
            let o = &self.nodes[old as usize];
            let cpl = common_prefix_len(prefix, o.prefix, len.min(o.plen()));
            debug_assert!(cpl < o.plen(), "the subtree in the slot covers the route");
            let ob = bit(o.prefix, cpl);
            let split = self.push(Node::new(prefix, cpl, NO_ROUTE));
            self.nodes[split as usize].set_child(ob, old);
            if cpl == len {
                // Our prefix ends at the split point.
                self.nodes[split as usize].hop = hop;
            } else {
                let nb = bit(prefix, cpl);
                debug_assert_ne!(nb, ob, "split bit must differ");
                let leaf = self.push(Node::new(prefix, len, hop));
                self.nodes[split as usize].set_child(nb, leaf);
            }
            split
        };
        self.nodes[parent as usize].set_child(b, top);
        top
    }

    /// Number of routes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of trie nodes, the root and every split node included.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Heap footprint in bytes: the node arena at capacity, 16 bytes a
    /// node. A table built from a route list holds exactly
    /// [`node_count`](Self::node_count) nodes; one grown by
    /// [`insert`](Self::insert) is charged its spare capacity too.
    /// Asserted against a counting allocator in
    /// `tests/trie_memory_accounting.rs`.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
    }

    /// Insert or replace a route. Returns the previous next hop if the
    /// exact prefix was already present. Panics on a next hop past
    /// [`DIR_MAX_VALUE`].
    pub fn insert(&mut self, entry: RouteEntry) -> Option<u32> {
        check_next_hop(&entry);
        let len = entry.len;
        let prefix = mask(entry.prefix, len);
        let mut n = ROOT;
        loop {
            let node = &self.nodes[n as usize];
            debug_assert!(node.covers(prefix, len));
            if node.plen() == len {
                let old = self.nodes[n as usize].set_route(entry.next_hop);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let b = bit(prefix, node.plen());
            let c = node.child(b);
            if c != NONE && self.nodes[c as usize].covers(prefix, len) {
                n = c;
                continue;
            }
            self.hang(n, b, prefix, len, entry.next_hop);
            self.len += 1;
            return None;
        }
    }

    /// Longest-prefix-match lookup: the next hop of the most specific
    /// route covering `addr`, and the number of trie nodes visited
    /// (the Lookup Processor's memory-access count).
    pub fn lookup_traced(&self, addr: u32) -> (Option<u32>, u32) {
        let mut best = None;
        let mut node = &self.nodes[ROOT as usize];
        let mut visited = 0u32;
        loop {
            visited += 1;
            let plen = node.plen();
            if mask(addr, plen) != node.prefix {
                break;
            }
            if node.hop != NO_ROUTE {
                best = Some(node.hop);
            }
            if plen >= 32 {
                break;
            }
            match node.child(bit(addr, plen)) {
                NONE => break,
                c => node = &self.nodes[c as usize],
            }
        }
        (best, visited)
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        self.lookup_traced(addr).0
    }

    /// Remove a route by exact prefix; returns its next hop.
    /// (Structural simplification of emptied nodes is skipped — lookups
    /// remain correct and insertion reuses the nodes.)
    pub fn remove(&mut self, prefix: u32, len: u8) -> Option<u32> {
        let prefix = mask(prefix, len);
        let mut n = ROOT;
        loop {
            let node = &self.nodes[n as usize];
            if node.plen() == len && node.prefix == prefix {
                let old = self.nodes[n as usize].set_route(NO_ROUTE);
                if old.is_some() {
                    self.len -= 1;
                }
                return old;
            }
            if node.plen() >= len {
                return None;
            }
            match node.child(bit(prefix, node.plen())) {
                c if c != NONE && self.nodes[c as usize].covers(prefix, len) => n = c,
                _ => return None,
            }
        }
    }

    /// The ids of `n`'s children, slot 0 first.
    fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let n = &self.nodes[n as usize];
        [n.child(0), n.child(1)].into_iter().filter(|&c| c != NONE)
    }

    /// Iterate all stored routes (order unspecified but deterministic).
    pub fn iter(&self) -> Vec<RouteEntry> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            if let Some(h) = node.route() {
                out.push(RouteEntry {
                    prefix: node.prefix,
                    len: node.plen(),
                    next_hop: h,
                });
            }
            stack.extend(self.children(n));
        }
        out
    }

    /// Maximum node depth (bounds worst-case lookup cost).
    pub fn max_depth(&self) -> u32 {
        let mut deepest = 0;
        let mut stack = vec![(ROOT, 1u32)];
        while let Some((n, depth)) = stack.pop() {
            deepest = deepest.max(depth);
            stack.extend(self.children(n).map(|c| (c, depth + 1)));
        }
        deepest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(p: &str, len: u8, hop: u32) -> RouteEntry {
        let addr = p
            .split('.')
            .map(|o| o.parse::<u32>().unwrap())
            .fold(0u32, |a, o| (a << 8) | o);
        RouteEntry::new(addr, len, hop)
    }

    #[test]
    fn reference_lpm_agrees_with_the_patricia_table() {
        let routes = [
            e("10.0.0.0", 8, 1),
            e("10.1.0.0", 16, 2),
            e("10.1.2.0", 24, 3),
            e("0.0.0.0", 0, 9),
        ];
        let mut t = PatriciaTable::new();
        for r in &routes {
            t.insert(*r);
        }
        // A deterministic spray of probe addresses, including every
        // prefix boundary of the table above.
        let mut probes = vec![0x0a010203, 0x0a010303, 0x0a020303, 0x0b000001, 0, u32::MAX];
        let mut x = 0x12345678u32;
        for _ in 0..4096 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            probes.push(x);
        }
        for a in probes {
            assert_eq!(reference_lpm(&routes, a), t.lookup(a), "addr {a:#010x}");
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("10.1.0.0", 16, 2));
        t.insert(e("10.1.2.0", 24, 3));
        assert_eq!(t.lookup(0x0a010203), Some(3)); // 10.1.2.3
        assert_eq!(t.lookup(0x0a010303), Some(2)); // 10.1.3.3
        assert_eq!(t.lookup(0x0a020303), Some(1)); // 10.2.3.3
        assert_eq!(t.lookup(0x0b000001), None); // 11.0.0.1
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn default_route() {
        let mut t = PatriciaTable::new();
        t.insert(RouteEntry::new(0, 0, 9));
        t.insert(e("192.168.0.0", 16, 4));
        assert_eq!(t.lookup(0x01020304), Some(9));
        assert_eq!(t.lookup(0xc0a80505), Some(4));
    }

    #[test]
    fn replace_returns_old_hop() {
        let mut t = PatriciaTable::new();
        assert_eq!(t.insert(e("10.0.0.0", 8, 1)), None);
        assert_eq!(t.insert(e("10.0.0.0", 8, 7)), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x0a000001), Some(7));
    }

    #[test]
    fn host_routes() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.1", 32, 1));
        t.insert(e("10.0.0.2", 32, 2));
        assert_eq!(t.lookup(0x0a000001), Some(1));
        assert_eq!(t.lookup(0x0a000002), Some(2));
        assert_eq!(t.lookup(0x0a000003), None);
    }

    #[test]
    fn remove_routes() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("10.1.0.0", 16, 2));
        assert_eq!(t.remove(0x0a010000, 16), Some(2));
        assert_eq!(t.lookup(0x0a010203), Some(1), "falls back to /8");
        assert_eq!(t.remove(0x0a010000, 16), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sibling_prefixes_split_correctly() {
        let mut t = PatriciaTable::new();
        // 10.0.0.0/8 and 11.0.0.0/8 share 7 leading bits.
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("11.0.0.0", 8, 2));
        assert_eq!(t.lookup(0x0a123456), Some(1));
        assert_eq!(t.lookup(0x0b123456), Some(2));
    }

    #[test]
    fn iter_returns_everything() {
        let mut t = PatriciaTable::new();
        let routes = [
            e("10.0.0.0", 8, 1),
            e("10.1.0.0", 16, 2),
            e("172.16.0.0", 12, 3),
            e("0.0.0.0", 0, 4),
        ];
        for r in routes {
            t.insert(r);
        }
        let mut got = t.iter();
        got.sort_by_key(|r| (r.len, r.prefix));
        assert_eq!(got.len(), 4);
        assert!(got.iter().any(|r| r.len == 12 && r.next_hop == 3));
    }

    /// The trie takes the DIR's next-hop limit: the widest hop comes
    /// back whole through a leaf, a split node and the root, one past it
    /// fails a build and an insert alike.
    #[test]
    fn the_widest_hop_survives_every_kind_of_node() {
        let routes = [
            e("0.0.0.0", 0, DIR_MAX_VALUE),
            e("10.0.0.0", 8, DIR_MAX_VALUE - 1),
            e("10.1.0.0", 16, DIR_MAX_VALUE),
            e("10.128.0.0", 9, 7),
        ];
        let t = PatriciaTable::from_routes(&routes);
        for addr in [0x0a01_0203, 0x0a02_0000, 0x0a80_0001, 0x0b00_0000] {
            assert_eq!(t.lookup(addr), reference_lpm(&routes, addr), "{addr:#x}");
        }
        assert_eq!(t.lookup(0x0a01_0203), Some(DIR_MAX_VALUE));
    }

    #[test]
    #[should_panic(expected = "exceeds the DIR's 30-bit value field (max 1073741823)")]
    fn a_hop_past_the_limit_fails_the_trie_build() {
        PatriciaTable::from_routes(&[e("10.0.0.0", 8, DIR_MAX_VALUE + 1)]);
    }

    #[test]
    #[should_panic(expected = "exceeds the DIR's 30-bit value field (max 1073741823)")]
    fn a_hop_past_the_limit_fails_an_insert() {
        PatriciaTable::new().insert(e("10.0.0.0", 8, DIR_MAX_VALUE + 1));
    }

    /// A list too long for 26-bit node ids fails on its length, before
    /// the arena is reserved; the longest list that fits needs ids up
    /// to 2^26 - 1.
    #[test]
    #[should_panic(
        expected = "33554432 routes exceed the trie's 26-bit node ids (max 33554431 routes)"
    )]
    fn a_list_past_the_node_ids_fails_before_it_allocates() {
        assert_eq!(node_budget(TRIE_MAX_ROUTES) + 1, MAX_NODES - 1);
        node_budget(TRIE_MAX_ROUTES + 1);
    }

    #[test]
    fn memory_is_sixteen_bytes_a_node() {
        let t = PatriciaTable::from_routes(&[e("10.0.0.0", 8, 1), e("11.0.0.0", 8, 2)]);
        assert_eq!(t.node_count(), 4, "root, split at 10/7, two leaves");
        assert_eq!(t.memory_bytes(), 16 * 4);
    }

    #[test]
    fn lookup_traced_counts_accesses() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("10.1.0.0", 16, 2));
        let (hop, visited) = t.lookup_traced(0x0a010203);
        assert_eq!(hop, Some(2));
        assert!((2..=33).contains(&visited), "visited {visited}");
        assert!(t.max_depth() <= 34);
    }
}
