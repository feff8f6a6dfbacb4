// Package cluster is the membership and placement layer of a multi-node
// eccsimd fleet. Membership is static — the operator passes the full
// replica list to every node (-peers) — and placement is a consistent-hash
// ring over the replicas' ids: every content address (the SHA-256 config
// hash that already identifies a result) maps to exactly one owner replica,
// and every replica computes the same mapping from the same member list
// with no coordination, no gossip, and no shared state beyond the flag.
//
// The ring hashes each node onto many virtual points (VNodes per replica)
// so ownership spreads evenly even with three nodes, and so removing one
// replica redistributes only that replica's arcs: keys owned by survivors
// keep their owner, which is what lets a cluster ride out a dead node with
// nothing but recomputation of the dead node's in-flight work (results are
// deterministic and content-addressed, so re-execution is always safe).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// DefaultVNodes is the virtual-node count used when a Ring is built with
// vnodes <= 0. 64 points per replica keeps the ownership imbalance of a
// 3-node ring within a few percent while the ring stays tiny (192 points).
const DefaultVNodes = 64

// Node is one replica of the fleet: a stable id (the -node-id flag) and the
// base URL peers reach it at (e.g. "http://10.0.0.7:8344").
type Node struct {
	ID   string
	Addr string
}

// point is one virtual node on the ring: a position in hash space and the
// index of the replica that owns the arc ending at it.
type point struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring. All methods are safe for
// concurrent use.
type Ring struct {
	nodes  []Node
	vnodes int
	points []point
}

// New builds a ring over the given replicas. Node ids must be non-empty and
// unique; addresses must be non-empty. vnodes <= 0 selects DefaultVNodes.
// The ring depends only on (sorted ids, vnodes), so every replica handed
// the same member list builds byte-for-byte identical placement.
func New(nodes []Node, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := make([]Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	seen := map[string]bool{}
	for _, n := range sorted {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node id must be non-empty")
		}
		// ":" and "/" are reserved: node ids prefix wire job/sweep ids as
		// "<id>:job-3", which must survive a URL path segment round trip.
		if strings.ContainsAny(n.ID, " ,=:/") {
			return nil, fmt.Errorf("cluster: node id %q must not contain spaces, commas, '=', ':' or '/'", n.ID)
		}
		if n.Addr == "" {
			return nil, fmt.Errorf("cluster: node %s has no address", n.ID)
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
	}
	r := &Ring{nodes: sorted, vnodes: vnodes, points: make([]point, 0, len(sorted)*vnodes)}
	for i, n := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("vnode:%s#%d", n.ID, v)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between vnode labels is astronomically
		// unlikely; break it by node index so placement stays deterministic.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// hash64 maps a label into ring space: the first 8 bytes of its SHA-256,
// big-endian. SHA-256 keeps placement identical across processes and
// architectures (no seeded or map-order-dependent hashing).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the replica that owns key: the node of the first ring point
// at or clockwise-after hash(key), wrapping at the top of hash space.
func (r *Ring) Owner(key string) Node {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.nodes[r.points[i].node]
}

// Nodes returns the membership, sorted by id. The slice is a copy.
func (r *Ring) Nodes() []Node {
	out := make([]Node, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Lookup returns the member with the given id.
func (r *Ring) Lookup(id string) (Node, bool) {
	for _, n := range r.nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// VNodes returns the virtual-node count per replica.
func (r *Ring) VNodes() int { return r.vnodes }

// OwnedFraction returns the fraction of hash space the given replica owns —
// the /metrics ring-state gauge. Every arc ends at a ring point and is owned
// by that point's node; the arc before the first point wraps from the last.
func (r *Ring) OwnedFraction(id string) float64 {
	var owned uint64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // wraps correctly in uint64 arithmetic
		if r.nodes[p.node].ID == id {
			owned += arc
		}
		prev = p.hash
	}
	return float64(owned) / float64(1<<63) / 2
}

// ParsePeers parses the -peers flag format: a comma-separated list of
// id=baseURL pairs, e.g. "a=http://h1:8344,b=http://h2:8344". Order does not
// matter (the ring sorts by id).
func ParsePeers(s string) ([]Node, error) {
	var nodes []Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: peer %q must be id=baseURL", part)
		}
		// Trim first: "http://" alone trims to "http:", which is no base URL.
		base := strings.TrimRight(addr, "/")
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			return nil, fmt.Errorf("cluster: peer %s address %q must be an http(s) base URL", id, addr)
		}
		nodes = append(nodes, Node{ID: id, Addr: base})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list %q", s)
	}
	return nodes, nil
}
