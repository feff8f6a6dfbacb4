package cluster

import (
	"fmt"
	"testing"
)

func threeNodes() []Node {
	return []Node{
		{ID: "a", Addr: "http://h1:8344"},
		{ID: "b", Addr: "http://h2:8344"},
		{ID: "c", Addr: "http://h3:8344"},
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		nodes []Node
	}{
		{"empty", nil},
		{"blank id", []Node{{ID: "", Addr: "http://x"}}},
		{"dup id", []Node{{ID: "a", Addr: "http://x"}, {ID: "a", Addr: "http://y"}}},
		{"no addr", []Node{{ID: "a"}}},
		{"id with =", []Node{{ID: "a=b", Addr: "http://x"}}},
	}
	for _, c := range cases {
		if _, err := New(c.nodes, 0); err == nil {
			t.Errorf("New(%s): expected error", c.name)
		}
	}
}

// Placement must be a pure function of (member ids, vnodes): two rings built
// from the same list — in any order — agree on every key, across processes.
func TestDeterministicPlacement(t *testing.T) {
	r1, err := New(threeNodes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []Node{threeNodes()[2], threeNodes()[0], threeNodes()[1]}
	r2, err := New(shuffled, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a, b := r1.Owner(key).ID, r2.Owner(key).ID; a != b {
			t.Fatalf("key %q: ring1 owner %s != ring2 owner %s", key, a, b)
		}
	}
}

// With DefaultVNodes the three-way split should be roughly even: no node
// owns less than 15% or more than 55% of 10k uniform keys.
func TestDistribution(t *testing.T) {
	r, err := New(threeNodes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("result-%d", i)).ID]++
	}
	for id, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("node %s owns %.1f%% of keys, outside [15%%, 55%%]", id, 100*frac)
		}
	}
	var total float64
	for _, id := range []string{"a", "b", "c"} {
		f := r.OwnedFraction(id)
		if f <= 0 || f >= 1 {
			t.Errorf("OwnedFraction(%s) = %v, want in (0,1)", id, f)
		}
		total += f
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("owned fractions sum to %v, want 1", total)
	}
}

// The consistent-hashing property: removing one node moves only the keys it
// owned. Every key owned by a survivor keeps its owner.
func TestRemovalStability(t *testing.T) {
	r3, err := New(threeNodes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(threeNodes()[:2], 0) // node c removed
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r3.Owner(key).ID
		after := r2.Owner(key).ID
		if before == "c" {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q owned by survivor %s moved to %s when c left", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("expected node c to own some keys before removal")
	}
}

func TestLookup(t *testing.T) {
	r, err := New(threeNodes(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := r.Lookup("b"); !ok || n.Addr != "http://h2:8344" {
		t.Fatalf("Lookup(b) = %+v, %v", n, ok)
	}
	if _, ok := r.Lookup("zzz"); ok {
		t.Fatal("Lookup(zzz) should miss")
	}
	if r.VNodes() != 8 {
		t.Fatalf("VNodes() = %d, want 8", r.VNodes())
	}
	if got := len(r.Nodes()); got != 3 {
		t.Fatalf("Nodes() len = %d, want 3", got)
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("a=http://h1:8344, b=http://h2:8344/,c=https://h3")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("parsed %d nodes, want 3", len(nodes))
	}
	if nodes[1].ID != "b" || nodes[1].Addr != "http://h2:8344" {
		t.Fatalf("node b = %+v (trailing slash should be trimmed)", nodes[1])
	}
	for _, bad := range []string{"", ",", " , ", ",,", "a", "a=", "=http://x", "a=ftp://x"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): expected error", bad)
		}
	}
}
