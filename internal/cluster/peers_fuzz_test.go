package cluster

import (
	"strings"
	"testing"
)

// FuzzParsePeers: ParsePeers never panics; whatever it accepts is a
// non-empty list of http(s) base URLs without a trailing slash; and every
// id a ring accepts splits back out of a wire id ("<id>:job-1") at its
// first colon, which is how the daemon routes job and sweep ids.
func FuzzParsePeers(f *testing.F) {
	for _, s := range []string{
		"a=http://h1:8344, b=http://h2:8344/,c=https://h3",
		"", ",", " , ", ",,", "a", "a=", "=http://x", "a=ftp://x",
		"a:b=http://x", "a=http://x,a=http://y", "a=http://", "a=https:///",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		nodes, err := ParsePeers(s)
		if err != nil {
			return
		}
		if len(nodes) == 0 {
			t.Fatalf("ParsePeers(%q) accepted an empty list", s)
		}
		for _, n := range nodes {
			if !strings.HasPrefix(n.Addr, "http://") && !strings.HasPrefix(n.Addr, "https://") || strings.HasSuffix(n.Addr, "/") {
				t.Fatalf("ParsePeers(%q): node %s has address %q, want an http(s) base URL without a trailing /", s, n.ID, n.Addr)
			}
		}
		if _, err := New(nodes, 1); err != nil {
			return
		}
		for _, n := range nodes {
			if id, _, _ := strings.Cut(n.ID+":job-1", ":"); id != n.ID {
				t.Fatalf("ParsePeers(%q): wire id of node %q splits to %q", s, n.ID, id)
			}
		}
	})
}
