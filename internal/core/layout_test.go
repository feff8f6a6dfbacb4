package core

import (
	"math"
	"testing"
)

// TestGroupPartition verifies the structural invariants of the parity
// grouping for several channel counts: every line belongs to exactly one
// group, every group has N−1 members from distinct channels, and the
// mapping is involutive (GroupOf ↔ MemberLine).
func TestGroupPartition(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 10} {
		lines := 6 * (n - 1) // a few macro-stripes
		members := map[GroupKey]map[int]bool{}
		for c := 0; c < n; c++ {
			for i := 0; i < lines; i++ {
				g := GroupOf(c, i, n, 0)
				if g.K == c {
					t.Fatalf("n=%d: line (%d,%d) grouped with its own parity channel", n, c, i)
				}
				back, ok := g.MemberLine(c, n)
				if !ok || back != i {
					t.Fatalf("n=%d: MemberLine(%d) = %d,%v; want %d", n, c, back, ok, i)
				}
				if members[g] == nil {
					members[g] = map[int]bool{}
				}
				if members[g][c] {
					t.Fatalf("n=%d: channel %d contributes twice to %+v", n, c, g)
				}
				members[g][c] = true
			}
		}
		for g, chans := range members {
			if len(chans) != n-1 {
				t.Fatalf("n=%d: group %+v has %d members, want %d", n, g, len(chans), n-1)
			}
			if chans[g.K] {
				t.Fatalf("n=%d: parity channel contributes data to its own group", n)
			}
		}
		// Group count: N·lines data lines, N−1 per group.
		wantGroups := n * lines / (n - 1)
		if len(members) != wantGroups {
			t.Fatalf("n=%d: %d groups, want %d", n, len(members), wantGroups)
		}
	}
}

func TestGroupParityChannelBalanced(t *testing.T) {
	// Parity storage must spread over channels (Fig. 4's distribution).
	n := 4
	counts := make([]int, n)
	for c := 0; c < n; c++ {
		for i := 0; i < 300; i++ {
			counts[GroupOf(c, i, n, 0).K]++
		}
	}
	for k, got := range counts {
		if got == 0 {
			t.Fatalf("channel %d never stores parity", k)
		}
	}
}

func TestGroupPeers(t *testing.T) {
	g := GroupKey{Bank: 0, M: 0, K: 2}
	peers := g.Peers(4)
	if len(peers) != 3 {
		t.Fatalf("peers %v", peers)
	}
	for _, p := range peers {
		if p == 2 {
			t.Fatal("parity channel listed as peer")
		}
	}
}

func TestGroupOfPanicsOnOneChannel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	GroupOf(0, 0, 1, 0)
}

// TestStaticOverheadTableIII pins the paper's Table III values exactly.
func TestStaticOverheadTableIII(t *testing.T) {
	cases := []struct {
		r        float64
		channels int
		want     float64
	}{
		{0.25, 8, 0.165},  // 8-chan LOT-ECC5 + ECC Parity: 16.5%
		{0.25, 4, 0.219},  // 4-chan LOT-ECC5 + ECC Parity: 21.9%
		{0.50, 10, 0.188}, // 10-chan RAIM + ECC Parity: 18.8%
		{0.50, 5, 0.266},  // 5-chan RAIM + ECC Parity: 26.6%
	}
	for _, tc := range cases {
		got := StaticOverhead(tc.r, tc.channels)
		if math.Abs(got-tc.want) > 0.0012 {
			t.Errorf("StaticOverhead(%v,%d) = %.4f, want %.3f", tc.r, tc.channels, got, tc.want)
		}
	}
}

// TestEOLOverheadTableIII checks the end-of-life deltas: with the paper's
// ≈0.4% marked fraction, 8-chan LOT5 goes 16.5% → ≈16.7%.
func TestEOLOverheadTableIII(t *testing.T) {
	cases := []struct {
		r        float64
		channels int
		frac     float64
		want     float64
	}{
		{0.25, 8, 0.004, 0.167},
		{0.25, 4, 0.004, 0.221},
		{0.50, 10, 0.004, 0.191},
		{0.50, 5, 0.004, 0.269},
	}
	for _, tc := range cases {
		got := EOLOverhead(tc.r, tc.channels, tc.frac)
		if math.Abs(got-tc.want) > 0.004 {
			t.Errorf("EOLOverhead(%v,%d,%v) = %.4f, want ≈%.3f", tc.r, tc.channels, tc.frac, got, tc.want)
		}
	}
}

func TestStaticOverheadDecreasesWithChannels(t *testing.T) {
	prev := math.Inf(1)
	for n := 2; n <= 16; n++ {
		o := StaticOverhead(0.25, n)
		if o >= prev {
			t.Fatalf("overhead must shrink with channel count: n=%d o=%v prev=%v", n, o, prev)
		}
		prev = o
	}
}

func TestStaticOverheadPanicsOnOneChannel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	StaticOverhead(0.25, 1)
}

func TestXORCachelineCoverage(t *testing.T) {
	// One XOR cacheline covers four adjacent 64B lines of one page...
	n := 4
	base := uint64(0)
	x0 := XORCachelineAddr(base, n)
	for off := uint64(64); off < 256; off += 64 {
		if XORCachelineAddr(base+off, n) != x0 {
			t.Fatalf("offset %d must share the XOR cacheline", off)
		}
	}
	if XORCachelineAddr(base+256, n) == x0 {
		t.Fatal("fifth line must map to a new XOR cacheline")
	}
	// ...and the same region of all N adjacent pages (same page group):
	// N, not §IV-C's N−1: known divergence 4 of EXPERIMENTS.md.
	for p := uint64(1); p < uint64(n); p++ {
		if XORCachelineAddr(base+p*PageBytes, n) != x0 {
			t.Fatalf("page %d of the group must share the XOR cacheline", p)
		}
	}
	if XORCachelineAddr(base+uint64(n)*PageBytes, n) == x0 {
		t.Fatal("next page group must get its own XOR cacheline")
	}
}

func TestXORAddrDistinctFromData(t *testing.T) {
	if XORCachelineAddr(0, 4) < (1 << 44) {
		t.Fatal("XOR cachelines must live in their own address space")
	}
	if ECCLineAddr(0, 0.25, 64) == XORCachelineAddr(0, 4) {
		t.Fatal("ECC and XOR spaces must not collide")
	}
}

func TestECCLineCoverage(t *testing.T) {
	// R=0.25, 64B lines: correction bits with 2× allocation are 32B per
	// line, so one 64B ECC line covers two data lines.
	a0 := ECCLineAddr(0, 0.25, 64)
	a1 := ECCLineAddr(64, 0.25, 64)
	a2 := ECCLineAddr(128, 0.25, 64)
	if a0 != a1 {
		t.Fatal("two adjacent lines must share an ECC line at R=0.25")
	}
	if a2 == a0 {
		t.Fatal("third line must use the next ECC line")
	}
	// R=0.5: one ECC line per data line.
	if ECCLineAddr(0, 0.5, 64) == ECCLineAddr(64, 0.5, 64) {
		t.Fatal("R=0.5 must give one ECC line per data line")
	}
}

func TestGECLineCoverage(t *testing.T) {
	if GECLineAddr(0, 4, 64) != GECLineAddr(3*64, 4, 64) {
		t.Fatal("4-line GEC coverage broken")
	}
	if GECLineAddr(0, 4, 64) == GECLineAddr(4*64, 4, 64) {
		t.Fatal("GEC line must advance after 4 lines")
	}
}

func TestParityRowsPerBank(t *testing.T) {
	// N=4, R=0.5: one parity row per 6 data rows (the paper's example).
	got := ParityRowsPerBank(60, 0.5, 4)
	if got < 10 || got > 11 {
		t.Fatalf("60 data rows need ≈10 parity rows, got %d", got)
	}
}

func TestParityLinePlacement(t *testing.T) {
	const channels, ranks, banks, rows = 4, 2, 8, 1 << 16
	seenCh := map[int]bool{}
	for pg := uint64(0); pg < 64; pg++ {
		for region := uint64(0); region < 16; region++ {
			// Reconstruct the XOR address the engine would evict.
			dataAddr := pg * uint64(channels) * PageBytes
			xa := XORCachelineAddr(dataAddr+region*256, channels)
			ch, rk, bk, row := ParityLinePlacement(xa, channels, ranks, banks, rows)
			if ch < 0 || ch >= channels || rk < 0 || rk >= ranks || bk < 0 || bk >= banks {
				t.Fatalf("placement out of range: ch=%d rk=%d bk=%d", ch, rk, bk)
			}
			if row < rows-rows/16 || row >= rows {
				t.Fatalf("parity row %d outside the reserved top region", row)
			}
			seenCh[ch] = true
		}
	}
	if len(seenCh) != channels {
		t.Fatalf("parity channel must rotate over all %d channels, saw %d", channels, len(seenCh))
	}
}
