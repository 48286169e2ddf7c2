package graph

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// fig1 builds the circuit of the paper's Figure 1:
//
//	A (error site), B, C, F inputs
//	E = NOT(A); G = AND(E, F); D = AND(A, B); H = OR(C, D, G); H is the PO.
func fig1(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(`
INPUT(A)
INPUT(B)
INPUT(C)
INPUT(F)
OUTPUT(H)
E = NOT(A)
G = AND(E, F)
D = AND(A, B)
H = OR(C, D, G)
`)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestForwardConeFig1(t *testing.T) {
	c := fig1(t)
	w := NewWalker(c)
	cone := w.ForwardCone(c.ByName("A"))

	wantMembers := map[string]bool{"A": true, "E": true, "G": true, "D": true, "H": true}
	if cone.Size() != len(wantMembers) {
		t.Fatalf("cone size = %d, want %d", cone.Size(), len(wantMembers))
	}
	for _, id := range cone.Members {
		if !wantMembers[c.NameOf(id)] {
			t.Errorf("unexpected cone member %s", c.NameOf(id))
		}
	}
	// Off-path inputs B, C, F are not members.
	for _, off := range []string{"B", "C", "F"} {
		if cone.Contains(c.ByName(off)) {
			t.Errorf("off-path signal %s in cone", off)
		}
	}
	if len(cone.Outputs) != 1 || c.NameOf(cone.Outputs[0]) != "H" {
		t.Errorf("cone outputs = %v", cone.Outputs)
	}
	if cone.Members[0] != c.ByName("A") {
		t.Errorf("cone must start at the root")
	}
}

func TestConeTopologicalOrder(t *testing.T) {
	c := gen.MustRandom(gen.Params{Name: "t", Seed: 42, PIs: 8, POs: 4, Gates: 120})
	w := NewWalker(c)
	pos := make([]int, c.N())
	for id := 0; id < c.N(); id++ {
		cone := w.ForwardCone(netlist.ID(id))
		if cone.Members[0] != netlist.ID(id) {
			t.Fatalf("cone of %d does not start at its root", id)
		}
		// Topological property: every on-path fanin of a member appears
		// earlier in the member list.
		for i, m := range cone.Members {
			pos[m] = i
		}
		for i, m := range cone.Members[1:] {
			for _, f := range c.Node(m).Fanin {
				if cone.Contains(f) && pos[f] >= i+1 {
					t.Fatalf("cone of %d: fanin %d of member %d appears later", id, f, m)
				}
			}
		}
		// Every non-root member must have at least one fanin inside the cone
		// (the definition of an on-path gate).
		for _, m := range cone.Members[1:] {
			found := false
			for _, f := range c.Node(m).Fanin {
				if cone.Contains(f) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cone member %d has no on-path fanin", m)
			}
		}
	}
}

func TestConeStopsAtFlipFlops(t *testing.T) {
	c, err := bench.ParseString(`
INPUT(a)
OUTPUT(z)
d = NOT(a)
q = DFF(d)
z = NOT(q)
`)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(c)
	cone := w.ForwardCone(c.ByName("a"))
	// Cone: a, d. Not q (FF) and not z (behind the FF).
	if cone.Size() != 2 {
		t.Fatalf("cone size = %d, want 2", cone.Size())
	}
	if cone.Contains(c.ByName("q")) || cone.Contains(c.ByName("z")) {
		t.Error("cone crossed a flip-flop boundary")
	}
	// The observation point is d (the FF's D input).
	if len(cone.Outputs) != 1 || c.NameOf(cone.Outputs[0]) != "d" {
		t.Errorf("outputs = %v", cone.Outputs)
	}
}

func TestWalkerReuse(t *testing.T) {
	c := fig1(t)
	w := NewWalker(c)
	c1 := w.ForwardCone(c.ByName("A"))
	size1 := c1.Size()
	// Second query must fully reset scratch.
	c2 := w.ForwardCone(c.ByName("C"))
	if c2.Size() != 2 { // C and H
		t.Fatalf("cone(C) size = %d, want 2", c2.Size())
	}
	c1b := w.ForwardCone(c.ByName("A"))
	if c1b.Size() != size1 {
		t.Fatalf("repeat cone(A) size = %d, want %d", c1b.Size(), size1)
	}
}

// refUnion is the naive reference for Walker.Union: a map-based BFS from
// every root through the fanout lists, never entering a flip-flop.
func refUnion(c *netlist.Circuit, roots []netlist.ID) map[netlist.ID]bool {
	seen := map[netlist.ID]bool{}
	var queue []netlist.ID
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, out := range c.Node(id).Fanout {
			if !seen[out] && c.Node(out).Kind != logic.DFF {
				seen[out] = true
				queue = append(queue, out)
			}
		}
	}
	return seen
}

// checkUnion verifies one Union result against the reference: members are
// unique, in non-decreasing level order, exactly the reference set, and
// Contains agrees with the reference on every node.
func checkUnion(t *testing.T, tag string, c *netlist.Circuit, w *Walker, roots, members []netlist.ID) {
	t.Helper()
	ref := refUnion(c, roots)
	if len(members) != len(ref) {
		t.Fatalf("%s: roots %v: %d members, reference %d", tag, roots, len(members), len(ref))
	}
	levels := c.Levels()
	seen := map[netlist.ID]bool{}
	for i, id := range members {
		if seen[id] {
			t.Fatalf("%s: roots %v: member %d repeated", tag, roots, id)
		}
		seen[id] = true
		if !ref[id] {
			t.Fatalf("%s: roots %v: member %d not in reference", tag, roots, id)
		}
		if i > 0 && levels[id] < levels[members[i-1]] {
			t.Fatalf("%s: roots %v: member %d (level %d) after level %d", tag, roots, id, levels[id], levels[members[i-1]])
		}
	}
	for id := 0; id < c.N(); id++ {
		if w.Contains(netlist.ID(id)) != ref[netlist.ID(id)] {
			t.Fatalf("%s: roots %v: Contains(%d) = %v, reference %v", tag, roots, id, !ref[netlist.ID(id)], ref[netlist.ID(id)])
		}
	}
}

// unionCircuits are the random circuits the Union tests run on: purely
// combinational and sequential (flip-flop roots and boundaries).
func unionCircuits() []*netlist.Circuit {
	return []*netlist.Circuit{
		gen.MustRandom(gen.Params{Name: "comb", Seed: 11, PIs: 10, POs: 5, Gates: 200}),
		gen.MustRandom(gen.Params{Name: "seq", Seed: 12, PIs: 6, POs: 4, FFs: 12, Gates: 250}),
		gen.SmallRandomSequential(3),
		gen.SmallRandomSequential(8),
	}
}

// randomRoots draws a root set exercising every tolerated shape: duplicates,
// a root inside another root's cone, a flip-flop root and an observed root.
func randomRoots(c *netlist.Circuit, rng *rand.Rand) []netlist.ID {
	n := c.N()
	roots := make([]netlist.ID, 0, 16)
	for k := 1 + rng.IntN(12); k > 0; k-- {
		roots = append(roots, netlist.ID(rng.IntN(n)))
	}
	roots = append(roots, roots[rng.IntN(len(roots))]) // duplicate
	for _, fo := range c.Node(roots[0]).Fanout {
		if c.Node(fo).Kind != logic.DFF { // inside root 0's cone
			roots = append(roots, fo)
			break
		}
	}
	if ffs := c.FFs; len(ffs) > 0 {
		roots = append(roots, ffs[rng.IntN(len(ffs))])
	}
	if obs := c.Observed(); len(obs) > 0 {
		roots = append(roots, obs[rng.IntN(len(obs))])
	}
	rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
	return roots
}

func TestUnionMatchesReference(t *testing.T) {
	for ci, c := range unionCircuits() {
		w := NewWalker(c)
		rng := rand.New(rand.NewPCG(uint64(ci), 77))
		for q := 0; q < 60; q++ {
			roots := randomRoots(c, rng)
			checkUnion(t, c.Name, c, w, roots, w.Union(roots))
		}
	}
}

func TestContainsFalseBeforeFirstQuery(t *testing.T) {
	for _, c := range unionCircuits() {
		w := NewWalker(c)
		for id := 0; id < c.N(); id++ {
			if w.Contains(netlist.ID(id)) {
				t.Fatalf("%s: fresh Walker contains node %d", c.Name, id)
			}
		}
	}
}

// TestUnionReuse: one Walker answering a sequence of queries twice over
// returns the same members (order included) as fresh Walkers do.
func TestUnionReuse(t *testing.T) {
	for ci, c := range unionCircuits() {
		rng := rand.New(rand.NewPCG(uint64(ci), 78))
		queries := make([][]netlist.ID, 20)
		for i := range queries {
			queries[i] = randomRoots(c, rng)
		}
		w := NewWalker(c)
		for pass := 0; pass < 2; pass++ {
			for i, roots := range queries {
				got := slices.Clone(w.Union(roots))
				want := NewWalker(c).Union(roots)
				if !slices.Equal(got, want) {
					t.Fatalf("%s pass %d query %d: reused Walker %v, fresh %v", c.Name, pass, i, got, want)
				}
				checkUnion(t, c.Name, c, w, roots, got)
			}
		}
	}
}

// TestForwardConeOutputsMatchReference: for every root, the cone starts at
// the root and its outputs are exactly the observed reference members.
func TestForwardConeOutputsMatchReference(t *testing.T) {
	for _, c := range unionCircuits() {
		w := NewWalker(c)
		for id := 0; id < c.N(); id++ {
			root := netlist.ID(id)
			cone := w.ForwardCone(root)
			if cone.Members[0] != root {
				t.Fatalf("%s: cone of %d starts at %d", c.Name, id, cone.Members[0])
			}
			var want []netlist.ID
			for m := range refUnion(c, []netlist.ID{root}) {
				if c.IsObserved(m) {
					want = append(want, m)
				}
			}
			got := slices.Clone(cone.Outputs)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: cone of %d: outputs %v, reference %v", c.Name, id, got, want)
			}
		}
	}
}

// TestWalkerEpochWraparound parks the uint32 epoch just below overflow and
// checks that queries straddling the wrap match the reference. A first
// query over every node stamps the whole circuit with epoch 2, which the
// epochs after the wrap reach again: the wrap must invalidate every stale
// stamp rather than read it as current.
func TestWalkerEpochWraparound(t *testing.T) {
	c := gen.SmallRandomSequential(3)
	rng := rand.New(rand.NewPCG(3, 79))
	queries := make([][]netlist.ID, 8)
	for i := range queries {
		queries[i] = randomRoots(c, rng)
	}
	all := make([]netlist.ID, c.N())
	for id := range all {
		all[id] = netlist.ID(id)
	}
	w := NewWalker(c)
	checkUnion(t, "pre-wrap", c, w, all, w.Union(all))
	run := func(tag string) {
		t.Helper()
		for _, roots := range queries {
			checkUnion(t, tag, c, w, roots, w.Union(roots))
		}
	}
	// The next query takes the epoch to ^uint32(0), the one after wraps.
	w.epoch = ^uint32(0) - 1
	run("straddling wrap")
	if w.epoch >= ^uint32(0)-1 {
		t.Fatalf("epoch = %d, wraparound branch not exercised", w.epoch)
	}
	run("post-wrap")
}

// TestWalkerWarmQueriesAllocateNothing: once the scratch has grown to the
// largest cone, neither query form allocates.
func TestWalkerWarmQueriesAllocateNothing(t *testing.T) {
	c := gen.SmallRandomSequential(8)
	w := NewWalker(c)
	roots := make([]netlist.ID, c.N())
	for id := range roots {
		roots[id] = netlist.ID(id)
	}
	w.Union(roots)
	for id := 0; id < c.N(); id++ {
		w.ForwardCone(netlist.ID(id))
	}
	id := 0
	if a := testing.AllocsPerRun(100, func() {
		w.ForwardCone(netlist.ID(id % c.N()))
		w.Union(roots[:id%c.N()+1])
		id++
	}); a != 0 {
		t.Fatalf("warm ForwardCone+Union: %v allocs/run, want 0", a)
	}
}
