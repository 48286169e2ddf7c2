// Package graph is the one forward-cone builder of the EPP method (paper §2,
// steps 1 and 2): Walker extracts the on-path cone of one error site, or the
// union of the cones of a batch of sites, by depth-first search to every
// reachable observation point, and puts the members in combinational
// topological order. The scalar and batched EPP engines, the Monte Carlo
// site groups and the exact engines all take their cones from a Walker, so
// the member order every kernel folds over is decided here and only here.
//
// All traversals treat D flip-flops as time-frame boundaries: propagation
// stops at a flip-flop's D input (which is an observation point) and never
// continues through the flip-flop's output.
package graph

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Cone is the forward structural cone of an error site: exactly the on-path
// signals of the paper. Every member other than the root is an on-path gate
// (a gate with at least one on-path input).
type Cone struct {
	Root netlist.ID
	// Members lists the cone's nodes in combinational topological order,
	// starting with Root. Every analysis sweep iterates this slice.
	Members []netlist.ID
	// Outputs lists the observation points (POs and FF D inputs) inside the
	// cone, i.e. the outputs reachable from Root, in topological order.
	Outputs []netlist.ID
	w       *Walker
}

// Contains reports whether node id is an on-path signal of the cone. Like
// the slices, it is valid until the owning Walker runs another query.
func (c *Cone) Contains(id netlist.ID) bool { return c.w.Contains(id) }

// Size returns the number of on-path signals.
func (c *Cone) Size() int { return len(c.Members) }

// Walker extracts forward cones from a fixed circuit. It keeps reusable
// scratch so repeated extraction (the all-nodes SER loop) performs no
// per-call allocation: returned slices alias the Walker's scratch and are
// invalidated by the next query. A Walker is not safe for concurrent use;
// create one per goroutine.
type Walker struct {
	c *netlist.Circuit
	// stamp[id] == epoch marks membership in the last query's union. The
	// epoch starts at 1 and skips 0 on wraparound, so the zeroed stamps of
	// a fresh (or wrapped) Walker never read as members.
	stamp   []uint32
	epoch   uint32
	stack   []netlist.ID
	touched []netlist.ID // union members in discovery order
	counts  []int32      // per-level counting-sort scratch
	members []netlist.ID // members in level order
	outputs []netlist.ID // observed members, for ForwardCone

	// CSR views of the circuit, cached so the DFS inner loop reads flat
	// arrays instead of dereferencing Node structs.
	foIdx  []int32
	foArr  []netlist.ID
	kinds  []logic.Kind
	levels []int
}

// NewWalker returns a Walker over circuit c.
func NewWalker(c *netlist.Circuit) *Walker {
	w := &Walker{c: c, stamp: make([]uint32, c.N()), epoch: 1}
	w.foIdx, w.foArr = c.FanoutCSR()
	w.kinds = c.Kinds()
	w.levels = c.Levels()
	return w
}

// Contains reports whether node id is a member of the most recent query's
// union cone; it is false for every node before the first query.
func (w *Walker) Contains(id netlist.ID) bool { return w.stamp[id] == w.epoch }

// Union returns the members of the union of the roots' forward cones: every
// node reachable from some root through combinational gates (stopping at
// flip-flops), each once, in non-decreasing combinational level order — a
// valid topological order, since every gate's level strictly exceeds its
// fanins'. Duplicate roots and roots inside another root's cone are
// harmless. Within a level, members keep DFS discovery order (roots first,
// in the order given). The slice aliases the Walker's scratch.
func (w *Walker) Union(roots []netlist.ID) []netlist.ID {
	w.epoch++
	if w.epoch == 0 { // uint32 wraparound: invalidate all stamps
		clear(w.stamp)
		w.epoch = 1
	}
	w.touched = w.touched[:0]
	w.stack = w.stack[:0]
	for _, r := range roots {
		if w.stamp[r] != w.epoch {
			w.stamp[r] = w.epoch
			w.touched = append(w.touched, r)
			w.stack = append(w.stack, r)
		}
	}
	for len(w.stack) > 0 {
		id := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, out := range w.foArr[w.foIdx[id]:w.foIdx[id+1]] {
			if w.stamp[out] == w.epoch {
				continue
			}
			if w.kinds[out] == logic.DFF {
				continue // time-frame boundary: do not cross
			}
			w.stamp[out] = w.epoch
			w.touched = append(w.touched, out)
			w.stack = append(w.stack, out)
		}
	}

	// Stable counting sort on the precomputed combinational level:
	// O(|union| + depth) and allocation-free after warm-up.
	maxLv := 0
	for _, id := range w.touched {
		if lv := w.levels[id]; lv > maxLv {
			maxLv = lv
		}
	}
	if cap(w.counts) < maxLv+2 {
		w.counts = make([]int32, maxLv+2)
	}
	counts := w.counts[:maxLv+2]
	clear(counts)
	for _, id := range w.touched {
		counts[w.levels[id]+1]++
	}
	for lv := 1; lv < len(counts); lv++ {
		counts[lv] += counts[lv-1]
	}
	if cap(w.members) < len(w.touched) {
		w.members = make([]netlist.ID, len(w.touched))
	}
	w.members = w.members[:len(w.touched)]
	for _, id := range w.touched {
		lv := w.levels[id]
		w.members[counts[lv]] = id
		counts[lv]++
	}
	return w.members
}

// ForwardCone extracts the on-path cone of root: Union of root alone (so
// Members[0] is root, the unique lowest-level member), together with the
// reachable observation points. The returned Cone shares scratch with the
// Walker and is invalidated by the next query.
func (w *Walker) ForwardCone(root netlist.ID) Cone {
	members := w.Union([]netlist.ID{root})
	w.outputs = w.outputs[:0]
	for _, id := range members {
		if w.c.IsObserved(id) {
			w.outputs = append(w.outputs, id)
		}
	}
	return Cone{Root: root, Members: members, Outputs: w.outputs, w: w}
}
