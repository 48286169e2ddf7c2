package core

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sigprob"
)

func mustParse(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fig1 builds the circuit and signal probabilities of the paper's Figure 1:
// SP(B)=0.2, SP(C)=0.3, SP(F)=0.7, SEU at A.
func fig1(t *testing.T) (*netlist.Circuit, []float64) {
	t.Helper()
	c := mustParse(t, `
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
	prob := make([]float64, c.N())
	prob[c.ByName("A")] = 0.5 // on-path; value irrelevant
	prob[c.ByName("B")] = 0.2
	prob[c.ByName("C")] = 0.3
	prob[c.ByName("F")] = 0.7
	sp := sigprob.Topological(c, sigprob.Config{SourceProb: prob})
	return c, sp
}

// TestFigure1 reproduces the paper's worked example (experiment E1):
//
//	P(E) = 1(a̅)
//	P(G) = 0.7(a̅) + 0.3(0)
//	P(D) = 0.2(a) + 0.8(0)
//	P(H) = 0.042(a) + 0.392(a̅) + 0.168(0) + 0.398(1)
func TestFigure1(t *testing.T) {
	for _, rules := range []RuleSet{RulesClosedForm, RulesPairwise} {
		c, sp := fig1(t)
		a := MustNew(c, sp, Options{Rules: rules})
		res := a.EPP(c.ByName("A"))

		check := func(name string, want logic.Prob4) {
			t.Helper()
			got, on := a.StateOf(c.ByName(name))
			if !on {
				t.Fatalf("[%v] %s not on-path", rules, name)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("[%v] P(%s) = %v, want %v", rules, name, got, want)
				}
			}
		}
		check("E", logic.Prob4{logic.SymABar: 1})
		check("G", logic.Prob4{logic.SymABar: 0.7, logic.SymZero: 0.3})
		check("D", logic.Prob4{logic.SymA: 0.2, logic.SymZero: 0.8})
		check("H", logic.Prob4{
			logic.SymA:    0.042,
			logic.SymABar: 0.392,
			logic.SymZero: 0.168,
			logic.SymOne:  0.398,
		})

		// P_sensitized(A) = Pa(H) + Pā(H) = 0.434 (single reachable output).
		if math.Abs(res.PSensitized-0.434) > 1e-12 {
			t.Errorf("[%v] PSensitized = %v, want 0.434", rules, res.PSensitized)
		}
		if res.ConeSize != 5 {
			t.Errorf("[%v] cone size = %d, want 5", rules, res.ConeSize)
		}
		if len(res.Outputs) != 1 || c.NameOf(res.Outputs[0].Output) != "H" {
			t.Errorf("[%v] outputs = %v", rules, res.Outputs)
		}
	}
}

// TestFigure1StateString pins the paper's additive rendering of P(H).
func TestFigure1StateString(t *testing.T) {
	c, sp := fig1(t)
	a := MustNew(c, sp, Options{})
	a.EPP(c.ByName("A"))
	st, _ := a.StateOf(c.ByName("H"))
	want := "0.042(a) + 0.392(a̅) + 0.168(0) + 0.398(1)"
	if got := st.String(); got != want {
		t.Errorf("P(H) = %q, want %q", got, want)
	}
}

// TestErrorSiteState: the site itself carries the error with certainty.
func TestErrorSiteState(t *testing.T) {
	c, sp := fig1(t)
	a := MustNew(c, sp, Options{})
	a.EPP(c.ByName("A"))
	st, on := a.StateOf(c.ByName("A"))
	if !on || st.PA() != 1 {
		t.Errorf("site state = %v (on=%v)", st, on)
	}
}

// TestOffPathNodesNotStamped: off-path signals have no on-path state.
func TestOffPathNodesNotStamped(t *testing.T) {
	c, sp := fig1(t)
	a := MustNew(c, sp, Options{})
	a.EPP(c.ByName("A"))
	for _, off := range []string{"B", "C", "F"} {
		if _, on := a.StateOf(c.ByName(off)); on {
			t.Errorf("off-path %s has on-path state", off)
		}
	}
}

// TestInverterChainPolarity: through k inverters the error arrives with
// polarity a (k even) or a̅ (k odd), always with probability 1.
func TestInverterChainPolarity(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(n4)
n1 = NOT(a)
n2 = NOT(n1)
n3 = NOT(n2)
n4 = NOT(n3)
`)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	res := a.EPP(c.ByName("a"))
	if res.PSensitized != 1 {
		t.Fatalf("PSensitized = %v, want 1", res.PSensitized)
	}
	for i, name := range []string{"n1", "n2", "n3", "n4"} {
		st, _ := a.StateOf(c.ByName(name))
		if i%2 == 0 { // n1, n3: odd number of inversions
			if st.PABar() != 1 {
				t.Errorf("%s state = %v, want pure a̅", name, st)
			}
		} else {
			if st.PA() != 1 {
				t.Errorf("%s state = %v, want pure a", name, st)
			}
		}
	}
}

// TestReconvergenceMasking: EPP's polarity tracking must detect that
// XOR(a, NOT(a)) structurally masks the error (P_sensitized = 0), which a
// polarity-blind analysis would get wrong.
func TestReconvergenceMasking(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
n = NOT(a)
y = XOR(a, n)
`)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	if got := a.EPP(c.ByName("a")).PSensitized; got != 0 {
		t.Errorf("masked reconvergence: %v, want 0", got)
	}

	// Same-polarity reconvergence at XOR also cancels: XOR(a, a).
	c2 := mustParse(t, `
INPUT(a)
OUTPUT(y)
b1 = BUFF(a)
b2 = BUFF(a)
y = XOR(b1, b2)
`)
	sp2 := sigprob.Topological(c2, sigprob.Config{})
	a2 := MustNew(c2, sp2, Options{})
	if got := a2.EPP(c2.ByName("a")).PSensitized; got != 0 {
		t.Errorf("same-polarity reconvergence: %v, want 0", got)
	}
}

// TestUnobservableSite: no path to any output means P_sensitized = 0 with an
// empty output list.
func TestUnobservableSite(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
y = BUFF(a)
dead = NOT(a)
`)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	res := a.EPP(c.ByName("dead"))
	if res.PSensitized != 0 || len(res.Outputs) != 0 {
		t.Errorf("dead site: %+v", res)
	}
}

// TestObservedSiteIsCertain: an SEU at an observation point itself is always
// sensitized.
func TestObservedSiteIsCertain(t *testing.T) {
	c, sp := fig1(t)
	a := MustNew(c, sp, Options{})
	if got := a.EPP(c.ByName("H")).PSensitized; got != 1 {
		t.Errorf("PSensitized(H) = %v, want 1", got)
	}
}

// TestSequentialBoundary: propagation stops at the FF's D input and counts
// it as an output.
func TestSequentialBoundary(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
d = AND(a, b)
q = DFF(d)
z = BUFF(q)
`)
	sp := sigprob.Topological(c, sigprob.Config{})
	an := MustNew(c, sp, Options{})
	res := an.EPP(c.ByName("a"))
	if math.Abs(res.PSensitized-0.5) > 1e-12 {
		t.Errorf("PSensitized = %v, want 0.5", res.PSensitized)
	}
	if len(res.Outputs) != 1 || c.NameOf(res.Outputs[0].Output) != "d" {
		t.Errorf("outputs = %v, want [d]", res.Outputs)
	}
	// z is behind the FF: never part of this cone.
	if _, on := an.StateOf(c.ByName("z")); on {
		t.Error("analysis crossed the flip-flop")
	}
}

// TestAnalyzerReuseAcrossSites: running many sites back to back on one
// Analyzer must give the same answers as fresh Analyzers (scratch reuse).
func TestAnalyzerReuseAcrossSites(t *testing.T) {
	c, sp := fig1(t)
	shared := MustNew(c, sp, Options{})
	for id := 0; id < c.N(); id++ {
		fresh := MustNew(c, sp, Options{})
		got := shared.EPP(netlist.ID(id)).PSensitized
		want := fresh.EPP(netlist.ID(id)).PSensitized
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("node %d: reused %v, fresh %v", id, got, want)
		}
	}
}

// TestNewValidation: bad signal probability vectors are rejected.
func TestNewValidation(t *testing.T) {
	c, sp := fig1(t)
	if _, err := New(c, sp[:2], Options{}); err == nil {
		t.Error("short SP vector accepted")
	}
	bad := append([]float64(nil), sp...)
	bad[0] = 1.5
	if _, err := New(c, bad, Options{}); err == nil {
		t.Error("out-of-range SP accepted")
	}
}

// TestCloneIsIndependent: a cloned analyzer can interleave queries without
// corrupting the original.
func TestCloneIsIndependent(t *testing.T) {
	c, sp := fig1(t)
	a := MustNew(c, sp, Options{})
	b := a.Clone()
	resA := a.EPP(c.ByName("A"))
	b.EPP(c.ByName("C"))
	// a's last state must still describe site A.
	st, on := a.StateOf(c.ByName("H"))
	if !on {
		t.Fatal("clone query corrupted original's state")
	}
	if math.Abs(st.PErr()-resA.PSensitized) > 1e-12 {
		t.Errorf("state mismatch after clone use")
	}
}
