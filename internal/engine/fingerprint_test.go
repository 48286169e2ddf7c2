package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/latch"
	"repro/internal/sigprob"
)

// TestRequestDigestsGolden pins the hex digests of Request.Fingerprint and
// Request.memoKey. Fingerprints key on-disk checkpoints and memo keys key
// SERECO1 cache files, so any change to the request encoding silently
// orphans every persisted file: a digest change here must be deliberate
// (and versioned), never a refactoring side effect.
func TestRequestDigestsGolden(t *testing.T) {
	c17 := circuitFile(t, "c17.bench")
	seqC, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	lm := latch.Default()
	bias := make([]float64, seqC.N())
	for i := range bias {
		bias[i] = 0.25 + 0.5*float64(i%3)/2
	}
	cases := []struct {
		name        string
		req         *Request
		engine      string
		sp          []float64
		sampling    bool
		fingerprint string
		memoKey     string
	}{
		{
			name:        "c17",
			req:         &Request{Circuit: c17},
			engine:      "epp-batch",
			sp:          sigprob.Topological(c17, sigprob.Config{}),
			fingerprint: "975d36eafebef8560950ea210f63d548e673c80ae2bbe0aa68b47790a765405b",
			memoKey:     "957a0f7494c8801eb768c5f9c4b4edd7e1930403108b5537bbccac1cc71df778",
		},
		{
			name: "latch",
			req: &Request{
				Circuit: seqC, Bias: bias, Frames: 4, Latch: &lm, Vectors: 2048,
				Seed: 0xfeedface, Rules: core.RulesPairwise, BDDBudget: 5000,
			},
			engine:      "monte-carlo",
			sampling:    true,
			fingerprint: "d39f462f2a2437d2e31c704ebb104f5c0e83acaab4e3d53405a77ecc6d11960a",
			memoKey:     "37b753988dd1dd5567399e2b89de679937c6c3c37cf4d422766a99cbcc030aca",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.req.Fingerprint(tc.engine, tc.sp); got != tc.fingerprint {
				t.Errorf("Fingerprint = %s, want %s", got, tc.fingerprint)
			}
			if got := tc.req.memoKey(tc.engine, tc.sampling); got != tc.memoKey {
				t.Errorf("memoKey = %s, want %s", got, tc.memoKey)
			}
		})
	}
}
