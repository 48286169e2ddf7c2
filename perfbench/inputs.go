package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/bench"
	"repro/internal/gen"
)

// circuitSeed derives the generator seed of one named input from the
// workload seed, so every input of a run differs and the same workload seed
// always yields the same inputs.
func circuitSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return h.Sum64()
}

// profileBench generates a random circuit with the dimensions of the named
// ISCAS'89 profile and returns it as .bench text: the only form in which the
// program under test receives its inputs.
func profileBench(profile string, seed uint64, tag string) (string, error) {
	p, ok := gen.ProfileByName(profile)
	if !ok {
		return "", fmt.Errorf("unknown profile %q", profile)
	}
	name := profile + "_" + tag
	return randomBench(gen.Params{
		Name: name, Seed: circuitSeed(seed, name),
		PIs: p.PIs, POs: p.POs, FFs: p.FFs, Gates: p.Gates, Levels: p.Depth,
	})
}

// smallBench generates the i-th small fresh circuit of a run: distinct
// content per index, so a daemon has never seen it.
func smallBench(seed uint64, i int) (string, error) {
	name := fmt.Sprintf("fresh%d", i)
	return randomBench(gen.Params{Name: name, Seed: circuitSeed(seed, name), PIs: 12, POs: 10, FFs: 12, Gates: 160})
}

func randomBench(p gen.Params) (string, error) {
	c, err := gen.Random(p)
	if err != nil {
		return "", fmt.Errorf("generate %s: %w", p.Name, err)
	}
	var b strings.Builder
	if err := bench.Write(&b, c); err != nil {
		return "", fmt.Errorf("serialize %s: %w", p.Name, err)
	}
	return b.String(), nil
}
