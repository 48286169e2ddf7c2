// Package ser assembles the full soft-error-rate estimate of the paper:
// SER(n) = R_SEU(n) × P_latched(n) × P_sensitized(n) for every circuit node,
// with the expensive P_sensitized term computed by a pluggable backend from
// the engine registry (the paper's EPP method — scalar or batched —, the
// random-simulation baseline, or an exact backend). It also implements the
// paper's stated use-case: identifying the most vulnerable components and
// evaluating selective hardening.
//
// Run is the context-aware pipeline entry point; Stream is its incremental
// sibling that yields one NodeSER at a time. Estimate is the original
// synchronous entry point, retained as a thin wrapper.
package ser

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/eco"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/latch"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

// Method selects the P_sensitized estimator.
type Method int

const (
	// MethodEPP is the paper's propagation-probability analysis.
	MethodEPP Method = iota
	// MethodMonteCarlo is the random-simulation baseline.
	MethodMonteCarlo
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodEPP:
		return "epp"
	case MethodMonteCarlo:
		return "monte-carlo"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// SPMethod selects the signal probability source feeding the EPP engine.
type SPMethod int

const (
	// SPTopological is the fast Parker–McCluskey sweep.
	SPTopological SPMethod = iota
	// SPMonteCarlo is simulation-based signal probability, the accurate
	// design-flow by-product the paper leverages (its cost is "SPT").
	SPMonteCarlo
)

// String names the signal probability method.
func (m SPMethod) String() string {
	switch m {
	case SPTopological:
		return "topological"
	case SPMonteCarlo:
		return "monte-carlo"
	}
	return fmt.Sprintf("SPMethod(%d)", int(m))
}

// ParseMethod inverts Method.String: it maps the canonical method name
// ("epp", "monte-carlo") back to the Method, so flags, JSON and reports all
// share one vocabulary.
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{MethodEPP, MethodMonteCarlo} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("ser: unknown method %q (want %q or %q)", s, MethodEPP, MethodMonteCarlo)
}

// ParseSPMethod inverts SPMethod.String ("topological", "monte-carlo").
func ParseSPMethod(s string) (SPMethod, error) {
	for _, m := range []SPMethod{SPTopological, SPMonteCarlo} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("ser: unknown signal probability method %q (want %q or %q)", s, SPTopological, SPMonteCarlo)
}

// ParseRuleSet inverts core.RuleSet.String ("closed-form", "pairwise",
// "no-polarity"), so flags and reports share the rule-set vocabulary.
func ParseRuleSet(s string) (core.RuleSet, error) {
	for _, r := range []core.RuleSet{core.RulesClosedForm, core.RulesPairwise, core.RulesNoPolarity} {
		if s == r.String() {
			return r, nil
		}
	}
	return 0, fmt.Errorf("ser: unknown rule set %q (want %q, %q or %q)",
		s, core.RulesClosedForm, core.RulesPairwise, core.RulesNoPolarity)
}

// Config configures an SER estimation run.
type Config struct {
	Method   Method
	SPMethod SPMethod
	// Engine overrides the Method-derived P_sensitized backend with a named
	// engine from the registry ("" = epp-batch for MethodEPP, monte-carlo
	// for MethodMonteCarlo). See engine.Names for the registered set.
	Engine string
	// SP configures signal probability computation (bias, vectors, seed).
	SP sigprob.Config
	// MC configures the sampling engines (MethodMonteCarlo or an explicit
	// sampling Engine): the pipeline consumes its Vectors, Seed and
	// SourceProb fields. The kernel-level fields (SharedVectors, OnWord)
	// are managed by the engine layer — the monte-carlo engine always runs
	// the shared-vector batched kernels and reports progress through
	// Progress — so values set here for them are ignored.
	MC simulate.MCOptions
	// Faults is the R_SEU model; nil is replaced by faults.Default().
	Faults *faults.Model
	// Latch is the P_latched model; nil is replaced by latch.Default().
	//
	// Setting it explicitly does more than swap the static per-node factor:
	// together with Frames > 1 it couples the latching window into the
	// multi-cycle composition (the engine weights each frame's detection
	// contribution by Latch.FrameWeight — the strike-cycle transient races
	// the capture window, re-launched flip-flop values are full-cycle levels
	// with weight 1). The per-node P_latched factor then becomes the
	// electrical-masking residual (latch.Model.ResidualProbabilities), so
	// the timing window is counted exactly once per path — inside
	// P_sensitized — rather than twice. With Latch nil the multi-cycle
	// analysis keeps the uncoupled composition (every detection counted in
	// full) under the default static factor, matching earlier releases.
	Latch *latch.Model
	// Workers bounds parallelism for the P_sensitized sweep (0 = all cores).
	Workers int
	// Frames, when > 1, replaces the single-cycle P_sensitized with the
	// multi-cycle detection probability within Frames clock cycles
	// (primary-output observation only; errors are followed through
	// flip-flops — the sequential extension). Supported by the analytic
	// engines (the internal/seq composition) and the monte-carlo engine
	// (the frame-unrolled simulate.MCSeqBatch kernel); the exact engines
	// reject it. Combine with an explicit Latch model for the
	// latch-window-weighted composition (see Latch).
	Frames int
	// BatchWidth sets the batched EPP engine's lane count (0 = default).
	BatchWidth int
	// Rules selects the EPP engines' gate-rule implementation: the paper's
	// closed-form Table 1 rules (core.RulesClosedForm, default), the
	// pairwise symbol-table fold (core.RulesPairwise, an executable
	// specification with identical results), or the polarity-tracking
	// ablation (core.RulesNoPolarity). Requires an analytic engine and a
	// single-frame analysis.
	Rules core.RuleSet
	// BDDBudget bounds the bdd engine's node count (0 = default).
	BDDBudget int
	// Progress, when non-nil, is called with the number of node units of
	// work finished so far and the total. Site-major engines report after
	// each completed batch; the word-major monte-carlo engine reports after
	// each completed 64-vector word, scaled to node units (its per-site
	// results all finalize together at the last word). done is
	// monotonically nondecreasing, reaches total exactly at completion, and
	// calls never overlap. A resumed run starts reporting at the restored
	// unit count. A panic in the callback aborts the sweep with a
	// *engine.SweepPanicError instead of crashing the process.
	Progress func(done, total int)
	// Timeout, when > 0, bounds the whole run: the pipeline context gets a
	// deadline, enforced by the engines at batch/word granularity. An
	// expired deadline surfaces as a *engine.PartialError wrapping
	// context.DeadlineExceeded (errors.Is-testable) with the finalized unit
	// counts.
	Timeout time.Duration
	// MaxSweepNodes, when > 0, bounds the node units of new P_sensitized
	// work one call may perform; see engine.Request.MaxSweepNodes. A
	// budgeted stop surfaces as a *engine.PartialError wrapping
	// engine.ErrBudget. Combined with CheckpointPath, repeated budgeted
	// calls converge to a complete run.
	MaxSweepNodes int
	// CheckpointPath, when non-empty, makes the P_sensitized sweep
	// crash-safe: progress is committed to this file (atomic temp+rename
	// writes, format documented in internal/resume) and a later run of the
	// same configuration resumes from it, producing a Report byte-identical
	// to an uninterrupted run. The file identifies its request by
	// fingerprint; resuming with a different circuit or configuration is an
	// error. Worker count may differ between the interrupted and resumed
	// runs — results are worker-invariant.
	CheckpointPath string
	// CheckpointInterval is the minimum time between checkpoint writes.
	// <= 0 writes after every committed batch or word — maximally durable
	// and deterministic, at the cost of one small file write per unit.
	CheckpointInterval time.Duration
	// ECO, when non-nil, memoizes per-site P_sensitized results across
	// netlist edits: sites whose observation-cone content hash is already
	// cached are restored bit-identically and skipped, so re-estimating an
	// edited circuit (the rank → harden → re-estimate loop) costs only the
	// touched cones. The Report is byte-identical to an uncached run.
	// Requires a configuration whose per-site values are pure functions of
	// cone content: topological signal probabilities with default (nil)
	// source bias, and no checkpoint (the cache already persists results);
	// Validate rejects anything else — use AttachECO for opportunistic
	// attachment. Stream runs uncached (restored ranges would break its
	// ordered emission). Share one cache across runs (it is safe for
	// concurrent use); see internal/eco for the soundness argument.
	ECO *eco.Cache
	// Stats, when non-nil, accumulates the engine's work counters for the
	// run — swept sites/nodes, sampling words, ECO memo hits. One Stats may
	// be shared across runs (counters are atomic); use a fresh Stats per
	// run to measure a single sweep, e.g. to verify an incremental
	// re-estimate swept only the edited region.
	Stats *engine.Stats
}

// engineName resolves the effective engine: an explicit override wins,
// otherwise the Method picks its canonical backend.
func (cfg *Config) engineName() string {
	if cfg.Engine != "" {
		return cfg.Engine
	}
	if cfg.Method == MethodMonteCarlo {
		return "monte-carlo"
	}
	return "epp-batch"
}

// EngineName resolves the effective P_sensitized backend this configuration
// selects: the explicit Engine override if set, else the Method's canonical
// engine. It does not validate that the engine exists.
func (cfg *Config) EngineName() string { return cfg.engineName() }

// Validate rejects contradictory or out-of-range configurations with
// descriptive errors instead of silently ignoring them. c may be nil when no
// circuit is at hand; per-node slice lengths are then not checked.
func (cfg *Config) Validate(c *netlist.Circuit) error {
	switch cfg.Method {
	case MethodEPP, MethodMonteCarlo:
	default:
		return fmt.Errorf("ser: unknown method %v", cfg.Method)
	}
	switch cfg.SPMethod {
	case SPTopological, SPMonteCarlo:
	default:
		return fmt.Errorf("ser: unknown signal probability method %v", cfg.SPMethod)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("ser: Workers = %d is negative (0 means all cores)", cfg.Workers)
	}
	if cfg.Frames < 0 {
		return fmt.Errorf("ser: Frames = %d is negative (1 means single-cycle)", cfg.Frames)
	}
	if cfg.BatchWidth < 0 || cfg.BatchWidth > core.MaxBatchWidth {
		return fmt.Errorf("ser: BatchWidth = %d outside [0, %d]", cfg.BatchWidth, core.MaxBatchWidth)
	}
	switch cfg.Rules {
	case core.RulesClosedForm, core.RulesPairwise, core.RulesNoPolarity:
	default:
		return fmt.Errorf("ser: unknown rule set %v", cfg.Rules)
	}
	if cfg.MC.Vectors < 0 {
		return fmt.Errorf("ser: MC.Vectors = %d is negative", cfg.MC.Vectors)
	}
	if cfg.SP.Vectors < 0 {
		return fmt.Errorf("ser: SP.Vectors = %d is negative", cfg.SP.Vectors)
	}
	if cfg.BDDBudget < 0 {
		return fmt.Errorf("ser: BDDBudget = %d is negative", cfg.BDDBudget)
	}
	if cfg.Timeout < 0 {
		return fmt.Errorf("ser: Timeout = %v is negative (0 means no deadline)", cfg.Timeout)
	}
	if cfg.MaxSweepNodes < 0 {
		return fmt.Errorf("ser: MaxSweepNodes = %d is negative (0 means no budget)", cfg.MaxSweepNodes)
	}
	eng, err := engine.Lookup(cfg.engineName())
	if err != nil {
		return err
	}
	if cfg.Method == MethodMonteCarlo && eng.Class() != engine.ClassSampling {
		return fmt.Errorf("ser: engine %q contradicts MethodMonteCarlo (drop the method or pick the monte-carlo engine)", eng.Name())
	}
	if cfg.Frames > 1 && eng.Class() == engine.ClassExact {
		return fmt.Errorf("ser: Frames = %d requires an engine that can follow errors through flip-flops (EPP or monte-carlo); %q cannot", cfg.Frames, eng.Name())
	}
	if cfg.Rules != core.RulesClosedForm {
		if eng.Class() != engine.ClassAnalytic {
			return fmt.Errorf("ser: Rules %v requires an EPP engine; %q does not use propagation rules", cfg.Rules, eng.Name())
		}
		if cfg.Frames > 1 {
			return fmt.Errorf("ser: Rules %v requires a single-frame analysis (the multi-cycle composition is closed-form only)", cfg.Rules)
		}
	}
	// Model cross-checks: an explicit model must be valid up front — for the
	// latch model especially, because with Frames > 1 it also parameterizes
	// the frame composition (the strike-frame capture weight), not just the
	// static per-node factor.
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
	}
	if cfg.Latch != nil {
		if err := cfg.Latch.Validate(); err != nil {
			return err
		}
	}
	if err := validBias("SP.SourceProb", cfg.SP.SourceProb, c); err != nil {
		return err
	}
	if err := validBias("MC.SourceProb", cfg.MC.SourceProb, c); err != nil {
		return err
	}
	if cfg.ECO != nil {
		return cfg.ecoEligible()
	}
	return nil
}

// ecoEligible reports whether the configuration may carry an ECO cache:
// the memoization is sound only when each site's P_sensitized value is a
// pure function of its observation-cone content, which requires the default
// topological signal probabilities and unbiased sources (a Monte Carlo SP
// vector or a bias vector is a whole-circuit input that no per-site hash
// covers). A checkpoint is rejected as a conflicting restore source.
func (cfg *Config) ecoEligible() error {
	if cfg.SPMethod != SPTopological {
		return fmt.Errorf("ser: the ECO cache requires topological signal probabilities (SPMethod %v makes SP a whole-circuit input the per-site cone hashes cannot cover)", cfg.SPMethod)
	}
	if cfg.SP.SourceProb != nil || cfg.MC.SourceProb != nil {
		return fmt.Errorf("ser: the ECO cache requires default (nil) source bias (a bias vector is indexed by whole-circuit node IDs, outside the per-site cone hashes)")
	}
	if cfg.CheckpointPath != "" {
		return fmt.Errorf("ser: the ECO cache cannot combine with a checkpoint (pick one restore source; the cache already persists results)")
	}
	return nil
}

// AttachECO attaches the cache to cfg when the configuration is eligible
// (see Config.ECO) and reports whether it did. Use it when the caller — a
// daemon serving arbitrary requests, say — wants incremental re-estimation
// opportunistically rather than as a hard requirement: ineligible
// configurations simply run uncached instead of erroring.
func AttachECO(cfg *Config, cache *eco.Cache) bool {
	if cache == nil || cfg.ECO != nil {
		return cfg.ECO != nil
	}
	if cfg.ecoEligible() != nil {
		return false
	}
	cfg.ECO = cache
	return true
}

// validBias checks a per-source probability vector for range and, when the
// circuit is known, length.
func validBias(field string, bias []float64, c *netlist.Circuit) error {
	if bias == nil {
		return nil
	}
	if c != nil && len(bias) != c.N() {
		return fmt.Errorf("ser: %s has %d entries for %d nodes", field, len(bias), c.N())
	}
	for i, p := range bias {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("ser: %s[%d] = %v outside [0,1]", field, i, p)
		}
	}
	return nil
}

// NodeSER is the per-node soft error rate decomposition. In the
// latch-window-weighted multi-cycle mode (an explicit Latch model with
// Frames > 1) the timing window moves inside PSensitized — weighted per
// detection frame by the engine — and PLatched reports the
// electrical-masking residual instead of the full static factor, keeping
// SERFIT a single-window product either way.
type NodeSER struct {
	ID          netlist.ID
	Name        string
	RateFIT     float64 // R_SEU(n), FIT
	PLatched    float64 // P_latched(n)
	PSensitized float64 // P_sensitized(n)
	SERFIT      float64 // product, FIT
}

// Report is the result of a full-circuit SER estimation.
type Report struct {
	Circuit  string
	Method   Method
	Engine   string    // registry name of the P_sensitized backend used
	Nodes    []NodeSER // indexed by node ID
	TotalFIT float64   // sum over nodes
}

// prepared is the validated, resolved state shared by Run, Stream and
// PSensitized: the engine, its request, and the R_SEU / P_latched models.
type prepared struct {
	eng    engine.Engine
	req    engine.Request
	faults faults.Model
	latch  latch.Model
}

// prepare validates cfg against c, resolves the engine and models, and
// assembles the engine request (computing the signal probability vector for
// analytic engines per cfg.SPMethod).
func prepare(c *netlist.Circuit, cfg *Config) (*prepared, error) {
	if err := cfg.Validate(c); err != nil {
		return nil, err
	}
	p := &prepared{faults: faults.Default(), latch: latch.Default()}
	if cfg.Faults != nil {
		p.faults = *cfg.Faults
	}
	if cfg.Latch != nil {
		p.latch = *cfg.Latch
	}
	if err := p.faults.Validate(); err != nil {
		return nil, err
	}
	if err := p.latch.Validate(); err != nil {
		return nil, err
	}
	eng, err := engine.Lookup(cfg.engineName())
	if err != nil {
		return nil, err
	}
	p.eng = eng
	if eng.Class() == engine.ClassSampling {
		// Normalize so the report names the method actually used even when
		// the engine was selected directly.
		cfg.Method = MethodMonteCarlo
	}
	// The sampling engines draw fault-injection vectors from MC.SourceProb
	// only (matching the original Estimate semantics — an SP-only bias must
	// not leak into the injection vectors); everything else reads the
	// signal-probability bias. WithSourceBias sets both.
	bias := cfg.SP.SourceProb
	if eng.Class() == engine.ClassSampling {
		bias = cfg.MC.SourceProb
	}
	p.req = engine.Request{
		Circuit:    c,
		Bias:       bias,
		Workers:    cfg.Workers,
		BatchWidth: cfg.BatchWidth,
		Frames:     cfg.Frames,
		Rules:      cfg.Rules,
		Vectors:    cfg.MC.Vectors,
		Seed:       cfg.MC.Seed,
		BDDBudget:  cfg.BDDBudget,
	}
	if cfg.Latch != nil {
		// An explicitly chosen latch model couples the latching window into
		// the multi-cycle composition (the engines consult it only when
		// Frames > 1); the default model keeps the uncoupled composition for
		// compatibility. The static per-node factor always applies.
		p.req.Latch = &p.latch
	}
	p.req.MaxSweepNodes = cfg.MaxSweepNodes
	p.req.Stats = cfg.Stats
	if cfg.CheckpointPath != "" {
		p.req.Resume = resume.New(cfg.CheckpointPath, cfg.CheckpointInterval)
	}
	// Validate already vetted eligibility (ecoEligible); the engine enforces
	// its own combination rules (no shard, no resume, nil bias) besides.
	p.req.Memo = cfg.ECO
	if eng.Class() == engine.ClassAnalytic {
		p.req.SP = SignalProbabilities(c, *cfg)
	}
	return p, nil
}

// runEngine invokes the engine's all-sites sweep with the pipeline-level
// deadline applied and a defense-in-depth panic guard: the shared sweep driver
// recovers worker and callback panics themselves, but a panic on an
// engine's synchronous setup path (kernel construction, say) must equally
// surface as an error rather than crash the caller.
func (p *prepared) runEngine(ctx context.Context, cfg *Config, psens []float64) (err error) {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &engine.SweepPanicError{Engine: p.eng.Name(), Unit: "sweep", Lo: -1, Hi: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return p.eng.PSensitizedAll(ctx, &p.req, psens)
}

// platchVector resolves the per-node P_latched factor: the static
// window+attenuation probability normally; the electrical-masking residual
// when the latching window is coupled into the multi-cycle composition —
// the engines then apply the timing window per detection frame, and
// multiplying the static window in again would count it twice on the
// strike path (and wrongly derate full-cycle later-frame detections).
func (p *prepared) platchVector(c *netlist.Circuit) []float64 {
	if p.req.Latch != nil && p.req.Frames > 1 {
		return p.latch.ResidualProbabilities(c)
	}
	return p.latch.Probabilities(c)
}

// nodeSER assembles one node's SER decomposition from the factor vectors.
func nodeSER(c *netlist.Circuit, id netlist.ID, rates, platch, psens []float64) NodeSER {
	n := NodeSER{
		ID:          id,
		Name:        c.NameOf(id),
		RateFIT:     rates[id],
		PLatched:    platch[id],
		PSensitized: psens[id],
	}
	n.SERFIT = n.RateFIT * n.PLatched * n.PSensitized
	return n
}

// assemble builds the Report from a complete P_sensitized vector: the cheap
// deterministic tail of the pipeline — R_SEU and P_latched factors, the
// per-node products, the ID-order total. Shared by Run and by Assemble (the
// coordinator's fold path) so a Report assembled from shard-merged psens
// values is arithmetically identical to one from a local sweep.
func (p *prepared) assemble(c *netlist.Circuit, cfg *Config, psens []float64) *Report {
	n := c.N()
	rates := p.faults.RatesFIT(c)
	platch := p.platchVector(c)
	rep := &Report{Circuit: c.Name, Method: cfg.Method, Engine: p.eng.Name(), Nodes: make([]NodeSER, n)}
	for id := 0; id < n; id++ {
		ns := nodeSER(c, netlist.ID(id), rates, platch, psens)
		rep.Nodes[id] = ns
		rep.TotalFIT += ns.SERFIT
	}
	return rep
}

// Run executes the full pipeline — signal probabilities, per-site
// P_sensitized through the configured engine, R_SEU and P_latched models —
// and returns the assembled report. Cancellation of ctx is honored between
// engine batches and returns ctx.Err().
func Run(ctx context.Context, c *netlist.Circuit, cfg Config) (*Report, error) {
	p, err := prepare(c, &cfg)
	if err != nil {
		return nil, err
	}
	// Progress rides the engine's OnProgress channel: site-major engines
	// report per finalized batch, the word-major monte-carlo engine per
	// completed vector word (its sites all finalize together at the end).
	p.req.OnProgress = cfg.Progress
	psens := make([]float64, c.N())
	if err := p.runEngine(ctx, &cfg, psens); err != nil {
		return nil, err
	}
	return p.assemble(c, &cfg, psens), nil
}

// Assemble builds the Report for cfg from an externally computed complete
// P_sensitized vector — the distributed coordinator's fold path: workers
// return shard slices of the same engine sweep, the coordinator stitches
// them into psens, and because engines guarantee packing invariance and this
// tail is deterministic ID-order arithmetic, the result is byte-identical to
// Run on one machine. psens must have one entry per node.
func Assemble(c *netlist.Circuit, cfg Config, psens []float64) (*Report, error) {
	p, err := prepare(c, &cfg)
	if err != nil {
		return nil, err
	}
	if len(psens) != c.N() {
		return nil, fmt.Errorf("ser: psens has %d entries for %d nodes", len(psens), c.N())
	}
	return p.assemble(c, &cfg, psens), nil
}

// Info identifies a request for caching and distribution without running
// it: the request fingerprint (circuit content plus every result-affecting
// option — see engine.Request.Fingerprint), the resolved engine, its class,
// and the normalized method.
type Info struct {
	Fingerprint string
	Engine      string
	Class       engine.Class
	Method      Method
}

// Describe validates cfg against c and returns the request's identity. Two
// requests with equal fingerprints produce byte-identical Reports, which is
// what makes the fingerprint a sound memoization and shard-commit key. The
// SiteLo/SiteHi shard range is excluded by construction, so a shard
// describes as the full sweep it belongs to.
func Describe(c *netlist.Circuit, cfg Config) (Info, error) {
	p, err := prepare(c, &cfg)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Fingerprint: p.req.Fingerprint(p.eng.Name(), p.req.SP),
		Engine:      p.eng.Name(),
		Class:       p.eng.Class(),
		Method:      cfg.Method,
	}, nil
}

// PSensitizedRange computes P_sensitized for the node-ID shard [lo, hi)
// only — the distributed worker's unit of work — returning the hi−lo shard
// values in ID order. Only site-major engines support ranges; the word-major
// monte-carlo engine rejects them (its shared-good-sim kernel amortizes one
// good simulation across all sites, so site-sharding would duplicate that
// work in every shard — the coordinator runs sampling requests whole
// instead). Concatenating every shard of [0, N) reproduces the full sweep's
// vector bit-identically at any shard partitioning and worker count.
func PSensitizedRange(ctx context.Context, c *netlist.Circuit, cfg Config, lo, hi int) ([]float64, error) {
	p, err := prepare(c, &cfg)
	if err != nil {
		return nil, err
	}
	p.req.SiteLo, p.req.SiteHi = lo, hi
	p.req.OnProgress = cfg.Progress
	out := make([]float64, c.N())
	if err := p.runEngine(ctx, &cfg, out); err != nil {
		return nil, err
	}
	return out[lo:hi], nil
}

// errStreamStopped signals through the engine that the stream consumer
// broke out of the loop; it is never surfaced to callers.
var errStreamStopped = errors.New("ser: stream consumer stopped")

// Stream is the incremental form of Run: it yields one NodeSER per node in
// ID order as each engine batch completes, without materializing a Report —
// the factor vectors aside, memory stays O(batch). Per-site engines sweep
// single-threaded so emission order is deterministic; the sampling engine
// keeps its internal word-level parallelism (its results finalize together
// and emit in order regardless of worker count). On failure or
// cancellation the final yield carries the error (with a zero NodeSER);
// breaking out of the loop stops the sweep after the current batch.
func Stream(ctx context.Context, c *netlist.Circuit, cfg Config) iter.Seq2[NodeSER, error] {
	return func(yield func(NodeSER, error) bool) {
		p, err := prepare(c, &cfg)
		if err != nil {
			yield(NodeSER{}, err)
			return
		}
		n := c.N()
		rates := p.faults.RatesFIT(c)
		platch := p.platchVector(c)
		psens := make([]float64, n)
		// Stream runs uncached: a memo restore replays hit ranges before the
		// complement is swept, which would break the in-ID-order emission
		// contract. Run keeps the cache; Stream trades it for ordering.
		p.req.Memo = nil
		// Ordered emission needs OnBatch ranges to be final node-ID ranges.
		// For the per-site engines that means a serial sweep; the sampling
		// engine keeps its word-level parallelism — it finalizes all sites
		// together and emits ordered tiles at the end regardless of worker
		// count, with bit-identical results.
		p.req.OrderedSweep = true
		if p.eng.Class() != engine.ClassSampling {
			p.req.Workers = 1
		}
		p.req.OnProgress = cfg.Progress
		stopped := false
		p.req.OnBatch = func(lo, hi int) error {
			for id := lo; id < hi; id++ {
				if !yield(nodeSER(c, netlist.ID(id), rates, platch, psens), nil) {
					stopped = true
					return errStreamStopped
				}
			}
			return nil
		}
		if err := p.runEngine(ctx, &cfg, psens); err != nil && !stopped {
			yield(NodeSER{}, err)
		}
	}
}

// Estimate runs the full analysis on circuit c.
//
// Deprecated: Estimate is the original synchronous entry point, kept as a
// thin wrapper over Run with a background context. New code should call Run
// (or Stream) for cancellation, engine selection and progress reporting.
func Estimate(c *netlist.Circuit, cfg Config) (*Report, error) {
	return Run(context.Background(), c, cfg)
}

// PSensitized computes the per-node sensitization probability vector with
// the configured engine (the expensive term; exposed separately for the
// benchmark harness).
func PSensitized(c *netlist.Circuit, cfg Config) ([]float64, error) {
	p, err := prepare(c, &cfg)
	if err != nil {
		return nil, err
	}
	out := make([]float64, c.N())
	if err := p.runEngine(context.Background(), &cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SignalProbabilities computes the configured signal probability vector.
func SignalProbabilities(c *netlist.Circuit, cfg Config) []float64 {
	if cfg.SPMethod == SPMonteCarlo {
		return sigprob.MonteCarlo(c, cfg.SP)
	}
	return sigprob.Topological(c, cfg.SP)
}

// Ranked returns the nodes sorted by SER, most vulnerable first; ties break
// by ID for determinism.
func (r *Report) Ranked() []NodeSER {
	out := append([]NodeSER(nil), r.Nodes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SERFIT != out[j].SERFIT {
			return out[i].SERFIT > out[j].SERFIT
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TopK returns the k most vulnerable nodes (fewer if the circuit is smaller).
func (r *Report) TopK(k int) []NodeSER {
	ranked := r.Ranked()
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// HardeningResult quantifies the effect of protecting a set of nodes.
type HardeningResult struct {
	Protected    []netlist.ID
	BeforeFIT    float64
	AfterFIT     float64
	ReductionPct float64
}

// Harden evaluates the paper's selective-hardening use-case: protect the k
// most vulnerable nodes (e.g. by gate upsizing or local triplication),
// modeled as reducing their R_SEU by the given factor in [0,1] (0 = perfect
// protection), and report the circuit-level SER reduction.
func (r *Report) Harden(k int, residual float64) HardeningResult {
	if residual < 0 {
		residual = 0
	}
	if residual > 1 {
		residual = 1
	}
	top := r.TopK(k)
	res := HardeningResult{BeforeFIT: r.TotalFIT, AfterFIT: r.TotalFIT}
	for _, n := range top {
		res.Protected = append(res.Protected, n.ID)
		res.AfterFIT -= n.SERFIT * (1 - residual)
	}
	if res.BeforeFIT > 0 {
		res.ReductionPct = 100 * (res.BeforeFIT - res.AfterFIT) / res.BeforeFIT
	}
	return res
}
