package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/ser"
	"repro/internal/serd"
)

// serveProfiles are the shapes of the circuits resident in the daemon, from
// s1196 to s38417 sizes. The last one's JSON hits are the requests behind
// p50_ms.
var serveProfiles = []string{"s1196", "s1488", "s9234", "s15850", "s38417"}

// The traffic mix is an assumption: the repository holds no recorded serd
// traffic to take it from. Hits are spread evenly over the resident
// circuits and over the two response forms, since nothing says one is
// asked for more than another (serd -mode analyze and -mode loadgen ask for
// JSON; NDJSON is the streaming form the daemon documents, with no caller in
// the repository).
const (
	// missShare is the seeded share of requests that send a fresh circuit:
	// a small minority, so that most requests are hits, yet enough misses
	// in a run for a stable miss median.
	missShare = 0.1
	// poolMargin is how many times more fresh circuits are made than the
	// calibrated request rate says the misses will use.
	poolMargin = 2
	// calibrateFor is how long the hits-only burst that measures the
	// request rate runs, after set-up.
	calibrateFor = time.Second
	// handlerCalls is how many times the traced run calls the daemon's
	// handler directly per resident circuit and form.
	handlerCalls = 5
)

// request is one prepared request body with the exact response bytes it
// must produce, or for a fresh circuit their SHA-256: the pool of fresh
// circuits then takes little memory, so its size, which follows the
// measured request rate, does not move peak_rss_mb.
type request struct {
	class int // 2 × index into serveProfiles + form (0 JSON, 1 NDJSON); -1 for a fresh circuit
	body  []byte
	want  []byte
	sum   [sha256.Size]byte // the digest of the response when want is nil
}

// p50Class is the class of the requests behind serve-mixed's p50_ms: JSON
// hits on the s38417-shaped circuit, the largest cached response, whose
// re-encoding on every hit ROADMAP item 2a aims to remove. The median of a
// single class does not move with the mix.
var p50Class = 2 * (len(serveProfiles) - 1)

// runServe is the serve-mixed workload: an in-process serd daemon on a
// loopback listener with nproc closed-loop clients. Most requests are cache
// hits by circuit hash on the resident circuits, as JSON or NDJSON; a
// seeded share send fresh small circuits as .bench text (misses: parse,
// sweep, memoize). Work units are requests; p50_ms is the median of the
// p50Class hits.
func runServe(e *env) (*outcome, error) {
	o := newOutcome()

	// Inputs and references, made before anything is timed: every response
	// must be byte-identical to one encoded from a local ser.Run.
	var prime []request
	var hits [][2]request // per resident circuit: JSON form, NDJSON form
	for i, p := range serveProfiles {
		src, err := profileBench(p, e.seed, "serve")
		if err != nil {
			return nil, err
		}
		full, byHash, stream, err := serveRefs(e, src)
		if err != nil {
			return nil, err
		}
		prime = append(prime, full)
		hits = append(hits, [2]request{
			{class: 2 * i, body: byHash.body, want: byHash.want},
			{class: 2*i + 1, body: stream.body, want: stream.want},
		})
	}

	// Set-up: start a daemon and prime it with the resident circuits. The
	// daemon of the last set-up serves the measurement.
	var d *daemon
	err := o.timeSetups(func() error {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(e.nproc); err != nil {
			return err
		}
		for _, r := range prime {
			if err := d.check(r, nil); err != nil {
				return fmt.Errorf("priming: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	defer d.stop()

	// Size the pool of fresh circuits from the request rate of a short
	// hits-only burst. Whatever a miss costs, with misses mixed in the
	// clients send at most 1/(1-missShare) times that rate.
	var ids atomic.Int64 // request IDs, shared by all clients
	plain := *e
	plain.tr = nil
	cal, errs, _, calWall := drive(&plain, d, hits, nil, 0, calibrateFor, 1, &ids)
	if len(errs) > 0 {
		return nil, fmt.Errorf("calibration: %w", errs[0])
	}
	rate := float64(len(cal)) / calWall.Seconds()
	fresh := make([]request, e.nproc+int(math.Ceil(poolMargin*missShare/(1-missShare)*rate*e.window.Seconds())))
	for i := range fresh {
		src, err := smallBench(e.seed, i)
		if err != nil {
			return nil, err
		}
		if fresh[i], _, _, err = serveRefs(e, src); err != nil {
			return nil, err
		}
		fresh[i].sum, fresh[i].want = sha256.Sum256(fresh[i].want), nil
	}

	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	startPeak()
	samples, errs, short, wall := drive(e, d, hits, fresh, missShare, e.window, 0, &ids)
	o.endPeak()

	var hitMs, missMs []float64
	classMs := map[int][]float64{}
	for _, err := range errs {
		o.attempted++
		o.failf("request: %v", err)
	}
	for range short {
		o.attempted++
		o.failf("a miss found the pool of %d fresh circuits used up", len(fresh))
	}
	for _, s := range samples {
		o.attempted++
		o.work++
		if s.class < 0 {
			missMs = append(missMs, ms(s.took))
			continue
		}
		o.record(s.traced, s.took)
		hitMs = append(hitMs, ms(s.took))
		classMs[s.class] = append(classMs[s.class], ms(s.took))
		if s.class == p50Class {
			o.lat = append(o.lat, s.took)
		}
	}
	o.busy = wall

	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	if after.Reports.Evictions > 0 {
		o.failf("the report cache evicted %d reports", after.Reports.Evictions)
	}
	lookups := (after.Reports.Hits - before.Reports.Hits) + (after.Reports.Misses - before.Reports.Misses)
	if lookups > 0 {
		o.sample("serd.report_cache_hit_ratio", float64(after.Reports.Hits-before.Reports.Hits)/float64(lookups))
	}
	o.sample("serd.admission_rejected", float64(after.Admission.Rejected-before.Admission.Rejected))
	o.sample("serve.hit_p50_ms", median(hitMs))
	o.sample("serve.miss_p50_ms", median(missMs))
	p99 := percentile(hitMs, 99)
	if p, ok := tailPercentile(len(hitMs), 10); !ok || p < 99 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d hits: p99 has fewer than 10 samples beyond it\n", len(hitMs))
		p99 = 0
	}
	o.sample("serve.hit_p99_ms", p99)
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed %d hits p50 %.3f ms p99 %.3f ms; %d misses p50 %.3f ms of a pool of %d; %.1f requests/s\n",
		len(hitMs), median(hitMs), p99, len(missMs), median(missMs), len(fresh), o.work/wall.Seconds())
	for i, p := range serveProfiles {
		fmt.Fprintf(os.Stderr, "  %-7s JSON %4d hits p50 %7.3f ms   NDJSON %4d hits p50 %7.3f ms\n", p,
			len(classMs[2*i]), median(classMs[2*i]), len(classMs[2*i+1]), median(classMs[2*i+1]))
	}

	if e.tr != nil {
		handlerLayer(e, o, d, hits, classMs)
	}
	return o, nil
}

// sample is one answered request of a measurement.
type sample struct {
	class  int
	took   time.Duration
	traced bool
}

// drive runs e.nproc closed-loop clients against d for window, each with its
// own connection and its own seeded stream of requests (stream tells the
// streams of separate drives apart). With probability missP a client
// sends the next unused circuit of fresh, otherwise a hit drawn evenly over
// the resident circuits and both forms. ids numbers the requests. drive
// returns the answered requests, the failed ones, how many misses found
// fresh used up (they are not sent), and the time the clients ran.
func drive(e *env, d *daemon, hits [][2]request, fresh []request, missP float64, window time.Duration, stream uint64, ids *atomic.Int64) ([]sample, []error, int, time.Duration) {
	var used atomic.Int64
	results := make([][]sample, e.nproc)
	fails := make([][]error, e.nproc)
	start := time.Now()
	var wg sync.WaitGroup
	for k := range e.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(e.seed, stream<<32|uint64(k)))
			var buf bytes.Buffer
			for time.Since(start) < window {
				var r request
				if rng.Float64() < missP {
					n := int(used.Add(1))
					if n > len(fresh) {
						continue
					}
					r = fresh[n-1]
				} else {
					r = hits[rng.IntN(len(hits))][rng.IntN(2)]
				}
				id := int(ids.Add(1))
				tr := e.tracerFor(id)
				name := "serve.hit"
				if r.class < 0 {
					name = "serve.miss"
				}
				s := tr.Begin(name, id, 0)
				t0 := time.Now()
				err := d.check(r, &buf)
				took := time.Since(t0)
				tr.End(s)
				if err != nil {
					fails[k] = append(fails[k], err)
					continue
				}
				results[k] = append(results[k], sample{class: r.class, took: took, traced: tr != nil})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var samples []sample
	var errs []error
	for k := range results {
		samples = append(samples, results[k]...)
		errs = append(errs, fails[k]...)
	}
	return samples, errs, max(0, int(used.Load())-len(fresh)), wall
}

// handlerLayer calls the daemon's handler in-process, with no socket, for
// every resident circuit and form, and derives serd.handler_hit_ms and
// serd.transport_ms (loopback minus handler) as means over the hit mix the
// clients sent.
func handlerLayer(e *env, o *outcome, d *daemon, hits [][2]request, loopMs map[int][]float64) {
	id := 1 << 30 // above every client request ID
	var handler, transport, weight float64
	for _, forms := range hits {
		for _, r := range forms {
			var calls []float64
			for range handlerCalls {
				id++
				req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(r.body))
				w := &cmpWriter{want: r.want, header: http.Header{}}
				s := e.tr.Begin("serd.handler", id, 0)
				t0 := time.Now()
				d.srv.Handler().ServeHTTP(w, req)
				took := time.Since(t0)
				e.tr.End(s)
				o.attempted++
				if err := w.result(); err != nil {
					o.failf("handler call for class %d: %v", r.class, err)
					continue
				}
				calls = append(calls, ms(took))
			}
			w := float64(len(loopMs[r.class]))
			if w == 0 || len(calls) == 0 {
				continue
			}
			h := median(calls)
			handler += w * h
			transport += w * (median(loopMs[r.class]) - h)
			weight += w
		}
	}
	if weight > 0 {
		o.sample("serd.handler_hit_ms", handler/weight)
		o.sample("serd.transport_ms", transport/weight)
	}
}

// cmpWriter is an http.ResponseWriter that compares the body with the
// expected bytes as it is written, so an in-process handler call costs no
// more client-side work than a loopback request does.
type cmpWriter struct {
	header http.Header
	code   int
	want   []byte
	off    int
	differ bool
}

func (w *cmpWriter) Header() http.Header { return w.header }
func (w *cmpWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *cmpWriter) Flush() {}

func (w *cmpWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if end := w.off + len(p); end > len(w.want) || !bytes.Equal(p, w.want[w.off:end]) {
		w.differ = true
	}
	w.off += len(p)
	return len(p), nil
}

// result reports whether the response was a 200 with exactly the expected
// body.
func (w *cmpWriter) result() error {
	if w.code != http.StatusOK {
		return fmt.Errorf("status %d", w.code)
	}
	if w.differ || w.off != len(w.want) {
		return fmt.Errorf("body differs from the local ser.Run encoding (%d bytes, want %d)", w.off, len(w.want))
	}
	return nil
}

// serveRefs parses one circuit's .bench text, runs it locally and returns
// three requests for it with the exact responses a daemon must send: the
// full text as JSON (a miss on a fresh daemon), its hash as JSON and its
// hash as an NDJSON stream (both hits once it is resident).
func serveRefs(e *env, src string) (full, byHash, stream request, err error) {
	c, err := bench.ParseString(src)
	if err != nil {
		return full, byHash, stream, err
	}
	var cfg ser.Config
	rep, err := ser.Run(e.ctx, c, cfg)
	if err != nil {
		return full, byHash, stream, err
	}
	if err := reportInvariants(rep, c); err != nil {
		return full, byHash, stream, err
	}
	info, err := ser.Describe(c, cfg)
	if err != nil {
		return full, byHash, stream, err
	}
	hash := c.ContentHash()
	doc := func(cached bool) []byte {
		var b bytes.Buffer
		mustEncode(&b, serd.AnalyzeResponse{Hash: hash, Fingerprint: info.Fingerprint, Cached: cached, Report: rep})
		return b.Bytes()
	}
	var tiles bytes.Buffer
	mustEncode(&tiles, serd.StreamHeader{Type: serd.FrameHeader, Circuit: c.Name, Hash: hash, Fingerprint: info.Fingerprint,
		Engine: info.Engine, Method: info.Method.String(), Nodes: c.N(), Cached: true})
	for _, n := range rep.Nodes {
		mustEncode(&tiles, serd.StreamNode{Type: serd.FrameNode, ID: int(n.ID), Name: n.Name, RateFIT: n.RateFIT,
			PLatched: n.PLatched, PSensitized: n.PSensitized, SERFIT: n.SERFIT})
	}
	mustEncode(&tiles, serd.StreamTotal{Type: serd.FrameTotal, Nodes: len(rep.Nodes), TotalFIT: rep.TotalFIT})

	body := func(r serd.AnalyzeRequest) []byte {
		var b bytes.Buffer
		mustEncode(&b, r)
		return b.Bytes()
	}
	full = request{class: -1, body: body(serd.AnalyzeRequest{Circuit: serd.CircuitSource{Bench: src}}), want: doc(false)}
	byHash = request{body: body(serd.AnalyzeRequest{Circuit: serd.CircuitSource{Hash: hash}}), want: doc(true)}
	stream = request{body: body(serd.AnalyzeRequest{Circuit: serd.CircuitSource{Hash: hash}, Stream: true}), want: tiles.Bytes()}
	return full, byHash, stream, nil
}

// mustEncode appends v's JSON line as serd's encoders write it. The values
// are plain structs of strings and finite numbers, so encoding cannot fail.
func mustEncode(b *bytes.Buffer, v any) {
	if err := json.NewEncoder(b).Encode(v); err != nil {
		panic(err)
	}
}

// daemon is one in-process serd server on a loopback listener.
type daemon struct {
	srv    *serd.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startDaemon(nproc int) (*daemon, error) {
	srv := serd.New(serd.Config{
		PoolSize:          nproc,
		CircuitCacheBytes: 1 << 30, // far above the resident set: nothing is evicted
		ReportCacheBytes:  1 << 30,
		Logf:              func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(d.done)
		if err := d.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return d, nil
}

// stop shuts the daemon down and waits until its server goroutine and
// connections have ended.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
}

// check sends one request and compares the whole response body with the
// expected bytes. buf, when not nil, is reused for the body.
func (d *daemon) check(r request, buf *bytes.Buffer) error {
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	resp, err := d.client.Post(d.url+"/v1/analyze", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if r.want == nil {
		if sha256.Sum256(buf.Bytes()) != r.sum {
			return fmt.Errorf("response to a fresh circuit differs from the local ser.Run encoding")
		}
		return nil
	}
	if !bytes.Equal(buf.Bytes(), r.want) {
		return fmt.Errorf("response of class %d differs from the local ser.Run encoding (%d bytes, want %d)", r.class, buf.Len(), len(r.want))
	}
	return nil
}

// stats reads the daemon's /v1/stats snapshot.
func (d *daemon) stats() (*serd.StatsResponse, error) {
	resp, err := d.client.Get(d.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serd.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	return &st, nil
}
