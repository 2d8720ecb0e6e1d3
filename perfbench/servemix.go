package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"smtpsim/internal/core"
	"smtpsim/internal/serve"
)

// The serve_mix traffic: closed-loop clients (scripts that wait for each
// reply) posting small specs, most of them repeats that the result cache
// answers without simulating.
const (
	serveClients   = 2
	streamLen      = 600 // requests per pass; every pool spec appears at least once
	zipfS          = 1.1 // skew of the repeats over the specs seen so far
	defaultTimeout = 60 * time.Second
)

// servePoolScales are the problem scales of the pool's specs: with six
// apps and five models that is 60 distinct 4-node, 1-way runs.
var servePoolScales = []float64{0.05, 0.1}

// specPool is the fixed set of specs serve_mix draws from. The seed only
// enters as each spec's workload seed.
func specPool(seed uint64) []core.Config {
	var pool []core.Config
	for _, scale := range servePoolScales {
		for _, app := range core.Apps() {
			for _, model := range core.Models() {
				pool = append(pool, core.Config{Model: model, App: app, Nodes: 4, AppThreads: 1, CPUGHz: 2, Scale: scale, Seed: seed})
			}
		}
	}
	return pool
}

// specStream draws n (at least poolSize) request indices into a pool of
// poolSize specs, from the random stream (seed, stream). Spec i is first
// requested at position i·(n/poolSize), in pool order, so every spec is
// simulated once per pass and the sequence of misses does not depend on the
// seed. Every other request repeats a spec already introduced, drawn with
// Zipf(zipfS) weight on its rank in a seeded popularity order.
func specStream(seed, stream uint64, poolSize, n int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e_5eed+stream))
	rank := rng.Perm(poolSize) // rank[spec]: 0 is the most popular
	cum := make([]float64, poolSize+1)
	for r := 0; r < poolSize; r++ {
		cum[r+1] = cum[r] + 1/math.Pow(float64(r+1), zipfS)
	}
	every := n / poolSize
	seen := make([]int, 0, poolSize) // introduced specs, most popular first
	out := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if spec := k / every; k%every == 0 && spec < poolSize {
			i := sort.Search(len(seen), func(i int) bool { return rank[seen[i]] > rank[spec] })
			seen = slices.Insert(seen, i, spec)
			out = append(out, spec)
			continue
		}
		u := rng.Float64() * cum[len(seen)]
		r := sort.Search(len(seen), func(i int) bool { return cum[i+1] > u })
		out = append(out, seen[r])
	}
	return out
}

// clientStreams splits a pass's n requests between the clients. Client c
// owns the pool specs i with i mod clients = c and draws its n/clients
// requests over them with specStream. A client repeats only specs it
// introduced itself, and it waits for each reply, so every repeat is a
// cache hit and no request joins a run in flight: which requests miss, and
// in what order each client simulates them, is the same on every seed, and
// so is how much the two clients' runs overlap.
func clientStreams(seed uint64, poolSize, clients, n int) [][]int {
	out := make([][]int, clients)
	for c := range out {
		var own []int
		for i := c; i < poolSize; i += clients {
			own = append(own, i)
		}
		for _, k := range specStream(seed, uint64(c), len(own), n/clients) {
			out[c] = append(out[c], own[k])
		}
	}
	return out
}

// serveStats is one pass's service-side outcome.
type serveStats struct {
	hitMs, missMs []float64 // client-observed latency; joins count as misses
	hits, joins   int
	requests      int
	rejected      float64 // the server's queue.rejected counter
}

// serveMix runs an in-process simserver on a loopback listener.
type serveMix struct {
	seed    uint64
	workers int
	pool    []core.Config
	bodies  [][]byte // request bodies, one per pool spec
	streams [][]int  // per client, indices into pool

	mu    sync.Mutex
	first [][]byte // first response body per pool spec, the byte-identity reference
}

// setup draws the request stream, encodes the pool's specs and builds each
// spec's workload once: the build every miss pays again inside the server,
// timed here on its own.
func (m *serveMix) setup(tr *tracer, parent int) (float64, error) {
	sp := tr.begin("spec_stream", parent, "")
	m.pool = specPool(m.seed)
	m.bodies = make([][]byte, len(m.pool))
	for i, cfg := range m.pool {
		if err := cfg.Validate(); err != nil {
			return 0, err
		}
		b, err := json.Marshal(cfg)
		if err != nil {
			return 0, err
		}
		m.bodies[i] = b
	}
	m.streams = clientStreams(m.seed, len(m.pool), serveClients, streamLen)
	m.first = make([][]byte, len(m.pool))
	tr.end(sp)
	return buildAll(tr, parent, m.pool)
}

// reply is one request's outcome.
type reply struct {
	status int
	cache  string
	ms     float64
	err    error
}

func (m *serveMix) pass(tr *tracer, parent int) *passResult {
	p := &passResult{workers: m.workers, serveStat: &serveStats{}}

	bootStart := time.Now()
	sp := tr.begin("serve.New", parent, "")
	srv := serve.New(serve.Options{Workers: m.workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.end(sp)
		p.fail("listen: %v", err)
		return p
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{
		Timeout:   defaultTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
	base := "http://" + ln.Addr().String()
	err = getOK(client, base+"/healthz", nil)
	tr.end(sp)
	p.setup = time.Since(bootStart).Seconds()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			p.fail("shutdown: %v", err)
		}
		if err := srv.Drain(ctx); err != nil {
			p.fail("drain: %v", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			p.fail("serve: %v", err)
		}
		client.CloseIdleConnections()
	}()
	if err != nil {
		p.fail("server not ready: %v", err)
		return p
	}

	replies := make([][]reply, len(m.streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c, stream := range m.streams {
		replies[c] = make([]reply, len(stream))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, spec := range stream {
				replies[c][i] = m.request(client, base, tr, parent, c, i, spec)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()

	var stats map[string]float64
	sp = tr.begin("serve.stats", parent, "")
	if err := getOK(client, base+"/v1/stats", &stats); err != nil {
		p.fail("stats: %v", err)
	}
	tr.end(sp)

	st := p.serveStat
	st.rejected = stats["queue.rejected"]
	for c, rs := range replies {
		for i, r := range rs {
			p.attempted++
			st.requests++
			if r.err != nil {
				p.fail("client %d request %d (%s): %v", c, i, core.RunName(m.pool[m.streams[c][i]]), r.err)
				continue
			}
			switch r.cache {
			case "hit":
				st.hits++
				st.hitMs = append(st.hitMs, r.ms)
			case "join":
				st.joins++
				st.missMs = append(st.missMs, r.ms)
			default:
				st.missMs = append(st.missMs, r.ms)
			}
		}
	}

	// Every pool spec was requested, so every reference body exists once a
	// pass succeeds; the pass's simulated work is the whole pool.
	h := sha256.New()
	counts := newSimCounts()
	for i, b := range m.first {
		if b == nil {
			p.fail("no response for %s", core.RunName(m.pool[i]))
			continue
		}
		h.Write(b)
		if err := counts.addRunJSON(b); err != nil {
			p.fail("%s: result document: %v", core.RunName(m.pool[i]), err)
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	p.cycles, p.insts = counts.cycles, counts.insts()
	if tr != nil {
		p.counts = counts
	}
	return p
}

// request posts one spec and checks the reply: 200, a completed run, and
// bytes identical to the first reply ever received for that spec.
func (m *serveMix) request(client *http.Client, base string, tr *tracer, parent, c, i, spec int) reply {
	sp := tr.begin("serve.request", parent, fmt.Sprintf("c%d-req%d:%s", c, i, core.RunName(m.pool[spec])))
	start := time.Now()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(m.bodies[spec]))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	tr.end(sp)
	if err != nil {
		return reply{err: err}
	}
	r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), ms: ms}
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(body))
		return r
	}
	if !bytes.Contains(body, []byte(`"completed": true`)) {
		r.err = errors.New("run did not complete")
		return r
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.first[spec] == nil {
		m.first[spec] = body
	} else if !bytes.Equal(m.first[spec], body) {
		r.err = errors.New("response differs from the spec's first response")
	}
	return r
}

// getOK GETs url, requires 200, and decodes a JSON body into out when set.
func getOK(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// crossCheck simulates every pool spec once in process, through
// core.RunWorkload: each run must complete and pass CheckCoherence (the
// server reports neither), and its WriteRunJSON bytes must equal the body
// the server first returned for that spec.
func (m *serveMix) crossCheck(*passResult) (int, error) {
	var errs []error
	for i, cfg := range m.pool {
		b, err := runJSON(core.RunWorkload(cfg, core.BuildWorkload(cfg)))
		switch {
		case err != nil:
			errs = append(errs, err)
		case !bytes.Equal(b, m.first[i]):
			errs = append(errs, fmt.Errorf("%s: served body differs from the in-process run's", core.RunName(cfg)))
		}
	}
	return len(m.pool), errors.Join(errs...)
}
