package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"smtpsim/internal/core"
	"smtpsim/internal/workload"
)

// passResult is what one pass over a workload produced.
type passResult struct {
	wall      float64 // s, the timed call(s)
	setup     float64 // s, per-pass set-up (serve_mix's server boot); 0 otherwise
	cycles    float64 // simulated cycles summed over the pass's runs
	insts     float64 // committed app+protocol instructions summed likewise
	digest    string  // sha256 over the pass's WriteRunJSON bytes, in job order
	attempted int
	failures  []string

	runWalls  []float64  // s, per simulation run (sim workloads)
	workers   int        // pool width the runs shared
	vsInt512  float64    // figure_sweep's smtp_vs_int512; 0 elsewhere
	counts    *simCounts // per-layer counts; set on traced passes
	serveStat *serveStats
	peakHeap  float64 // bytes, largest live Go heap during the pass
}

func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// runJSON applies the per-run correctness gate and returns the run's
// WriteRunJSON bytes, which it renders even when the gate fails.
func runJSON(r *core.Result) ([]byte, error) {
	name := core.RunName(r.Cfg)
	var buf bytes.Buffer
	if err := core.WriteRunJSON(&buf, r); err != nil {
		return buf.Bytes(), fmt.Errorf("%s: WriteRunJSON: %w", name, err)
	}
	switch {
	case r.Err != nil:
		return buf.Bytes(), fmt.Errorf("%s: %w", name, r.Err)
	case !r.Completed:
		return buf.Bytes(), fmt.Errorf("%s: did not complete", name)
	case r.CoherenceErr != nil:
		return buf.Bytes(), fmt.Errorf("%s: CheckCoherence: %w", name, r.CoherenceErr)
	}
	return buf.Bytes(), nil
}

// checkRun applies the per-run correctness gate and feeds the digest.
func (p *passResult) checkRun(r *core.Result, h hash.Hash) {
	p.attempted++
	b, err := runJSON(r)
	if err != nil {
		p.fail("%v", err)
	}
	h.Write(b)
	p.cycles += float64(r.Cycles)
	p.insts += float64(r.RetiredApp + r.RetiredProto)
	p.runWalls = append(p.runWalls, r.WallTime.Seconds())
}

// Figure 8's machine as cmd/paperbench runs it by default: 8 nodes stand
// in for the paper's 32, 1-way, 2 GHz, problem scale 0.5.
const (
	figNodes = 8
	figScale = 0.5
)

// figureSweep runs all five models × six apps through Suite.RunFigure.
type figureSweep struct {
	seed    uint64
	workers int
}

func (f *figureSweep) suite() core.Suite {
	return core.Suite{CPUGHz: 2, Scale: figScale, Seed: f.seed, Workers: f.workers}
}

// setup builds the six applications. RunFigure owns its workloads and
// builds them again inside the timed call; this measures that cost alone.
func (f *figureSweep) setup(tr *tracer, parent int) (float64, error) {
	var cfgs []core.Config
	for _, app := range core.Apps() {
		cfgs = append(cfgs, core.Config{Model: core.Base, App: app, Nodes: figNodes, AppThreads: 1, CPUGHz: 2, Scale: figScale, Seed: f.seed})
	}
	return buildAll(tr, parent, cfgs)
}

// buildAll builds each config's workload and returns the seconds spent.
func buildAll(tr *tracer, parent int, cfgs []core.Config) (float64, error) {
	start := time.Now()
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return 0, err
		}
		sp := tr.begin("workload.BuildWorkload", parent, core.RunName(cfg))
		core.BuildWorkload(cfg)
		tr.end(sp)
	}
	return time.Since(start).Seconds(), nil
}

func (f *figureSweep) pass(tr *tracer, parent int) *passResult {
	s := f.suite()
	var sp int
	if tr != nil {
		s.Progress = func(p core.Progress) {
			end := time.Now()
			tr.add("core.run", sp, core.RunName(p.Result.Cfg), end.Add(-p.Result.WallTime), end)
		}
	}
	sp = tr.begin("core.Suite.RunFigure", parent, "")
	start := time.Now()
	fig := s.RunFigure("Figure 8", figNodes, 1)
	wall := time.Since(start)
	tr.end(sp)

	p := &passResult{wall: wall.Seconds(), workers: f.workers, vsInt512: smtpVsInt512(fig)}
	h := sha256.New()
	for _, c := range fig.Cells {
		p.checkRun(c.Result, h)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		p.counts = newSimCounts()
		for _, c := range fig.Cells {
			p.counts.addResult(c.Result)
		}
	}
	return p
}

func (f *figureSweep) crossCheck(*passResult) (int, error) { return 0, nil }

// smtpVsInt512 is the figure's headline: the geometric mean over apps of
// SMTp's normalized time divided by Int512KB's.
func smtpVsInt512(fig *core.Figure) float64 {
	var rs []float64
	for _, app := range core.Apps() {
		s, i := fig.Cell(app, core.SMTp), fig.Cell(app, core.Int512KB)
		if s == nil || i == nil || i.NormTime == 0 {
			return math.NaN()
		}
		rs = append(rs, s.NormTime/i.NormTime)
	}
	return geomean(rs)
}

// smtp32 is one SMTp run of FFT on the paper's largest machine: 32 nodes,
// 2-way, 2 GHz, scale 0.25, split across shards OS threads.
type smtp32 struct {
	seed   uint64
	shards int
	w      *workload.Workload
}

func (s *smtp32) cfg(shards int) core.Config {
	return core.Config{Model: core.SMTp, App: core.FFT, Nodes: 32, AppThreads: 2, CPUGHz: 2, Scale: 0.25, Seed: s.seed, Shards: shards}
}

func (s *smtp32) setup(tr *tracer, parent int) (float64, error) {
	cfg := s.cfg(s.shards)
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	sp := tr.begin("workload.BuildWorkload", parent, core.RunName(cfg))
	start := time.Now()
	s.w = core.BuildWorkload(cfg)
	build := time.Since(start).Seconds()
	tr.end(sp)
	return build, nil
}

func (s *smtp32) pass(tr *tracer, parent int) *passResult {
	return s.run(tr, parent, s.shards)
}

func (s *smtp32) run(tr *tracer, parent, shards int) *passResult {
	cfg := s.cfg(shards)
	sp := tr.begin("core.RunWorkload", parent, core.RunName(cfg))
	start := time.Now()
	r := core.RunWorkload(cfg, s.w)
	wall := time.Since(start)
	tr.end(sp)

	p := &passResult{wall: wall.Seconds(), workers: 1}
	h := sha256.New()
	p.checkRun(r, h)
	p.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		p.counts = newSimCounts()
		p.counts.addResult(r)
	}
	return p
}

// crossCheck holds a sharded run to the serial run's bytes: only the shard
// coordinator differs, so the simulated outcome must not.
func (s *smtp32) crossCheck(p *passResult) (int, error) {
	if s.shards == 1 {
		return 0, nil
	}
	serial := s.run(nil, 0, 1)
	if len(serial.failures) > 0 {
		return serial.attempted, fmt.Errorf("serial reference run: %s", serial.failures[0])
	}
	if serial.digest != p.digest {
		return serial.attempted, fmt.Errorf("shards=%d digest %s differs from serial %s", s.shards, p.digest, serial.digest)
	}
	return serial.attempted, nil
}

// nproc is the host's CPU count, the bound on simulation and client
// goroutines.
func nproc() int { return runtime.NumCPU() }
