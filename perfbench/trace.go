package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"smtpsim/internal/core"
)

// span is one timed call the benchmark made into a layer. Spans of one run
// or request share its Run identifier; Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Run     string `json:"run,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, run string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, StartNS: now, EndNS: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
}

// add records a span whose bounds were observed elsewhere (a run's wall
// time reported after it finished).
func (t *tracer) add(name string, parent int, run string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

// writeJSON writes the spans as one JSON array.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

var (
	nodePrefixRE = regexp.MustCompile(`^node[0-9]+\.`)
	ctxRE        = regexp.MustCompile(`\.ctx[0-9]+\.`)
)

// simCounts sums the simulator's metric counters over the runs of a pass.
// Per-node names (node<i>.x) fold into x and per-context names into
// pipe.ctx.x, so a ratio reads the whole machine.
type simCounts struct {
	sum       map[string]float64
	nodeRuns  float64 // node instances summed (for per-node means)
	cycles    float64 // simulated machine cycles, summed over runs
	engineCyc float64 // cycles × engines (shards), the base of skipped cycles
	skipped   float64
	serialCyc float64 // shard.serial_cycles
	barriers  float64 // shard.barrier_waits
	quanta    float64 // shard.quanta
}

func newSimCounts() *simCounts { return &simCounts{sum: map[string]float64{}} }

// addMetric folds one flat metric sample into the sums.
func (c *simCounts) addMetric(name string, v float64) {
	if loc := nodePrefixRE.FindStringIndex(name); loc != nil {
		name = name[loc[1]:]
		if name == "pipe.cycles" {
			c.nodeRuns++
		}
	}
	if strings.Contains(name, ".ctx") {
		name = ctxRE.ReplaceAllString(name, ".ctx.")
	}
	c.sum[name] += v
}

// addResult folds one simulation result.
func (c *simCounts) addResult(r *core.Result) {
	if r.Metrics != nil {
		for _, s := range r.Metrics.Samples {
			c.addMetric(s.Name, s.Value)
		}
	}
	c.cycles += float64(r.Cycles)
	engines := 1.0
	if r.ShardMetrics != nil {
		sm := r.ShardMetrics
		engines = float64(r.Cfg.Shards)
		c.serialCyc += sm.Value("shard.serial_cycles")
		c.barriers += sm.Value("shard.barrier_waits")
		c.quanta += sm.Value("shard.quanta")
	}
	c.engineCyc += float64(r.Cycles) * engines
	c.skipped += float64(r.SkippedCycles)
}

// addRunJSON folds a WriteRunJSON document (a served result).
func (c *simCounts) addRunJSON(body []byte) error {
	var doc struct {
		Cycles  float64            `json:"cycles"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	names := make([]string, 0, len(doc.Metrics))
	for name := range doc.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.addMetric(name, doc.Metrics[name])
	}
	c.cycles += doc.Cycles
	return nil
}

// insts is committed instructions: application plus protocol thread.
func (c *simCounts) insts() float64 { return c.sum["pipe.ctx.retired"] + c.sum["pipe.proto.retired"] }

// missRatio returns misses/(hits+misses) for a cache-like prefix.
func (c *simCounts) missRatio(prefix string) float64 {
	h, m := c.sum[prefix+".hits"], c.sum[prefix+".misses"]
	return ratio(m, h+m)
}

// layerCounts derives the count-based per-layer metrics. Every value is a
// deterministic function of the simulated runs, so it repeats exactly
// across runs of one seed.
func (c *simCounts) layerCounts() map[string]float64 {
	s := c.sum
	retired := c.insts()
	m := map[string]float64{
		"pipeline.dtlb_hit_ratio":       1 - c.missRatio("pipe.dtlb"),
		"pipeline.retired_per_cycle":    ratio(retired, s["pipe.cycles"]),
		"pipeline.proto_retired_frac":   ratio(s["pipe.proto.retired"], retired),
		"cache.l1d_miss_ratio":          c.missRatio("pipe.l1d"),
		"cache.l2_miss_ratio":           c.missRatio("pipe.l2"),
		"cache.mshr_alloc_fails":        s["pipe.mshr.alloc_fails"],
		"bpred.mispredict_ratio":        ratio(s["pipe.bpred.mispredicts"], s["pipe.bpred.lookups"]),
		"coherence.handlers_per_kcycle": 1000 * ratio(s["mc.dispatched"], c.cycles),
		"ppengine.busy_frac":            ratio(s["pp.busy_cycles"], s["pipe.cycles"]),
		"ppengine.icache_miss_ratio":    c.missRatio("pp.icache"),
		"memctrl.queue_req_mean":        ratio(s["mc.queue.req.mean"], c.nodeRuns),
		"network.msgs_per_kcycle":       1000 * ratio(s["net.sent"], c.cycles),
		"network.link_waits":            s["net.link_waits"],
		"machine.shard_serial_frac":     ratio(c.serialCyc, c.cycles),
		"machine.shard_barrier_waits":   c.barriers,
		"machine.shard_quanta":          c.quanta,
		"sim.skipped_frac":              ratio(c.skipped, c.engineCyc),
	}
	if s["pipe.dtlb.hits"]+s["pipe.dtlb.misses"] == 0 {
		m["pipeline.dtlb_hit_ratio"] = 0
	}
	return m
}
