// Command perfbench is smtpsim's benchmark. One invocation runs one
// workload from one process, prints every end-to-end metric by name and
// unit, checks that the simulated outputs are correct, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload smtp32_serial --seed 42 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes the traced
// run that yields the per-layer metrics; --check runs the correctness gate
// alone. README.md in this directory explains the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// defaultSeed is the pinned workload seed whose digests are stored.
const defaultSeed = 42

// traceDir receives the traced run's files, one directory per workload and
// seed.
const traceDir = ".bench_build/trace"

//go:embed digests.json
var storedDigestsJSON []byte

// A run repeats its set-up at least setupMinReps times and until the
// set-ups add up to setupMinTotal; setup_s is the median. A set-up can be
// a few milliseconds, so one or a handful of them would read mostly noise.
const (
	setupMinReps  = 5
	setupMinTotal = 2 * time.Second
)

// maxTimed caps a run's timed phase whatever its sample needs, so every
// run ends well inside the three-minute limit.
const maxTimed = 120 * time.Second

var workloadNames = []string{"figure_sweep", "smtp32_serial", "smtp32_shards2", "serve_mix"}

// bench is one workload. setup prepares inputs before timing and reports
// the seconds it spent building workloads; pass runs the workload once;
// crossCheck runs any extra reference work the correctness gate needs and
// reports how many runs it attempted.
type bench interface {
	setup(tr *tracer, parent int) (build float64, err error)
	pass(tr *tracer, parent int) *passResult
	crossCheck(p *passResult) (int, error)
}

func newBench(name string, seed uint64) (bench, error) {
	switch name {
	case "figure_sweep":
		return &figureSweep{seed: seed, workers: nproc()}, nil
	case "smtp32_serial":
		return &smtp32{seed: seed, shards: 1}, nil
	case "smtp32_shards2":
		return &smtp32{seed: seed, shards: 2}, nil
	case "serve_mix":
		return &serveMix{seed: seed, workers: nproc()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics --trace 0 reports on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_cycles_per_s", "1/s", "higher"},
	{"committed_insts_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"sim_cycles", "cycles", "lower"},
}

// layerPackages are the smtpsim/internal packages a CPU sample's leaf
// frame is charged to; runtime and other complete the split.
var layerPackages = []string{
	"addrmap", "bpred", "cache", "coherence", "core", "directory", "isa", "machine", "memctrl",
	"network", "node", "pipeline", "ppengine", "serve", "sim", "snapshot", "stats", "workload",
}

// perLayer are the metrics --trace 1 reports on every workload; a layer a
// workload does not run reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range append(append([]string(nil), layerPackages...), "runtime", "other") {
		defs = append(defs, metricDef{p + ".cpu_share", "frac", ""})
	}
	return append(defs, []metricDef{
		{"workload.build_s", "s", ""},
		{"core.run_s_p50", "s", ""},
		{"core.runner_idle_frac", "frac", ""},
		{"sim.skipped_frac", "frac", ""},
		{"pipeline.dtlb_hit_ratio", "frac", ""},
		{"pipeline.retired_per_cycle", "insts/cycle", ""},
		{"pipeline.proto_retired_frac", "frac", ""},
		{"cache.l1d_miss_ratio", "frac", ""},
		{"cache.l2_miss_ratio", "frac", ""},
		{"cache.mshr_alloc_fails", "count", ""},
		{"bpred.mispredict_ratio", "frac", ""},
		{"coherence.handlers_per_kcycle", "1/kcycle", ""},
		{"ppengine.busy_frac", "frac", ""},
		{"ppengine.icache_miss_ratio", "frac", ""},
		{"memctrl.queue_req_mean", "entries", ""},
		{"network.msgs_per_kcycle", "1/kcycle", ""},
		{"network.link_waits", "count", ""},
		{"machine.shard_serial_frac", "frac", ""},
		{"machine.shard_barrier_waits", "count", ""},
		{"machine.shard_quanta", "count", ""},
		{"host.cores_busy", "cores", ""},
		{"runtime.gc_cpu_share", "frac", ""},
		{"runtime.sched_cpu_share", "frac", ""},
		{"runtime.alloc_mb_per_mcycle", "MB/Mcycle", ""},
		{"serve.hit_frac", "frac", ""},
		{"serve.join_frac", "frac", ""},
		{"serve.rejected", "count", ""},
		{"trace.overhead_s", "s", ""},
	}...)
}()

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	check    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+` (or "all" with --check)`)
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.check, "check", false, "run the correctness gate only (one pass per workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if o.check {
		return runCheck(o, stdout, stderr)
	}
	b, err := newBench(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(o, b, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fingerprint identifies the host a run was measured on, so a noisy or
// CPU-starved run can be spotted next to its numbers.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1_at_start"`
	CoresBusy  float64 `json:"cores_busy"` // process CPU s / wall s over the timed phase
}

// commit is the source revision go build stamped into the binary, or
// "unknown" when the sources were not a version-controlled checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", false
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			modified = kv.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if modified {
		rev += "+dirty"
	}
	return rev
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s load1=%.2f cores_busy=%.3f",
		f.NProc, f.GOMAXPROCS, f.GoVersion, f.Commit, f.Load1, f.CoresBusy)
}

// run state shared by the phases of one invocation.
type session struct {
	o        options
	b        bench
	w        io.Writer
	heap     *heapSampler
	failures []string
	attempt  int
	stored   string // stored digest for this workload at the default seed
	ref      string // digest of the warm-up pass, every pass must match it
}

func (s *session) record(p *passResult, what string) {
	s.attempt += p.attempted
	for _, f := range p.failures {
		s.failures = append(s.failures, what+": "+f)
	}
	switch {
	case s.ref == "":
		s.ref = p.digest
	case p.digest != s.ref:
		s.failures = append(s.failures, fmt.Sprintf("%s: digest %s differs from the first pass's %s", what, p.digest, s.ref))
	}
}

// phase runs timed passes until another pass would overrun budget and
// enough approves the samples (or maxTimed runs out). It returns the passes
// and the process CPU seconds and wall seconds the phase took.
func (s *session) phase(budget time.Duration, tr *tracer, enough func([]*passResult) bool) ([]*passResult, float64, float64) {
	var passes []*passResult
	start, cpu0 := time.Now(), cpuSeconds()
	for {
		runtime.GC()
		s.heap.reset()
		root := tr.begin("pass", 0, fmt.Sprintf("pass%d", len(passes)))
		p := s.b.pass(tr, root)
		tr.end(root)
		p.peakHeap = s.heap.read()
		s.record(p, fmt.Sprintf("pass %d", len(passes)))
		passes = append(passes, p)
		el := time.Since(start)
		next := el + el/time.Duration(len(passes)) // when one more average pass would end
		if el >= maxTimed || (next > budget && (enough == nil || enough(passes))) {
			break
		}
	}
	return passes, cpuSeconds() - cpu0, time.Since(start).Seconds()
}

// setup repeats the workload's set-up (see setupMinReps) and returns the
// number of set-ups and their median set-up and workload-build seconds.
// The heap is collected before each, outside the timing.
func (s *session) setup(tr *tracer) (int, float64, float64, error) {
	var setups, builds []float64
	var total float64
	for i := 0; i < setupMinReps || total < setupMinTotal.Seconds(); i++ {
		runtime.GC()
		sp := tr.begin("setup", 0, fmt.Sprintf("setup%d", i))
		start := time.Now()
		build, err := s.b.setup(tr, sp)
		setups = append(setups, time.Since(start).Seconds())
		total += setups[i]
		tr.end(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		builds = append(builds, build)
	}
	return len(setups), median(setups), median(builds), nil
}

// warmUp runs one untimed pass (lazy initialisation, heap growth) and
// checks its digest against the stored one.
func (s *session) warmUp() {
	p := s.b.pass(nil, 0)
	s.record(p, "warm-up")
	s.checkStored(p)
}

// checkStored holds a pass to the stored digest on the default seed.
func (s *session) checkStored(p *passResult) {
	if s.o.seed != defaultSeed {
		return
	}
	switch {
	case s.stored == "":
		s.failures = append(s.failures, "no stored digest for "+s.o.workload)
	case p.digest != s.stored:
		s.failures = append(s.failures, fmt.Sprintf("digest %s differs from stored %s", p.digest, s.stored))
	}
}

// crossCheck runs the workload's reference comparison after timing.
func (s *session) crossCheck(p *passResult) {
	n, err := s.b.crossCheck(p)
	s.attempt += n
	if err != nil {
		s.failures = append(s.failures, err.Error())
	}
}

// servingEnough holds serve_mix to its sample sizes: enough hits for a p99
// and misses for a p90, each with minBeyond samples past it.
func servingEnough(passes []*passResult) bool {
	hits, misses := servePooled(passes)
	_, _, e1 := percentile(hits, 0.99)
	_, _, e2 := percentile(misses, 0.90)
	return e1 == nil && e2 == nil && len(hits) >= 1000 && len(misses) >= 100
}

func servePooled(passes []*passResult) (hits, misses []float64) {
	for _, p := range passes {
		if st := p.serveStat; st != nil {
			hits = append(hits, st.hitMs...)
			misses = append(misses, st.missMs...)
		}
	}
	return hits, misses
}

func measure(o options, b bench, w io.Writer) (*result, error) {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(), Load1: loadAvg1()}
	stored, err := storedDigests()
	if err != nil {
		return nil, err
	}
	s := &session{o: o, b: b, w: w, heap: startHeapSampler(10 * time.Millisecond), stored: stored.Workloads[o.workload]}
	defer s.heap.close()
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)

	var enough func([]*passResult) bool
	if _, ok := b.(*serveMix); ok {
		enough = servingEnough
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setups, setupS, buildS, err := s.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	s.warmUp()

	budget := time.Duration(o.seconds) * time.Second
	var metricsOut map[string]metricValue
	if !o.trace {
		passes, cpu, wall := s.phase(budget, nil, enough)
		s.crossCheck(passes[0])
		fp.CoresBusy = ratio(cpu, wall)
		fmt.Fprintf(w, "host %s\n", fp)
		metricsOut = s.endToEnd(passes, setups, setupS)
	} else {
		// Half the budget untraced, half traced: the wall_s difference is
		// the tracing overhead.
		plain, _, _ := s.phase(budget/2, nil, enough)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		rt0 := readRuntime()
		traced, cpu, wall := s.phase(budget/2, tr, enough)
		rt1 := readRuntime()
		pprof.StopCPUProfile()
		s.crossCheck(traced[0])
		fp.CoresBusy = ratio(cpu, wall)
		fmt.Fprintf(w, "host %s\n", fp)
		dir := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		profPath := filepath.Join(dir, "cpu.pprof")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		p, err := readCPUProfile(profPath)
		if err != nil {
			return nil, err
		}
		lm := layerMetrics(plain, traced, buildS, p.attribute(), rt1.sub(rt0), fp.CoresBusy)
		metricsOut = s.report(perLayer, lm, nil)
		if err := writeTrace(dir, o, fp, tr, metricsOut, plain, traced); err != nil {
			return nil, err
		}
	}

	for _, f := range s.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	fmt.Fprintf(w, "correct: %v (attempted %d, failed %d)\n", len(s.failures) == 0, s.attempt, len(s.failures))
	return &result{Correct: len(s.failures) == 0, Attempted: s.attempt, Failed: len(s.failures), Metrics: metricsOut}, nil
}

// report prints defs' values from vals and returns them keyed by name.
// notes annotates a line (sample counts, bases).
func (s *session) report(defs []metricDef, vals map[string]float64, notes map[string]string) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(s.w, "  %-30s %16.6g %-11s %s\n", d.name, v, d.unit, notes[d.name])
	}
	return out
}

// endToEnd computes and prints the untraced metrics. Rates are per pass,
// then the median over passes; percentiles pool every timed pass. Every
// pass does the same work, but a collection that marks while the
// simulations allocate fast counts what they allocated meanwhile as live,
// so a pass's peak reads high by however long its collections competed
// for the CPU; peak_heap_mb is the smallest per-pass peak, the reading
// least inflated that way.
func (s *session) endToEnd(passes []*passResult, setups int, setupS float64) map[string]metricValue {
	var walls, boots, cycRates, instRates, heaps []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		boots = append(boots, p.setup)
		cycRates = append(cycRates, ratio(p.cycles, p.wall))
		instRates = append(instRates, ratio(p.insts, p.wall))
		heaps = append(heaps, p.peakHeap/(1<<20))
	}
	n := fmt.Sprintf("median of %d passes", len(passes))
	vals := map[string]float64{
		"wall_s":                median(walls),
		"setup_s":               setupS + median(boots),
		"sim_cycles_per_s":      median(cycRates),
		"committed_insts_per_s": median(instRates),
		"peak_heap_mb":          slices.Min(heaps),
		"sim_cycles":            passes[0].cycles,
	}
	notes := map[string]string{
		"wall_s": n, "sim_cycles_per_s": n, "committed_insts_per_s": n,
		"peak_heap_mb": fmt.Sprintf("smallest of %d per-pass peaks", len(passes)),
		"setup_s":      fmt.Sprintf("median of %d set-ups", setups),
		"sim_cycles":   "summed over one pass's runs",
	}
	fmt.Fprintf(s.w, "pass walls (s): %.4g\n", walls)
	fmt.Fprintf(s.w, "pass peak heaps (MB): %.4g\n", heaps)
	fmt.Fprintln(s.w, "end-to-end:")
	out := s.report(endToEnd, vals, notes)
	s.workloadDetail(passes)
	return out
}

// workloadDetail prints the metrics that exist on one workload only. They
// stay out of the final JSON line, which carries the metrics every
// workload reports.
func (s *session) workloadDetail(passes []*passResult) {
	p0 := passes[0]
	if p0.vsInt512 != 0 {
		fmt.Fprintf(s.w, "  %-30s %16.6g %-11s %s\n", "smtp_vs_int512", p0.vsInt512, "ratio",
			"geomean over 6 apps of SMTp/Int512KB normalized time")
	}
	if p0.serveStat == nil {
		return
	}
	var reqRates []float64
	for _, p := range passes {
		reqRates = append(reqRates, ratio(float64(p.serveStat.requests), p.wall))
	}
	fmt.Fprintf(s.w, "  %-30s %16.6g %-11s median of %d passes\n", "req_per_s", median(reqRates), "1/s", len(passes))
	hits, misses := servePooled(passes)
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"hit_p50_ms", hits, 0.5}, {"hit_p99_ms", hits, 0.99}, {"miss_p50_ms", misses, 0.5}, {"miss_p90_ms", misses, 0.9}} {
		v, cnt, err := percentile(q.xs, q.p)
		if err != nil {
			s.failures = append(s.failures, q.name+": "+err.Error())
			continue
		}
		fmt.Fprintf(s.w, "  %-30s %16.6g %-11s n=%d\n", q.name, v, "ms", cnt)
	}
}

// runtimeSample is a reading of the runtime's CPU classes and allocation
// counter.
type runtimeSample struct{ gc, idle, total, allocs float64 }

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gc: v(0), idle: v(1), total: v(2), allocs: v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{gc: a.gc - b.gc, idle: a.idle - b.idle, total: a.total - b.total, allocs: a.allocs - b.allocs}
}

// layerMetrics derives the per-layer metrics of a traced phase.
func layerMetrics(plain, traced []*passResult, buildS float64, a attribution, rt runtimeSample, coresBusy float64) map[string]float64 {
	m := map[string]float64{}
	var sum float64
	for _, p := range layerPackages {
		m[p+".cpu_share"] = a.share(p)
		sum += m[p+".cpu_share"]
	}
	m["runtime.cpu_share"] = a.share("runtime")
	m["other.cpu_share"] = 1 - sum - m["runtime.cpu_share"]
	if a.total == 0 {
		m["other.cpu_share"] = 0
	}
	m["runtime.sched_cpu_share"] = ratio(float64(a.sched), float64(a.total))
	m["runtime.gc_cpu_share"] = ratio(rt.gc, rt.total-rt.idle)
	m["host.cores_busy"] = coresBusy
	m["workload.build_s"] = buildS

	var runWalls, idle, tWalls, pWalls []float64
	var cycles float64
	var hits, joins, reqs, rejected float64
	for _, p := range traced {
		runWalls = append(runWalls, p.runWalls...)
		if len(p.runWalls) > 0 {
			idle = append(idle, runnerIdleFrac(p.runWalls, p.workers, p.wall))
		}
		tWalls = append(tWalls, p.wall)
		cycles += p.cycles
		if st := p.serveStat; st != nil {
			hits += float64(st.hits)
			joins += float64(st.joins)
			reqs += float64(st.requests)
			rejected += st.rejected
		}
	}
	for _, p := range plain {
		pWalls = append(pWalls, p.wall)
	}
	m["core.run_s_p50"] = median(runWalls)
	m["core.runner_idle_frac"] = median(idle)
	m["runtime.alloc_mb_per_mcycle"] = ratio(rt.allocs/(1<<20), cycles/1e6)
	m["serve.hit_frac"] = ratio(hits, reqs)
	m["serve.join_frac"] = ratio(joins, reqs)
	m["serve.rejected"] = rejected
	m["trace.overhead_s"] = median(tWalls) - median(pWalls)
	if c := traced[len(traced)-1].counts; c != nil {
		for k, v := range c.layerCounts() {
			m[k] = v
		}
	}
	return m
}

// writeTrace writes the traced run's spans and its per-layer metrics, with
// the tracing overhead next to them, into dir beside the CPU profile.
func writeTrace(dir string, o options, fp fingerprint, tr *tracer, lm map[string]metricValue, plain, traced []*passResult) error {
	if err := tr.writeJSON(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}
	walls := func(ps []*passResult) []float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.wall)
		}
		return xs
	}
	doc := struct {
		Workload       string                 `json:"workload"`
		Seed           uint64                 `json:"seed"`
		Host           fingerprint            `json:"host"`
		UntracedWallS  float64                `json:"untraced_wall_s"`
		TracedWallS    float64                `json:"traced_wall_s"`
		TraceOverheadS float64                `json:"trace_overhead_s"`
		Metrics        map[string]metricValue `json:"metrics"`
	}{o.workload, o.seed, fp, median(walls(plain)), median(walls(traced)), lm["trace.overhead_s"].Value, lm}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}

// storedDigestFile is digests.json: the default seed's per-workload
// sha256 over WriteRunJSON bytes in job order.
type storedDigestFile struct {
	Seed      uint64            `json:"seed"`
	Workloads map[string]string `json:"workloads"`
}

func storedDigests() (storedDigestFile, error) {
	var d storedDigestFile
	if err := json.Unmarshal(storedDigestsJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	if d.Workloads == nil {
		d.Workloads = map[string]string{}
	}
	if d.Seed != defaultSeed {
		return d, fmt.Errorf("digests.json records seed %d, want %d", d.Seed, defaultSeed)
	}
	return d, nil
}

// runCheck is --check: one pass per selected workload through the
// correctness gate, no timing. It prints each digest; after an intended
// change to the simulated output, the default seed's digests it prints go
// into digests.json.
func runCheck(o options, stdout, stderr io.Writer) int {
	names := []string{o.workload}
	if o.workload == "" || o.workload == "all" {
		names = workloadNames
	}
	stored, err := storedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ok := true
	for _, name := range names {
		b, err := newBench(name, o.seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		s := &session{o: o, b: b, w: stdout}
		s.o.workload = name
		s.stored = stored.Workloads[name]
		if _, err := b.setup(nil, 0); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s setup: %v\n", name, err)
			return 1
		}
		p := b.pass(nil, 0)
		s.record(p, "pass")
		s.checkStored(p)
		s.crossCheck(p)
		for _, f := range s.failures {
			fmt.Fprintf(stdout, "FAIL %s: %s\n", name, f)
		}
		fmt.Fprintf(stdout, "check %s seed=%d: attempted %d, failed %d, digest %s\n", name, o.seed, s.attempt, len(s.failures), p.digest)
		ok = ok && len(s.failures) == 0
	}
	if !ok {
		return 1
	}
	return 0
}

// heapSampler tracks the largest live Go heap (the bytes the most recent
// GC marked live) between reset and read, polling on its own goroutine.
// The live heap is what the program holds; the garbage between
// collections depends on GC timing and would make the peak noisy.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func liveHeap() uint64 {
	ss := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ss)
	return ss[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := liveHeap()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.peak.Store(liveHeap()) }

// read returns the peak since the last reset, in bytes.
func (h *heapSampler) read() float64 {
	h.observe()
	return float64(h.peak.Load())
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
