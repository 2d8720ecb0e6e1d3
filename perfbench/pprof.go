package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// cpuProfile is a CPU profile's distinct stacks, leaf first, each frame a
// fully qualified function name, with the samples each drew.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// modulePrefix is the import-path prefix of the simulator's layers.
const modulePrefix = "smtpsim/internal/"

// schedFrames are the Go scheduler functions whose presence on a runtime-
// leaf stack marks the sample as scheduling work (parking, waking, finding
// the next goroutine) rather than allocation or GC.
var schedFrames = map[string]bool{
	"runtime.schedule":     true,
	"runtime.findRunnable": true,
	"runtime.park_m":       true,
	"runtime.goschedImpl":  true,
	"runtime.wakep":        true,
	"runtime.startm":       true,
	"runtime.stopm":        true,
	"runtime.ready":        true,
	"runtime.goready":      true,
}

// leafPackage maps a function name to the layer its CPU time is charged
// to: the smtpsim/internal package name, "runtime" for the Go runtime, or
// "other" for everything else (standard library, the benchmark itself).
func leafPackage(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return "other"
	}
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// attribution is the per-layer split of a profile's flat samples.
type attribution struct {
	total int64
	flat  map[string]int64 // layer -> samples whose leaf frame is in it
	sched int64            // runtime-leaf samples under a scheduler frame
}

// attribute charges every sample to its leaf frame's layer.
func (p *cpuProfile) attribute() attribution {
	a := attribution{flat: map[string]int64{}}
	for i, st := range p.stacks {
		c := p.counts[i]
		a.total += c
		leaf := "other"
		if len(st) > 0 {
			leaf = leafPackage(st[0])
		}
		a.flat[leaf] += c
		if leaf != "runtime" {
			continue
		}
		for _, fn := range st {
			if schedFrames[fn] {
				a.sched += c
				break
			}
		}
	}
	return a
}

// share is layer's fraction of all samples.
func (a attribution) share(layer string) float64 {
	return ratio(float64(a.flat[layer]), float64(a.total))
}

// readCPUProfile lists the stacks of a CPU profile file with
// `go tool pprof -traces`, counting samples. The binary search path is
// pinned to the profile's directory: runtime/pprof profiles carry their
// function names, so nothing else needs to be looked up.
func readCPUProfile(path string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-sample_index=samples", "-symbolize=none", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_BINARY_PATH="+filepath.Dir(path), "PPROF_TMPDIR="+filepath.Dir(path))
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// tracesFrameCol is where a frame's name starts in a -traces line, which
// pprof prints as "%10s   %s": the sample count (first frame only), three
// spaces, the function.
const tracesFrameCol = 13

// parseTraces reads `go tool pprof -traces` output: a header, then one
// block per distinct stack, each opened by a separator line, holding
// optional label lines ("%10s:  %s") and the frames, leaf first.
func parseTraces(out []byte) (*cpuProfile, error) {
	p := &cpuProfile{}
	inStacks, open := false, false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inStacks, open = true, true
			continue
		}
		if !inStacks || len(line) <= tracesFrameCol || line[10] == ':' {
			continue
		}
		if open {
			n, err := strconv.ParseFloat(strings.TrimSpace(line[:10]), 64)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: no sample count in %q", line)
			}
			p.stacks = append(p.stacks, nil)
			p.counts = append(p.counts, int64(n))
			open = false
		}
		last := len(p.stacks) - 1
		p.stacks[last] = append(p.stacks[last], strings.TrimSuffix(line[tracesFrameCol:], " (inline)"))
	}
	if !inStacks {
		return nil, errors.New("pprof traces: no stacks in the output")
	}
	return p, nil
}
