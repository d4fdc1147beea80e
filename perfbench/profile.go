package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Module attribution: a profile sample is charged to the innermost frame
// that belongs to one of mrdb's internal packages, so that an allocation or
// map lookup made on behalf of, say, Raft counts as Raft. GC work is
// charged to "gc" wherever it runs: background mark workers, mark assists
// taken by allocating goroutines, and sweeping. A goroutine switch runs on
// the scheduler's own stack (rooted at runtime.mcall) with no caller
// frames; in this process every switch is a simulated proc handing the
// execution token to the next, so it is charged to "sim". Stacks with
// none of these are "runtime".

// modules are the layers the benchmark reports, in report order.
var modules = []string{"sim", "simnet", "raft", "kv", "txn", "sql", "mvcc", "storage", "obs"}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.gcStart",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.deductSweepCredit",
}

// moduleOf returns the benchmark module of a function name, "" for a
// function outside mrdb. The skiplist is part of mvcc; internal packages
// outside the reported modules (hlc, core, zones, cluster, workload) and
// the benchmark's own code are "other".
func moduleOf(fn string) string {
	const prefix = "mrdb/internal/"
	if !strings.HasPrefix(fn, prefix) {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "skl" {
		return "mvcc"
	}
	for _, m := range modules {
		if pkg == m {
			return m
		}
	}
	return "other"
}

// attribute returns the module a stack (innermost frame first) is charged
// to.
func attribute(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	if len(frames) > 0 && frames[len(frames)-1] == "runtime.mcall" {
		return "sim"
	}
	return "runtime"
}

// stackSample is one profile sample: its frames, innermost first, with
// inlined calls expanded, and its value.
type stackSample struct {
	frames []string
	value  int64
}

// attributeAll sums sample values by module.
func attributeAll(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[attribute(s.frames)] += s.value
	}
	return out
}

// coverage returns the share of attributed CPU time that lands on a module
// or gc rather than on "runtime" or "other".
func coverage(byMod map[string]int64) float64 {
	var total, named int64
	for m, v := range byMod {
		total += v
		if m != "runtime" && m != "other" {
			named += v
		}
	}
	return float64(named) / float64(max(total, 1))
}

// allocBytesByModule reads the heap profile's cumulative allocated bytes by
// module, scaled up from the sampled records the way pprof does. The
// profile reflects allocations up to the last completed GC cycle.
func allocBytesByModule() map[string]float64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	modOf := map[uintptr]string{}
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		b := float64(r.AllocBytes)
		if rate > 1 {
			b /= 1 - math.Exp(-b/float64(r.AllocObjects)/rate)
		}
		out[attributePCs(r.Stack(), modOf)] += b
	}
	return out
}

// attributePCs attributes a stack of return PCs like attribute. Allocation
// stacks hold no GC or scheduler frames, so the innermost mrdb frame
// decides; modOf caches each PC's module (with inlined calls expanded).
func attributePCs(pcs []uintptr, modOf map[uintptr]string) string {
	for _, pc := range pcs {
		m, ok := modOf[pc]
		if !ok {
			it := runtime.CallersFrames([]uintptr{pc})
			for {
				f, more := it.Next()
				if m = moduleOf(f.Function); m != "" || !more {
					break
				}
			}
			modOf[pc] = m
		}
		if m != "" {
			return m
		}
	}
	return "runtime"
}

// cpuSamples reads CPU profiles, merged, with the Go toolchain's pprof and
// returns their samples valued in nanoseconds of CPU time.
func cpuSamples(paths ...string) ([]stackSample, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-raw", "-symbolize=none"}, paths...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseRawProfile(string(out))
}

// parseRawProfile parses pprof's -raw listing of a CPU profile. A sample
// line holds its values, then a colon, then its location IDs, leaf first;
// a location line holds its ID, address, mapping and innermost function,
// and each inlined caller follows on a line of its own.
func parseRawProfile(text string) ([]stackSample, error) {
	type rawSample struct {
		value int64
		locs  []string
	}
	var samples []rawSample
	funcs := map[string][]string{} // location ID -> functions, innermost first
	section, loc := "", ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
		case len(f) == 0:
		case section == "Samples:":
			// The last value is the CPU time: a Go CPU profile's sample
			// types are samples/count and cpu/nanoseconds.
			vals, locs, _ := strings.Cut(line, ":")
			vs := strings.Fields(vals)
			if len(vs) == 0 {
				continue
			}
			v, err := strconv.ParseInt(vs[len(vs)-1], 10, 64)
			if err != nil {
				continue // the sample-type header or a label line
			}
			samples = append(samples, rawSample{v, strings.Fields(locs)})
		case section == "Locations" && strings.HasSuffix(f[0], ":"):
			loc = strings.TrimSuffix(f[0], ":")
			for _, w := range f[1:] {
				if !strings.HasPrefix(w, "0x") && !strings.HasPrefix(w, "M=") && w != "[F]" {
					funcs[loc] = append(funcs[loc], w)
					break
				}
			}
		case section == "Locations":
			funcs[loc] = append(funcs[loc], f[0])
		}
	}
	if section != "Mappings" {
		return nil, errors.New("profile: pprof listing ends early")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			frames = append(frames, funcs[l]...)
		}
		out = append(out, stackSample{frames: frames, value: s.value})
	}
	return out, nil
}
