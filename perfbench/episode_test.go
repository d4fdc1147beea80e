package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
)

// small returns the named workload with short phases, so that an episode
// takes about a second.
func small(t *testing.T, name string) *spec {
	t.Helper()
	w, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s := *w
	s.warmup = 100 * sim.Millisecond
	s.measure = 2 * sim.Second
	if name == "tpcc-8r" {
		s.measure = 200 * sim.Millisecond
	}
	return &s
}

var workloadNames = []string{"ycsb-b-local", "movr-durable", "tpcc-8r"}

func TestSameSeedSameVirtualResults(t *testing.T) {
	for _, name := range workloadNames {
		w := small(t, name)
		a := runEpisode(w, 7, false, hooks{})
		b := runEpisode(w, 7, false, hooks{})
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v / %v", name, a.err, b.err)
		}
		if a.attempted == 0 || a.failed != 0 || a.work[cEvents] == 0 {
			t.Fatalf("%s: attempted=%d failed=%d events=%d", name, a.attempted, a.failed, a.work[cEvents])
		}
		if !reflect.DeepEqual(outcomeOf(a), outcomeOf(b)) {
			t.Errorf("%s: two runs of seed 7 differ:\n%+v\n%+v", name, outcomeOf(a).Work, outcomeOf(b).Work)
		}
	}
}

// TestHarnessDoesNotPerturb runs each workload untraced, then with root
// spans, span recording, the CPU profiler and forced collections around
// the measured window: every virtual-time result must be identical.
func TestHarnessDoesNotPerturb(t *testing.T) {
	var profiles []string
	for _, name := range workloadNames {
		w := small(t, name)
		plain := runEpisode(w, 11, false, hooks{})
		cpu, err := os.Create(filepath.Join(t.TempDir(), "cpu.prof"))
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, cpu.Name())
		traced := runEpisode(w, 11, true, hooks{
			beforeMeasure: func() {
				runtime.GC()
				if err := pprof.StartCPUProfile(cpu); err != nil {
					t.Error(err)
				}
			},
			afterMeasure: func() {
				pprof.StopCPUProfile()
				cpu.Close()
				runtime.GC()
			},
		})
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: %v / %v", name, plain.err, traced.err)
		}
		if !reflect.DeepEqual(outcomeOf(plain), outcomeOf(traced)) {
			t.Errorf("%s: tracing changed virtual-time results", name)
		}
		self, n := selfTimes(traced.spans)
		if n["bench.txn"] == 0 || n["net.rpc"] == 0 || self["bench.txn"] < 0 {
			t.Errorf("%s: traced run recorded spans %v", name, n)
		}
	}
	// The profiles of the measured windows, read as the traced run reads
	// them, must be attributed to modules and gc for at least 90% of the
	// CPU time.
	samples, err := cpuSamples(profiles...)
	if err != nil {
		t.Fatal(err)
	}
	byMod := attributeAll(samples)
	t.Logf("%d samples: %v", len(samples), byMod)
	if len(samples) < 20 {
		t.Fatalf("only %d CPU profile samples", len(samples))
	}
	if c := coverage(byMod); c < 0.9 {
		t.Fatalf("modules and gc cover %.1f%% of CPU time, below 90%%: %v", 100*c, byMod)
	}
}

// failingLoad is a load generator whose load fails.
type failingLoad struct{ loadgen }

func (failingLoad) load(*sim.Proc) error { return errors.New("injected load failure") }

// TestFailedRunStillReports checks that a run whose episode fails before
// its window still ends with a result that marshals, marked incorrect.
func TestFailedRunStillReports(t *testing.T) {
	w := small(t, "ycsb-b-local")
	w.build = func(c *cluster.Cluster) loadgen { return failingLoad{newYCSB(c)} }
	res := measured(w, 1, 0)
	if res.Correct || res.Attempted != 0 {
		t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

// faulty injects a wrong answer into a load generator's transactions or
// checks.
type faulty struct {
	loadgen
	badTxn   int // 1-based transaction to answer wrongly, 0 for none
	badCheck bool
	n        int
}

func (f *faulty) txn(p *sim.Proc, i int) (bool, int, error) {
	if f.n++; f.n == f.badTxn {
		return false, 1, violationf("injected wrong answer")
	}
	return f.loadgen.txn(p, i)
}

func (f *faulty) check(p *sim.Proc) error {
	if f.badCheck {
		return errors.New("injected check failure")
	}
	return f.loadgen.check(p)
}

func TestViolationsFail(t *testing.T) {
	w := small(t, "ycsb-b-local")
	// The warm-up's transactions come first; pick one in the window.
	w.warmup = 0
	w.build = func(c *cluster.Cluster) loadgen { return &faulty{loadgen: newYCSB(c), badTxn: 5} }
	e := runEpisode(w, 3, false, hooks{})
	var v *violation
	if !errors.As(e.err, &v) || e.failed != 1 {
		t.Fatalf("wrong answer: err=%v failed=%d", e.err, e.failed)
	}

	w.build = func(c *cluster.Cluster) loadgen { return &faulty{loadgen: newYCSB(c), badCheck: true} }
	e = runEpisode(w, 3, false, hooks{})
	if e.err == nil || e.attempted == 0 || e.failed != e.attempted {
		t.Fatalf("failed check: err=%v failed=%d of %d", e.err, e.failed, e.attempted)
	}
}
