package main

import (
	"reflect"
	"testing"
	"time"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

func TestAttributeInnermostModule(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"innermost module wins", []string{
			"runtime.mapaccess2", "mrdb/internal/raft.(*Node).sendAppend",
			"mrdb/internal/kv.(*Replica).propose", "mrdb/internal/sim.(*Proc).run",
		}, "raft"},
		{"allocation charged to its caller", []string{
			"runtime.mallocgc", "runtime.growslice", "mrdb/internal/kv.(*DistSender).SendBatch.func1",
			"mrdb/internal/txn.(*Txn).Commit",
		}, "kv"},
		{"skiplist is mvcc", []string{"mrdb/internal/skl.(*List).Set", "mrdb/internal/mvcc.(*Engine).Put"}, "mvcc"},
		{"obs subpackage is obs", []string{"mrdb/internal/obs/tsdb.(*DB).Observe", "mrdb/internal/cluster.(*Cluster).sampleNode"}, "obs"},
		{"unreported package is other", []string{"mrdb/internal/hlc.(*Clock).Now", "runtime.goexit"}, "other"},
		{"benchmark code is other", []string{"main.runClients.func1", "mrdb/internal/sim.(*Proc).run"}, "other"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "gc"},
		{"assist under a module frame is gc", []string{
			"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "mrdb/internal/raft.(*Node).appendLocal",
		}, "gc"},
		{"sweep", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"goroutine switch", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim"},
		{"runtime only", []string{"runtime.nanotime", "runtime.sysmon", "runtime.mstart1", "runtime.mstart"}, "runtime"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeAll(t *testing.T) {
	samples := []stackSample{
		{[]string{"mrdb/internal/raft.(*Node).Step"}, 40},
		{[]string{"runtime.gcBgMarkWorker"}, 35},
		{[]string{"mrdb/internal/sim.(*Simulation).step"}, 17},
		{[]string{"runtime.sysmon"}, 5},
		{[]string{"mrdb/internal/hlc.(*Clock).Now"}, 3},
	}
	got := attributeAll(samples)
	want := map[string]int64{"raft": 40, "gc": 35, "sim": 17, "runtime": 5, "other": 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attributeAll = %v, want %v", got, want)
	}
	if c := coverage(got); c != 0.92 {
		t.Fatalf("coverage = %v, want 0.92", c)
	}
}

// rawProfile is the -raw listing pprof prints for a CPU profile, cut down:
// location 1 inlines mapaccess1 into raft's Step, and the second sample
// carries a label line.
const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Time: 2026-01-01 00:00:00 +0000 UTC
Duration: 1.
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 
          1   10000000: 2 
                bytes:[64]
Locations
     1: 0x4069c0 M=1 runtime.mapaccess1 /go/src/runtime/map.go:10:0 s=5
             mrdb/internal/raft.(*Node).Step /src/internal/raft/raft.go:20:0 s=15
     2: 0x4b977d M=1 mrdb/internal/kv.(*Store).handle /src/internal/kv/store.go:30:0 s=25
Mappings
1: 0x400000/0x4ba000/0x0 /bin/perfbench [FN]
`

func TestParseRawProfile(t *testing.T) {
	got, err := parseRawProfile(rawProfile)
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"runtime.mapaccess1", "mrdb/internal/raft.(*Node).Step", "mrdb/internal/kv.(*Store).handle"}, 30_000_000},
		{[]string{"mrdb/internal/kv.(*Store).handle"}, 10_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if _, err := parseRawProfile(rawProfile[:len(rawProfile)/2]); err == nil {
		t.Fatal("truncated listing parsed without error")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(v int) sim.Time { return sim.Time(time.Duration(v) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{ms(a), ms(b)} }
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"leaf", nil, 100 * time.Millisecond},
		{"disjoint children", []interval{iv(10, 20), iv(50, 80)}, 60 * time.Millisecond},
		// A DistSender fan-out: parallel RPCs overlap. Self time is the
		// interval minus their union (10..70), not minus their sum.
		{"overlapping fan-out", []interval{iv(10, 50), iv(30, 70), iv(20, 40)}, 40 * time.Millisecond},
		{"nested overlap", []interval{iv(10, 90), iv(20, 30)}, 20 * time.Millisecond},
		{"children clipped to the parent", []interval{iv(-10, 20), iv(90, 150)}, 70 * time.Millisecond},
		{"child outside the parent", []interval{iv(120, 150)}, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(iv(0, 100), c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesByName(t *testing.T) {
	ms := func(v int) sim.Time { return sim.Time(time.Duration(v) * time.Millisecond) }
	span := func(id, parent obs.SpanID, name string, start, end int) *obs.Span {
		return &obs.Span{Context: obs.SpanContext{Trace: 1, Span: id}, Parent: parent, Name: name, Start: ms(start), End: ms(end)}
	}
	tr := &obs.Trace{ID: 1, Spans: []*obs.Span{
		span(1, 0, "sql.txn", 0, 100),
		span(2, 1, "ds.batch", 10, 60),
		span(3, 2, "net.rpc", 15, 55),
		span(4, 2, "net.rpc", 20, 58),
		span(5, 1, "txn.commit", 60, 100),
		{Context: obs.SpanContext{Trace: 1, Span: 6}, Parent: 1, Name: "txn.resolve", Start: ms(90)}, // unfinished
	}}
	self, n := selfTimes([]*obs.Trace{tr})
	want := map[string]time.Duration{
		"sql.txn":    10 * time.Millisecond,
		"ds.batch":   7 * time.Millisecond,
		"net.rpc":    78 * time.Millisecond,
		"txn.commit": 40 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self = %v, want %v", self, want)
	}
	if n["net.rpc"] != 2 || n["txn.resolve"] != 0 {
		t.Fatalf("counts = %v", n)
	}
}

func TestPercentileAndTail(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 200; i++ {
		s = append(s, time.Duration(i))
	}
	if v, beyond := percentile(s, 50); v != 100 || beyond != 100 {
		t.Fatalf("p50 = %v (%d beyond)", v, beyond)
	}
	if q := tailQ(len(s)); q != 95 {
		t.Fatalf("tail of 200 samples is p%g, want p95", q)
	}
	if _, beyond := percentile(s, tailQ(len(s))); beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
	if q := tailQ(5000); q != 99 {
		t.Fatalf("tail of 5000 samples is p%g, want p99", q)
	}
	if q := tailQ(15); q != 50 {
		t.Fatalf("tail of 15 samples is p%g, want p50", q)
	}
}
