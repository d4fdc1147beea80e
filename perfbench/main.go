// Command perfbench is mrdb's benchmark. It runs one named workload on the
// simulated cluster in this process and prints every metric by name with
// its unit, as the last line of standard output, in one JSON object:
//
//	go run . --workload tpcc-8r --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs seeded episodes (fresh cluster, load, warm-up,
// measured window, quiesce, correctness checks) until the measured windows
// add up to --seconds of wall time, and reports the end-to-end metrics.
// With --trace 1 it runs the first few episodes twice, untraced under a CPU
// profile and then with span recording, checks that both give identical
// virtual-time results, and reports the per-layer metrics. A failed
// correctness check exits with status 1 after printing the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// traceMemProfileRate samples the heap profile of a traced run densely
// enough to split allocation by module.
const traceMemProfileRate = 16 << 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: tpcc-8r, ycsb-b-local or movr-durable")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds of measured windows to run (--trace 0)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead")
	flag.Parse()

	w, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	fmt.Printf("perfbench %s seed=%d %s GOMAXPROCS=%d NumCPU=%d\n",
		w.name, *seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	var res *result
	switch *trace {
	case 0:
		res = measured(w, *seed, time.Duration(*seconds*float64(time.Second)))
	case 1:
		runtime.MemProfileRate = traceMemProfileRate
		res = traced(w, *seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// episodeSeed derives episode i's seed from the run seed.
func episodeSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// report prints one episode's summary line and any error it hit.
func report(e *episode) {
	fmt.Printf("episode seed=%d setup=%.3fs measure=%.3fs txns=%d failed=%d txn/s=%.1f heap=%.1fMB events=%d goroutines=%d\n",
		e.seed, e.setupWall.Seconds(), e.measureWall.Seconds(), e.attempted, e.failed,
		float64(e.committed())/e.measureWall.Seconds(), float64(e.heapLive)/(1<<20),
		e.work[cEvents], runtime.NumGoroutine())
	if e.firstFailure != nil {
		fmt.Printf("  first failure: %v\n", e.firstFailure)
	}
	if e.err != nil {
		fmt.Printf("  ERROR: %v\n", e.err)
	}
}

// measured runs the end-to-end measurement.
func measured(w *spec, seed int64, budget time.Duration) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var eps []*episode
	var wall time.Duration
	for i := 0; i < w.episodes || wall < budget; i++ {
		e := runEpisode(w, episodeSeed(seed, i), false, hooks{})
		report(e)
		eps = append(eps, e)
		wall += e.measureWall
		res.Attempted += e.attempted
		res.Failed += e.failed
		if e.err != nil {
			res.Correct = false
			break
		}
	}
	// A failed run reports no metrics: its last episode may have ended
	// before its window did.
	if !res.Correct {
		return res
	}
	var rates, setups, heaps []float64
	for _, e := range eps {
		rates = append(rates, float64(e.committed())/e.measureWall.Seconds())
		setups = append(setups, e.setupWall.Seconds())
		heaps = append(heaps, float64(e.heapLive)/(1<<20))
	}
	// Medians over episodes: a burst of load from outside the process
	// slows a few episodes, not the run.
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("txn_per_s", median(rates), "1/s")
	put("setup_s", median(setups), "s")
	put("heap_live_mb", median(heaps), "MB")
	fmt.Printf("failed_frac=%.6f (%d of %d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	// Virtual-time metrics pool the first w.episodes episodes, whose seeds
	// --seed fixes: they are the same for a seed on every machine, and
	// later episodes only add wall-clock samples.
	if len(eps) >= w.episodes {
		v := virtualMetrics(eps[:w.episodes])
		for _, k := range sortedKeys(v) {
			res.Metrics[k] = v[k]
		}
	}
	return res
}

// virtualMetrics pools the latencies of eps, prints the read and write
// medians and tails with their sample counts, and reports the medians and
// committed transactions per virtual minute.
func virtualMetrics(eps []*episode) map[string]metric {
	var reads, writes []time.Duration
	var committed int64
	var window time.Duration
	for _, e := range eps {
		reads = append(reads, e.reads...)
		writes = append(writes, e.writes...)
		committed += e.committed()
		window += e.window
	}
	out := map[string]metric{}
	for _, class := range []struct {
		name    string
		samples []time.Duration
	}{{"read", reads}, {"write", writes}} {
		s := sortedCopy(class.samples)
		p50, beyond50 := percentile(s, 50)
		q := tailQ(len(s))
		tail, beyondTail := percentile(s, q)
		// Tails are printed, not reported: across seeds they are not
		// steady enough to gate on (README.md).
		out["v_"+class.name+"_p50_ms"] = metric{ms(p50), "ms"}
		fmt.Printf("v_%s: n=%d p50=%.3fms (%d beyond) p%g=%.3fms (%d beyond)\n",
			class.name, len(s), ms(p50), beyond50, q, ms(tail), beyondTail)
	}
	out["v_txn_per_min"] = metric{float64(committed) / window.Minutes(), "1/min"}
	return out
}

// outcome is everything about an episode that virtual time determines.
type outcome struct {
	Attempted, Failed, Stmts int64
	Reads, Writes            []time.Duration
	Work                     counts
	End                      endState
}

func outcomeOf(e *episode) outcome {
	return outcome{e.attempted, e.failed, e.stmts, e.reads, e.writes, e.work, e.end}
}

// traceEpisodes caps the episodes of a traced run, which runs each twice.
const traceEpisodes = 8

// traced runs the per-layer breakdown over the first episodes of the seed.
// Each episode runs twice: pass A untraced under the CPU profiler, with the
// heap profile read around the measured window, and pass B with span
// recording. Both passes must agree on every virtual-time result.
func traced(w *spec, seed int64) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	var as, bs []*episode
	var profiles []string
	alloc := map[string]float64{}
	self := map[string]time.Duration{}
	spans := map[string]int{}
	for i := 0; i < min(w.episodes, traceEpisodes) && res.Correct; i++ {
		es := episodeSeed(seed, i)
		cpu, err := os.CreateTemp("", "perfbench-cpu-*.prof")
		if err != nil {
			fmt.Printf("ERROR: %v\n", err)
			res.Correct = false
			break
		}
		defer os.Remove(cpu.Name())
		profiles = append(profiles, cpu.Name())
		var alloc0 map[string]float64
		a := runEpisode(w, es, false, hooks{
			beforeMeasure: func() {
				runtime.GC()
				alloc0 = allocBytesByModule()
				if err := pprof.StartCPUProfile(cpu); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				}
			},
			afterMeasure: func() {
				pprof.StopCPUProfile()
				cpu.Close()
				// The heap profile publishes a cycle's allocations one
				// cycle late.
				runtime.GC()
				runtime.GC()
				for m, v := range allocBytesByModule() {
					alloc[m] += v - alloc0[m]
				}
			},
		})
		report(a)
		b := runEpisode(w, es, true, hooks{})
		report(b)
		s, n := selfTimes(b.spans)
		for name, d := range s {
			self[name] += d
			spans[name] += n[name]
		}
		b.spans = nil
		as, bs = append(as, a), append(bs, b)
		res.Attempted += a.attempted + b.attempted
		res.Failed += a.failed + b.failed
		if a.err != nil || b.err != nil {
			res.Correct = false
		}
		if !reflect.DeepEqual(outcomeOf(a), outcomeOf(b)) {
			fmt.Printf("ERROR: traced and untraced runs of seed %d differ in virtual time\n", es)
			res.Correct = false
		}
	}
	if !res.Correct {
		return res
	}
	samples, err := cpuSamples(profiles...)
	if err != nil {
		fmt.Printf("ERROR: %v\n", err)
		res.Correct = false
		return res
	}
	virtualMetrics(bs)

	var k counts
	var end endState
	var txns, stmts, allocs, cycles, ranges int64
	var wallA, wallB time.Duration
	for i, a := range as {
		k = k.plus(a.work)
		end = end.add(a.end)
		txns += a.committed()
		stmts += a.stmts
		allocs += int64(a.allocs)
		cycles += int64(a.gcCycles)
		ranges += a.rangesPerBatchP50
		wallA += a.measureWall
		wallB += bs[i].measureWall
	}
	perTxn := func(v int64) float64 { return float64(v) / float64(max(txns, 1)) }
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }

	// CPU and allocation by module.
	byMod := attributeAll(samples)
	var total int64
	for _, ns := range byMod {
		total += ns
	}
	for _, m := range append(append([]string(nil), modules...), "gc", "runtime", "other") {
		put(m+".cpu_us_per_txn", perTxn(byMod[m])/1e3, "us")
	}
	for _, m := range modules {
		put(m+".alloc_kb_per_txn", alloc[m]/1024/float64(max(txns, 1)), "kB")
	}
	put("attrib.coverage_frac", coverage(byMod), "frac")
	fmt.Printf("cpu samples: %d, %.3fs; modules and gc cover %.1f%%\n",
		len(samples), float64(total)/1e9, 100*coverage(byMod))
	put("gc.allocs_per_txn", perTxn(allocs), "count")
	put("gc.cycles_per_ktxn", perTxn(cycles)*1000, "count")

	// Work counts.
	put("sim.events_per_txn", perTxn(k[cEvents]), "count")
	put("sim.ns_per_event", ratio(wallA.Nanoseconds(), k[cEvents]), "ns")
	put("simnet.sends_per_txn", perTxn(k[cSends]), "count")
	put("simnet.wan_sends_per_txn", perTxn(k[cWANSends]), "count")
	put("simnet.rpcs_per_txn", perTxn(k[cRPCs]), "count")
	put("simnet.wan_rpcs_per_txn", perTxn(k[cWANRPCs]), "count")
	put("raft.entries_per_txn", perTxn(k[cRaftEntries]), "count")
	put("raft.log_retained_entries", ratio(end.raftRetained, int64(len(as))), "count")
	put("kv.rpcs_per_txn", perTxn(k[cDSSent]), "count")
	put("kv.batches_per_txn", perTxn(k[cDSBatches]), "count")
	put("kv.retry_ratio", ratio(k[cDSRetries], k[cDSSent]), "frac")
	put("kv.wan_rpcs_per_txn", perTxn(k[cDSWAN]), "count")
	put("kv.ranges_per_batch_p50", ratio(ranges, int64(len(as))), "count")
	put("txn.restarts_per_txn", perTxn(k[cRestarts]), "count")
	put("txn.commit_ratio", ratio(k[cCommitted], k[cBegun]), "frac")
	put("sql.stmts_per_txn", perTxn(stmts), "count")
	put("mvcc.versions_per_key", ratio(end.versions, end.keys), "count")
	put("mvcc.intents_at_end", float64(end.intents), "count")
	put("storage.wal_bytes_per_txn", perTxn(k[cWALBytes]), "B")
	put("storage.wal_appends_per_txn", perTxn(k[cWALAppends]), "count")
	put("storage.fsyncs_per_txn", perTxn(k[cFsyncs]), "count")
	put("obs.trace_overhead_frac", wallB.Seconds()/wallA.Seconds()-1, "frac")

	// Virtual self time per transaction, by span.
	for _, name := range sortedKeys(self) {
		fmt.Printf("  vself %-18s n=%-8d %.3fms/txn\n", name, spans[name], ms(self[name])/float64(max(txns, 1)))
	}
	for _, name := range vselfSpans {
		put("vself."+strings.ReplaceAll(name, ".", "_")+"_ms", ms(self[name])/float64(max(txns, 1)), "ms")
	}
	return res
}

// vselfSpans are the spans whose virtual self time the traced run reports.
var vselfSpans = []string{
	"sql.exec", "sql.txn", "txn.commit", "txn.commitwait", "ds.send", "ds.batch",
	"net.rpc", "replica.eval", "raft.replicate", "latch.wait", "intent.wait", "closedts.wait",
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
