package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"mrdb/internal/cluster"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/sql"
)

// quiesce is how long the cluster runs idle after the measured window
// before the checks: long enough for asynchronous intent resolution and
// follower application to finish.
const quiesce = 5 * sim.Second

// episodeBudget bounds an episode in virtual time; an episode that has not
// finished by then is reported as an error rather than hanging the run.
const episodeBudget = 2 * 3600 * sim.Second

// Work counters: indexes into counts. Each is the program's own counter,
// read through an exported accessor, and exact for a seed.
const (
	cEvents      = iota // simulator events executed
	cSends              // simnet one-way messages (Raft, liveness)
	cWANSends           // ... between regions
	cRPCs               // simnet RPCs (KV requests)
	cWANRPCs            // ... between regions
	cDSSent             // DistSender per-range RPC attempts
	cDSBatches          // DistSender batches
	cDSRetries          // DistSender retries
	cDSWAN              // DistSender attempts routed to another region
	cBegun              // transactions begun by the clients' coordinators
	cCommitted          // ... committed
	cRestarts           // ... restarted
	cRaftEntries        // Raft log entries appended, per range
	cWALBytes           // WAL bytes appended
	cWALAppends         // WAL appends
	cFsyncs             // WAL fsyncs
	nCounts
)

type counts [nCounts]int64

func (a counts) plus(b counts) counts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func (a counts) minus(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// readCounts snapshots the cluster's counters, with the transaction
// counters of the clients' sessions.
func readCounts(c *cluster.Cluster, sessions []*sql.Session) counts {
	var k counts
	k[cEvents] = c.Sim.Events()
	for i, name := range map[int]string{
		cSends: "net.send", cWANSends: "net.send.wan", cRPCs: "net.rpc", cWANRPCs: "net.rpc.wan",
		cWALBytes: "storage.wal.bytes", cWALAppends: "storage.wal.appends", cFsyncs: "storage.wal.fsyncs",
	} {
		k[i] = c.Metrics.Counter(name).Value()
	}
	for _, ds := range c.Senders {
		k[cDSSent] += ds.Sent
		k[cDSBatches] += ds.Batches
		k[cDSRetries] += ds.Retries
		k[cDSWAN] += ds.WANRPCs
	}
	for _, s := range sessions {
		k[cBegun] += s.Coord.Begun
		k[cCommitted] += s.Coord.Committed
		k[cRestarts] += s.Coord.Restarts
	}
	// A range's log length is the longest log among its replicas: the
	// entries its leader appended.
	for _, d := range c.Catalog.All() {
		var last uint64
		for _, id := range d.Replicas() {
			if r, ok := c.Stores[id].Replica(d.RangeID); ok && r.Raft().LastIndex() > last {
				last = r.Raft().LastIndex()
			}
		}
		k[cRaftEntries] += int64(last)
	}
	return k
}

// endState is the state read after the quiesce: retained Raft log, MVCC
// versions and intents, summed over every replica.
type endState struct {
	raftRetained   int64
	keys, versions int64
	intents        int64
}

func (e endState) add(o endState) endState {
	return endState{e.raftRetained + o.raftRetained, e.keys + o.keys, e.versions + o.versions, e.intents + o.intents}
}

func readEndState(c *cluster.Cluster) endState {
	var e endState
	for _, d := range c.Catalog.All() {
		for _, id := range d.Replicas() {
			r, ok := c.Stores[id].Replica(d.RangeID)
			if !ok {
				continue
			}
			e.raftRetained += int64(r.Raft().LastIndex() - r.Raft().FirstIndex())
			eng := r.EngineForBulkLoad()
			e.intents += int64(eng.IntentCount())
			for _, sk := range eng.Snapshot() {
				e.keys++
				e.versions += int64(len(sk.Versions))
			}
		}
	}
	return e
}

// episode is the outcome of one seeded run of a workload: build, load,
// warm up, measure, quiesce, check.
type episode struct {
	seed int64

	setupWall   time.Duration // cluster build, DDL, bulk load and warm-up
	measureWall time.Duration // the measured window, all clients joined
	heapLive    uint64        // live heap after a forced GC, cluster alive

	attempted, failed int64
	stmts             int64
	reads, writes     []sim.Duration // virtual latency of committed txns
	window            sim.Duration   // measured window in virtual time

	work counts
	end  endState

	// gcCycles and allocs are runtime counters over the measured window.
	gcCycles, allocs uint64
	// rangesPerBatchP50 is the median DistSender batch fan-out, over the
	// whole episode.
	rangesPerBatchP50 int64

	// spans holds the traces of a traced episode's measured window.
	spans []*obs.Trace

	err          error // setup failure or failed correctness check
	firstFailure error // first failed client transaction, for the log
}

// violation is a client transaction whose output was wrong, as opposed to
// one that failed: it fails the correctness check, not only the
// transaction.
type violation struct{ msg string }

func (v *violation) Error() string { return v.msg }

func violationf(format string, args ...interface{}) error {
	return &violation{msg: fmt.Sprintf(format, args...)}
}

// committed is the number of client transactions that succeeded.
func (e *episode) committed() int64 { return e.attempted - e.failed }

// hooks lets the traced run bracket the measured window (profilers) without
// the episode knowing about them.
type hooks struct {
	beforeMeasure func()
	afterMeasure  func()
}

// runEpisode runs one episode of w with the given seed. With traced set the
// cluster records the measured window's spans, each client transaction
// under a root span of its own.
func runEpisode(w *spec, seed int64, traced bool, h hooks) *episode {
	e := &episode{seed: seed, window: w.measure}
	t0 := time.Now()
	c := cluster.New(w.config(seed))
	d := w.build(c)
	done := false

	c.Sim.Spawn("perfbench", func(p *sim.Proc) {
		defer func() { done = true; c.Sim.Stop() }()
		if err := d.load(p); err != nil {
			e.err = fmt.Errorf("load: %w", err)
			return
		}
		p.Sleep(2 * sim.Second)
		runClients(p, c, d, w.warmup, nil)
		e.setupWall = time.Since(t0)

		runtime.GC()
		before := readCounts(c, d.sessions())
		gc0 := readRuntime()
		if h.beforeMeasure != nil {
			h.beforeMeasure()
		}
		m0 := time.Now()
		// Spans are recorded for the measured window only: setup, warm-up
		// and checks issue statements of their own.
		c.Tracer.SetEnabled(traced)
		runClients(p, c, d, w.measure, e)
		c.Tracer.SetEnabled(false)
		e.measureWall = time.Since(m0)
		if h.afterMeasure != nil {
			h.afterMeasure()
		}
		gc1 := readRuntime()
		e.work = readCounts(c, d.sessions()).minus(before)
		e.gcCycles, e.allocs = gc1.cycles-gc0.cycles, gc1.allocs-gc0.allocs
		e.rangesPerBatchP50 = c.Metrics.Histogram("ds.batch.ranges").Percentile(50)
		e.heapLive = liveHeap()

		p.Sleep(quiesce)
		e.end = readEndState(c)
		if err := checkEpisode(p, c, d, e); err != nil {
			if e.err == nil {
				e.err = err
			}
			// A failed check fails the window's transactions.
			e.failed = e.attempted
		}
	})
	c.Sim.RunFor(episodeBudget)
	// Retire the simulation's pooled goroutines so that nothing keeps the
	// finished cluster reachable.
	c.Sim.Run()
	if !done && e.err == nil {
		e.err = fmt.Errorf("episode did not finish within %v of virtual time", episodeBudget)
	}
	if traced {
		e.spans = c.Tracer.Traces()
	}
	return e
}

// checkEpisode runs the correctness checks every workload shares, then the
// workload's own.
func checkEpisode(p *sim.Proc, c *cluster.Cluster, d loadgen, e *episode) error {
	if n := c.ApplyErrors(); n != 0 {
		return fmt.Errorf("check: %d command application errors", n)
	}
	if e.end.intents != 0 {
		return fmt.Errorf("check: %d intents remain after a %v quiesce", e.end.intents, quiesce)
	}
	return d.check(p)
}

// runClients runs every client in a closed loop until window has passed in
// virtual time and waits for all of them. With rec set it records each
// transaction into the episode.
func runClients(p *sim.Proc, c *cluster.Cluster, d loadgen, window sim.Duration, rec *episode) {
	deadline := p.Now().Add(window)
	wg := sim.NewWaitGroup(c.Sim)
	for i := range d.sessions() {
		i := i
		wg.Add(1)
		c.Sim.Spawn(fmt.Sprintf("client/%d", i), func(cp *sim.Proc) {
			defer wg.Done()
			for cp.Now() < deadline {
				start := cp.Now()
				sp, finish := c.Tracer.StartRootIn(cp, "bench.txn")
				write, stmts, err := d.txn(cp, i)
				if err != nil {
					sp.SetError(err)
				}
				finish()
				if rec == nil {
					continue
				}
				rec.attempted++
				rec.stmts += int64(stmts)
				switch lat := cp.Now().Sub(start); {
				case err != nil:
					rec.failed++
					var v *violation
					if errors.As(err, &v) && rec.err == nil {
						rec.err = fmt.Errorf("client %d: %w", i, err)
					}
					if rec.firstFailure == nil {
						rec.firstFailure = err
					}
				case write:
					rec.writes = append(rec.writes, lat)
				default:
					rec.reads = append(rec.reads, lat)
				}
			}
		})
	}
	wg.Wait(p)
}

type runtimeCounters struct{ cycles, allocs uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return runtimeCounters{cycles: s[0].Value.Uint64(), allocs: s[1].Value.Uint64()}
}

// liveHeap forces a collection and returns the bytes of heap it left live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
