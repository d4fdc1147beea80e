package chaos

import (
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/sim"
)

// TestChaosDeterminism runs the same seed twice and requires the entire
// report — fault schedule, workload counts, invariant results — to be
// identical. This is the property that makes chaos failures debuggable:
// any run can be replayed exactly from its seed.
func TestChaosDeterminism(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Options{Seed: 7, Faults: 8})
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Schedule() != b.Schedule() {
		t.Fatalf("fault schedules differ for same seed:\n--- run 1:\n%s--- run 2:\n%s",
			a.Schedule(), b.Schedule())
	}
	if a.String() != b.String() {
		t.Fatalf("reports differ for same seed:\n--- run 1:\n%s--- run 2:\n%s", a, b)
	}
	if !a.OK() {
		t.Fatalf("invariants violated:\n%s", a)
	}
	t.Logf("\n%s", a)
}

// TestChaosSmoke injects 100+ nemesis events against the bank and
// linearizability workloads and requires every invariant to hold, and every
// measured recovery to finish within the RTO bound.
func TestChaosSmoke(t *testing.T) {
	rep, err := Run(Options{Seed: 42, Faults: 55})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Events) < 100 {
		t.Fatalf("only %d events injected, want >= 100", len(rep.Events))
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
	if rep.RegionFailures == 0 {
		t.Fatal("schedule contained no region failures; widen the fault mix")
	}
	if rep.TransfersOK == 0 || rep.LinReads == 0 || rep.BankAudits == 0 {
		t.Fatalf("workloads made no progress:\n%s", rep)
	}
	if max := rep.MaxRTO(); max > 15*sim.Second {
		t.Fatalf("recovery took %v, want <= 15s:\n%s", max, rep)
	}
	if rep.LeaseAcquisitions == 0 {
		t.Fatal("no failover lease acquisitions despite region failures")
	}
}

// TestElasticPlacementInvariants is the rebalancer-invariants check: a
// nemesis-free run where the load queue chases hot single-region traffic
// (splits + a lease move) while a migrator relocates the bank range's
// replicas back and forth under live transfer traffic. The placement
// monitor samples every configured range each virtual second and must never
// observe a placement below its zone config's constraints — replica counts
// and region survivability hold at every instant of every migration.
func TestElasticPlacementInvariants(t *testing.T) {
	rep, err := Run(Options{Seed: 23, Elastic: true, Faults: 0})
	if err != nil {
		t.Fatalf("elastic chaos run failed: %v", err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Events) != 0 {
		t.Fatalf("nemesis-free run injected %d events", len(rep.Events))
	}
	if rep.PlacementChecks == 0 {
		t.Fatal("placement monitor never sampled")
	}
	if rep.PlacementViolations != 0 {
		t.Fatalf("placement violated %d times (first: %s)",
			rep.PlacementViolations, rep.PlacementFirstBad)
	}
	if rep.Relocations < 2 {
		t.Fatalf("only %d migrations completed, want >= 2", rep.Relocations)
	}
	if rep.LoadSplits == 0 {
		t.Fatal("hot elastic traffic produced no load-based splits")
	}
	if rep.LeaseMoves == 0 {
		t.Fatal("single-region traffic never attracted the lease")
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
}

// TestElasticDeterminism replays the elastic run and requires bit-identical
// reports: the load queue's decisions and the migrator's schedule are all
// driven by the virtual clock and the seeded RNG.
func TestElasticDeterminism(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Options{Seed: 29, Elastic: true, Faults: 0, ElasticRun: 60 * sim.Second})
		if err != nil {
			t.Fatalf("elastic chaos run failed: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("elastic reports differ for same seed:\n--- run 1:\n%s--- run 2:\n%s", a, b)
	}
	if !a.OK() {
		t.Fatalf("invariants violated:\n%s", a)
	}
}

// TestSeedsDiffer sanity-checks that different seeds actually produce
// different schedules (the RNG is being consulted, not a fixed script).
func TestSeedsDiffer(t *testing.T) {
	a, err := Run(Options{Seed: 1, Faults: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seed: 2, Faults: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule() == b.Schedule() {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestClosedTSMonitorKeysOnIncarnation pins the monitor's notion of "the
// same replica". A replica relocated away and back (or reborn from disk) is a
// new object whose closed timestamp starts over at zero on the same node and
// range: not a regression. The same object moving backwards is one, and the
// first such sample is named.
func TestClosedTSMonitorKeysOnIncarnation(t *testing.T) {
	rep := &Report{}
	m := newClosedTSMonitor(rep)
	wall := func(s int64) hlc.Timestamp { return hlc.Timestamp{WallTime: s * int64(sim.Second)} }
	at := func(s int64) sim.Time { return sim.Time(s * int64(sim.Second)) }

	old := new(kv.Replica)
	m.observe(at(100), 4, 1, old, wall(97))
	m.endSample()
	// The range moved away and straight back: n4 now hosts a fresh replica.
	reborn := new(kv.Replica)
	m.observe(at(101), 4, 1, reborn, hlc.Timestamp{})
	m.endSample()
	m.observe(at(102), 4, 1, reborn, wall(99))
	m.endSample()
	if rep.ClosedTSRegressions != 0 || rep.ClosedTSFirstBad != "" {
		t.Fatalf("new incarnation counted as a regression: %d, %q", rep.ClosedTSRegressions, rep.ClosedTSFirstBad)
	}

	m.observe(at(103), 4, 1, reborn, wall(98))
	m.endSample()
	m.observe(at(104), 4, 1, reborn, wall(90))
	m.endSample()
	if rep.ClosedTSRegressions != 2 {
		t.Fatalf("regressions = %d, want 2", rep.ClosedTSRegressions)
	}
	if want := "t=1m43s n4/r1: 99.000000000,0 -> 98.000000000,0"; rep.ClosedTSFirstBad != want {
		t.Fatalf("first bad = %q, want %q", rep.ClosedTSFirstBad, want)
	}
	if rep.ClosedTSSamples != 5 {
		t.Fatalf("samples = %d, want 5", rep.ClosedTSSamples)
	}
}
