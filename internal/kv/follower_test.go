package kv

import (
	"errors"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// bareReplica builds an unstarted replica of range [a, z) on node 1 whose
// descriptor names leaseholder, with its closed timestamp set to closed.
// Evaluation is driven directly, without Raft or the network.
func bareReplica(leaseholder simnet.NodeID, closed hlc.Timestamp) (*Store, *Replica) {
	s := sim.New(1)
	topo := simnet.NewTable1Topology()
	topo.AddNode(1, simnet.Locality{Region: simnet.USEast1, Zone: "us-east1-a"})
	clock := hlc.NewClock(hlc.SimWallSource{Sim: s}, 250*sim.Millisecond)
	st := NewStore(1, s, simnet.NewNetwork(s, topo), topo, clock, NewTxnRegistry(s, topo))
	desc := &RangeDescriptor{RangeID: 1, StartKey: mvcc.Key("a"), EndKey: mvcc.Key("z"),
		Voters: []simnet.NodeID{1, 2, 3}, Leaseholder: leaseholder}
	r := st.buildReplica(desc, 250*sim.Millisecond)
	r.closed.closed = closed
	return st, r
}

func isFollowerReadUnavailable(err error) bool {
	var fru *FollowerReadUnavailableError
	return errors.As(err, &fru)
}

// TestFollowerReadNeedsUncertaintyIntervalClosed pins that a follower
// admits a consistent read only when its closed timestamp covers the whole
// uncertainty interval, for scans exactly as for point reads: a follower
// whose closed timestamp sits between the read timestamp and the
// uncertainty limit could miss a write in the interval.
func TestFollowerReadNeedsUncertaintyIntervalClosed(t *testing.T) {
	_, r := bareReplica(2, ts(100))
	if _, err := r.engine.Put(mvcc.Key("k"), mvcc.Value("v"), ts(10), nil); err != nil {
		t.Fatal(err)
	}
	txn := &Txn{ReadTimestamp: ts(50), GlobalUncertaintyLimit: ts(150)}
	get := r.evaluate(nil, &GetRequest{Key: mvcc.Key("k"), Timestamp: ts(50), Txn: txn, Uncertainty: true})
	if !isFollowerReadUnavailable(get.Err) {
		t.Fatalf("get: err = %v, want FollowerReadUnavailableError", get.Err)
	}
	scan := r.evaluate(nil, &ScanRequest{StartKey: mvcc.Key("a"), EndKey: mvcc.Key("z"),
		Timestamp: ts(50), Txn: txn, Uncertainty: true})
	if !isFollowerReadUnavailable(scan.Err) {
		t.Fatalf("scan: err = %v (rows %v), want FollowerReadUnavailableError", scan.Err, scan.Scan)
	}
	// With the interval closed, both serve locally.
	r.closed.closed = ts(150)
	if get := r.evaluate(nil, &GetRequest{Key: mvcc.Key("k"), Timestamp: ts(50), Txn: txn, Uncertainty: true}); get.Err != nil || string(get.Get.Value) != "v" {
		t.Fatalf("get after close: %+v", get)
	}
	if scan := r.evaluate(nil, &ScanRequest{StartKey: mvcc.Key("a"), EndKey: mvcc.Key("z"),
		Timestamp: ts(50), Txn: txn, Uncertainty: true}); scan.Err != nil || len(scan.Scan.Rows) != 1 {
		t.Fatalf("scan after close: %+v", scan)
	}
}

// TestFencedLeaseholderRefreshNeedsClosedTimestamp pins that a leaseholder
// whose lease was fenced (its liveness epoch moved on) does not verify
// refreshes authoritatively: a new leaseholder may already have accepted
// writes it has not seen, so it answers only below its closed timestamp.
func TestFencedLeaseholderRefreshNeedsClosedTimestamp(t *testing.T) {
	st, r := bareReplica(1, ts(10))
	st.StartLiveness(NewNodeLiveness(st.Sim))
	r.leaseEpoch = st.CurrentEpoch() + 1
	if r.hasValidLease() {
		t.Fatal("setup: lease should be fenced")
	}
	ref := r.evaluate(nil, &RefreshRequest{Key: mvcc.Key("k"), FromTS: ts(50), ToTS: ts(100)})
	if !isFollowerReadUnavailable(ref.Err) {
		t.Fatalf("refresh on a fenced leaseholder: %+v, want FollowerReadUnavailableError", ref)
	}
	// Once ToTS is closed the local state is complete and the refresh
	// succeeds without the lease.
	r.closed.closed = ts(100)
	if ref := r.evaluate(nil, &RefreshRequest{Key: mvcc.Key("k"), FromTS: ts(50), ToTS: ts(100)}); ref.Err != nil || !ref.Refresh.Success {
		t.Fatalf("refresh below the closed timestamp: %+v", ref)
	}
}
