package kv

import (
	"sort"

	"mrdb/internal/hlc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// DefaultCloseLag is the trailing closed-timestamp interval of LAG ranges
// (paper §5.1.1: "by default, leaseholders close timestamps that are 3
// seconds old").
const DefaultCloseLag = 3 * sim.Second

// SideTransportInterval is the cadence at which leaseholders of LEAD
// (GLOBAL) ranges publish closed-timestamp promises via heartbeats; the
// lead target must cover it so followers' closed timestamps never fall
// behind present time + max_offset between publications.
const SideTransportInterval = 100 * sim.Millisecond

// leadPropagationMargin absorbs jitter on the publication path.
const leadPropagationMargin = 50 * sim.Millisecond

// closedTracker tracks closed timestamps on one replica. On the leaseholder
// it also issues new closed-timestamp promises; every promise is attached
// to proposals and heartbeats, and once issued the leaseholder must not
// accept writes at or below it.
type closedTracker struct {
	policy ClosedTSPolicy
	// lead applies under ClosedTSLead: L_raft + L_replicate + max_offset
	// (paper §6.2.1).
	lead sim.Duration

	// closed is the highest closed timestamp known on this replica.
	closed hlc.Timestamp
	// issued is the highest target this replica has promised as
	// leaseholder; writes must exceed it.
	issued hlc.Timestamp
}

// target computes the next closed-timestamp promise for the given
// leaseholder clock reading.
func (c *closedTracker) target(now hlc.Timestamp) hlc.Timestamp {
	var t hlc.Timestamp
	if c.policy == ClosedTSLead {
		t = now.Add(c.lead)
	} else {
		t = now.Add(-DefaultCloseLag)
	}
	if t.Less(c.issued) {
		t = c.issued
	}
	return t
}

// issue records a promise and returns it.
func (c *closedTracker) issue(now hlc.Timestamp) hlc.Timestamp {
	t := c.target(now)
	if c.issued.Less(t) {
		c.issued = t
	}
	return t
}

// advance moves the replica's known closed timestamp forward.
func (c *closedTracker) advance(ts hlc.Timestamp) {
	if c.closed.Less(ts) {
		c.closed = ts
	}
}

// LeadTime computes the closed-timestamp lead for a range with the given
// replica placement: Raft consensus latency to the nearest quorum plus full
// replication latency to the furthest replica plus the maximum clock offset
// (paper §6.2.1).
func LeadTime(topo *simnet.Topology, leaseholder simnet.NodeID, voters, nonVoters []simnet.NodeID, maxOffset sim.Duration) sim.Duration {
	// L_raft: RTT from the leaseholder to the median-nearest voter
	// (quorum of voters, leaseholder included).
	var voterRTTs []sim.Duration
	for _, v := range voters {
		if v == leaseholder {
			continue
		}
		voterRTTs = append(voterRTTs, topo.NodeRTT(leaseholder, v))
	}
	sort.Slice(voterRTTs, func(i, j int) bool { return voterRTTs[i] < voterRTTs[j] })
	var lRaft sim.Duration
	if len(voterRTTs) > 0 {
		// Quorum needs (len(voters)+1)/2 acks beyond the leaseholder's
		// own; the deciding ack comes from the (quorum-1)-th nearest.
		quorum := (len(voterRTTs)+1+1)/2 - 1 // acks needed from peers
		if quorum < 1 {
			quorum = 1
		}
		if quorum > len(voterRTTs) {
			quorum = len(voterRTTs)
		}
		lRaft = voterRTTs[quorum-1]
	}
	// L_replicate: one-way delay to the furthest replica of any kind.
	var lRep sim.Duration
	for _, id := range append(append([]simnet.NodeID{}, voters...), nonVoters...) {
		if d := topo.OneWay(leaseholder, id); d > lRep {
			lRep = d
		}
	}
	// The paper's estimate is L_raft + L_replicate + max_offset (§6.2.1);
	// on top of that the lead must cover the closed-timestamp publication
	// cadence so present time stays closed continuously at followers.
	return lRaft + lRep + maxOffset + SideTransportInterval + leadPropagationMargin
}
