package main

import (
	"sort"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

// interval is a span's [start, end) in virtual time.
type interval struct{ start, end sim.Time }

// selfTime is the part of [s.start, s.end) that no child interval covers:
// the span's duration minus the union of its children clipped to it. Two
// parallel children that overlap (a DistSender fan-out) are counted once.
func selfTime(s interval, children []interval) sim.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < s.start {
			c.start = s.start
		}
		if c.end > s.end {
			c.end = s.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered sim.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return s.end.Sub(s.start) - covered
}

// selfTimes sums the virtual self time of every finished span by span
// name, and counts the spans of each name.
func selfTimes(traces []*obs.Trace) (map[string]sim.Duration, map[string]int) {
	self := map[string]sim.Duration{}
	n := map[string]int{}
	for _, t := range traces {
		children := map[obs.SpanID][]interval{}
		for _, s := range t.Spans {
			if s.End != 0 && s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			}
		}
		for _, s := range t.Spans {
			if s.End == 0 {
				continue
			}
			self[s.Name] += selfTime(interval{s.Start, s.End}, children[s.Context.Span])
			n[s.Name]++
		}
	}
	return self, n
}
