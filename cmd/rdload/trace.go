package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call that rdload made into a layer's public surface,
// or a part of one that a reply reports (an engine's elapsed_ms). Times
// are offsets from the run's start; spans of one client request share a
// trace id.
type span struct {
	Trace  int            `json:"trace"`
	ID     int            `json:"span"`
	Parent int            `json:"parent,omitempty"` // 0 for a root
	Name   string         `json:"name"`
	Start  time.Duration  `json:"start_ns"`
	End    time.Duration  `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans in memory; they are written out when the run ends.
type tracer struct {
	spans  []span
	traces int
}

// root records a span starting a new trace and returns it.
func (t *tracer) root(name string, start, end time.Duration, attrs map[string]any) span {
	t.traces++
	return t.add(span{Trace: t.traces, Name: name, Start: start, End: end, Attrs: attrs})
}

// child records a span caused by parent and returns it.
func (t *tracer) child(parent span, name string, start, end time.Duration, attrs map[string]any) span {
	return t.add(span{Trace: parent.Trace, Parent: parent.ID, Name: name, Start: start, End: end, Attrs: attrs})
}

func (t *tracer) add(s span) span {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s
}

// selfTime is a span's duration minus the time its children cover. Covered
// time is the length of the union of the children's intervals, so
// concurrent children are not counted twice; it is capped at the parent's
// duration, because a replayed child runs after its parent and only its
// length, not its position, stands for the part it replays.
func selfTime(parent span, children []span) time.Duration {
	cs := slices.Clone(children)
	slices.SortFunc(cs, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var covered time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, c := range cs {
		switch {
		case !open:
			curStart, curEnd, open = c.Start, c.End, true
		case c.Start <= curEnd:
			curEnd = max(curEnd, c.End)
		default:
			covered += curEnd - curStart
			curStart, curEnd = c.Start, c.End
		}
	}
	if open {
		covered += curEnd - curStart
	}
	return parent.dur() - min(covered, parent.dur())
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
