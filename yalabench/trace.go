package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted as dropped. Span correlation stays exact on the kept set:
// a child span ends before its parent does, so a kept parent's children
// were all kept.
const maxSpans = 100000

// span is one timed call across a layer boundary. Spans sharing an ID
// (the X-Request-Id) belong to one request.
type span struct {
	Layer string        `json:"layer"`
	Name  string        `json:"name"`
	ID    string        `json:"id,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder holds a traced run's spans in memory; writeFile saves them
// when the run ends. A nil recorder records nothing, so untraced runs
// pay one nil check per call site.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	max     int
	dropped int
}

func newRecorder(max int) *recorder {
	return &recorder{t0: time.Now(), max: max, spans: make([]span, 0, 1024)}
}

// since converts a wall time to the recorder's clock.
func (rc *recorder) since(t time.Time) time.Duration { return t.Sub(rc.t0) }

// add records one span that ran from start to end.
func (rc *recorder) add(layer, name, id string, start, end time.Time) {
	if rc == nil {
		return
	}
	s := span{Layer: layer, Name: name, ID: id, Start: rc.since(start), End: rc.since(end)}
	rc.mu.Lock()
	if len(rc.spans) < rc.max {
		rc.spans = append(rc.spans, s)
	} else {
		rc.dropped++
	}
	rc.mu.Unlock()
}

// time runs fn inside a span and returns its duration.
func (rc *recorder) time(layer, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	rc.add(layer, name, "", start, end)
	return end.Sub(start), err
}

// layer returns the recorded spans of one layer (and name, when
// non-empty).
func (rc *recorder) layer(layer, name string) []span {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var out []span
	for _, s := range rc.spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			out = append(out, s)
		}
	}
	return out
}

// writeFile saves the box description and every span as JSON lines.
func (rc *recorder) writeFile(path string, box map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rc.mu.Lock()
	err = enc.Encode(map[string]any{"box": box, "spans": len(rc.spans), "dropped": rc.dropped})
	for i := 0; err == nil && i < len(rc.spans); i++ {
		err = enc.Encode(rc.spans[i])
	}
	rc.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes correlates parent spans with the child spans that share
// their request ID and returns each parent's self time: its duration
// minus the part of its interval the children cover (overlapping
// children count once). Parents without an ID are skipped.
func selfTimes(parents, children []span) []time.Duration {
	byID := map[string][]span{}
	for _, c := range children {
		if c.ID != "" {
			byID[c.ID] = append(byID[c.ID], c)
		}
	}
	out := make([]time.Duration, 0, len(parents))
	for _, p := range parents {
		if p.ID == "" {
			continue
		}
		out = append(out, p.dur()-covered(p, byID[p.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// traceHandler wraps an HTTP handler in a span per request, named by
// the request path and keyed by the X-Request-Id the handler answered
// with. It records only while cur returns a recorder, so one server can
// serve an untraced phase and then a traced one.
func traceHandler(cur func() *recorder, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := cur()
		if rc == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := w.Header().Get("X-Request-Id")
		if id == "" {
			id = r.Header.Get("X-Request-Id")
		}
		rc.add(layer, r.URL.Path, id, start, end)
	})
}
