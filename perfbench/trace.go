package main

import "time"

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (never inside the program). Spans of one
// benchmark operation share op.
type span struct {
	op         int
	name       int // index into the tracer's names
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory. A disabled tracer records nothing and its
// methods cost one branch, so untraced runs go through the same code. It is
// used from one goroutine.
type tracer struct {
	on    bool
	epoch time.Time
	// spans hold no pointers, so the collector does not scan them: a traced
	// serve run records hundreds of thousands, and with names as strings
	// the scans added 23-42% to its microsecond operations on one thread of
	// Go code.
	spans []span
	names []string
	ids   map[string]int
	op    int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: now(), ids: map[string]int{}} }

func (t *tracer) id(name string) int {
	i, ok := t.ids[name]
	if !ok {
		i = len(t.names)
		t.names = append(t.names, name)
		t.ids[name] = i
	}
	return i
}

// beginOp starts a new operation: spans until the next beginOp share its id.
func (t *tracer) beginOp() {
	if t.on {
		t.op++
	}
}

// start opens a span and returns its id (0 when disabled).
func (t *tracer) start(name string) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{op: t.op, name: t.id(name), start: now().Sub(t.epoch)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	t.spans[id-1].end = now().Sub(t.epoch)
}

// rename gives span id another name, for a call whose outcome names it.
func (t *tracer) rename(id int, name string) {
	if t.on && id != 0 {
		t.spans[id-1].name = t.id(name)
	}
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.start(name)
	err := f()
	t.end(id)
	return err
}

// closed returns every closed span named name, in record order.
func (t *tracer) closed(name string) []span {
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.name == id && s.end > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in milliseconds of every closed span
// named name, in record order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.closed(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}
