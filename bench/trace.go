package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are nanoseconds since the tracer was created; Parent indexes the
// enclosing span (-1 at the top); Op numbers the operation the span
// belongs to, so all spans of one step, row or sweep share an identifier;
// Ops is how many operations an operation-level span covers (0 for the
// spans nested inside one).
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Op         int32
	Ops        int32
}

// tracer keeps spans in memory until the run ends. It is used by one
// goroutine at a time: rank 0 inside a cluster run, or the driving
// goroutine between runs (Cluster.Run's spawn and wait order the two), so
// it needs no lock. A nil tracer records nothing, which lets the untraced
// pass share the traced pass's loops.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	op    int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span nested in whatever span is open and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	return t.push(name, 0)
}

// beginOp opens an operation-level span covering ops operations; spans
// opened inside it carry its operation number.
func (t *tracer) beginOp(name string, ops int) int32 {
	if t == nil {
		return -1
	}
	t.op++
	return t.push(name, int32(ops))
}

func (t *tracer) push(name string, ops int32) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op, Ops: ops})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close in the reverse of the
// order they opened.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span name, every span's self time in
// nanoseconds: its duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	out := make(map[string][]float64)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i]))
	}
	return out
}

// durations returns, per span name, every span's full duration in
// nanoseconds.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// perOp returns one host-time sample per operation-level span: its
// duration divided by the operations it covers, in nanoseconds.
func (t *tracer) perOp() []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Ops > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.Ops))
		}
	}
	return out
}

// family is the layer a span belongs to: the name up to its first dot.
func family(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto), one track per layer.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := make(map[string]int)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	emit := func(v any) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		b, _ := json.Marshal(v) // maps of strings and numbers always marshal
		w.Write(b)
	}
	for _, s := range t.spans {
		fam := family(s.Name)
		tid, ok := tids[fam]
		if !ok {
			tid = len(tids) + 1
			tids[fam] = tid
			emit(map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": map[string]any{"name": fam}})
		}
		emit(map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": tid,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.End-s.Start) / 1e3,
			"args": map[string]any{"op": s.Op, "parent": s.Parent},
		})
	}
	fmt.Fprint(w, `]}`)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
