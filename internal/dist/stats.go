package dist

// OpStats aggregates the traffic of one operation kind.
type OpStats struct {
	// Calls counts collective invocations: one per group call, however
	// many ranks participate.
	Calls int64
	// Messages counts pairwise block transfers using the convention of
	// internal/tables: broadcast/reduce over n ranks = n−1, all-reduce =
	// 2(n−1), all-gather/reduce-scatter = n(n−1). A two-member broadcast —
	// the pairwise exchange Cannon's shifts are made of — is one message.
	Messages int64
	// Bytes is the total payload moved by those messages.
	Bytes int64
}

// Stats is a snapshot of a cluster's accumulated communication.
type Stats struct {
	// Messages and Bytes total every operation kind.
	Messages int64
	Bytes    int64
	// PerOp breaks the totals down by operation name: "broadcast",
	// "reduce", "allreduce", "allgather", "reducescatter", "barrier".
	PerOp map[string]OpStats
}

// Stats sums the traffic every rank booked (Worker.ops) into a snapshot
// with the totals filled in; kinds never booked are omitted. Like MaxClock,
// call it between Runs: the records it sums are plain memory the worker
// goroutines write, so a snapshot taken while a Run is in progress would
// race.
func (c *Cluster) Stats() Stats {
	out := Stats{PerOp: make(map[string]OpStats, nOpKinds)}
	for op := opKind(0); op < nOpKinds; op++ {
		var e OpStats
		for _, w := range c.workers {
			o := &w.ops[op]
			e.Calls += o.Calls
			e.Messages += o.Messages
			e.Bytes += o.Bytes
		}
		if e.Calls == 0 {
			continue
		}
		out.PerOp[op.String()] = e
		out.Messages += e.Messages
		out.Bytes += e.Bytes
	}
	return out
}
