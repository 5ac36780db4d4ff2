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

// statsBook is the mutable collector behind Cluster.Stats. It is sharded
// per rank: every record happens on a goroutine acting for exactly one
// worker (its own frame, or the group operation it is finishing), so each
// shard is single-writer plain memory — no locks, no atomics, no contended
// cache line on the collective hot path. snapshot sums the shards; like
// MaxClock it must only run between cluster runs.
type statsBook struct {
	shards []statShard
}

type statShard struct {
	ops [nOpKinds]OpStats
	_   [64]byte // keep neighbouring shards off one cache line
}

func newStatsBook(world int) *statsBook {
	return &statsBook{shards: make([]statShard, world)}
}

// record adds one operation of the named kind to the acting worker's shard.
func (s *statsBook) record(rank int, op opKind, messages, bytes int64) {
	e := &s.shards[rank].ops[op]
	e.Calls++
	e.Messages += messages
	e.Bytes += bytes
}

// snapshot returns an independent copy with the totals filled in. Kinds
// never recorded are omitted, matching the sparse per-op map of old.
func (s *statsBook) snapshot() Stats {
	out := Stats{PerOp: make(map[string]OpStats, nOpKinds)}
	for op := opKind(0); op < nOpKinds; op++ {
		var e OpStats
		for i := range s.shards {
			c := &s.shards[i].ops[op]
			e.Calls += c.Calls
			e.Messages += c.Messages
			e.Bytes += c.Bytes
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
