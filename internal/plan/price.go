package plan

import (
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/parallel"
)

// Price prices one layout's training step on the topology's machine by
// running it: the family's own phantom layer stack, forward then recompute +
// backward + gradient drain (the recompute forward charged by continuing the
// clocks from the timed one, which a re-run would repeat exactly), through
// the timing scaffold (parallel.Replay.Step), on the cluster soloExact
// picks. tables.RunRow prices a table row with it. Forward and Backward are
// the replay's clocks, ComputeSeconds its representative rank's busy
// seconds, CommSeconds the remainder and MemoryBytes what its heaviest rank
// held. The layout's family must be registered (import its package). Only
// the topology's cost model and node size are read, and the layout is
// priced on a cluster of its own.
func Price(w Workload, l parallel.Layout, t Topology) (Breakdown, error) {
	w, err := w.WithDefaults()
	if err != nil {
		return Breakdown{}, err
	}
	rp, err := newReplay(w, w.Batch, l, t)
	if err != nil {
		return Breakdown{}, err
	}
	defer rp.Cluster().Close()
	st, err := rp.Step(!w.NoRecompute)
	if err != nil {
		return Breakdown{}, err
	}
	return Breakdown{
		Forward:        st.Forward,
		Backward:       st.Backward,
		ComputeSeconds: st.Busy,
		CommSeconds:    st.Forward + st.Backward - st.Busy,
		MemoryBytes:    st.MemoryBytes,
	}, nil
}

// priceForward prices one forward pass of the workload's layer stack at the
// given batch — the serving scorer's replay: its seconds and the bytes a rank
// serving it holds.
func priceForward(w Workload, batch int, l parallel.Layout, t Topology) (float64, int64, error) {
	rp, err := newReplay(w, batch, l, t)
	if err != nil {
		return 0, 0, err
	}
	defer rp.Cluster().Close()
	st, err := rp.Forward()
	return st.Forward, st.MemoryBytes, err
}

// newReplay builds the workload's phantom layer stack at the given batch on
// the cluster that prices the layout: solo where that is exact, else full.
func newReplay(w Workload, batch int, l parallel.Layout, t Topology) (*parallel.Replay, error) {
	l, err := parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	t.RankBudget = l.Ranks
	if t, err = t.WithDefaults(); err != nil {
		return nil, err
	}
	m, newCluster := t.Machine(), dist.New
	if soloExact(l, m) {
		newCluster = dist.NewSolo
	}
	return parallel.NewPhantomReplay(newCluster, dist.Config{Machine: m},
		l, batch, w.SeqLen, w.Hidden, w.Heads, w.Layers)
}

// soloExact decides solo or full — a pure function of the layout and the
// (defaulted) machine, never a caller's choice. The layer schedules are SPMD,
// so when placement treats every rank alike (a 1-D layout's single group, or a
// mesh whose rows, columns and depth fibres each span one link class
// throughout) every rank's clock advances identically and a solo cluster
// running rank 0 alone reproduces the full cluster's clocks at a fraction of
// the cost. A mesh that placement treats unevenly — [3,3,d] on four-GPU nodes —
// is replayed on the full cluster instead.
func soloExact(l parallel.Layout, m dist.Machine) bool {
	return l.Q == 0 || mesh.Shape{Q: l.Q, D: l.D}.UniformLinks(m)
}
