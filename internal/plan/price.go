package plan

import (
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/parallel"
)

// Price prices one layout's training step on the topology's machine by
// running it: the family's own phantom layer stack, forward then recompute +
// backward + gradient drain, through the timing scaffold tables.RunRow
// measures with (parallel.Replay.Step). Forward and Backward are the
// replay's clocks, ComputeSeconds its representative rank's busy seconds,
// CommSeconds the remainder and MemoryBytes what its heaviest rank held. The
// layout's family must be registered (import its package). Only the
// topology's cost model and node size are read, and the layout is priced
// based at rank 0 of a cluster of its own, wherever Base puts it at run time.
func Price(w Workload, l parallel.Layout, t Topology) (Breakdown, error) {
	w, err := w.WithDefaults()
	if err != nil {
		return Breakdown{}, err
	}
	rp, err := newReplay(w, w.Batch, l, t)
	if err != nil {
		return Breakdown{}, err
	}
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
	st, err := rp.Forward()
	return st.Forward, st.MemoryBytes, err
}

// newReplay builds the workload's phantom layer stack at the given batch on
// the cluster that prices the layout: solo where that is exact, else full.
func newReplay(w Workload, batch int, l parallel.Layout, t Topology) (*parallel.Replay, error) {
	l.Base = 0
	l, err := parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	t.RankBudget = l.Ranks
	if t, err = t.WithDefaults(); err != nil {
		return nil, err
	}
	cfg := dist.Config{WorldSize: l.Ranks, GPUsPerNode: t.GPUsPerNode, Cost: t.Cost}
	newCluster := dist.New
	if soloExact(l, t.GPUsPerNode) {
		newCluster = dist.NewSolo
	}
	return parallel.NewReplay(newCluster(cfg), func(wk *dist.Worker) (*parallel.Stack, error) {
		f, err := parallel.New(wk, l)
		if err != nil {
			return nil, err
		}
		return parallel.NewPhantomStack(f, batch, w.SeqLen, w.Hidden, w.Heads, w.Layers), nil
	})
}

// soloExact decides solo or full — a pure function of the layout and the
// node size, never a caller's choice. The layer schedules are SPMD, so when
// placement treats every rank alike (a 1-D layout's single group, or a mesh
// whose rows, columns and depth fibres each span one link class throughout)
// every rank's clock advances identically and a solo cluster running rank 0
// alone reproduces the full cluster's clocks at a fraction of the cost. A
// mesh that placement treats unevenly — [3,3,d] on four-GPU nodes — is
// replayed on the full cluster instead.
func soloExact(l parallel.Layout, gpusPerNode int) bool {
	return l.Q == 0 || mesh.Shape{Q: l.Q, D: l.D}.UniformLinks(gpusPerNode)
}
