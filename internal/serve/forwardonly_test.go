package serve

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vit"

	_ "repro/internal/seqpar"
)

// copying hides a family's ForwardOnly method: a server whose models are
// wrapped in it never opens the forward-only scope, so its Serve is the
// copying schedule — every weight panel copied down the column and packed by
// its receiver on every batch — that lending has to be indistinguishable from.
type copying struct{ parallel.Family }

func hideForwardOnly(s *vit.Session) {
	for r := 0; r < s.Layout().Ranks; r++ {
		s.Model(r).F = copying{s.Model(r).F}
	}
}

// chainLayouts pairs every layout the chains run on with the layout its
// Relayout chain moves to.
var chainLayouts = [][2]parallel.Layout{
	{{Family: "tesseract", Q: 2, D: 2}, {Family: "tesseract", Q: 2, D: 1}},
	{{Family: "tesseract", Q: 2, D: 1}, {Family: "tesseract", Q: 2, D: 2}},
	{{Family: "optimus", Q: 2}, {Family: "tesseract", Q: 2, D: 2}},
	{{Family: "megatron", Ranks: 4}, {Family: "optimus", Q: 2}},
	{{Family: "seqpar", Ranks: 4}, {Family: "tesseract", Q: 2, D: 1}},
}

// servedBatches is what Saturated(7) forms at MaxBatch 4: a full batch and a
// ragged tail that needs padding on every row-sharded layout.
var servedBatches = [][]int{{0, 1, 2, 3}, {4, 5, 6}}

// link is one serve of a chain: the report, and the session — never served,
// driven through the same training, re-sharding and re-layout — whose
// EvalLogits the served logits must equal.
type link struct {
	rep *Report
	ref *vit.Session
}

// chains are the ways a server's weights change between two serves. Each
// returns the two serves and the clusters whose clocks and traffic the chain
// moved. plain builds the copying twin (see copying).
var chains = map[string]func(t *testing.T, ls [2]parallel.Layout, plain bool) ([2]link, []*dist.Cluster){
	"train-serve-train-serve": func(t *testing.T, ls [2]parallel.Layout, plain bool) ([2]link, []*dist.Cluster) {
		srv, ref := chainServer(t, ls[0], plain), chainRef(t, ls[0])
		var out [2]link
		for i := range out {
			chainTrain(t, srv.Session, 2)
			chainTrain(t, ref, 2)
			out[i] = link{chainServe(t, srv), ref}
			checkServed(t, out[i])
		}
		return out, []*dist.Cluster{srv.Cluster()}
	},
	"serve-reshard-serve": func(t *testing.T, ls [2]parallel.Layout, plain bool) ([2]link, []*dist.Cluster) {
		donor := chainRef(t, ls[1])
		chainTrain(t, donor, 3)
		if _, err := donor.Collect(); err != nil {
			t.Fatal(err)
		}
		srv, ref := chainServer(t, ls[0], plain), chainRef(t, ls[0])
		chainTrain(t, srv.Session, 1)
		chainTrain(t, ref, 1)
		var out [2]link
		out[0] = link{chainServe(t, srv), ref}
		checkServed(t, out[0])
		for _, s := range []*vit.Session{srv.Session, ref} {
			if _, err := s.Reshard(donor.Checkpoint()); err != nil {
				t.Fatal(err)
			}
		}
		out[1] = link{chainServe(t, srv), ref}
		checkServed(t, out[1])
		return out, []*dist.Cluster{srv.Cluster()}
	},
	"serve-relayout-serve": func(t *testing.T, ls [2]parallel.Layout, plain bool) ([2]link, []*dist.Cluster) {
		srv, ref := chainServer(t, ls[0], plain), chainRef(t, ls[0])
		chainTrain(t, srv.Session, 2)
		chainTrain(t, ref, 2)
		var out [2]link
		out[0] = link{chainServe(t, srv), ref}
		checkServed(t, out[0])
		// The server for the new layout adopts the relaid session, trains it
		// one more step and serves.
		srv2 := chainServer(t, ls[1], plain)
		moved, _, _, err := srv.Relayout(srv2.Cluster(), ls[1])
		if err != nil {
			t.Fatal(err)
		}
		if plain {
			hideForwardOnly(moved)
		}
		srv2.Session = moved
		ref2, _, _, err := ref.Relayout(nil, ls[1])
		if err != nil {
			t.Fatal(err)
		}
		chainTrain(t, srv2.Session, 1)
		chainTrain(t, ref2, 1)
		out[1] = link{chainServe(t, srv2), ref2}
		checkServed(t, out[1])
		return out, []*dist.Cluster{srv.Cluster(), srv2.Cluster()}
	},
}

func chainServer(t *testing.T, l parallel.Layout, plain bool) *Server {
	t.Helper()
	ds, mcfg, tc := fixture()
	srv, err := NewServer(l, ds, mcfg, tc, Config{MaxBatch: 4, QueueDepth: 8, KeepLogits: true})
	if err != nil {
		t.Fatalf("%s: %v", l, err)
	}
	if plain {
		hideForwardOnly(srv.Session)
	}
	return srv
}

func chainRef(t *testing.T, l parallel.Layout) *vit.Session {
	t.Helper()
	ds, mcfg, tc := fixture()
	ref, err := vit.NewSession(nil, l, ds, mcfg, tc)
	if err != nil {
		t.Fatalf("%s: %v", l, err)
	}
	return ref
}

func chainTrain(t *testing.T, s *vit.Session, n int) {
	t.Helper()
	if _, err := s.Train(n); err != nil {
		t.Fatalf("%s: %v", s.Layout(), err)
	}
}

func chainServe(t *testing.T, srv *Server) *Report {
	t.Helper()
	rep, err := srv.Serve(Saturated(7))
	if err != nil {
		t.Fatalf("%s: %v", srv.Layout(), err)
	}
	if len(rep.Batches) != len(servedBatches) || rep.Batches[0].Size != 4 || rep.Batches[1].Size != 3 {
		t.Fatalf("%s: want batches of 4 and 3, got %+v", srv.Layout(), rep.Batches)
	}
	return rep
}

// checkServed holds a serve's logits to the reference session's EvalLogits,
// batch for batch and bit for bit.
func checkServed(t *testing.T, k link) {
	t.Helper()
	for _, batch := range servedBatches {
		want, err := k.ref.EvalLogits(batch)
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range batch {
			if !reflect.DeepEqual(k.rep.Logits.Row(id), want.Row(j)) {
				t.Fatalf("%s: request %d served %v, an equally trained never-served session evaluates %v",
					k.ref.Layout(), id, k.rep.Logits.Row(id), want.Row(j))
			}
		}
	}
}

// TestServedLogitsFollowTheWeights: through every chain that changes the
// weights between two serves, on every family, served logits are bitwise the
// EvalLogits of an equally driven session that never served — so the second
// serve multiplied against the new weights, which is what refilling a rank's
// packed blocks at first use in every forward-only Run buys (a pack kept
// from the first serve fails here) — and the second serve's logits differ
// from the first's, so the chain did move them. Against the copying twin,
// every report (each request's and batch's simulated stamps, the counts, the
// makespan) is identical, and so are the clusters' clocks, overlap accounts
// and traffic: lending moves no simulated number.
func TestServedLogitsFollowTheWeights(t *testing.T) {
	for name, chain := range chains {
		for _, ls := range chainLayouts {
			lent, lc := chain(t, ls, false)
			plain, pc := chain(t, ls, true)
			tag := name + " on " + ls[0].String()
			if lent[0].rep.Logits.Equal(lent[1].rep.Logits) {
				t.Errorf("%s: both serves returned the same logits; the chain did not move the weights", tag)
			}
			for i := range lent {
				if !reflect.DeepEqual(lent[i].rep, plain[i].rep) {
					t.Errorf("%s: serve %d: the lending report differs from the copying one:\n%+v\n%+v", tag, i, lent[i].rep, plain[i].rep)
				}
			}
			for i := range lc {
				lh, lt := lc[i].Overlap()
				ph, pt := pc[i].Overlap()
				if lc[i].MaxClock() != pc[i].MaxClock() || lh != ph || lt != pt || !reflect.DeepEqual(lc[i].Stats(), pc[i].Stats()) {
					t.Errorf("%s: cluster %d: lending moved the simulation: clock %g vs %g, overlap %g/%g vs %g/%g, stats %+v vs %+v",
						tag, i, lc[i].MaxClock(), pc[i].MaxClock(), lh, lt, ph, pt, lc[i].Stats(), pc[i].Stats())
				}
			}
		}
	}
}

// TestStalePackWouldBeCaught guards the test above against passing for the
// wrong reason: a server that does keep its packs across a weight change —
// the scope opened by hand and never re-opened, so nothing marks them stale —
// serves the old model after a Reshard. (Reshard, not training: a training
// step inside an open scope would be the very race the scope's contract
// excludes.)
func TestStalePackWouldBeCaught(t *testing.T) {
	l := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	donor := chainRef(t, l)
	chainTrain(t, donor, 3)
	if _, err := donor.Collect(); err != nil {
		t.Fatal(err)
	}
	srv := chainServer(t, l, false)
	for r := 0; r < srv.Layout().Ranks; r++ {
		m := srv.Model(r)
		m.F.(forwardOnly).ForwardOnly(true)
		m.F = stuckOpen{m.F}
	}
	chainServe(t, srv)
	if _, err := srv.Reshard(donor.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	after := chainServe(t, srv)
	want, err := donor.EvalLogits(servedBatches[0])
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.New(want.Rows, want.Cols)
	tensor.SubMatrixInto(got, after.Logits, 0, 0)
	if got.Equal(want) {
		t.Fatal("a server that kept its packs across a Reshard served the new weights: the chains cannot see a stale pack")
	}
}

// stuckOpen swallows Serve's ForwardOnly calls, so the scope the test opened
// by hand is neither re-opened (which marks the packs stale) nor closed.
type stuckOpen struct{ parallel.Family }

func (stuckOpen) ForwardOnly(bool) {}

// TestServeAllocationCeiling: the packed blocks and the scope's bookkeeping
// are built once per server — by the first Serve — not per Serve or per
// batch. A second and a third Serve on a live tesseract [2,2,2] server
// allocate what they did before lending existed, 95 objects for this trace
// (the arrival times, the report, Cluster.Run's goroutines), give or take a
// dist round pool doubling, which is timing-dependent and 8 allocations;
// rebuilding eight ranks' packs would be over 150.
func TestServeAllocationCeiling(t *testing.T) {
	const ceiling = 95 + 2*8
	ds, mcfg, tc := fixture()
	srv, err := NewServer(parallel.Layout{Family: "tesseract", Q: 2, D: 2}, ds, mcfg, tc,
		Config{MaxBatch: 4, LatencyBudget: 1e-4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.TrainSteps(1); err != nil {
		t.Fatal(err)
	}
	a := ArrivalConfig{N: 48, Rate: 30000, Seed: 17}
	var ms runtime.MemStats
	for i := 1; i <= 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := srv.Serve(a); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if n := ms.Mallocs - before; i > 1 && n > ceiling {
			t.Errorf("serve %d allocated %d objects, ceiling %d", i, n, ceiling)
		}
	}
}
