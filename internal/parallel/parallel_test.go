package parallel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestLayoutNormalize(t *testing.T) {
	l, err := Layout{Family: "x", Q: 2, D: 2}.Normalize()
	if err != nil || l.Ranks != 8 || l.D != 2 {
		t.Fatalf("mesh normalize: %+v, %v", l, err)
	}
	l, err = Layout{Family: "x", Q: 3}.Normalize()
	if err != nil || l.Ranks != 9 || l.D != 1 {
		t.Fatalf("depthless mesh normalize: %+v, %v", l, err)
	}
	if _, err := (Layout{Family: "x", Q: 2, D: 1, Ranks: 5}).Normalize(); err == nil {
		t.Fatal("inconsistent Ranks must be rejected")
	}
	if _, err := (Layout{Family: "x"}).Normalize(); err == nil {
		t.Fatal("1-D layout without ranks must be rejected")
	}
	if _, err := (Layout{Family: "x", D: 2}).Normalize(); err == nil {
		t.Fatal("depth without q must be rejected")
	}
	if _, err := (Layout{Q: 2}).Normalize(); err == nil {
		t.Fatal("missing family must be rejected")
	}
	if _, err := (Layout{Family: "x", Q: -1}).Normalize(); err == nil {
		t.Fatal("negative field must be rejected")
	}
}

func TestLayoutShapeAndRowShards(t *testing.T) {
	for _, tc := range []struct {
		l      Layout
		shape  string
		shards int
	}{
		{Layout{Family: "megatron", Ranks: 4}, "[4]", 1},
		{Layout{Family: "optimus", Q: 2, D: 1, Ranks: 4}, "[2,2]", 2},
		{Layout{Family: "tesseract", Q: 4, D: 2, Ranks: 32}, "[4,4,2]", 8},
	} {
		if got := tc.l.Shape(); got != tc.shape {
			t.Errorf("%v Shape = %q, want %q", tc.l, got, tc.shape)
		}
		if got := tc.l.RowShards(); got != tc.shards {
			t.Errorf("%v RowShards = %d, want %d", tc.l, got, tc.shards)
		}
	}
	if s := (Layout{Family: "tesseract", Q: 4, D: 2}).String(); s != "tesseract [4,4,2]" {
		t.Errorf("String = %q", s)
	}
}

func TestNewUnknownFamily(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		_, err := New(w, Layout{Family: "no-such-family", Ranks: 1})
		if err == nil || !strings.Contains(err.Error(), "no-such-family") {
			t.Errorf("unknown family error = %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// unregisterAfter removes a family a test registered when the test ends: the
// registry lives as long as the process, and a second pass (-count=2) must
// find the name free again.
func unregisterAfter(t *testing.T, name string) {
	t.Cleanup(func() {
		registryMu.Lock()
		defer registryMu.Unlock()
		delete(registry, name)
		delete(checks, name)
		delete(rowShards, name)
	})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("parallel-test-dup", func(w *dist.Worker, l Layout) (Family, error) { return nil, nil })
	unregisterAfter(t, "parallel-test-dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register must panic")
		}
	}()
	Register("parallel-test-dup", func(w *dist.Worker, l Layout) (Family, error) { return nil, nil })
}

// TestReplicatedLinearMatchesSerial chains a GELU and a plain replicated
// linear and checks both directions bitwise against nn.Linear.
func TestReplicatedLinearMatchesSerial(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		rng := tensor.NewRNG(3)
		a := NewReplicatedLinear(w, 4, 6, nn.ActGELU, true, rng)
		b := NewReplicatedLinear(w, 6, 4, nn.ActNone, true, rng)

		refA := nn.NewLinear(4, 6, nn.ActGELU, true, tensor.NewRNG(3))
		rng2 := tensor.NewRNG(3)
		tensor.XavierMatrix(4, 6, rng2) // consume a's weight draw
		refB := nn.NewLinear(6, 4, nn.ActNone, true, rng2)

		x := tensor.RandomMatrix(5, 4, tensor.NewRNG(9))
		dy := tensor.RandomMatrix(5, 4, tensor.NewRNG(10))
		want := refB.Forward(refA.Forward(x))
		if got := b.Forward(a.Forward(x)); !got.Equal(want) {
			t.Errorf("forward diverged: %g", got.MaxAbsDiff(want))
		}
		wantDx := refA.Backward(refB.Backward(dy))
		if got := a.Backward(b.Backward(dy)); !got.Equal(wantDx) {
			t.Errorf("backward diverged: %g", got.MaxAbsDiff(wantDx))
		}
		if got, want := len(a.Params())+len(b.Params()), len(refA.Params())+len(refB.Params()); got != want {
			t.Errorf("params = %d, want %d", got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedLayersChargeTheClock(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		x := tensor.RandomMatrix(4, 8, tensor.NewRNG(1))
		ln := NewReplicatedLayerNorm(w, 8)
		ref := nn.NewLayerNorm(8)
		if got, want := ln.Forward(x), ref.Forward(x); !got.Equal(want) {
			t.Error("ReplicatedLayerNorm.Forward diverged from nn.LayerNorm")
		}
		if ln.Params() != nil {
			t.Error("layer norm must be parameter-free")
		}
		lin := NewReplicatedLinear(w, 8, 2, nn.ActNone, true, tensor.NewRNG(2))
		lin.Forward(x)
		lin.Backward(tensor.RandomMatrix(4, 2, tensor.NewRNG(3)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.MaxClock() <= 0 {
		t.Fatal("replicated layers must charge the simulated clock")
	}
}

func TestValidateAppliesRegisteredCheck(t *testing.T) {
	Register("parallel-test-checked", func(w *dist.Worker, l Layout) (Family, error) { return nil, nil })
	unregisterAfter(t, "parallel-test-checked")
	RegisterCheck("parallel-test-checked", func(l Layout) error {
		if l.Q != 0 {
			return fmt.Errorf("checked: no meshes")
		}
		return nil
	})
	if _, err := Validate(Layout{Family: "parallel-test-checked", Ranks: 2}); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	if _, err := Validate(Layout{Family: "parallel-test-checked", Q: 2}); err == nil || !strings.Contains(err.Error(), "no meshes") {
		t.Fatalf("check not applied: %v", err)
	}
	if _, err := Validate(Layout{Family: "parallel-test-unregistered", Ranks: 1}); err == nil {
		t.Fatal("unknown family must be rejected")
	}
}
