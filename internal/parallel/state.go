package parallel

import "repro/internal/nn"

// State is one canonical checkpoint slot as one rank sees it. Every rank of
// a family enumerates the identical ordered slot list (same global shapes,
// same order — the walk mirrors layer construction order, which is fixed);
// what differs per rank is which piece of the slot it holds. A rank that
// owns no shard of a slot (Tesseract biases live only on grid row 0)
// reports Param == nil but still emits the slot, so the lists stay aligned
// across ranks and across families.
//
// The canonical global tensor is the serial model's parameter — for the
// fused QKV projection that means the unpermuted [Wq | Wk | Wv]
// concatenation, NOT the shard-count-dependent column permutation the
// families store locally. Attention layers therefore map their fused shard
// through three rectangles, one per serial sub-matrix, which is what makes
// a checkpoint written at q=2 readable at p=4: both sides agree on the
// serial form.
type State struct {
	// Param is the local shard, or nil when this rank holds nothing.
	Param *nn.Param
	// Rows, Cols give the canonical global shape; identical on every rank.
	Rows, Cols int
	// Primary marks the one replica holder per global element that writes
	// during a collect: k == 0 for Tesseract's depth-replicated weights,
	// group rank 0 for Megatron's replicated row bias, the family base rank
	// for fully replicated layers, always true for unreplicated shards.
	Primary bool
	// Blocks are the rectangles mapping the local shard into the canonical
	// global tensor. Empty when Param is nil.
	Blocks []StateBlock
}

// StateBlock maps one local rectangle onto the canonical global tensor.
type StateBlock struct {
	// LocalRow, LocalCol locate the rectangle in the local shard.
	LocalRow, LocalCol int
	// GlobalRow, GlobalCol locate it in the canonical global tensor.
	GlobalRow, GlobalCol int
	// Rows, Cols are the rectangle extent.
	Rows, Cols int
}

// Stater enumerates canonical state slots — implemented by every Layer and
// by Model so CollectInto/Restore can walk any
// model family-agnostically.
type Stater interface {
	State() []State
}

// Shard is a parameter and the rectangle of the canonical tensor it was cut
// at: the canonical [Rows, Cols] and the origin (Row, Col) of the
// parameter's block in it. Weight.Param and Weight.Bias record it where they
// cut, so a layer's checkpoint slots read it (State) instead of working the
// block out again. A zero Shard is a parameter the layer does not have.
type Shard struct {
	*nn.Param
	Rows, Cols int
	Row, Col   int
}

// State is the shard's checkpoint slot; primary marks the replica that
// writes it in a collect. A banded shard (nn.Param.SetBand) holds its
// optimiser state for its band's rows only, so its slot is the band, and
// every member of the band's group is primary for its own band.
func (s Shard) State(primary bool) State {
	lo, hi := s.Band()
	return State{
		Param: s.Param, Rows: s.Rows, Cols: s.Cols, Primary: primary || s.Banded(),
		Blocks: []StateBlock{{
			LocalRow:  lo,
			GlobalRow: s.Row + lo, GlobalCol: s.Col,
			Rows: hi - lo, Cols: s.Value.Cols,
		}},
	}
}
