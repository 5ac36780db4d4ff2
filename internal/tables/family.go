package tables

import "repro/internal/parallel"

// DefaultFamilyLayouts are the four schemes on small comparable arrangements:
// the layouts the elastic, straggler and serving studies run.
func DefaultFamilyLayouts() []parallel.Layout {
	return []parallel.Layout{
		{Family: "megatron", Ranks: 4},
		{Family: "optimus", Q: 2},
		{Family: "tesseract", Q: 2, D: 2},
		{Family: "seqpar", Ranks: 4},
	}
}
