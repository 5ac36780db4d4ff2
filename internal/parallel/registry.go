package parallel

import (
	"fmt"
	"iter"
	"sort"
	"sync"

	"repro/internal/dist"
)

// Layout names a family and the processor arrangement it runs on. It is
// also the planner's candidate: Layouts lists a family's, and plan.Plan
// embeds the one it ranked. Q and D describe the mesh for the 2-D/2.5-D
// families and are zero for 1-D families, whose arrangement is just
// [Ranks]. A layout occupies ranks [0, Ranks) of a cluster that may be
// larger (vit.Session's); the ranks past it idle.
type Layout struct {
	// Family is the registered family name.
	Family string
	// Q and D are the mesh dimensions ([q, q] when D == 1, [q, q, d]
	// otherwise); both zero for 1-D families.
	Q, D int
	// Ranks is the total processor count. Zero means "derive from the
	// mesh" (q²·d) in Validate.
	Ranks int
}

// normalize fills the derivable zero fields (D defaults to 1 on meshes,
// Ranks to q²·d) and validates consistency. It does not check the family's
// registered Arrangement; Validate does.
func (l Layout) normalize() (Layout, error) {
	if l.Family == "" {
		return l, fmt.Errorf("parallel: layout needs a family name")
	}
	if l.Q < 0 || l.D < 0 || l.Ranks < 0 {
		return l, fmt.Errorf("parallel: negative layout field in %+v", l)
	}
	if l.Q > 0 {
		if l.D == 0 {
			l.D = 1
		}
		size := l.Q * l.Q * l.D
		if l.Ranks == 0 {
			l.Ranks = size
		}
		if l.Ranks != size {
			return l, fmt.Errorf("parallel: layout %s has %d processors, Ranks says %d", l.Shape(), size, l.Ranks)
		}
	} else {
		if l.D != 0 {
			return l, fmt.Errorf("parallel: layout with depth %d needs a mesh dimension q", l.D)
		}
		if l.Ranks == 0 {
			return l, fmt.Errorf("parallel: 1-D layout for %q needs a rank count", l.Family)
		}
	}
	return l, nil
}

// RowShards returns how many ways the layout partitions activation rows:
// d·q on a mesh, p for a family registered with the Rows arrangement, 1
// otherwise.
func (l Layout) RowShards() int {
	if l.Q == 0 {
		if s, ok := lookup(l.Family); ok && s.Arrangement == Rows {
			return l.Ranks
		}
		return 1
	}
	return l.Q * max(l.D, 1)
}

// Shape renders the arrangement the way the paper prints it: [p], [q,q] or
// [q,q,d].
func (l Layout) Shape() string {
	switch {
	case l.Q == 0:
		return fmt.Sprintf("[%d]", l.Ranks)
	case l.D <= 1:
		return fmt.Sprintf("[%d,%d]", l.Q, l.Q)
	default:
		return fmt.Sprintf("[%d,%d,%d]", l.Q, l.Q, l.D)
	}
}

// String renders "family [shape]".
func (l Layout) String() string { return fmt.Sprintf("%s %s", l.Family, l.Shape()) }

// Arrangement is how a family lays out its processors and splits its
// activation rows over them: the one fact about a family, beside its
// constructor, that validation, the planner's search space and the batch
// unit read.
type Arrangement int

const (
	// Flat is [p] with every activation row on every rank (Megatron-LM):
	// Q and D are zero.
	Flat Arrangement = iota
	// Rows is [p] with the activation rows split p ways (sequence
	// parallelism).
	Rows
	// Grid is the 2-D mesh [q, q]: no depth (Optimus).
	Grid
	// Mesh is [q, q, d], 1 ≤ d ≤ q; d = 1 is [q, q].
	Mesh
)

// mesh reports whether the arrangement's layouts carry a mesh dimension q.
func (a Arrangement) mesh() bool { return a == Grid || a == Mesh }

// Spec is everything the runtime and the planner know about a family under
// its name, registered once. The family packages call Register from init, so
// importing a family package is what makes its name instantiable — and, with
// its Arrangement, what Layouts lists for the planner to search.
type Spec struct {
	// Name is the family name a Layout carries ("tesseract", "megatron").
	Name string
	// New builds one rank's family view for a validated layout. Every rank
	// in [0, l.Ranks) must call it collectively.
	New func(w *dist.Worker, l Layout) (Family, error)
	// Arrangement is the shape every layout of the family has and how its
	// activation rows split. Validate refuses any other shape without a
	// cluster, so a composition can refuse an impossible configuration
	// before sizing a cluster from it.
	Arrangement Arrangement
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Spec{}
)

// Register records a family's Spec under its name. Registering a name twice
// panics: two packages claiming one family is a programming error.
func Register(s Spec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if s.Name == "" || s.New == nil {
		panic("parallel: Register needs a name and a constructor")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("parallel: family %q registered twice", s.Name))
	}
	registry[s.Name] = s
}

// lookup returns the Spec registered under name.
func lookup(name string) (Spec, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Validate normalizes the layout and checks it against its family's
// arrangement without building anything.
func Validate(l Layout) (Layout, error) {
	_, l, err := validate(l)
	return l, err
}

// validate is Validate that also returns the family's Spec.
func validate(l Layout) (Spec, Layout, error) {
	l, err := l.normalize()
	if err != nil {
		return Spec{}, l, err
	}
	s, err := spec(l.Family)
	if err != nil {
		return s, l, err
	}
	switch {
	case !s.Arrangement.mesh() && l.Q != 0:
		return s, l, fmt.Errorf("parallel: %s is a 1-D family and cannot take a mesh %s", l.Family, l.Shape())
	case s.Arrangement.mesh() && l.Q == 0:
		return s, l, fmt.Errorf("parallel: layout %s needs a mesh dimension q", l)
	case s.Arrangement == Grid && l.D > 1:
		return s, l, fmt.Errorf("parallel: %s is a 2-D family and cannot take depth %d", l.Family, l.D)
	case s.Arrangement == Mesh && l.D > l.Q:
		return s, l, fmt.Errorf("parallel: layout %s has depth d=%d above its dimension q=%d (the paper requires 1 <= d <= q)", l, l.D, l.Q)
	}
	return s, l, nil
}

// spec returns the Spec registered under name, or an error naming the
// registered alternatives.
func spec(name string) (Spec, error) {
	s, ok := lookup(name)
	if !ok {
		return s, fmt.Errorf("parallel: unknown family %q (registered: %v)", name, Families())
	}
	return s, nil
}

// Layouts lists every layout of the named family on at most budget ranks
// that Validate accepts, smallest first: [p] for p = 1…budget, [q,q] by q,
// or [q,q,d] by q and then d. This is the planner's search space; which of
// them can split a workload is Fits' to say. Nothing is materialised, so the
// walk is the only cost of a large budget.
func Layouts(family string, budget int) (iter.Seq[Layout], error) {
	s, err := spec(family)
	if err != nil {
		return nil, err
	}
	return func(yield func(Layout) bool) {
		if !s.Arrangement.mesh() {
			for p := 1; p <= budget && yield(Layout{Family: family, Ranks: p}); p++ {
			}
			return
		}
		for q := 1; q*q <= budget; q++ {
			depth := q
			if s.Arrangement == Grid {
				depth = 1
			}
			for d := 1; d <= depth && q*q*d <= budget; d++ {
				if !yield(Layout{Family: family, Q: q, D: d, Ranks: q * q * d}) {
					return
				}
			}
		}
	}, nil
}

// New validates the layout and builds the calling worker's view of the
// named family. The name must have been registered (import the family
// package); unknown names report the registered alternatives.
func New(w *dist.Worker, l Layout) (Family, error) {
	s, l, err := validate(l)
	if err != nil {
		return nil, err
	}
	return s.New(w, l)
}

// Families returns the registered family names, sorted.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
