package parallel

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dist"
)

// Layout names a family and the processor arrangement it runs on: the
// runtime twin of a planner candidate (plan.Plan.Layout converts one into
// the other). Q and D describe the mesh for the 2-D/2.5-D families and are
// zero for 1-D families, whose arrangement is just [Ranks].
type Layout struct {
	// Family is the registered family name.
	Family string
	// Q and D are the mesh dimensions ([q, q] when D == 1, [q, q, d]
	// otherwise); both zero for 1-D families.
	Q, D int
	// Ranks is the total processor count. Zero means "derive from the
	// mesh" (q²·d) in Normalize.
	Ranks int
	// Base is the first cluster rank the family occupies, so a layout can
	// sit anywhere on a cluster larger than itself and several can share
	// one; ranks outside [Base, Base+Ranks) idle. vit.Session is the caller
	// that runs layouts on shared, oversized clusters.
	Base int
}

// Normalize fills the derivable zero fields (D defaults to 1 on meshes,
// Ranks to q²·d) and validates consistency. It does not check
// family-specific constraints (d ≤ q, divisibility); those belong to the
// family constructors.
func (l Layout) Normalize() (Layout, error) {
	if l.Family == "" {
		return l, fmt.Errorf("parallel: layout needs a family name")
	}
	if l.Q < 0 || l.D < 0 || l.Ranks < 0 || l.Base < 0 {
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
// d·q on a mesh, a family-registered count for 1-D families (sequence
// parallelism shards rows p ways despite its flat arrangement), 1 otherwise.
func (l Layout) RowShards() int {
	if l.Q == 0 {
		registryMu.RLock()
		fn := rowShards[l.Family]
		registryMu.RUnlock()
		if fn != nil {
			return fn(l)
		}
		return 1
	}
	d := l.D
	if d == 0 {
		d = 1
	}
	return l.Q * d
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

// Constructor builds one rank's family view for a normalized layout. Every
// rank in [l.Base, l.Base+l.Ranks) must call it collectively.
type Constructor func(w *dist.Worker, l Layout) (Family, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Constructor{}
	checks     = map[string]func(Layout) error{}
	rowShards  = map[string]func(Layout) int{}
)

// Register records a family constructor under its name. The family
// packages call it from init, so importing a family package is what makes
// its name instantiable. Registering a name twice panics: two packages
// claiming one family is a programming error.
func Register(name string, c Constructor) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || c == nil {
		panic("parallel: Register needs a name and a constructor")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("parallel: family %q registered twice", name))
	}
	registry[name] = c
}

// RegisterCheck records a cluster-free layout validator for a family:
// the static constraints its constructor would reject (1-D families
// cannot take a mesh, Tesseract requires d ≤ q), checkable before any
// cluster exists. Registered from the same init as the constructor.
func RegisterCheck(name string, chk func(Layout) error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || chk == nil {
		panic("parallel: RegisterCheck needs a name and a check")
	}
	if _, dup := checks[name]; dup {
		panic(fmt.Sprintf("parallel: check for family %q registered twice", name))
	}
	checks[name] = chk
}

// RegisterRowShards records how a 1-D family partitions activation rows,
// overriding Layout.RowShards' default of 1. Sequence parallelism registers
// l.Ranks: every rank owns Rows/p activation rows even though the
// arrangement is flat. Mesh families never consult this — their row split
// is q·d by construction.
func RegisterRowShards(name string, fn func(Layout) int) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || fn == nil {
		panic("parallel: RegisterRowShards needs a name and a function")
	}
	if _, dup := rowShards[name]; dup {
		panic(fmt.Sprintf("parallel: row shards for family %q registered twice", name))
	}
	rowShards[name] = fn
}

// Validate normalizes the layout and applies its family's registered
// static check without building anything — what compositions use to
// reject an impossible configuration before sizing a cluster from it.
func Validate(l Layout) (Layout, error) {
	l, err := l.Normalize()
	if err != nil {
		return l, err
	}
	registryMu.RLock()
	chk, ok := checks[l.Family]
	registered := ok
	if !ok {
		_, registered = registry[l.Family]
	}
	registryMu.RUnlock()
	if !registered {
		return l, fmt.Errorf("parallel: unknown family %q (registered: %v)", l.Family, Families())
	}
	if chk != nil {
		if err := chk(l); err != nil {
			return l, err
		}
	}
	return l, nil
}

// New validates the layout and builds the calling worker's view of the
// named family. The name must have been registered (import the family
// package); unknown names report the registered alternatives.
func New(w *dist.Worker, l Layout) (Family, error) {
	l, err := Validate(l)
	if err != nil {
		return nil, err
	}
	registryMu.RLock()
	c := registry[l.Family]
	registryMu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("parallel: family %q has a check but no constructor", l.Family)
	}
	return c(w, l)
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
