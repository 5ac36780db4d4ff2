package dist

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzGroupIndex draws a rank list — an arithmetic progression (first,
// first+step, … for n ranks, clipped to the world) when list is empty, the
// bytes of list mod the world otherwise, so in any order and with repeats —
// and builds its group. A list with a repeated rank must make Cluster.Group
// panic; any other must give a group whose Index returns each member's
// position in the list and −1 for every other rank, from far below the world
// to far above it.
func FuzzGroupIndex(f *testing.F) {
	f.Add(uint8(63), uint8(0), int8(1), uint8(8), []byte(nil))                  // a mesh row
	f.Add(uint8(63), uint8(3), int8(4), uint8(4), []byte(nil))                  // a column of [4,4,4]
	f.Add(uint8(63), uint8(5), int8(16), uint8(4), []byte(nil))                 // a depth fibre of [4,4,4]
	f.Add(uint8(63), uint8(60), int8(-3), uint8(7), []byte(nil))                // descending
	f.Add(uint8(15), uint8(2), int8(0), uint8(3), []byte(nil))                  // step 0 repeats a rank
	f.Add(uint8(15), uint8(0), int8(0), uint8(0), []byte{3, 1, 4, 15, 9, 2, 6}) // no progression
	f.Add(uint8(15), uint8(0), int8(0), uint8(0), []byte{3, 1, 3})              // a repeat
	f.Fuzz(func(t *testing.T, world, first uint8, step int8, n uint8, list []byte) {
		size := int(world)%128 + 1
		var ranks []int
		if len(list) == 0 {
			for r := int(first); len(ranks) < int(n)%65 && r >= 0 && r < size; r += int(step) {
				ranks = append(ranks, r)
			}
		} else {
			for _, b := range list {
				ranks = append(ranks, int(b)%size)
			}
		}
		if len(ranks) == 0 {
			return
		}
		sorted := slices.Sorted(slices.Values(ranks))
		repeat := len(slices.Compact(sorted)) != len(ranks)

		// Group caches by rank list, so each list gets a cluster of its own;
		// a solo one starts nothing the test would have to close.
		c := NewSolo(Config{WorldSize: size})
		var g *Group
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			g = c.Group(ranks...)
			return nil
		}()
		if repeat {
			if msg == nil {
				t.Fatalf("Group(%v) accepted a repeated rank", ranks)
			}
			if s := fmt.Sprint(msg); !strings.Contains(s, "duplicate rank") {
				t.Fatalf("Group(%v) panicked with %q, not a duplicate", ranks, s)
			}
			return
		}
		if msg != nil {
			t.Fatalf("Group(%v) panicked: %v", ranks, msg)
		}
		for r := -2 * size; r <= 2*size; r++ {
			if got, want := g.Index(r), slices.Index(ranks, r); got != want {
				t.Fatalf("Group(%v).Index(%d) = %d, want %d", ranks, r, got, want)
			}
		}
		for _, r := range []int{math.MinInt, math.MinInt + 1, math.MaxInt} {
			if got := g.Index(r); got != -1 {
				t.Fatalf("Group(%v).Index(%d) = %d, want -1", ranks, r, got)
			}
		}
	})
}
