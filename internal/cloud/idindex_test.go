package cloud

import (
	"math"
	"testing"
)

func TestIDIndex(t *testing.T) {
	shard := func(lo, hi int) []int { // a federation shard's contiguous PM ids
		ids := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		return ids
	}
	cases := []struct {
		name      string
		ids       []int
		wantDense bool
	}{
		{"dense 0..n-1", []int{0, 1, 2, 3, 4}, true},
		{"dense unordered with gaps", []int{9, 2, 7, 0}, true},
		{"sparse", []int{11, 1_000_014, 2_000_017}, false},
		{"id space just too large", []int{0, 8}, false},
		{"empty", nil, false},
		{"offset range: shard 7 of 8 over 1000 PMs", shard(875, 1000), true},
		{"offset range: shard 3 of 4 over 1000 PMs", shard(750, 1000), true},
		{"offset unordered with gaps", []int{1_000_009, 1_000_002, 1_000_007, 1_000_000}, true},
		{"offset span just too large", []int{100, 108}, false},
		{"single huge id", []int{1 << 40}, true},
		{"negative ids", []int{-5, -3, -4, -2}, true},
		{"span wider than an int", []int{math.MinInt, math.MaxInt, 0}, false},
	}
	for _, c := range cases {
		ix := NewIDIndex(c.ids)
		if (len(ix.dense) > 0) != c.wantDense {
			t.Errorf("%s: dense range %d, want dense = %t", c.name, len(ix.dense), c.wantDense)
		}
		for i, id := range c.ids {
			if pos, ok := ix.Pos(id); !ok || pos != i {
				t.Errorf("%s: Pos(%d) = %d, %t, want %d", c.name, id, pos, ok, i)
			}
		}
		// Absent ids on every side: below the range, in its gaps, above it.
		present := make(map[int]bool, len(c.ids))
		for _, id := range c.ids {
			present[id] = true
		}
		for _, absent := range []int{-1, 5, 101, 874, 1000, 1_000_005, 1 << 41, math.MinInt + 1, math.MaxInt - 1} {
			if _, ok := ix.Pos(absent); ok && !present[absent] {
				t.Errorf("%s: absent id %d resolved", c.name, absent)
			}
		}
		// Later registrations: inside the dense range or a gap of it, below
		// it, above it, negative.
		for pos, id := range []int{5, 101, 1_000_005, 3, 1 << 42, -7} {
			ix.Add(id, 100+pos)
			if got, ok := ix.Pos(id); !ok || got != 100+pos {
				t.Errorf("%s: after Add, Pos(%d) = %d, %t", c.name, id, got, ok)
			}
		}
		// The late registrations displaced nothing they did not name.
		for i, id := range c.ids {
			if id == 5 || id == 101 || id == 1_000_005 || id == 3 {
				continue
			}
			if pos, ok := ix.Pos(id); !ok || pos != i {
				t.Errorf("%s: after Adds, Pos(%d) = %d, %t, want %d", c.name, id, pos, ok, i)
			}
		}
	}
}
