package cloud

import "testing"

func TestIDIndex(t *testing.T) {
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
		for _, absent := range []int{-1, 5, 1 << 40} {
			if _, ok := ix.Pos(absent); ok {
				t.Errorf("%s: absent id %d resolved", c.name, absent)
			}
		}
		// Later registrations: inside the dense range, outside it, negative.
		for pos, id := range []int{5, 1 << 40, -3} {
			ix.Add(id, 100+pos)
			if got, ok := ix.Pos(id); !ok || got != 100+pos {
				t.Errorf("%s: after Add, Pos(%d) = %d, %t", c.name, id, got, ok)
			}
		}
	}
}
