package shader

import "testing"

func TestTableDenseAndSparseLayouts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ids   []ID
		dense bool
	}{
		{"compact", []ID{1, 2, 3, 5}, true},
		{"slack", []ID{1, 60}, true},
		{"sparse", []ID{1, 7, 0xFFFFFFF0}, false},
		{"max-uint32", []ID{0xFFFFFFFF}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			progs := make([]*Program, len(tc.ids))
			for i, id := range tc.ids {
				progs[i] = progWith(StagePixel, OpALU)
				progs[i].ID = id
			}
			r, err := RestoreRegistry(progs)
			if err != nil {
				t.Fatal(err)
			}
			tab := NewTable(r, func(p *Program) ID { return p.ID * 2 })
			if got := tab.index == nil; got != tc.dense {
				t.Fatalf("dense = %v, want %v", got, tc.dense)
			}
			if len(tab.vals) > int(denseSparsityCap)*len(tc.ids)+65 {
				t.Fatalf("table holds %d slots for %d programs", len(tab.vals), len(tc.ids))
			}
			for _, id := range tc.ids {
				v := tab.Get(id)
				if v == nil || *v != id*2 {
					t.Errorf("Get(%d) = %v, want %d", id, v, id*2)
				}
			}
			for _, id := range []ID{0, 4, 6, 61, 0xFFFFFFF1, 0xFFFFFFFE} {
				if r.byID[id] != nil {
					continue
				}
				if v := tab.Get(id); v != nil {
					t.Errorf("Get(%d) = %v for an unregistered id", id, *v)
				}
			}
		})
	}
}
