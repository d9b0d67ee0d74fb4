package shader

// denseSparsityCap bounds a dense Table: when the largest id exceeds
// this multiple of the program count (plus slack), ids are sparse
// enough that an id-indexed slice would waste memory — subsetd accepts
// uploads carrying any uint32 id — and the table keeps a map instead.
const denseSparsityCap = 4

// Table maps every program of one registry to a per-program value,
// computed once at construction. Lookups are one bounds check and one
// bool load when the registry's ids are compact (the common case:
// registries assign ids 1..n), and one map probe otherwise; neither
// path allocates. A Table is read-only after construction and safe for
// concurrent use.
type Table[T any] struct {
	vals  []T        // dense: indexed by id; sparse: any order
	known []bool     // dense only: whether vals[id] belongs to a program
	index map[ID]int // sparse only: id -> position in vals
}

// NewTable builds the table for every program registered in r, with
// value f(p) for program p. No table is ever sized by the largest id
// alone: ids too sparse for the density rule select the map layout.
func NewTable[T any](r *Registry, f func(p *Program) T) *Table[T] {
	maxID := ID(0)
	for id := range r.byID {
		if id > maxID {
			maxID = id
		}
	}
	t := &Table[T]{}
	if int64(maxID) <= int64(denseSparsityCap)*int64(len(r.byID))+64 {
		t.vals = make([]T, int(maxID)+1)
		t.known = make([]bool, int(maxID)+1)
		for id, p := range r.byID {
			t.vals[id] = f(p)
			t.known[id] = true
		}
		return t
	}
	t.vals = make([]T, 0, len(r.byID))
	t.index = make(map[ID]int, len(r.byID))
	for id, p := range r.byID {
		t.index[id] = len(t.vals)
		t.vals = append(t.vals, f(p))
	}
	return t
}

// Get returns the value of program id, or nil when id is not
// registered (including the reserved id 0 and unregistered ids inside
// the dense range).
func (t *Table[T]) Get(id ID) *T {
	if t.index == nil {
		if uint64(id) < uint64(len(t.vals)) && t.known[id] {
			return &t.vals[id]
		}
		return nil
	}
	if i, ok := t.index[id]; ok {
		return &t.vals[i]
	}
	return nil
}
