package cache

import "testing"

func TestKeyDeterministic(t *testing.T) {
	k1 := NewKey("kind", 1).String("a").Int(-7).Uint(9).Float(0.5).Bool(true).Sum()
	k2 := NewKey("kind", 1).String("a").Int(-7).Uint(9).Float(0.5).Bool(true).Sum()
	if k1 != k2 {
		t.Fatal("identical inputs produced different keys")
	}
}

// TestKeyPrefixFree is the aliasing guard: adjacent variable-length
// fields must not be able to shift content between each other and
// collide.
func TestKeyPrefixFree(t *testing.T) {
	a := NewKey("k", 1).String("ab").String("c").Sum()
	b := NewKey("k", 1).String("a").String("bc").Sum()
	if a == b {
		t.Fatal("String(\"ab\")+String(\"c\") collided with String(\"a\")+String(\"bc\")")
	}
}

// TestKeyTypeTagged: the same bytes fed through differently-typed
// fields must key differently.
func TestKeyTypeTagged(t *testing.T) {
	keys := map[Key]string{}
	add := func(name string, k Key) {
		if prev, dup := keys[k]; dup {
			t.Fatalf("%s collided with %s", name, prev)
		}
		keys[k] = name
	}
	add("string", NewKey("k", 1).String("ab").Sum())
	add("bytes", NewKey("k", 1).Bytes([]byte("ab")).Sum())
	add("int 1", NewKey("k", 1).Int(1).Sum())
	add("uint 1", NewKey("k", 1).Uint(1).Sum())
	add("bool", NewKey("k", 1).Bool(true).Sum())
	add("float bits of 1", NewKey("k", 1).Uint(0x3ff0000000000000).Sum())
	add("float 1", NewKey("k", 1).Float(1).Sum())
}

func TestKeyKindAndVersionSeparate(t *testing.T) {
	base := NewKey("sweep.price", 1).Int(3).Sum()
	if k := NewKey("sweep.price", 2).Int(3).Sum(); k == base {
		t.Fatal("version bump did not change the key")
	}
	if k := NewKey("core.framepass", 1).Int(3).Sum(); k == base {
		t.Fatal("kind did not change the key")
	}
}

func TestKeyStrings(t *testing.T) {
	a := NewKey("k", 1).Strings([]string{"x", "y"}).Sum()
	b := NewKey("k", 1).Strings([]string{"xy"}).Sum()
	c := NewKey("k", 1).Strings(nil).Sum()
	d := NewKey("k", 1).Strings([]string{""}).Sum()
	if a == b || c == d || a == c {
		t.Fatal("string slices with different shapes collided")
	}
}

func TestKeyFloatDistinguishesNegativeZero(t *testing.T) {
	if NewKey("k", 1).Float(0.0).Sum() == NewKey("k", 1).Float(negZero()).Sum() {
		t.Fatal("0 and -0 share a key")
	}
}

func negZero() float64 { z := 0.0; return -z }

func TestKeyHexString(t *testing.T) {
	k := NewKey("k", 1).Sum()
	s := k.String()
	if len(s) != 64 {
		t.Fatalf("hex key length %d, want 64", len(s))
	}
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			t.Fatalf("non-hex rune %q in key %s", r, s)
		}
	}
}
