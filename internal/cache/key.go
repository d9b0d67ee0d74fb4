package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Key is a content-addressed cache key: the SHA-256 of everything the
// cached value depends on — input bytes, algorithm version, and the
// relevant option fields. Two computations share an entry exactly when
// their keys collide, so every input that can change the output must
// be fed to the KeyBuilder.
type Key [sha256.Size]byte

// String returns the key in hex, the form used for on-disk file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyBuilder derives a Key by hashing a tagged, length-prefixed
// encoding of the value's inputs. Tagging makes the encoding
// prefix-free: String("ab")+String("c") and String("a")+String("bc")
// hash differently, so adjacent fields can never alias.
type KeyBuilder struct {
	h   hash.Hash
	buf [9]byte
}

// Tag bytes, one per field type, so differently-typed field sequences
// never collide.
const (
	tagString byte = iota + 1
	tagBytes
	tagInt
	tagUint
	tagFloat
	tagBool
)

// NewKey starts a key for one kind of cached value. kind namespaces
// the cache (e.g. "sweep.price"); version is the algorithm/schema
// version of the producing code — bump it whenever the computation
// changes meaning, and old entries become unreachable instead of
// stale.
func NewKey(kind string, version int) *KeyBuilder {
	b := &KeyBuilder{h: sha256.New()}
	return b.String(kind).Int(int64(version))
}

func (b *KeyBuilder) writeTagged(tag byte, p []byte) *KeyBuilder {
	b.buf[0] = tag
	binary.BigEndian.PutUint64(b.buf[1:], uint64(len(p)))
	b.h.Write(b.buf[:])
	b.h.Write(p)
	return b
}

func (b *KeyBuilder) write8(tag byte, v uint64) *KeyBuilder {
	b.buf[0] = tag
	binary.BigEndian.PutUint64(b.buf[1:], v)
	b.h.Write(b.buf[:])
	return b
}

// String mixes a string field into the key.
func (b *KeyBuilder) String(s string) *KeyBuilder { return b.writeTagged(tagString, []byte(s)) }

// Bytes mixes a raw byte field (e.g. a fingerprint) into the key.
func (b *KeyBuilder) Bytes(p []byte) *KeyBuilder { return b.writeTagged(tagBytes, p) }

// Int mixes a signed integer field into the key.
func (b *KeyBuilder) Int(v int64) *KeyBuilder { return b.write8(tagInt, uint64(v)) }

// Uint mixes an unsigned integer field into the key.
func (b *KeyBuilder) Uint(v uint64) *KeyBuilder { return b.write8(tagUint, v) }

// Float mixes a float field into the key by its IEEE-754 bits, so
// every distinct value (including -0 vs 0) keys distinctly.
func (b *KeyBuilder) Float(v float64) *KeyBuilder { return b.write8(tagFloat, math.Float64bits(v)) }

// Bool mixes a boolean field into the key.
func (b *KeyBuilder) Bool(v bool) *KeyBuilder {
	var u uint64
	if v {
		u = 1
	}
	return b.write8(tagBool, u)
}

// Strings mixes a string slice (count plus each element) into the key.
func (b *KeyBuilder) Strings(ss []string) *KeyBuilder {
	b.Int(int64(len(ss)))
	for _, s := range ss {
		b.String(s)
	}
	return b
}

// Sum finalizes the key. The builder must not be reused afterwards.
func (b *KeyBuilder) Sum() Key {
	var k Key
	b.h.Sum(k[:0])
	return k
}
