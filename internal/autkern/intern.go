package autkern

import "encoding/binary"

// The interners assign dense sequential ids (0, 1, 2, ...) to the
// composite states materialized by product-style constructions, in
// first-seen order — which is exactly BFS discovery order when the
// caller drives a worklist `for i := 0; i < in.Len(); i++`. They are
// the kernel's single replacement for the per-package `index :=
// map[...]int` + order-slice idiom.
//
// PairInterner is the hot-path variant: it packs an (x, y) state pair
// into one uint64 so lookups ride the runtime's fast uint64 map path
// instead of hashing a struct key. Callers with a couple of extra bits
// of state (a latch, a counter) pack them into y.
//
// Interners are not safe for concurrent use.

// PairInterner interns pairs of non-negative ints (each < 2³²) to
// dense ids in first-seen order. The zero value is not ready; use
// NewPairInterner.
type PairInterner struct {
	ids   map[uint64]int32
	pairs []uint64
}

// NewPairInterner returns an empty pair interner.
func NewPairInterner() *PairInterner {
	return &PairInterner{ids: make(map[uint64]int32)}
}

// Intern returns the id of (x, y), allocating the next id when the
// pair is new.
func (in *PairInterner) Intern(x, y int) int {
	k := uint64(uint32(x))<<32 | uint64(uint32(y))
	if i, ok := in.ids[k]; ok {
		return int(i)
	}
	i := len(in.pairs)
	in.ids[k] = int32(i)
	in.pairs = append(in.pairs, k)
	return i
}

// Pair returns the (x, y) components of id i.
func (in *PairInterner) Pair(i int) (x, y int) {
	k := in.pairs[i]
	return int(uint32(k >> 32)), int(uint32(k))
}

// Len returns the number of interned pairs.
func (in *PairInterner) Len() int { return len(in.pairs) }

// KeyInterner interns opaque byte keys to dense ids in first-seen
// order. Lookups convert via the map[string] fast path, so a hit does
// not allocate. The zero value is not ready; use NewKeyInterner.
type KeyInterner struct {
	ids map[string]int
}

// NewKeyInterner returns an empty key interner.
func NewKeyInterner() *KeyInterner {
	return &KeyInterner{ids: make(map[string]int)}
}

// Intern returns the id of key and whether it was fresh (seen for the
// first time by this call).
func (in *KeyInterner) Intern(key []byte) (id int, fresh bool) {
	if i, ok := in.ids[string(key)]; ok {
		return i, false
	}
	i := len(in.ids)
	in.ids[string(key)] = i
	return i, true
}

// Len returns the number of interned keys.
func (in *KeyInterner) Len() int { return len(in.ids) }

// TupleInterner interns int tuples (state vectors of N-way products,
// subset-construction state sets) to dense ids in first-seen order,
// encoding each element as 4 little-endian bytes into a reused scratch
// buffer. All elements must fit in uint32. The zero value is not ready;
// use NewTupleInterner.
type TupleInterner struct {
	keys *KeyInterner
	buf  []byte
}

// NewTupleInterner returns an empty tuple interner.
func NewTupleInterner() *TupleInterner {
	return &TupleInterner{keys: NewKeyInterner()}
}

// Intern32 returns the id of the tuple and whether it was fresh.
func (in *TupleInterner) Intern32(t []int32) (id int, fresh bool) {
	in.buf = in.buf[:0]
	for _, v := range t {
		in.buf = binary.LittleEndian.AppendUint32(in.buf, uint32(v))
	}
	return in.keys.Intern(in.buf)
}

// InternInts is Intern32 for []int tuples.
func (in *TupleInterner) InternInts(t []int) (id int, fresh bool) {
	in.buf = in.buf[:0]
	for _, v := range t {
		in.buf = binary.LittleEndian.AppendUint32(in.buf, uint32(v))
	}
	return in.keys.Intern(in.buf)
}

// Len returns the number of interned tuples.
func (in *TupleInterner) Len() int { return in.keys.Len() }

// Interner interns arbitrary comparable keys (composite product states
// with latch bits, splitter structs) to dense ids in first-seen order.
// Prefer PairInterner where the key is two ints — it is measurably
// faster on hot paths. The zero value is not ready; use NewInterner.
type Interner[K comparable] struct {
	ids  map[K]int
	keys []K
}

// NewInterner returns an empty interner.
func NewInterner[K comparable]() *Interner[K] {
	return &Interner[K]{ids: make(map[K]int)}
}

// Intern returns the id of k, allocating the next id when k is new.
func (in *Interner[K]) Intern(k K) int {
	if i, ok := in.ids[k]; ok {
		return i
	}
	i := len(in.keys)
	in.ids[k] = i
	in.keys = append(in.keys, k)
	return i
}

// Key returns the key of id i.
func (in *Interner[K]) Key(i int) K { return in.keys[i] }

// Len returns the number of interned keys.
func (in *Interner[K]) Len() int { return len(in.keys) }
