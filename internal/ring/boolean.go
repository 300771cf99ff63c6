package ring

// Bool is the Boolean (OR, AND) semiring, carried in int64: 0 is false and
// every other value is true. It is the natural algebra for reachability and
// adjacency products: (A·B)[u][v] = OR_w A[u][w] AND B[w][v]. Carrying it
// in the integers lets a Boolean product run on the 0/1 operands the
// reductions already hold, in the same working set as every other int64
// product; Add and Mul return 0 or 1, and Equal compares truth values.
//
// Bool is a semiring, not a ring: OR has no inverse. Fast (Strassen-like)
// multiplication of Boolean matrices therefore goes through the integer
// ring — see ccmm.MulBoolWith — exactly as in the paper (§3.1, the
// colour-coding products are "computed over the ring Z"). Its transports
// are Int64 (one word per entry) and the bit-packed PackedBit.
type Bool struct{}

var _ Semiring[int64] = Bool{}

// truth returns 1 for true and 0 for false.
func truth(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Zero returns 0 (false).
func (Bool) Zero() int64 { return 0 }

// One returns 1 (true).
func (Bool) One() int64 { return 1 }

// Add returns a OR b as 0 or 1.
func (Bool) Add(a, b int64) int64 { return truth(a != 0 || b != 0) }

// Mul returns a AND b as 0 or 1.
func (Bool) Mul(a, b int64) int64 { return truth(a != 0 && b != 0) }

// Equal reports whether a and b have the same truth value.
func (Bool) Equal(a, b int64) bool { return (a != 0) == (b != 0) }
