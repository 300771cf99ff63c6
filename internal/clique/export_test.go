package clique

import "testing"

// NewDense returns an n-node network already moved to flat link storage
// (one flush with load on every link, then Reset), for tests that compare
// the two storage forms.
func NewDense(t testing.TB, n int, opts ...Option) *Network {
	t.Helper()
	c := New(n, opts...)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			c.SendPayload(src, dst, 1, nil)
		}
	}
	c.Flush()
	c.Reset()
	if c.SparseLinks() {
		t.Fatalf("n=%d: a flush over every link left the network in sparse form", n)
	}
	return c
}

// EachForm runs f as a subtest on an n-node network in each link form.
func EachForm(t *testing.T, n int, f func(t *testing.T, c *Network)) {
	t.Run("dense", func(t *testing.T) { f(t, NewDense(t, n)) })
	t.Run("sparse", func(t *testing.T) { f(t, New(n, WithSparseLinks())) })
}

// CorruptInt64s is the PayloadCorrupter of the tests' *[]int64 payloads.
func CorruptInt64s(p Payload, h uint64) bool {
	sp, ok := p.(*[]int64)
	if !ok {
		return false
	}
	(*sp)[h%uint64(len(*sp))] ^= 1 << ((h >> 32) & 62)
	return true
}
