package ccmm

// PlanCacheLen counts the memoised plans, for the test that the cache
// cannot grow with the number of operations.
func PlanCacheLen() int {
	n := 0
	planCache.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}
